"""Tests for the weighted priority op queue (WPQ)."""

import pytest

from repro.osd import (
    CLIENT_OP,
    RECOVERY_OP,
    STRICT_THRESHOLD,
    SUB_OP,
    WeightedPriorityQueue,
)
from repro.sim import Environment


def drain(env, q, n):
    out = []

    def consumer():
        for _ in range(n):
            item = yield q.dequeue()
            out.append(item)

    p = env.process(consumer())
    env.run(until=p)
    return out


def test_fifo_within_class():
    env = Environment()
    q = WeightedPriorityQueue(env)
    for i in range(5):
        q.enqueue(i, CLIENT_OP)
    assert drain(env, q, 5) == [0, 1, 2, 3, 4]


def test_strict_band_preempts_weighted():
    env = Environment()
    q = WeightedPriorityQueue(env)
    q.enqueue("recovery", RECOVERY_OP)
    q.enqueue("subop", SUB_OP)
    q.enqueue("recovery2", RECOVERY_OP)
    out = drain(env, q, 3)
    assert out[0] == "subop"
    assert set(out[1:]) == {"recovery", "recovery2"}


def test_strict_ordering_among_strict():
    env = Environment()
    q = WeightedPriorityQueue(env)
    q.enqueue("a", SUB_OP)      # 127
    q.enqueue("b", STRICT_THRESHOLD)  # 64
    q.enqueue("c", SUB_OP)
    assert drain(env, q, 3) == ["a", "c", "b"]


def test_client_ops_weighted_over_recovery():
    """Client ops (63) should win the weighted band far more often than
    recovery ops (5) when both are backlogged."""
    env = Environment()
    q = WeightedPriorityQueue(env, seed=7)
    for i in range(200):
        q.enqueue(("client", i), CLIENT_OP)
        q.enqueue(("recovery", i), RECOVERY_OP)
    first_half = drain(env, q, 200)
    client_share = sum(1 for kind, _ in first_half if kind == "client") / 200
    # expected share ≈ 63/68 ≈ 0.93
    assert client_share > 0.8


def test_no_starvation_of_background():
    """Recovery items do eventually get served while clients keep
    arriving — WPQ is weighted, not strict."""
    env = Environment()
    q = WeightedPriorityQueue(env, seed=3)
    for i in range(300):
        q.enqueue(("client", i), CLIENT_OP)
    q.enqueue(("recovery", 0), RECOVERY_OP)
    served = drain(env, q, 150)
    assert ("recovery", 0) in served or len(q) > 0
    # drain the rest; recovery must appear overall
    rest = drain(env, q, len(q))
    assert ("recovery", 0) in served + rest


def test_dequeue_blocks_until_enqueue():
    env = Environment()
    q = WeightedPriorityQueue(env)
    got = []

    def consumer():
        item = yield q.dequeue()
        got.append((env.now, item))

    def producer():
        yield env.timeout(3)
        q.enqueue("late", CLIENT_OP)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(3, "late")]


def test_multiple_waiters_fifo():
    env = Environment()
    q = WeightedPriorityQueue(env)
    got = []

    def consumer(name):
        item = yield q.dequeue()
        got.append((name, item))

    env.process(consumer("first"))
    env.process(consumer("second"))

    def producer():
        yield env.timeout(1)
        q.enqueue("a", CLIENT_OP)
        q.enqueue("b", CLIENT_OP)

    env.process(producer())
    env.run()
    assert got == [("first", "a"), ("second", "b")]


def test_statistics():
    env = Environment()
    q = WeightedPriorityQueue(env)
    q.enqueue(1, CLIENT_OP)
    q.enqueue(2, RECOVERY_OP)
    assert q.enqueued == 2
    assert q.max_depth == 2
    drain(env, q, 2)
    assert q.dequeued == 2
    assert len(q) == 0


def test_negative_priority_rejected():
    env = Environment()
    q = WeightedPriorityQueue(env)
    with pytest.raises(ValueError):
        q.enqueue("x", -1)


def test_deterministic_with_same_seed():
    def run(seed):
        env = Environment()
        q = WeightedPriorityQueue(env, seed=seed)
        for i in range(50):
            q.enqueue(("c", i), CLIENT_OP)
            q.enqueue(("r", i), RECOVERY_OP)
            q.enqueue(("s", i), RECOVERY_OP)
        return drain(env, q, 150)

    assert run(1) == run(1)
    assert run(1) != run(2)  # different seeds interleave differently

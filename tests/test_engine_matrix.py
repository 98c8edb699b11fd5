"""Dispatch matrix: every way of driving the event loop agrees.

There is one engine — the tiered loop (``Environment.run``: two
current-tick FIFOs and a heap) with ``Environment.step`` as its
one-event form — plus a flattened-machine hot path underneath it.  This
module pins the equivalence claims:

* **reference × tiered**: a full scenario replay produces byte-identical
  digests, traced fingerprints and peak pending counts under the tests'
  textbook reference (``helpers.reference_loop``: a single-heap
  environment, one horizon check + one ``step`` per event) and under the
  tiered loop, on seeds 0-2.
* **interleaving**: any hypothesis-drawn interleaving of ``step()`` and
  bounded ``run(until=...)`` calls lands on the same digest as one
  uninterrupted ``run()``.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import run_scenario
from repro.sim import Environment, Interrupt, Resource
from repro.trace import Tracer, simulation_digest

from .helpers import reference_loop
from .test_perf import GOLDEN, GOLDEN_TRACED


@pytest.fixture
def engine(request):
    """Drive one test under the requested dispatch."""
    name = request.param
    with reference_loop() if name == "reference" else contextlib.nullcontext():
        yield name


ENGINES = ["tiered", "reference"]

#: ``env.peak_pending`` per scenario (seed-independent on ``smoke``):
#: pinned at the one-heap kernel's values, equal on every engine.
PEAK_PENDING = {"smoke": 24, "fallback": 30, "qos": 31}


@pytest.mark.parametrize("engine", ENGINES, indirect=True)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_smoke_digest_and_fingerprint_match_across_engines(engine, seed):
    tracer = Tracer(seed=seed)
    env, _ = run_scenario("smoke", seed=seed, tracer=tracer)
    assert simulation_digest(env) == GOLDEN[("smoke", seed)]["digest"]
    assert env._seq == GOLDEN[("smoke", seed)]["events"]
    assert env.peak_pending == PEAK_PENDING["smoke"]
    assert tracer.report().fingerprint() == GOLDEN_TRACED[seed]


@pytest.mark.parametrize("engine", ENGINES, indirect=True)
def test_fallback_faulty_digest_matches_across_engines(engine):
    """The fault path (interrupts, retries, failed events) through every
    dispatch variant — the digest covers the §4 robustness workload."""
    env, _ = run_scenario("fallback", seed=0)
    assert simulation_digest(env) == GOLDEN[("fallback", 0)]["digest"]
    assert env.peak_pending == PEAK_PENDING["fallback"]


@pytest.mark.parametrize("engine", ENGINES, indirect=True)
def test_qos_digest_matches_across_engines(engine):
    env, _ = run_scenario("qos", seed=0)
    assert simulation_digest(env) == GOLDEN[("qos", 0)]["digest"]
    assert env.peak_pending == PEAK_PENDING["qos"]


# ---------------------------------------------------------- interleaving


def _contended_model(env: Environment) -> None:
    """A small workload with urgent kicks, contention, and same-tick
    batches — enough structure that a dispatch-order bug moves the
    digest."""
    res = Resource(env, capacity=2)

    def worker(env, idx):
        for lap in range(3):
            req = res.request()
            yield req
            try:
                yield env.timeout((idx + lap) % 4 * 0.25)
            finally:
                res.finish(req)
            yield env.timeout(0.5)

    def ticker(env):
        try:
            while True:
                yield env.timeout(0.75)
        except Interrupt:
            return

    for i in range(5):
        env.process(worker(env, i), name=f"w{i}")
    tick = env.process(ticker(env), name="tick")

    def stopper(env):
        yield env.timeout(9.0)
        tick.interrupt("done")

    env.process(stopper(env), name="stop")


#: Clock value both sides are advanced to after draining.  A bounded
#: ``run(until=T)`` that outlives the last event legitimately parks the
#: clock at ``T`` — which a single uninterrupted ``run()`` never does —
#: so both drivers finish with ``run(until=_FINAL_HORIZON)`` and the
#: digest comparison pins the event count and the event-time trajectory
#: without tripping over idle-clock placement.
_FINAL_HORIZON = 1000.0


def _digest_single_run() -> str:
    env = Environment()
    _contended_model(env)
    env.run()
    env.run(until=_FINAL_HORIZON)
    return simulation_digest(env)


@given(
    schedule=st.lists(
        st.one_of(
            st.integers(min_value=1, max_value=7),  # N single steps
            st.floats(min_value=0.1, max_value=3.0,  # bounded run
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=30, deadline=None)
def test_interleaved_step_and_run_equal_one_run(schedule):
    want = _digest_single_run()
    env = Environment()
    _contended_model(env)
    for action in schedule:
        if isinstance(action, int):
            for _ in range(action):
                if env.peek() == float("inf"):
                    break
                env.step()
        else:
            env.run(until=env.now + action)
    env.run()
    env.run(until=_FINAL_HORIZON)
    assert simulation_digest(env) == want

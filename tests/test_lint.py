"""Tests for repro.lint: rule fixtures, suppressions, dynamic probe.

Every rule code gets a good/bad snippet pair, and its pre-registered
mutant in ``benchmarks/kill_matrix.py`` must be flagged by it alone;
the engine-level features (suppression comments, path-role exemptions)
and the dynamic tie-order probe get targeted tests of their own.  The
shipped tree itself is checked here too: src/ under every rule (one
lint run per session, shared with the CLI test through the
``shipped_src_report`` fixture), tests/ and benchmarks/ under the
wall-clock and entropy rules.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

from repro.lint import (
    RULES,
    check_tie_order,
    lint_paths,
    lint_source,
    patched_tie_order,
)
from repro.sim import Environment
from repro.trace import simulation_digest


def codes(findings):
    return sorted({f.code for f in findings})


# ------------------------------------------------------------------ DET101


def test_det101_flags_wall_clock_calls():
    src = "import time\n\ndef f():\n    return time.time()\n"
    assert codes(lint_source(src, "repro/util/stats.py")) == ["DET101"]


def test_det101_flags_from_import_of_clock_primitive():
    src = "from time import perf_counter\n"
    assert codes(lint_source(src, "repro/util/stats.py")) == ["DET101"]


def test_det101_resolves_aliases():
    src = "import time as t\n\ndef f():\n    return t.monotonic()\n"
    assert codes(lint_source(src, "repro/util/stats.py")) == ["DET101"]


def test_det101_clean_and_wallclock_module_exempt():
    good = "from repro.util.wallclock import perf_counter\n\nx = perf_counter()\n"
    assert lint_source(good, "repro/util/stats.py") == []
    clock = "import time\n\ndef f():\n    return time.perf_counter()\n"
    assert lint_source(clock, "repro/util/wallclock.py") == []


def test_det101_flags_datetime_now():
    src = "import datetime\n\nstamp = datetime.datetime.now()\n"
    assert codes(lint_source(src, "repro/util/stats.py")) == ["DET101"]


# ------------------------------------------------------------------ DET102


def test_det102_flags_entropy_sources():
    src = "import uuid\nimport os\n\na = uuid.uuid4()\nb = os.urandom(8)\n"
    found = lint_source(src, "repro/util/stats.py", select=["DET102"])
    assert [f.code for f in found] == ["DET102", "DET102"]


def test_det102_clean_on_derived_ids():
    src = "import uuid\n\nn = uuid.UUID(int=7)\n"
    assert lint_source(src, "repro/util/stats.py", select=["DET102"]) == []


# ------------------------------------------------------------------ DET103


def test_det103_flags_global_random_and_unseeded_rng():
    src = "import random\n\nx = random.random()\ny = random.Random()\n"
    found = lint_source(src, "repro/util/stats.py", select=["DET103"])
    assert [f.code for f in found] == ["DET103", "DET103"]


def test_det103_allows_seeded_rng_and_rng_module():
    good = "import random\n\nr = random.Random(42)\n"
    assert lint_source(good, "repro/util/stats.py", select=["DET103"]) == []
    bad = "import random\n\nx = random.random()\n"
    assert lint_source(bad, "repro/util/rng.py", select=["DET103"]) == []


# ------------------------------------------------------------------ DET104


def test_det104_flags_set_iteration_in_for_loop():
    src = (
        "def f(items):\n"
        "    s = set(items)\n"
        "    out = []\n"
        "    for x in s:\n"
        "        out.append(x)\n"
        "    return out\n"
    )
    assert codes(lint_source(src, "repro/util/stats.py")) == ["DET104"]


def test_det104_flags_comprehension_and_union():
    src = (
        "def f(a, b):\n"
        "    return [x for x in set(a) | set(b)]\n"
    )
    assert codes(lint_source(src, "repro/util/stats.py")) == ["DET104"]


def test_det104_sorted_wrapper_is_clean():
    src = (
        "def f(items):\n"
        "    s = set(items)\n"
        "    return [x for x in sorted(s)]\n"
    )
    assert lint_source(src, "repro/util/stats.py") == []


def test_det104_join_over_set():
    src = "def f(a):\n    return ','.join(set(a))\n"
    assert codes(lint_source(src, "repro/util/stats.py")) == ["DET104"]


def test_det104_flags_starred_unpacking_but_not_into_a_set():
    src = (
        "def f(local, sent, other):\n"
        "    backlog = [*(set(local) - sent)]\n"
        "    g(*set(other))\n"
        "    return backlog, {*set(local), *other}\n"
    )
    found = lint_source(src, "repro/util/stats.py")
    assert [f.code for f in found] == ["DET104", "DET104"]
    assert [f.line for f in found] == [2, 3]


def test_det104_ignores_reassigned_names():
    # A name rebound to a list after being a set is not single-assignment
    # setish, so it is (conservatively) not flagged.
    src = (
        "def f(items):\n"
        "    s = set(items)\n"
        "    s = sorted(s)\n"
        "    return [x for x in s]\n"
    )
    assert lint_source(src, "repro/util/stats.py") == []


# ------------------------------------------------------------------ DET106


def test_det106_flags_env_reads_outside_boundary():
    src = "import os\n\na = os.getenv('X')\nb = os.environ['Y']\n"
    found = lint_source(src, "repro/util/stats.py", select=["DET106"])
    assert [f.code for f in found] == ["DET106", "DET106"]


def test_det106_cli_and_config_are_exempt():
    src = "import os\n\na = os.getenv('X')\n"
    assert lint_source(src, "repro/cli.py", select=["DET106"]) == []
    assert lint_source(src, "repro/cluster/config.py", select=["DET106"]) == []


# ------------------------------------------------------------------ SIM201


def test_sim201_flags_blocking_calls_and_imports_in_sim_layers():
    src = "import time\nimport socket\n\ndef f():\n    time.sleep(1)\n"
    found = lint_source(src, "repro/osd/daemon.py", select=["SIM201"])
    # the socket import and the sleep call
    assert [f.code for f in found] == ["SIM201", "SIM201"]


def test_sim201_outside_sim_layers_is_not_checked():
    src = "import time\n\ndef f():\n    time.sleep(1)\n"
    assert lint_source(src, "repro/bench/tool.py", select=["SIM201"]) == []


# ------------------------------------------------------------------ PERF301


def test_perf301_flags_hot_module_class_without_slots():
    src = "class Thing:\n    def __init__(self):\n        self.x = 1\n"
    assert codes(lint_source(src, "repro/hw/dev.py")) == ["PERF301"]


def test_perf301_slots_and_slotted_dataclass_are_clean():
    slotted = "class Thing:\n    __slots__ = ('x',)\n"
    assert lint_source(slotted, "repro/hw/dev.py", select=["PERF301"]) == []
    dc = (
        "from dataclasses import dataclass\n\n"
        "@dataclass(slots=True)\n"
        "class Thing:\n"
        "    x: int = 0\n"
    )
    assert lint_source(dc, "repro/hw/dev.py", select=["PERF301"]) == []


def test_perf301_exemptions():
    exc = "class DevError(Exception):\n    pass\n"
    assert lint_source(exc, "repro/hw/dev.py", select=["PERF301"]) == []
    proto = (
        "from typing import Protocol\n\n"
        "class Reader(Protocol):\n"
        "    def read(self):\n"
        "        ...\n"
    )
    assert lint_source(proto, "repro/hw/dev.py", select=["PERF301"]) == []
    cold = "class Thing:\n    pass\n"
    assert lint_source(cold, "repro/bench/tool.py", select=["PERF301"]) == []


# ------------------------------------------------------------------ PERF303


def test_perf303_flags_closure_and_literals_in_drain_loop():
    src = (
        "def drain(queue):\n"
        "    while queue:\n"
        "        ev = queue.pop()\n"
        "        cb = lambda e: e.fire()\n"
        "        batch = []\n"
        "        tags = {'k': ev}\n"
        "        names = [e.name for e in queue]\n"
    )
    found = lint_source(src, "repro/sim/loop.py", select=["PERF303"])
    assert codes(found) == ["PERF303"]
    assert len(found) == 4  # lambda, list, dict, listcomp


def test_perf303_flags_partial_and_nested_def():
    src = (
        "from functools import partial\n"
        "def drain(queue, fn):\n"
        "    while True:\n"
        "        if not queue:\n"
        "            break\n"
        "        queue.pop().callbacks.append(partial(fn, 1))\n"
        "        def helper():\n"
        "            return 1\n"
    )
    found = lint_source(src, "repro/sim/loop.py", select=["PERF303"])
    assert len(found) == 2


def test_perf303_flags_bound_method_mint_but_not_prebound_slot():
    src = (
        "class Pump:\n"
        "    __slots__ = ('_cb',)\n"
        "    def __init__(self):\n"
        "        self._cb = self.on_event\n"
        "    def on_event(self, ev):\n"
        "        pass\n"
        "    def drain(self, queue):\n"
        "        while queue:\n"
        "            ev = queue.pop()\n"
        "            ev.callbacks.append(self.on_event)\n"  # minted per event
        "            ev.callbacks.append(self._cb)\n"  # prebound: clean
        "            ev.others.append(ev.item)\n"  # data attribute: clean
    )
    found = lint_source(src, "repro/sim/pump.py", select=["PERF303"])
    assert len(found) == 1
    assert "bound method" in found[0].message


def test_perf303_yielding_loops_and_cold_files_are_clean():
    hot_but_waiting = (
        "def pump(env, queue):\n"
        "    while queue:\n"
        "        grant = [queue.pop()]\n"  # allocates, but loop waits in
        "        yield env.timeout(1.0)\n"  # sim time: one lap per grant
    )
    assert lint_source(hot_but_waiting, "repro/sim/loop.py", select=["PERF303"]) == []
    cold = (
        "def report(rows):\n"
        "    while rows:\n"
        "        print([rows.pop()])\n"
    )
    assert lint_source(cold, "repro/bench/report.py", select=["PERF303"]) == []


def test_perf303_snapshot_call_and_compare_tests_are_clean():
    src = (
        "def drain(queue, waiters):\n"
        "    while queue:\n"
        "        queue.pop().fire(list(waiters))\n"  # snapshot call: fine
        "    i = 0\n"
        "    while i < len(queue):\n"  # bounded scan, not a drain loop
        "        batch = [queue[i]]\n"
        "        i += 1\n"
    )
    assert lint_source(src, "repro/sim/loop.py", select=["PERF303"]) == []


# ------------------------------------------------------------- suppressions


def test_line_suppression_silences_one_line():
    src = (
        "import time\n\n"
        "a = time.time()  # repro-lint: disable=DET101\n"
        "b = time.time()\n"
    )
    found = lint_source(src, "repro/util/stats.py")
    assert len(found) == 1 and found[0].line == 4


def test_file_suppression_silences_whole_file():
    src = (
        "# repro-lint: disable-file=DET101 — test justification\n"
        "import time\n\n"
        "a = time.time()\nb = time.time()\n"
    )
    assert lint_source(src, "repro/util/stats.py") == []


def test_suppression_is_code_specific():
    src = (
        "import time\n\n"
        "a = time.time()  # repro-lint: disable=DET106\n"
    )
    assert codes(lint_source(src, "repro/util/stats.py")) == ["DET101"]


# --------------------------------------------------------- shipped tree


ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The rules tier-1 runs over tests/ and benchmarks/ (the test below).
_TESTS_SURFACE = ["DET101", "DET102", "DET103"]


def test_shipped_tree_is_clean(shipped_src_report):
    """Acceptance: the shipped src/ tree has zero findings."""
    assert shipped_src_report.findings == [], shipped_src_report.render()


def test_tests_and_benchmarks_read_no_wall_clock_or_entropy():
    """DET101-103 over tests/ and benchmarks/: a wall-clock read, ambient
    entropy or the global ``random`` stream in a test helper or a
    harness would skew the digests they pin."""
    report = lint_paths([ROOT / "tests", ROOT / "benchmarks"],
                        select=_TESTS_SURFACE)
    assert report.findings == [], report.render()


def _kill_matrix():
    path = ROOT / "benchmarks" / "kill_matrix.py"
    spec = importlib.util.spec_from_file_location("kill_matrix", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_rule_has_a_registered_mutant_only_it_flags():
    """A rule stays only while its mutant gets past every other gate
    (``benchmarks/results/BENCH_kill_matrix.json``), so each mutant is
    also its rule's test: its anchors still occur exactly once in the
    tree, and the edited file, linted under its own path and surface,
    is flagged by that rule and by no other."""
    rows = [m for m in _kill_matrix().MUTANTS if m.rule in RULES]
    assert sorted({m.rule for m in rows}) == sorted(RULES)
    for mutant in rows:
        text = (ROOT / mutant.path).read_text(encoding="utf-8")
        for old, new in mutant.edits:
            assert text.count(old) == 1, (mutant.name, old)
            text = text.replace(old, new)
        on_src = mutant.path.startswith("src/")
        found = lint_source(text, mutant.path.removeprefix("src/"),
                            select=None if on_src else _TESTS_SURFACE)
        assert codes(found) == [mutant.rule], (mutant.name, found)


def test_every_kill_matrix_mutant_still_applies():
    """Every row of ``benchmarks/kill_matrix.py``, not only the lint
    rules' rows, names edits whose anchors each occur exactly once in
    the file they edit, applied in order: a refactor that moves an
    anchor must move the row with it."""
    for mutant in _kill_matrix().MUTANTS:
        text = (ROOT / mutant.path).read_text(encoding="utf-8")
        for old, new in mutant.edits:
            assert text.count(old) == 1, (mutant.name, old)
            text = text.replace(old, new)


# ------------------------------------------------------------ dynamic probe


def _run_order_sensitive() -> Environment:
    """Toy scenario whose behavior leans on same-timestamp tie order.

    Both processes initialize at t=0 with equal priority; whichever runs
    first decides whether ``b`` schedules an extra timeout, so the event
    count (and therefore the digest) depends on the tie-break.
    """
    env = Environment()
    state = {"flag": False}

    def a(env):
        state["flag"] = True
        yield env.timeout(1)

    def b(env):
        if state["flag"]:
            yield env.timeout(1)
        yield env.timeout(1)

    env.process(a(env), name="racer-a")
    env.process(b(env), name="racer-b")
    env.run()
    return env


def _run_order_independent() -> Environment:
    """Single process chain: no same-timestamp ties exist at all."""
    env = Environment()

    def solo(env):
        for _ in range(5):
            yield env.timeout(1)

    env.process(solo(env), name="solo")
    env.run()
    return env


def test_dynamic_detects_order_sensitive_scenario():
    report = check_tie_order(
        "toy", seed=0, runner=lambda name, seed: _run_order_sensitive()
    )
    assert report.instrumentation_ok, "FIFO drain must match the native loop"
    assert report.order_sensitive
    assert report.ties_seen >= 1
    # the offending site names the racing processes
    rendered = "\n".join(site.render() for site in report.tie_sites)
    assert "racer-a" in rendered and "racer-b" in rendered


def test_dynamic_passes_order_independent_scenario():
    report = check_tie_order(
        "toy", seed=0, runner=lambda name, seed: _run_order_independent()
    )
    assert report.instrumentation_ok
    assert not report.order_sensitive
    assert report.tie_sites == []


def test_fifo_drain_is_digest_neutral_with_until_events():
    """The instrumented loop must reproduce native semantics for the
    repeated ``run(until=process)`` pattern the benches use."""

    def scenario() -> Environment:
        env = Environment()

        def worker(env, delay):
            yield env.timeout(delay)
            yield env.timeout(delay)

        procs = [
            env.process(worker(env, d), name=f"w{d}") for d in (1, 1, 2)
        ]
        for p in procs:
            env.run(until=p)
        env.run()
        return env

    native = simulation_digest(scenario())
    with patched_tie_order("fifo"):
        drained = simulation_digest(scenario())
    assert native == drained


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scenario", ["smoke", "fallback", "qos"])
def test_fifo_drain_equals_native_digest_on_scenarios(scenario, seed):
    """Feeding every tie class back through ``step()`` in FIFO order is
    the native order: the probe's instrumentation perturbs nothing."""
    from repro.perf import run_scenario

    native, _ = run_scenario(scenario, seed=seed)
    with patched_tie_order("fifo"):
        drained, _ = run_scenario(scenario, seed=seed)
    assert simulation_digest(drained) == simulation_digest(native)
    assert drained.peak_pending == native.peak_pending


def test_lifo_drain_digest_is_pinned():
    """The LIFO drain reverses every tie class, so an event that lands
    in another class — say a far entry still waiting outside the hot
    heap when its instant is drained — moves this digest even where the
    native order is unchanged.  Pinned on ``smoke`` seed 0; the native
    digest is ``tests/test_perf.py``'s golden."""
    from repro.perf import run_scenario

    batches = [0]

    def count(time, events):
        batches[0] += 1

    with patched_tie_order("lifo", recorder=count):
        env, _ = run_scenario("smoke", seed=0)
    assert simulation_digest(env) == (
        "2dc2726428a3c610eaf0b83ae3a5c42ae42ae2a3294399c9f9862c9557c4a588"
    )
    assert batches[0] == 14468


def test_probe_leaves_a_stopped_batch_where_the_next_run_finds_it():
    """``run(until=ev)`` returns from the middle of a tie batch; the
    rest of it goes back under its own key: behind an urgent event
    scheduled between the runs, ahead of a normal one."""

    def scenario(log) -> Environment:
        env = Environment()
        first, second = env.timeout(1, "first"), env.timeout(1, "second")
        second.callbacks.append(lambda ev: log.append("second"))
        assert env.run(until=first) == "first"

        def spawned(env):
            log.append("spawned")
            yield env.timeout(0)

        env.event().succeed().callbacks.append(lambda ev: log.append("later"))
        env.process(spawned(env))
        env.run()
        return env

    native_log, fifo_log = [], []
    native = simulation_digest(scenario(native_log))
    with patched_tie_order("fifo"):
        assert simulation_digest(scenario(fifo_log)) == native
    assert native_log == fifo_log == ["spawned", "second", "later"]


def test_patched_tie_order_restores_run_after_an_exception():
    native = Environment.run
    with pytest.raises(RuntimeError):
        with patched_tie_order("lifo"):
            assert Environment.run is not native

            def boom(env):
                yield env.timeout(1)
                raise RuntimeError("model bug")

            env = Environment()
            env.timeout(1)  # same tick as the failure: a batch of two
            env.process(boom(env))
            env.run()
    assert Environment.run is native
    assert env.now == 1 and env.peek() == float("inf")
    with pytest.raises(ValueError):
        with patched_tie_order("sideways"):
            pass
    assert Environment.run is native


def test_perf303_covers_machine_callback_bodies():
    src = (
        "from ..sim.machine import Machine\n"
        "\n"
        "class Pump(Machine):\n"
        "    def _s_go(self, event):\n"
        "        self.items = [1, 2]\n"
        "\n"
        "    def fine(self, event):\n"
        "        self.count = 0\n"
    )
    found = lint_source(src, "repro/hw/custom.py", select=["PERF303"])
    assert codes(found) == ["PERF303"]
    assert "Pump._s_go" in found[0].message

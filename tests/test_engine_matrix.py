"""Cross-engine digest matrix: every way of driving the event loop agrees.

There are three ways to dispatch the same events — the tiered
pure-Python loop (``Environment.run``: two current-tick FIFOs and a
heap), its one-event form (``Environment.step``), and the optional
compiled kernel (``repro.sim._ckernel``) — plus a flattened-machine hot
path underneath all of them.  This module pins the equivalence claims:

* **reference × tiered × compiled**: a full scenario replay produces
  byte-identical digests, traced fingerprints and peak pending counts
  under the textbook reference (a single-heap environment, one horizon
  check + one ``step`` per event), the tiered loop, and the compiled
  kernel (single-heap too), on seeds 0-2.
* **interleaving**: any hypothesis-drawn interleaving of ``step()`` and
  bounded ``run(until=...)`` calls lands on the same digest as one
  uninterrupted ``run()``.

The compiled-kernel cases build the extension on first use and skip
(rather than fail) on boxes with no C compiler — the pure engine is the
behavioral reference and is always exercised.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import run_scenario
from repro.sim import Environment, Interrupt, Resource
from repro.sim import compiled as sim_compiled
from repro.trace import Tracer, simulation_digest

from .helpers import installed_loop, stepping_run
from .test_perf import GOLDEN, GOLDEN_TRACED


def _compiled_available() -> bool:
    """Build (if needed) and load the C kernel; False when impossible."""
    try:
        from repro.engine_build import build

        build(quiet=True)
    except Exception:
        return False
    return sim_compiled.load()


@pytest.fixture
def engine(request):
    """Patch Environment.run to the requested dispatch for one test."""
    name = request.param
    if name == "tiered":
        # explicit, so the row stays tiered under REPRO_ENGINE=compiled
        with installed_loop(Environment._run_pure, single_heap=False):
            yield name
        return
    if name == "reference":
        with installed_loop(stepping_run(), single_heap=True):
            yield name
        return
    assert name == "compiled"
    if not _compiled_available():
        pytest.skip("no C compiler / extension unavailable")
    assert sim_compiled.activate()
    try:
        yield name
    finally:
        sim_compiled.deactivate()


ENGINES = ["tiered", "reference", "compiled"]

#: ``env.peak_pending`` per scenario (seed-independent on ``smoke``):
#: pinned at the one-heap kernel's values, equal on every engine.
PEAK_PENDING = {"smoke": 737, "fallback": 296, "qos": 1832}


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


# ------------------------------------------------------------- engine CLI


def _bench_doc(tmp_path, **overrides):
    """A minimal BENCH_perf_engine.json with one smoke/seed-0 row."""
    row = {
        "scenario": "smoke",
        "seed": 0,
        "digest": GOLDEN[("smoke", 0)]["digest"],
        "pure_events_per_sec": 1.0,  # floor trivially met
    }
    row.update(overrides)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"runs_compiled": [row]}))
    return path


def test_cli_engine_build_then_check_passes(capsys, tmp_path):
    from repro.cli import main

    if not _compiled_available():
        pytest.skip("no C compiler / extension unavailable")
    assert main(["engine", "build"]) == 0
    bench = _bench_doc(tmp_path)
    code = main(["engine", "check", "--scenario", "smoke",
                 "--repeats", "1", "--bench", str(bench)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "digests byte-identical" in out
    assert GOLDEN[("smoke", 0)]["digest"] in out


def test_cli_engine_check_committed_digest_mismatch_exits_3(capsys, tmp_path):
    from repro.cli import main

    if not _compiled_available():
        pytest.skip("no C compiler / extension unavailable")
    bench = _bench_doc(tmp_path, digest="not-the-digest")
    code = main(["engine", "check", "--scenario", "smoke",
                 "--repeats", "1", "--bench", str(bench)])
    assert code == 3
    assert "MISMATCH" in capsys.readouterr().out


def test_cli_engine_check_throughput_regression_exits_4(capsys, tmp_path):
    from repro.cli import main

    if not _compiled_available():
        pytest.skip("no C compiler / extension unavailable")
    # an impossibly fast committed figure forces the floor above any
    # real measurement
    bench = _bench_doc(tmp_path, pure_events_per_sec=1e15)
    code = main(["engine", "check", "--scenario", "smoke",
                 "--repeats", "1", "--bench", str(bench)])
    assert code == 4
    assert "REGRESSION" in capsys.readouterr().out


def test_cli_engine_clean_then_rebuild(capsys):
    from repro.cli import main
    from repro.engine_build import artifact_path, find_compiler

    if find_compiler() is None:
        pytest.skip("no C compiler")
    assert main(["engine", "clean"]) == 0
    assert not artifact_path().exists()
    assert main(["engine", "build"]) == 0
    assert artifact_path().exists()
    out = capsys.readouterr().out
    assert "built" in out


def test_interleaved_step_with_compiled_run_equals_one_run():
    """step() stays pure Python even when run() is compiled; mixing them
    mid-simulation must still land on the reference digest."""
    if not _compiled_available():
        pytest.skip("no C compiler / extension unavailable")
    want = _digest_single_run()  # pure, uninterrupted
    assert sim_compiled.activate()
    try:
        env = Environment()
        _contended_model(env)
        for _ in range(50):
            if env.peek() == float("inf"):
                break
            env.step()
        env.run(until=env.now + 1.5)
        for _ in range(75):
            if env.peek() == float("inf"):
                break
            env.step()
        env.run()
        env.run(until=_FINAL_HORIZON)
    finally:
        sim_compiled.deactivate()
    assert simulation_digest(env) == want

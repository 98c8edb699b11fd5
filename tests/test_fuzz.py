"""repro.fuzz tests: generator determinism, coverage monotonicity,
shrinker minimality on a seeded violation fixture, corpus round-trip,
and the committed regression corpus replaying clean.

The loop-level tests inject a synthetic executor (``ExecuteFn``) so the
search/shrink machinery is exercised without paying for real chaos
runs; the corpus test runs the real executor once per committed entry.
"""

import pathlib
from dataclasses import dataclass

import pytest

from repro.faults import FaultSpec
from repro.fuzz import (
    SOAK_STATE_VERSION,
    CoverageMap,
    Fuzzer,
    Scenario,
    ScenarioGenerator,
    execute_scenario,
    load_soak_state,
    run_soak,
    scenario_from_text,
    scenario_to_text,
    shrink,
    violation_signature,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"


# ------------------------------------------------------------- generator


def test_generator_determinism():
    """Same seed → identical scenario sequence; different seed diverges."""
    g1, g2 = ScenarioGenerator(7), ScenarioGenerator(7)
    seq1 = [g1.random_scenario() for _ in range(40)]
    seq2 = [g2.random_scenario() for _ in range(40)]
    assert seq1 == seq2
    g3 = ScenarioGenerator(8)
    assert [g3.random_scenario() for _ in range(40)] != seq1


def test_mutation_determinism_and_directedness():
    """Mutation replays bit-identically, and with an empty coverage map
    it (eventually) aims at uncovered target keys."""
    parent = Scenario(mode="baseline", clients=1)
    cov = CoverageMap()
    g1, g2 = ScenarioGenerator(3), ScenarioGenerator(3)
    m1 = [g1.mutate(parent, cov) for _ in range(30)]
    m2 = [g2.mutate(parent, cov) for _ in range(30)]
    assert m1 == m2
    # at least one directed mutation added a fault spec or an incident
    assert any(m.specs != parent.specs or m.incidents > parent.incidents
               or m.mode != parent.mode for m in m1)


# -------------------------------------------------------------- coverage


def test_coverage_monotonic_and_rarity():
    cm = CoverageMap()
    assert cm.add(["b", "a", "a"]) == ["a", "b"]  # sorted, deduped
    assert len(cm) == 2
    assert cm.add(["a"]) == []  # nothing new, size never shrinks
    assert len(cm) == 2
    assert cm.add(["c"]) == ["c"]
    assert len(cm) == 3
    # "a" hit twice, "c" once: rarer keys weigh more
    assert cm.rarity(["c"]) > cm.rarity(["a"])
    assert cm.rarity(["missing"]) == 0.0


# ------------------------------------------------------------- round-trip


def test_scenario_text_roundtrip():
    scenarios = [
        Scenario(),
        Scenario(
            mode="doceph", clients=2, object_size=1 << 19, duration=1.5,
            think_time=0.05, crashes=2, partitions=1, chaos_seed=17,
            fault_seed=3,
            specs=(
                FaultSpec(layer="rpc", kind="reply_loss",
                          probability=0.2, burst=2),
                FaultSpec(layer="net", kind="partition",
                          window=(1.0, 3.0), nodes=("node1",)),
            ),
        ),
    ]
    for scenario in scenarios:
        text = scenario_to_text(
            scenario, comments=["violation signature: missing"]
        )
        assert scenario_from_text(text) == scenario


def test_scenario_text_rejects_garbage():
    with pytest.raises(ValueError):
        scenario_from_text("mode=baseline\nbogus_field=1\n")
    with pytest.raises(ValueError):
        scenario_from_text("this is not a scenario\n")
    with pytest.raises(ValueError):
        scenario_from_text("mode=warp9\n")


# ------------------------------------------------- synthetic executor SUT


@dataclass(frozen=True)
class _FakeOutcome:
    scenario: Scenario
    violations: tuple
    coverage: frozenset
    fingerprint: str
    aborted: str = ""
    writes_acked: int = 10
    writes_failed: int = 0


def _seeded_bug_executor(scenario: Scenario) -> _FakeOutcome:
    """A deliberately buggy system under test: any scenario combining a
    net-layer fault with at least one crash 'loses' an acked write.
    Everything else about the outcome is a pure function of the
    scenario, like the real executor."""
    coverage = {f"mode.{scenario.mode}"}
    coverage.update(
        f"fault.{spec.layer}.{spec.kind}" for spec in scenario.specs
    )
    if scenario.crashes:
        coverage.add("chaos.crash")
    if scenario.partitions:
        coverage.add("chaos.partition")
    violations = ()
    if scenario.crashes >= 1 and any(
        spec.layer == "net" for spec in scenario.specs
    ):
        violations = ("obj-3: acked write missing (stat result -2)",)
    return _FakeOutcome(
        scenario=scenario,
        violations=violations,
        coverage=frozenset(coverage),
        fingerprint="fake" if not violations else "fake-viol",
    )


def test_shrinker_minimality_on_seeded_fixture():
    """The shrinker reduces a fat failing scenario to the 1-minimal
    core: exactly the net spec + one crash at minimum workload shape."""
    fat = Scenario(
        mode="doceph", clients=2, object_size=1 << 20, duration=2.0,
        think_time=0.1, crashes=2, partitions=1, chaos_seed=99,
        fault_seed=42,
        specs=(
            FaultSpec(layer="rpc", kind="reply_loss", probability=0.3),
            FaultSpec(layer="net", kind="degrade", window=(1.0, 2.0),
                      factor=4.0),
            FaultSpec(layer="dma", kind="error", probability=0.1),
        ),
    )
    signature = violation_signature(_seeded_bug_executor(fat).violations)
    assert signature == "missing"

    executions = 0

    def still_fails(candidate: Scenario) -> bool:
        nonlocal executions
        executions += 1
        outcome = _seeded_bug_executor(candidate)
        return violation_signature(outcome.violations) == signature

    result = shrink(fat, still_fails)
    minimal = result.scenario
    # 1-minimal: the failing core survives, everything deletable is gone
    assert [spec.layer for spec in minimal.specs] == ["net"]
    assert minimal.crashes == 1
    assert minimal.partitions == 0
    assert minimal.clients == 1
    assert minimal.object_size == 1 << 16
    assert minimal.duration == 0.5
    assert result.executions == executions
    assert not result.budget_exhausted
    # the minimal scenario still reproduces, and every single further
    # deletion breaks reproduction
    assert still_fails(minimal)
    assert not still_fails(minimal.with_(specs=()))
    assert not still_fails(minimal.with_(crashes=0))


def test_fuzzer_finds_shrinks_and_writes_corpus(tmp_path):
    """End-to-end loop against the buggy SUT: the violation is found,
    shrunk, serialized to the corpus, and a second session replays the
    corpus entry first and reports the regression."""
    fuzzer = Fuzzer(
        seed=5, corpus_dir=tmp_path, execute=_seeded_bug_executor
    )
    report = fuzzer.run(iterations=60)
    assert not report.passed
    assert report.violations
    record = report.violations[0]
    assert record.signature == "missing"
    minimal = scenario_from_text(record.scenario_text)
    assert [spec.layer for spec in minimal.specs] == ["net"]
    assert minimal.crashes == 1 and minimal.partitions == 0
    plans = sorted(tmp_path.glob("*.plan"))
    assert len(plans) == 1
    assert scenario_from_text(plans[0].read_text()) == minimal
    # coverage strictly grew at least once and never shrank
    sizes = [size for _i, size in report.progression]
    assert sizes == sorted(sizes)
    assert sizes[-1] > 0

    # same seed, same corpus, same executor → identical session.  Each
    # run may write new entries back, so give both sessions their own
    # copy of the same corpus snapshot.
    snap_a, snap_b = tmp_path / "snap_a", tmp_path / "snap_b"
    for snap in (snap_a, snap_b):
        snap.mkdir()
        for plan in plans:
            (snap / plan.name).write_text(plan.read_text())
    again = Fuzzer(
        seed=5, corpus_dir=snap_a, execute=_seeded_bug_executor
    ).run(iterations=60)
    third = Fuzzer(
        seed=5, corpus_dir=snap_b, execute=_seeded_bug_executor
    ).run(iterations=60)
    assert again.fingerprint() == third.fingerprint()
    # the corpus entry still violates under the buggy SUT → regression
    assert again.corpus_failures
    assert again.corpus_failures[0].signature == "missing"
    assert not again.passed


def test_fuzz_report_fingerprint_excludes_wallclock():
    fuzzer = Fuzzer(seed=1, execute=_seeded_bug_executor)
    report = fuzzer.run(iterations=10)
    fp = report.fingerprint()
    report.wall_s = 123.456
    assert report.fingerprint() == fp


# ------------------------------------------------------------ soak sessions


def test_soak_checkpoint_accumulates_across_invocations(tmp_path):
    """Two consecutive soak invocations share one checkpoint: session
    seeds advance, coverage / queue / shrunk signatures persist, and
    the totals accumulate."""
    state = tmp_path / "soak.json"
    corpus = tmp_path / "corpus"
    first = run_soak(base_seed=5, time_budget=60.0, state_path=state,
                     iterations=60, execute=_seeded_bug_executor,
                     corpus_dir=corpus)
    assert (first.session_index, first.session_seed) == (0, 5)
    assert first.total_sessions == 1
    assert first.new_keys > 0
    assert not first.passed  # the seeded bug was found and shrunk
    data = load_soak_state(state)
    assert data["version"] == SOAK_STATE_VERSION
    assert data["sessions"] == 1
    assert "missing" in data["seen_signatures"]
    assert sorted(corpus.glob("*.plan"))

    second = run_soak(base_seed=5, time_budget=60.0, state_path=state,
                      iterations=60, execute=_seeded_bug_executor,
                      corpus_dir=corpus)
    assert (second.session_index, second.session_seed) == (1, 6)
    assert second.total_sessions == 2
    assert second.total_iterations == (
        first.report.iterations_run + second.report.iterations_run
    )
    data2 = load_soak_state(state)
    assert data2["sessions"] == 2
    # coverage keys only accumulate; the shrunk signature is remembered
    assert set(data["coverage"]) <= set(data2["coverage"])
    assert "missing" in data2["seen_signatures"]
    assert len(data2["queue"]) <= 64
    for text, keys in data2["queue"]:
        scenario_from_text(text)  # every persisted parent replays
        assert keys == sorted(keys)
    assert [h["session"] for h in data2["history"]] == [0, 1]
    assert all(h["fingerprint"] for h in data2["history"])


def test_soak_state_ignored_for_different_base_seed(tmp_path):
    state = tmp_path / "soak.json"
    run_soak(base_seed=5, time_budget=60.0, state_path=state,
             iterations=10, execute=_seeded_bug_executor)
    lines = []
    fresh = run_soak(base_seed=11, time_budget=60.0, state_path=state,
                     iterations=10, execute=_seeded_bug_executor,
                     log=lines.append)
    assert (fresh.session_index, fresh.session_seed) == (0, 11)
    assert fresh.total_sessions == 1
    assert any("starting fresh" in line for line in lines)
    assert load_soak_state(state)["base_seed"] == 11


def test_soak_session_replays_bit_identically(tmp_path):
    """Resuming twice from copies of the same checkpoint produces the
    same session fingerprint (wall-clock never leaks in)."""
    seed_state = tmp_path / "soak.json"
    run_soak(base_seed=5, time_budget=60.0, state_path=seed_state,
             iterations=40, execute=_seeded_bug_executor)
    twins = []
    for name in ("a", "b"):
        twin = tmp_path / f"{name}.json"
        twin.write_text(seed_state.read_text())
        twins.append(run_soak(
            base_seed=5, time_budget=60.0, state_path=twin,
            iterations=40, execute=_seeded_bug_executor,
        ))
    assert twins[0].report.fingerprint() == twins[1].report.fingerprint()
    assert twins[0].session_seed == twins[1].session_seed


# ------------------------------------------------------- real regressions


def test_committed_corpus_replays_clean():
    """Every committed regression plan — each reproduced a durability
    violation before its fix — must replay clean against the current
    simulator."""
    plans = sorted(CORPUS.glob("*.plan"))
    assert plans, f"no corpus entries under {CORPUS}"
    for path in plans:
        scenario = scenario_from_text(path.read_text())
        outcome = execute_scenario(scenario)
        assert outcome.aborted == "", f"{path.name}: {outcome.aborted}"
        assert outcome.violations == (), (
            f"{path.name} regressed: {outcome.violations}"
        )


def test_wire_corpus_plans_exercise_wire_coverage():
    """The committed ``wire-*`` demonstration plans must keep producing
    the adversary-recovery coverage keys they were committed for — a
    plan that stops hitting its wire path has silently gone stale."""
    expectations = {
        "wire-corruption-recovered": {"wire.crc_rejected",
                                      "wire.retransmit"},
        "wire-dup-suppression": {"wire.dup_suppressed", "wire.gap"},
    }
    plans = sorted(CORPUS.glob("wire-*.plan"))
    assert len(plans) >= 2, "wire demonstration plans missing"
    for path in plans:
        prefix = path.name.rsplit("-", 1)[0]
        expected = expectations[prefix]
        outcome = execute_scenario(scenario_from_text(path.read_text()))
        assert outcome.ok, f"{path.name}: {outcome.violations}"
        missing = expected - outcome.coverage
        assert not missing, f"{path.name} lost coverage: {sorted(missing)}"


def test_corruption_corpus_plan_caught_by_oracle_without_crc():
    """Defense proof at the fuzz level: replaying the corruption plan
    with frame verification disabled delivers the swapped payloads, and
    the durability oracle — not the messenger — reports them."""
    from repro.msgr import AsyncMessenger

    path = next(iter(sorted(CORPUS.glob("wire-corruption-recovered-*"))))
    scenario = scenario_from_text(path.read_text())
    try:
        AsyncMessenger.verify_frames = False
        outcome = execute_scenario(scenario)
    finally:
        AsyncMessenger.verify_frames = True
    assert outcome.aborted == ""
    assert outcome.violations
    assert violation_signature(outcome.violations) == "identity"
    assert "wire.crc_rejected" not in outcome.coverage


def test_proxy_store_error_is_recorded_as_an_abort():
    """A DoCeph proxy whose RPC retries run out while the cluster boots
    raises ``StoreError``: the executor records it like a storage or a
    RADOS abort instead of letting it end the session."""
    scenario = scenario_from_text("\n".join((
        "mode=doceph clients=2 size=1048576 duration=1 think=0.1"
        " crashes=2 partitions=0 chaos_seed=218 fault_seed=3283"
        " faults=rpc,p=0.357,burst=3;dma,p=0.195"
    ).split(" ")))
    outcome = execute_scenario(scenario)
    assert outcome.aborted.startswith("store: "), outcome.aborted
    assert "no reply" in outcome.aborted
    assert outcome.violations == () and outcome.fingerprint == ""
    assert "abort.store" in outcome.coverage


def test_a_harness_crash_is_a_finding_shrunk_into_a_plan(tmp_path,
                                                          monkeypatch):
    """An exception other than the recorded aborts, raised anywhere in a
    run, is the violation ``crash.<ExceptionType>``: the fuzzer shrinks
    it into a corpus plan instead of the session ending."""
    from repro.osd.daemon import OsdDaemon

    original = OsdDaemon._handle_client_write

    def seeded(self, msg, thread):
        if self.incarnation:  # a restarted daemon's write handler
            raise IndexError("seeded")
        return (yield from original(self, msg, thread))

    monkeypatch.setattr(OsdDaemon, "_handle_client_write", seeded)
    fat = scenario_from_text("\n".join((
        "mode=doceph clients=2 size=131072 duration=1 think=0.1"
        " crashes=1 partitions=1 chaos_seed=3 fault_seed=5"
        " faults=rpc:delay,p=0.1,delay=0.01"
    ).split(" ")))
    outcome = execute_scenario(fat)
    (violation,) = outcome.violations
    assert violation.startswith("crash.IndexError: seeded (raised in seeded,")
    assert outcome.aborted == ""
    signature = violation_signature(outcome.violations)
    assert signature == "crash.IndexError"

    fuzzer = Fuzzer(seed=0, corpus_dir=tmp_path)
    record = fuzzer._shrink_violation(fat, signature, iteration=0)
    minimal = scenario_from_text(record.scenario_text)
    assert minimal.crashes == 1  # the one part of the plan it needs
    assert (minimal.partitions, minimal.specs, minimal.clients) == (0, (), 1)
    (plan,) = tmp_path.glob("*.plan")
    assert plan.name.startswith("crash-crash.IndexError-")
    assert scenario_from_text(plan.read_text()) == minimal

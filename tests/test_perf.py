"""Tests for repro.perf: golden-digest behavior invariance, the replay
report, the inert detached fault plan, and the blob-id
fresh-environment reset.

The golden digests below were captured on the unoptimized engine
(before the hot-path rework); every kernel or model optimization must
reproduce them byte-for-byte.  If a digest test fails, the engine's
*behavior* changed — event count, ordering, or timestamps — and the
change must be reverted or re-derived, never "re-goldened" as part of
a performance PR.
"""

import pytest

from repro.faults import FaultPlan
from repro.perf import SCENARIOS, run_scenario
from repro.sim import Environment
from repro.trace import Tracer, simulation_digest
from repro.util.bufferlist import DataBlob

# (scenario, seed) -> captured on the pre-optimization engine.
GOLDEN = {
    ("smoke", 0): {
        "digest": "e2ef72a6badf5c73ebdfb994c2ce1e56502d36587e1393cdb6e0f6812dba5fec",
        "events": 119403, "sim_s": 3.017881747, "completed_ops": 238,
    },
    ("smoke", 1): {
        "digest": "e2ef72a6badf5c73ebdfb994c2ce1e56502d36587e1393cdb6e0f6812dba5fec",
        "events": 119403, "sim_s": 3.017881747, "completed_ops": 238,
    },
    ("smoke", 2): {
        "digest": "e2ef72a6badf5c73ebdfb994c2ce1e56502d36587e1393cdb6e0f6812dba5fec",
        "events": 119403, "sim_s": 3.017881747, "completed_ops": 238,
    },
    ("fallback", 0): {
        "digest": "c560aca9574bb8a335c21856890e7dc6aae3288ca248d0d216a055dfa25b2592",
        "events": 281328, "sim_s": 5.055724046, "completed_ops": 348,
    },
    ("fallback", 1): {
        "digest": "db72cd5c6f339fba27de5863715f252928137db4332801de2cf1db8a0610fcd3",
        "events": 282814, "sim_s": 5.070320017, "completed_ops": 350,
    },
    ("fallback", 2): {
        "digest": "cc3710b8be4288877a3d3081ab11e7ccebb54843d4dabf6b4b7de78576fd7d21",
        "events": 284211, "sim_s": 5.060342479, "completed_ops": 354,
    },
    ("baseline", 0): {
        "digest": "ddf6e2715324c0b3859a751909ab8e53aba9b5b8941d57fae43e703d654c29c3",
        "events": 244984, "sim_s": 5.058659605, "completed_ops": 471,
    },
    ("doceph", 0): {
        "digest": "baa744a014860e3ff1abc1adb598f1051f7876cd9b7973642115e10149d6d0e3",
        "events": 271215, "sim_s": 5.071834561, "completed_ops": 417,
    },
    ("qos", 0): {
        "digest": "378bba53e1dd16ffdd7e66660e745a87408b9329d50dd0d016668649e82becbb",
        "events": 256000, "sim_s": 3.725188211, "completed_ops": 834,
    },
}

# smoke scenario with Tracer(seed=seed) attached; fingerprints cover
# the full span tree, so the tracer's zero-perturbation guarantee and
# the span structure are both pinned.
GOLDEN_TRACED = {
    0: "a70e5fd5c693a89f56af9e5cdbf69fe1f831f7d655e4fb13c28fa84e5c9efa7e",
    1: "d2d84c87d641ab926504dadd44cd5fb7880533fac4b1d39808597aa9d405532c",
    2: "ad4e3e350106dd09fda5e8a87b7b460330d61b13fb0dcd6d2ffd7b83d667ef24",
}


# ------------------------------------------------------------- golden digests

@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN))
def test_golden_digest(scenario, seed):
    env, result = run_scenario(scenario, seed=seed)
    want = GOLDEN[(scenario, seed)]
    assert simulation_digest(env) == want["digest"]
    assert env._seq == want["events"]
    assert round(env.now, 9) == want["sim_s"]
    assert result.completed_ops == want["completed_ops"]


@pytest.mark.parametrize("seed", sorted(GOLDEN_TRACED))
def test_golden_traced_fingerprint(seed):
    tracer = Tracer(seed=seed)
    env, _ = run_scenario("smoke", seed=seed, tracer=tracer)
    # attaching the tracer must not perturb the simulation...
    assert simulation_digest(env) == GOLDEN[("smoke", seed)]["digest"]
    # ...and the span tree itself is deterministic per tracer seed
    assert tracer.report().fingerprint() == GOLDEN_TRACED[seed]


def test_detached_fault_plan_is_inert():
    """A never-firing plan (p=0) must be event-for-event identical to a
    fully detached run — the guard hoisting the optimization relies on."""
    detached, _ = run_scenario("smoke", seed=0, fault_plan=None)
    noop, _ = run_scenario(
        "smoke", seed=0, fault_plan=FaultPlan.parse("dma,p=0", seed=0)
    )
    assert simulation_digest(noop) == simulation_digest(detached)
    assert simulation_digest(noop) == GOLDEN[("smoke", 0)]["digest"]


# ------------------------------------------------------------------- harness

def test_run_scenario_rejects_an_unknown_name():
    with pytest.raises(ValueError):
        run_scenario("no-such-scenario")


def test_scenarios_are_well_formed():
    assert {"smoke", "fallback", "baseline", "doceph", "qos"} <= set(SCENARIOS)
    for name, sc in SCENARIOS.items():
        assert sc.name == name
        assert sc.mode in ("baseline", "doceph", "qos")
        assert sc.object_size > 0 and sc.clients > 0 and sc.duration > 0


def test_qos_scenario_rejects_fault_plans():
    with pytest.raises(ValueError):
        run_scenario("qos", seed=0, fault_plan=FaultPlan.parse("dma,p=0"))


# ------------------------------------------------------------------ perf CLI

def test_cli_perf_prints_digest_events_and_peak_pending(capsys, tmp_path,
                                                        monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["perf", "--scenario", "smoke"]) == 0
    out = capsys.readouterr().out
    golden = GOLDEN[("smoke", 0)]
    assert f"digest:        {golden['digest']}" in out
    assert f"events:        {golden['events']}\n" in out
    assert "peak heap:" in out and "wall" not in out
    assert list(tmp_path.iterdir()) == []  # no JSON written


# -------------------------------------------------- blob-id fresh-env reset

def test_blob_ids_reset_per_environment():
    """The bufferlist blob-id mint must restart for every simulation:
    a leaked module-global counter made blob ids depend on how many
    simulations the process had already run."""
    Environment()
    first_run_id = DataBlob(16).blob_id

    # burn some ids, then start a fresh simulation
    for _ in range(5):
        DataBlob(8)
    Environment()

    assert DataBlob(16).blob_id == first_run_id

"""Tests for repro.trace: determinism, zero perturbation, span-tree
well-formedness, exporters, and fault annotations.

Seeded tests run under the one fixed ``SEED`` below; the OSD-crash test
also runs seeds 1 and 2, whose abandoned attempts are outlived by their
late server work.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import run_rados_bench
from repro.chaos import run_chaos
from repro.cluster import (
    BENCH_POOL,
    build_baseline_cluster,
    build_doceph_cluster,
)
from repro.faults import FaultPlan
from repro.sim import Environment
from repro.trace import EPS, Tracer, simulation_digest

SEED = 0


def traced_bench(mode="doceph", *, seed=0, size=1 << 20, clients=2,
                 duration=1.5, warmup=0.5, faults=None):
    """One short bench run with a tracer attached."""
    env = Environment()
    tracer = Tracer(seed=seed)
    build = (build_doceph_cluster if mode == "doceph"
             else build_baseline_cluster)
    plan = FaultPlan.parse(faults, seed=seed) if faults else None
    cluster = build(env, fault_plan=plan, tracer=tracer)
    result = run_rados_bench(
        cluster, size, clients=clients, duration=duration, warmup=warmup
    )
    return env, result


# ---------------------------------------------------------------- unit


def test_tracer_ids_deterministic():
    a, b = Tracer(seed=3), Tracer(seed=3)
    assert [a._mint_id() for _ in range(20)] == [
        b._mint_id() for _ in range(20)
    ]
    # distinct seeds diverge
    assert Tracer(seed=4)._mint_id() != Tracer(seed=3)._mint_id()


def test_span_tree_basics():
    tracer = Tracer()
    root = tracer.start_span("root", 0.0, cpu="n0.host", category="c",
                             thread_name="t")
    child = root.child("child", 1.0, cpu="n0.host", category="c",
                       thread_name="t", nbytes=42)
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    child.event(1.5, "midpoint")
    child.finish(2.0)
    root.finish(3.0)
    assert child.duration == pytest.approx(1.0)
    assert root.duration == pytest.approx(3.0)
    # finish is idempotent: an error end is not overwritten
    other = tracer.start_span("x", 0.0)
    other.error(1.0, "boom")
    other.finish(5.0)
    assert other.end == 1.0 and other.status == "error"
    assert other.tags["error"] == "boom"
    # a child may outlive its parent only when the parent was abandoned
    for abandoned in (False, True):
        tracer = Tracer()
        parent = tracer.start_span("client.attempt", 0.0)
        late = parent.child("osd.op", 0.5)
        if abandoned:
            parent.abandon(1.0, "timeout")
        else:
            parent.error(1.0, "timeout")
        late.finish(2.0)
        assert late.tags.get("outlives") == (
            "abandoned-parent" if abandoned else None)
        if abandoned:
            _assert_well_formed(tracer.report())
        else:
            with pytest.raises(AssertionError, match="escapes"):
                _assert_well_formed(tracer.report())


def test_critical_path_hand_built():
    tracer = Tracer()
    root = tracer.start_span("op", 0.0)
    a = root.child("a", 0.0)
    a.finish(4.0)
    b = root.child("b", 4.0)
    b.finish(9.0)
    root.finish(10.0)
    report = tracer.report()
    steps = report.critical_path(root)
    names = [(s.span.name, s.t0, s.t1) for s in steps]
    # a covers (0,4], b covers (4,9], root keeps the (9,10] remainder
    assert ("a", 0.0, 4.0) in names
    assert ("b", 4.0, 9.0) in names
    assert ("op", 9.0, 10.0) in names
    assert sum(s.self_time for s in steps) == pytest.approx(10.0)


# ---------------------------------------------------------------- determinism


def test_trace_fingerprint_deterministic():
    _, r1 = traced_bench("doceph", seed=SEED)
    _, r2 = traced_bench("doceph", seed=SEED)
    assert r1.trace.fingerprint() == r2.trace.fingerprint()
    assert len(r1.trace.spans) == len(r2.trace.spans) > 0
    # a different tracer seed re-mints every id → different fingerprint
    _, r3 = traced_bench("doceph", seed=SEED + 1)
    assert r3.trace.fingerprint() != r1.trace.fingerprint()


def test_zero_perturbation_tracer_off_vs_on():
    """The tracer must only observe: identical event sequence, clock,
    op count and latencies whether attached or not."""
    env_off = Environment()
    off = run_rados_bench(
        build_doceph_cluster(env_off), 1 << 20, clients=2,
        duration=1.5, warmup=0.5,
    )
    env_on, on = traced_bench("doceph", seed=SEED)
    assert simulation_digest(env_off) == simulation_digest(env_on)
    assert off.completed_ops == on.completed_ops
    assert off.latencies == on.latencies
    assert off.trace is None and on.trace is not None


# ---------------------------------------------------------------- structure


def _assert_well_formed(report, allow_drops=False):
    by_id = {s.span_id: s for s in report.spans}
    for trace_id, members in report.traces().items():
        roots = [s for s in members if s.parent_id is None]
        assert len(roots) == 1, f"trace {trace_id:x}: {len(roots)} roots"
        for span in members:
            if span.end is not None:
                assert span.end >= span.begin - EPS
            for t, _name in span.events:
                assert t >= span.begin - EPS
                if span.end is not None:
                    assert t <= span.end + EPS
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.trace_id == span.trace_id
                # children are time-nested within their parents, except
                # the tagged late work of an abandoned parent
                assert span.begin >= parent.begin - EPS
                if span.end is not None and parent.end is not None:
                    late = span.end > parent.end + EPS
                    excused = span.tags.get("outlives") == "abandoned-parent"
                    assert late == excused, f"{span!r} escapes {parent!r}"
                    assert not excused or parent.tags.get("abandoned")
    # every send span is consumed by exactly one recv (via its
    # "follows" link) unless it was dropped or still on the wire
    recv_targets = [
        other_id
        for s in report.find("msgr.recv")
        for other_id, kind in s.links
        if kind == "follows"
    ]
    assert len(recv_targets) == len(set(recv_targets))
    consumed = set(recv_targets)
    for send in report.find("msgr.send"):
        if send.span_id in consumed:
            continue
        dropped = "dropped" in send.tags or send.status == "error"
        in_flight = send.end is None
        assert dropped or in_flight or allow_drops, (
            f"unmatched send span {send!r}"
        )
        if not allow_drops:
            assert dropped is False or "dropped" in send.tags


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    mode=st.sampled_from(["baseline", "doceph"]),
    size=st.sampled_from([256 << 10, 1 << 20]),
)
def test_span_trees_well_formed(seed, mode, size):
    _, result = traced_bench(mode, seed=seed, size=size, duration=1.0)
    report = result.trace
    assert report.roots()
    assert all(s.name.startswith("client.") for s in report.roots())
    _assert_well_formed(report)


# ---------------------------------------------------------------- exporters


def test_perfetto_export_shape():
    _, result = traced_bench("doceph", seed=SEED)
    report = result.trace
    doc = report.to_perfetto()
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == len(report.spans)
    for ev in complete:
        assert ev["ts"] >= 0 and ev["dur"] >= 0
        assert ev["pid"] >= 1 and ev["tid"] >= 1
    meta = [e for e in events if e["ph"] == "M"]
    node_names = {e["args"]["name"] for e in meta
                  if e["name"] == "process_name"}
    assert {"client", "node0", "node1"} <= node_names
    flows_s = [e for e in events if e["ph"] == "s"]
    flows_f = [e for e in events if e["ph"] == "f"]
    assert len(flows_s) == len(flows_f) > 0
    assert {e["id"] for e in flows_s} == {e["id"] for e in flows_f}


def test_flame_summary_and_as_dict():
    _, result = traced_bench("doceph", seed=SEED)
    report = result.trace
    text = report.flame_summary()
    for name in ("client.WRITE", "msgr.send", "dma.segment",
                 "bstore.commit"):
        assert name in text
    doc = report.as_dict()
    assert doc["spans"] == len(report.spans)
    assert doc["fingerprint"] == report.fingerprint()
    assert doc["errors"] == 0


def test_critical_path_covers_full_latency():
    """The extracted chain must account for the whole client-observed
    latency of the op — no causal gaps."""
    _, result = traced_bench("doceph", seed=SEED)
    report = result.trace
    for root in report.roots()[:10]:
        if root.end is None:
            continue
        steps = report.critical_path(root)
        covered = sum(s.self_time for s in steps)
        assert covered == pytest.approx(root.duration, rel=1e-6)
        # path spans both sides of the offload: client and storage nodes
        nodes = {s.span.node for s in steps}
        assert "client" in nodes
        assert any(n.startswith("node") for n in nodes)


@pytest.mark.parametrize("scenario", ["smoke", "qos"])
def test_critical_path_summary_equals_per_root_walks(scenario):
    """The summary groups spans by trace once (linear); it must equal,
    bit for bit, the quadratic definition it replaced: the per-root
    ``critical_path`` (which filters every span for its root) summed in
    root order."""
    from repro.perf import run_scenario

    tracer = Tracer(seed=SEED)
    run_scenario(scenario, seed=SEED, tracer=tracer)
    report = tracer.report()
    totals, n = {}, 0
    for root in report.roots():
        if root.end is None:
            continue
        n += 1
        for step in report.critical_path(root):
            totals[step.span.name] = (
                totals.get(step.span.name, 0.0) + step.self_time
            )
    assert n > 100
    reference = {name: t / n for name, t in sorted(totals.items())}
    assert report.critical_path_summary() == reference


# ---------------------------------------------------------------- op stages


@pytest.mark.parametrize("builder", [build_baseline_cluster,
                                     build_doceph_cluster])
def test_tracked_write_records_pipeline_stages(builder):
    """Each client write's ``osd.op`` span carries the OSD's stage marks
    as events, in time order inside the span: its begin is the op's
    arrival, its end the reply."""
    env = Environment()
    tracer = Tracer(seed=SEED)
    c = builder(env, tracer=tracer)
    boot = env.process(c.boot())
    env.run(until=boot)

    def work():
        for i in range(4):
            yield from c.client.write_object(BENCH_POOL, f"t-{i}", 2 << 20)

    p = env.process(work())
    env.run(until=p)

    op_spans = tracer.report().find("osd.op")
    assert len(op_spans) == 4
    for span in op_spans:
        stages = [s for _, s in span.events]
        assert stages[0] == "queued_for_pg"
        assert "reached_pg" in stages
        assert "sub_op_sent" in stages  # replication 2
        assert "commit_received" in stages
        times = [span.begin] + [t for t, _ in span.events] + [span.end]
        assert times == sorted(times)
        assert span.duration is not None and span.duration > 0


# ---------------------------------------------------------------- faults


def test_dma_fault_fallback_annotated_spans():
    """A DMA fault's fallback-to-RPC reroute shows up as an error
    dma.segment span plus a dma.fallback span retry-linked to it."""
    _, result = traced_bench("doceph", seed=SEED, faults="dma,p=1")
    report = result.trace
    by_id = {s.span_id: s for s in report.spans}

    failed = [s for s in report.find("dma.segment")
              if s.status == "error"]
    assert failed, "no failed DMA segment spans"
    assert all(s.tags.get("error") == "dma-error" for s in failed)

    fallbacks = report.find("dma.fallback")
    assert fallbacks, "no fallback spans"
    retried = [s for s in fallbacks
               if any(kind == "retry" for _, kind in s.links)]
    assert retried, "no fallback span carries a retry link"
    for fb in retried:
        for other_id, kind in fb.links:
            if kind != "retry":
                continue
            target = by_id[other_id]
            assert target.name == "dma.segment"
            assert target.status == "error"
        assert fb.tags.get("reason") == "dma-error"
    # cooldown reroutes skip DMA entirely and say so
    assert any(s.tags.get("reason") == "cooldown" for s in fallbacks)
    # the rerouted bytes travel as rpc.bulk calls under the fallback span
    bulk = report.find("rpc.bulk")
    assert bulk
    assert all(s.parent is not None and s.parent.name == "dma.fallback"
               for s in bulk)
    # determinism holds under fault injection too
    _, replay = traced_bench("doceph", seed=SEED, faults="dma,p=1")
    assert replay.trace.fingerprint() == report.fingerprint()


def test_osd_crash_resend_annotated_spans():
    """An OSD crash surfaces as error/dropped spans and the client's
    resend as a retry-linked client.attempt span, consistent with the
    health counters."""
    _check_osd_crash_resend(SEED)


@pytest.mark.parametrize("seed", [1, 2])
def test_osd_crash_resend_annotated_spans_other_seeds(seed):
    """These seeds leave an abandoned attempt's osd.op and reply
    running past it: its tagged late work, the one excused escape.
    Tagging it perturbs nothing: the untraced replay is identical."""
    report, chaos = _check_osd_crash_resend(seed)
    late = [s for s in report.spans
            if s.tags.get("outlives") == "abandoned-parent"]
    assert {s.name for s in late} >= {"osd.op"}
    untraced = run_chaos(
        mode="baseline", seed=seed, duration=4.0, clients=2,
        object_size=1 << 20, crashes=2, partitions=0,
    )
    assert untraced.fingerprint() == chaos.fingerprint()


def _check_osd_crash_resend(seed):
    tracer = Tracer(seed=seed)
    report_chaos = run_chaos(
        mode="baseline", seed=seed, duration=4.0, clients=2,
        object_size=1 << 20, crashes=2, partitions=0, tracer=tracer,
    )
    assert report_chaos.incidents
    report = tracer.report()
    _assert_well_formed(report, allow_drops=True)

    attempts = report.find("client.attempt")
    retries = [s for s in attempts
               if any(kind == "retry" for _, kind in s.links)]
    health = report_chaos.health["client"]
    if health["resends"] > 0:
        assert retries, "resends happened but no retry-linked attempts"
        by_id = {s.span_id: s for s in report.spans}
        for attempt in retries:
            for other_id, kind in attempt.links:
                if kind == "retry":
                    prev = by_id[other_id]
                    assert prev.name == "client.attempt"
                    # the superseded attempt ended in error (timeout)
                    assert prev.status == "error"
    # a crash mid-traffic leaves annotated evidence: dropped sends,
    # crashed-op error spans, or timed-out attempts
    evidence = [
        s for s in report.spans
        if s.status == "error" or "dropped" in s.tags
    ]
    if health["resends"] > 0 or health["timeouts"] > 0:
        assert evidence
    return report, report_chaos

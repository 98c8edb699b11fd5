"""Conservative-lookahead bound on within-run parallel speed-up.

A per-node parallel engine (one event loop per storage node, the client
and the monitor, synchronised once per lookahead window) can at best run
a window as fast as its busiest owner.  This script replays workloads on
the serial engine, charges every dispatched event to the owner of the
callback it wakes, and reports

    bound = sum of events / sum over windows of the busiest owner's events

with the window equal to the smallest latency between two owners: the
network's one-way ``net_latency``.  PCIe RPC between a node's host and
its DPU stays inside one owner, so its 10 us does not shrink the window.

Events whose callbacks resolve to no node or client (completions nobody
joined, fabric and harness callbacks) and events whose callbacks wake
more than one owner are reported both ways: the ``low`` bound counts
them as serial work added to every window's critical path, the ``high``
bound gives them a lane of their own (or the first owner's lane).

Ownership comes from ``repro.lint.sanitizer``: its post-build hook tags
every object reachable from a node root with ``node:i`` or ``client``,
and its armed ``__setattr__`` wrappers make objects minted mid-run adopt
their creator's owner.  That module left the tree after this
measurement (commit b099925 is the last one that carries it), so the
script replays a checkout of such a tree::

    git archive b099925 | tar -x -C PARENT
    python3 benchmarks/shard_bound.py --tree PARENT \\
        --out benchmarks/results/BENCH_shard_bound.json

The instrumented run must reproduce the plain run's simulation digest;
the script refuses to report a workload where it does not.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from heapq import heappop
from typing import Any, Callable, Optional

KB = 1 << 10
MB = 1 << 20

#: (name, storage nodes, pg_num, object size, sim seconds).  pg_num
#: keeps 32 PG copies per OSD at replication 2 on both node counts.
SCALED_BUILDS = (
    ("doceph_8n_64k", 8, 128, 64 * KB, 1.0),
    ("doceph_8n_4m", 8, 128, 4 * MB, 1.0),
    ("doceph_32n_64k", 32, 512, 64 * KB, 1.0),
    ("doceph_32n_4m", 32, 512, 4 * MB, 1.0),
)

E2E_WORKLOADS = ("w4m_baseline", "w4m_doceph", "w4m_fallback", "mix64k_qos")

#: Replay length of the four benchmark workloads, in simulated seconds.
E2E_SIM_S = 2.0

SCALED_CLIENTS = 16

SEED = 0

#: The last commit that carries ``repro.lint.sanitizer``.
PARENT_COMMIT = "b099925"


def _lane(tag: Optional[str]) -> Optional[str]:
    if tag is not None and (tag.startswith("node:") or tag == "client"):
        return tag
    return None


class OwnerLedger:
    """Charges each dispatch to one owner and folds lookahead windows."""

    def __init__(self, owners: dict[int, str], window: float,
                 process_cls: type, condition_cls: type,
                 interruption_cls: type) -> None:
        self._owners = owners
        self.window = window
        self._process = process_cls
        self._condition = condition_cls
        self._interruption = interruption_cls
        self.events = 0
        self.by_owner: dict[str, int] = {}
        self.unowned = 0
        self.mixed = 0
        self.windows = 0
        self.cost_low = 0
        self.cost_high = 0
        self._win: Optional[int] = None
        self._lanes: dict[str, int] = {}
        self._serial = 0

    # -- attribution ------------------------------------------------------
    def _tag(self, obj: Any) -> Optional[str]:
        return _lane(self._owners.get(id(obj))) if obj is not None else None

    def _process_owner(self, proc: Any) -> Optional[str]:
        frames = []
        gen = getattr(proc, "_generator", None)
        while gen is not None and hasattr(gen, "gi_frame"):
            if gen.gi_frame is not None:
                frames.append(gen.gi_frame)
            gen = gen.gi_yieldfrom
        # The innermost frame is the code that resumes: prefer its self.
        for frame in reversed(frames):
            tag = self._tag(frame.f_locals.get("self"))
            if tag is not None:
                return tag
        for frame in reversed(frames):
            for value in frame.f_locals.values():
                tag = self._tag(value)
                if tag is not None:
                    return tag
        return self._tag(proc)

    def _callback_owner(self, cb: Any, depth: int = 0) -> Optional[str]:
        bound = getattr(cb, "__self__", None)
        if bound is None or depth > 8:
            return None
        if isinstance(bound, self._interruption):
            bound = bound.process
        if isinstance(bound, self._process):
            return self._process_owner(bound)
        if isinstance(bound, self._condition):
            for inner in bound.callbacks or ():
                tag = self._callback_owner(inner, depth + 1)
                if tag is not None:
                    return tag
            return None
        return self._tag(bound)

    # -- window fold ------------------------------------------------------
    def _fold(self) -> None:
        if self._win is None:
            return
        busiest = max(self._lanes.values(), default=0)
        self.cost_low += busiest + self._serial
        self.cost_high += max(busiest, self._serial)
        self.windows += 1
        self._lanes = {}
        self._serial = 0

    def charge(self, now: float, callbacks: Any) -> None:
        win = int(now / self.window)
        if win != self._win:
            self._fold()
            self._win = win
        self.events += 1
        lanes: list[str] = []
        for cb in callbacks or ():
            tag = self._callback_owner(cb)
            if tag is not None and tag not in lanes:
                lanes.append(tag)
        if not lanes:
            self.unowned += 1
            self._serial += 1
            return
        if len(lanes) > 1:
            self.mixed += 1
        owner = lanes[0]
        self.by_owner[owner] = self.by_owner.get(owner, 0) + 1
        self._lanes[owner] = self._lanes.get(owner, 0) + 1

    def finish(self) -> dict[str, Any]:
        self._fold()
        # ``mixed`` dispatches sit in their first owner's lane; the low
        # bound also charges them to the critical path once more.
        low = self.cost_low + self.mixed
        return {
            "events": self.events,
            "nonempty_windows": self.windows,
            "events_per_window": round(self.events / max(self.windows, 1), 3),
            "unowned_events": self.unowned,
            "mixed_owner_events": self.mixed,
            "busiest_lane_sum_low": low,
            "busiest_lane_sum_high": self.cost_high,
            "bound_low": round(self.events / max(low, 1), 4),
            "bound_high": round(self.events / max(self.cost_high, 1), 4),
            "events_by_owner": dict(sorted(self.by_owner.items())),
        }


def _pop(env: Any) -> Any:
    """Remove the event ``Environment.step`` would dispatch next (the
    pop rule of the tree under test), advancing the clock as it would.
    The tree this script replays (b099925, the last that carries
    ``repro.lint.sanitizer``) keeps its watchdogs on a far heap, so the
    far heap's migration step stays here, though the kernel now has
    one heap."""
    urgent, queue = env._urgent, env._queue
    if urgent:
        return urgent.popleft()
    if queue and queue[0][0] == env._now:
        return heappop(queue)[3]
    if env._normal:
        return env._normal.popleft()
    at = queue[0][0] if queue else env._far_at
    if env._far_at <= at:
        env._migrate(at)
    env._now, _, _, event = heappop(queue)
    return event


def observed_run(env_cls: type, event_cls: type,
                 charge: Callable[[float, Any], None]) -> Callable:
    """An ``Environment.run`` that calls ``charge(now, callbacks)`` for
    each event before ``step()`` dispatches it.  The until protocol is
    left to the native loop, as the tie-order probe does."""
    native = env_cls.run

    def run(self: Any, until: Any = None) -> Any:
        horizon = float("inf")
        if isinstance(until, event_cls):
            if until.callbacks is None:
                return native(self, until)
        elif until is not None:
            horizon = float(until)
        while self.peek() < horizon:
            event = _pop(self)
            self._urgent.appendleft(event)
            if event is until:
                return native(self, until)
            charge(self._now, event.callbacks)
            self.step()
        return native(self, until)

    return run


def _load_tree(tree: pathlib.Path) -> None:
    sys.path.insert(0, str(tree / "src"))
    sys.path.insert(0, str(tree / "benchmarks" / "e2e"))


def measure(name: str, runner: Callable[[], Any], window: float) -> dict:
    """Replay ``runner`` plain, then observed under the sanitizer."""
    from repro.cluster import builder as builder_mod
    from repro.lint.sanitizer import OwnershipSanitizer
    from repro.sim.core import (
        Condition, Environment, Event, Process, _Interruption,
    )
    from repro.trace import simulation_digest
    from repro.util.wallclock import perf_counter

    t0 = perf_counter()
    env = runner()
    plain_wall = perf_counter() - t0
    plain_digest = simulation_digest(env)
    sim_s = env.now

    san = OwnershipSanitizer()
    ledger = OwnerLedger(san._owners, window, Process, Condition,
                         _Interruption)
    native = Environment.run
    prev_hook = builder_mod._POST_BUILD_HOOK
    builder_mod._POST_BUILD_HOOK = san.tag_cluster
    Environment.run = observed_run(Environment, Event, ledger.charge)
    try:
        with san.armed():
            env = runner()
    finally:
        Environment.run = native
        builder_mod._POST_BUILD_HOOK = prev_hook
    digest = simulation_digest(env)
    if digest != plain_digest:
        raise SystemExit(f"{name}: observed run changed the digest")
    out = ledger.finish()
    out.update(
        sim_s=sim_s,
        digest=plain_digest,
        host_wall_s_plain=round(plain_wall, 3),
        host_us_per_nonempty_window=round(
            plain_wall / max(out["nonempty_windows"], 1) * 1e6, 2),
        nonempty_windows_per_sim_s=round(out["nonempty_windows"] / sim_s, 1),
    )
    return out


def e2e_runner(name: str) -> Callable[[], Any]:
    from spans import SpanLog
    from workloads import WORKLOADS, replay

    def run() -> Any:
        rep = replay(WORKLOADS[name], SEED, SpanLog(), 0, duration=E2E_SIM_S)
        return rep.cluster.env

    return run


def qos_runner() -> Callable[[], Any]:
    """``mix64k_qos`` as the e2e replay drives it; ``run_qos`` builds its
    own cluster, so the environment is handed in rather than read back."""
    from workloads import QOS_PREPOPULATE, qos_tenants
    from repro.qos.runner import run_qos
    from repro.sim import Environment

    def run() -> Any:
        env = Environment()
        run_qos("full-osd", qos_tenants(), seed=SEED, duration=E2E_SIM_S,
                prepopulate=QOS_PREPOPULATE, env=env)
        return env

    return run


def scaled_runner(nodes: int, pg_num: int, size: int,
                  sim_s: float) -> Callable[[], Any]:
    from repro.bench.radosbench import run_rados_bench
    from repro.cluster.builder import build_doceph_cluster
    from repro.cluster.config import DocephProfile
    from repro.sim import Environment

    def run() -> Any:
        env = Environment()
        cluster = build_doceph_cluster(
            env, DocephProfile(storage_nodes=nodes, pg_num=pg_num))
        boot = env.process(cluster.boot(), name="cluster-boot")
        env.run(until=boot)
        run_rados_bench(cluster, object_size=size, clients=SCALED_CLIENTS,
                        duration=sim_s, warmup=0.0, seed=SEED)
        return env

    return run


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", required=True, type=pathlib.Path,
                    help="checkout that still carries repro.lint.sanitizer")
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="write the JSON result here (default: stdout)")
    args = ap.parse_args(argv)
    _load_tree(args.tree.resolve())
    from repro.cluster.config import DocephProfile, HardwareProfile

    window = HardwareProfile().net_latency
    assert DocephProfile().net_latency == window

    runs: list[tuple[str, Callable[[], Any], str]] = [
        (name, qos_runner() if name == "mix64k_qos" else e2e_runner(name),
         f"benchmarks/e2e workload, {E2E_SIM_S} sim-s")
        for name in E2E_WORKLOADS
    ]
    runs += [
        (name, scaled_runner(nodes, pg_num, size, sim_s),
         f"DocephProfile(storage_nodes={nodes}, pg_num={pg_num}), "
         f"{SCALED_CLIENTS} clients, {size // KB} KB writes, "
         f"{sim_s} sim-s after boot, no warm-up")
        for name, nodes, pg_num, size, sim_s in SCALED_BUILDS
    ]
    results: dict[str, Any] = {}
    for name, runner, how in runs:
        results[name] = dict(measure(name, runner, window), replay=how)
        print(name, results[name]["bound_low"], results[name]["bound_high"],
              file=sys.stderr)

    doc = {
        "what": "conservative-lookahead bound on within-run parallel "
                "speed-up of a per-owner (node, client) event engine",
        "method": (
            "serial replay; every dispatch is charged to the owner "
            "(repro.lint.sanitizer tag: node:i or client) of the object "
            "its callback is bound to, a process's innermost generator "
            "frame with a tagged self, or a condition's waiters; "
            "bound = events / sum over windows of the busiest owner's "
            "events. low: unowned and mixed-owner dispatches are serial "
            "work added to each window; high: they form their own lane"
        ),
        "window_s": window,
        "window_is": "net_latency, the smallest latency between two "
                     "owners (pcie_rpc_latency stays inside a node)",
        "seed": SEED,
        "parent_commit": PARENT_COMMIT,
        "decision_rule": "every 8-node bound < 2x: delete the ownership "
                         "proof; >= 3x: propose a per-node-group engine",
        "workloads": results,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

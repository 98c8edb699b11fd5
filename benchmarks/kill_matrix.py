"""Kill matrix: which gate kills which seeded source mutant.

Each mutant is one named textual edit of a checked-out tree (a wrong
comparison, a dropped check, a wall-clock read where none may be).  The
script copies the tree once per mutant, applies the edit, runs the gates
in the copy and records, per gate, whether the mutant was *killed*
(non-zero exit) or *survived*.  ``tier1`` is the merge gate itself
(``pytest -x -q`` over ``tests/``).  Every gate over ``tests/`` leaves
out the test that this file's anchors occur in the tree
(``_SELF_CHECK``), which a mutated copy fails by construction.

A gate can only be a mutant's unique kill where tier-1 lets the mutant
through, so ``tier1`` runs first.  When it kills, only the gates the
mutant was written against (``targets``) run; when it survives, every
gate runs.

``GATES`` is the CI workflow of today's tree (``.github/workflows/
ci.yml``): the three tier-1 legs (``tier1`` under a fresh string-hash
seed, ``hash-tier1`` and ``hash-tier1@2`` under seeds 1 and 2), the
four e2e goldens, the e2e harness tests and the paper suite.  The
nightly fuzz soak draws a fresh seed per session, so it is no gate.
``JUDGES`` are gates that are no CI step, run only when named with
``--gates``: ``LINT_JUDGES`` decide whether a lint rule (``LINT_RULE``)
stays.  Verdicts of earlier trees, under the gates those trees ran,
stay in the results document with each entry's gate commands.

Judge the committed files of a tree and store the run as that tree's
entry of the one results document, replacing an entry for the same
commit::

    git archive COMMIT --prefix=tree/ | tar -x -C SCRATCH
    python3 benchmarks/kill_matrix.py --tree SCRATCH/tree --jobs 2 \\
        --commit COMMIT --gates GATE ... --only MUTANT ... \\
        --out benchmarks/results/BENCH_kill_matrix.json
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

PY = sys.executable

#: Rule fixed before any mutant ran.
RULE = (
    "A CI step that runs tier-1 tests with the inputs tier-1 uses is "
    "deleted.  A step that varies an input (a seed, PYTHONHASHSEED) or "
    "drives a surface tier-1 does not (a CLI path, a file outside "
    "tests/) survives only if some mutant here is killed by it and by "
    "no tier-1 test.  A surviving check runs once: in tier-1 when it "
    "costs seconds, else as its CI step without any re-run of tier-1."
)

#: Rule fixed before any lint mutant ran.
LINT_RULE = (
    "A lint rule is deleted when every one of its mutants is killed by "
    "tier1-nolint under both PYTHONHASHSEED=1 and =2, or by the four e2e "
    "goldens, and CHANGES.md records no real catch by the rule (DET101, "
    "DET104, DET106, PERF301 and PERF303 have one).  Otherwise "
    "the rule stays and its mutant becomes its tier-1 test."
)

#: Tier-1 without the lint: the tests of the lint package and the five
#: CLI tests that drive ``repro lint``.
_NOLINT = ("--ignore", "tests/test_lint.py", *(
    f"--deselect=tests/test_cli.py::{t}" for t in (
        "test_lint_command_clean_tree_exits_zero",
        "test_lint_command_new_findings_exit_three",
        "test_lint_dynamic_fails_on_a_probe_defect_not_on_order_sensitivity",
        "test_lint_shipped_tree_is_clean",
        "test_lint_list_rules")))

_E2E_WORKLOADS = ("w4m_baseline", "w4m_doceph", "w4m_fallback", "mix64k_qos")

#: The gates a lint rule's mutant must not get past for the rule to go.
LINT_JUDGES = ("tier1-nolint@1", "tier1-nolint@2", "e2e-goldens")


#: The check that every row's anchors occur once in the tree.  In a
#: mutated copy the applied row's anchor is gone by construction, so it
#: would kill every mutant it reaches and say nothing about the gates.
_SELF_CHECK = ("--deselect=tests/test_lint.py::"
               "test_every_kill_matrix_mutant_still_applies")


#: A gate's verdict is whether it fails, so property tests stop at the
#: first failing example instead of shrinking it (``tests/conftest.py``).
_NO_SHRINK = "--hypothesis-profile=no-shrink"


def _pytest(*args: str) -> list[str]:
    return [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", _SELF_CHECK,
            _NO_SHRINK, *args]


def _sh(script: str) -> list[str]:
    return ["bash", "-c", "set -e\n" + script]


@dataclass(frozen=True)
class Gate:
    command: list[str]
    env: dict[str, str] = field(default_factory=dict)


#: Today's CI, one gate per step that can fail on a tree.
GATES = {
    "tier1": Gate(_pytest("-x")),
    "hash-tier1": Gate(_pytest("-x"), {"PYTHONHASHSEED": "1"}),
    "hash-tier1@2": Gate(_pytest("-x"), {"PYTHONHASHSEED": "2"}),
    "e2e-goldens": Gate(_sh("".join(
        f"python3 benchmarks/e2e/run.py --workload {w} --seconds 0\n"
        for w in _E2E_WORKLOADS))),
    "e2e-harness": Gate([PY, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                         "benchmarks/e2e/test_harness.py"]),
    # A copy has no git index, so the results are compared with a
    # snapshot taken before the run instead of ``git status``.
    "paper": Gate(_sh(
        "cp -R benchmarks/results .results-before\n"
        f"{PY} -m pytest benchmarks/ --benchmark-only -q -p no:cacheprovider\n"
        "diff -r .results-before benchmarks/results\n")),
}

#: Gates that are no CI step: tier-1 without the lint, per hash seed.
JUDGES = {
    f"tier1-nolint@{k}": Gate(_pytest("-x", *_NOLINT), {"PYTHONHASHSEED": k})
    for k in ("1", "2")
}


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    edits: tuple[tuple[str, str], ...]
    why: str
    targets: tuple[str, ...]
    #: The lint rule that flags the edit, for a row that judges one.
    rule: str = ""


MUTANTS = (
    Mutant(
        "control.unmutated", "src/repro/__init__.py", (),
        "no edit: a gate that kills this is red on the tree itself",
        ()),
    Mutant(
        "lint.wallclock_in_hw", "src/repro/hw/cpu.py",
        (("from __future__ import annotations\n",
          "from __future__ import annotations\nimport time\n"
          "_BOOTED_AT = time.time()\n"),),
        "a wall-clock read in a simulated layer (DET101)",
        LINT_JUDGES, "DET101"),
    Mutant(
        "tests.wallclock_in_helper", "tests/helpers.py",
        (("import contextlib\n",
          "import contextlib\nimport time\n_LOADED_AT = time.time()\n"),),
        "a wall-clock read in a test helper (DET101 over tests/)",
        LINT_JUDGES, "DET101"),
    Mutant(
        "probe.fifo_drains_backwards", "src/repro/lint/dynamic.py",
        (("event = batch.popleft()", "event = batch.pop()"),),
        "the tie-order probe's FIFO control drains each batch LIFO",
        ("tier1",)),
    Mutant(
        "cli.probe_exit_on_sensitivity", "src/repro/cli.py",
        (("if not tie.instrumentation_ok:", "if tie.order_sensitive:"),),
        "`lint --dynamic` fails on the informational LIFO verdict",
        ("tier1",)),
    Mutant(
        "hash.heartbeat_set_order", "src/repro/msgr/heartbeat.py",
        (("for addr in sorted(peers):", "for addr in set(peers):"),),
        "heartbeat pings go out in string-hash order",
        ("hash-tier1", "hash-tier1@2")),
    Mutant(
        "hash.recovery_backlog_order", "src/repro/osd/recovery.py",
        (("backlog = sorted(set(local) - targets[addr])",
          "backlog = [*(set(local) - targets[addr])]"),),
        "recovery pushes objects in string-hash order",
        ("hash-tier1", "hash-tier1@2", *LINT_JUDGES), "DET104"),
    Mutant(
        "faults.burst_after_random_hit", "src/repro/faults.py",
        (("                hit = True\n"
          "                self._burst_left[i] = spec.burst - 1\n",
          "                hit = True\n"
          "                self._burst_left[i] = 0\n"),),
        "a probabilistic fault spec ignores its burst length",
        ("tier1",)),
    Mutant(
        "fallback.outage_clock_restarts", "src/repro/core/fallback.py",
        (("if self._outage_start is None:", "if True:"),),
        "DMA outage latency is measured from the last failure",
        ("tier1",)),
    Mutant(
        "osd.replica_failure_acked", "src/repro/osd/daemon.py",
        (("        if not ok:\n            self.failed = True\n",
          "        if not ok:\n            pass\n"),),
        "a write a replica could not persist is acked to the client",
        ("tier1",)),
    Mutant(
        "recovery.manifest_check_dropped", "src/repro/osd/recovery.py",
        (("if any(name not in got for name in pushed):", "if False:"),),
        "a pull whose stream lost a push is credited as complete",
        ("tier1",)),
    Mutant(
        "cli.chaos_replay_reseeds", "src/repro/cli.py",
        (("mode=args.mode, seed=seed, duration=args.duration,",
          "mode=args.mode, seed=seed + _, duration=args.duration,"),),
        "`chaos --replay` reruns with the next seed",
        ("tier1",)),
    Mutant(
        "cli.qos_replay_reseeds", "src/repro/cli.py",
        (("        rerun = run_qos(\n"
          "            args.strategy, specs, seed=args.seed,",
          "        rerun = run_qos(\n"
          "            args.strategy, specs, seed=args.seed + 1,"),),
        "`qos --replay` reruns with the next seed",
        ("tier1",)),
    Mutant(
        "qos.zero_tenants_accepted", "src/repro/qos/runner.py",
        (('raise ValueError("need at least one tenant")', "pass"),),
        "an empty tenant set is accepted",
        ("tier1",)),
    Mutant(
        "cli.usage_error_exits_one", "src/repro/cli.py",
        (("        print(f\"error: {exc}\", file=sys.stderr)\n"
          "        return 2\n",
          "        print(f\"error: {exc}\", file=sys.stderr)\n"
          "        return 1\n"),),
        "a malformed plan or argument exits 1 instead of 2",
        ("tier1",)),
    Mutant(
        "trace.seed_ignored", "src/repro/trace.py",
        (('self._ids = SeededRng(seed).child("trace")',
          'self._ids = SeededRng(0).child("trace")'),),
        "span ids no longer depend on the tracer seed",
        ("tier1",)),
    Mutant(
        "trace.child_loses_parent", "src/repro/trace.py",
        (("return self.tracer.start_span(name, now, parent=self, **kw)",
          "return self.tracer.start_span(name, now, parent=None, **kw)"),),
        "a child span starts a trace of its own instead of joining its "
        "parent's",
        ("tier1",)),
    Mutant(
        "msgr.crc_never_checked", "src/repro/msgr/messenger.py",
        (("and frame.crc != bl.crc32()", "and False"),),
        "a corrupted frame is delivered although its crc is wrong",
        ("tier1",)),
    Mutant(
        "alloc.double_free_unchecked",
        "src/repro/objectstore/bluestore/allocator.py",
        (('            raise AllocError(f"double free at block {first + lo}")\n',
          "            return\n"),
         ("        if gaps:\n            raise", "        if False:\n            raise")),
        "free skips the double-free raise, on a FREE page and in L0 bits",
        ("tier1",)),
    Mutant(
        "alloc.page_claim_left_free",
        "src/repro/objectstore/bluestore/allocator.py",
        (("            self._store(page, n, ((1 << taken) - 1) << lo, taken)\n",
          "            if taken < n:\n"
          "                self._store(page, n, ((1 << taken) - 1) << lo, taken)\n"),),
        "a whole-page claim leaves its L1 entry FREE",
        ("tier1",)),
    Mutant(
        "rpc.dedup_drop_at_send", "src/repro/core/rpc.py",
        (("            self._done[rid] = (req.reply, req.error)\n",
          "            self._done[rid] = (req.reply, req.error)\n"
          "            del self._done[rid]\n"),),
        "the dedup record is dropped as soon as it is made, so a retry "
        "after a lost reply runs the handler again",
        ("tier1",)),
    Mutant(
        "rpc.dedup_drop_on_giveup", "src/repro/core/rpc.py",
        (("        if req_id in self._queued or req_id in self._inflight:\n",
          "        self._done.pop(req_id, None)\n"
          "        if req_id in self._queued or req_id in self._inflight:\n"),),
        "a caller that gives up drops the record while its retry is "
        "still queued, so the retry runs the handler again",
        ("tier1",)),
    Mutant(
        "lint.uuid_region_id", "src/repro/core/doca.py",
        (("from dataclasses import dataclass, field\n",
          "import uuid\nfrom dataclasses import dataclass, field\n"),
         ("field(default_factory=lambda: next(_region_ids))",
          "field(default_factory=lambda: uuid.uuid4().int)")),
        "memory-region ids come from ambient entropy (DET102)",
        LINT_JUDGES, "DET102"),
    Mutant(
        "tests.uuid_in_helper", "tests/helpers.py",
        (("import contextlib\n",
          "import contextlib\nimport uuid\n_RUN_ID = uuid.uuid4().hex\n"),),
        "ambient entropy in a test helper (DET102 over tests/)",
        LINT_JUDGES, "DET102"),
    Mutant(
        "lint.global_random_resend_jitter", "src/repro/rados/client.py",
        (("from dataclasses import dataclass\n",
          "import random\nfrom dataclasses import dataclass\n"),
         ("            yield from self._refetch_map()\n"
          "            yield self.env.timeout(self.retry_backoff * attempt)\n",
          "            yield from self._refetch_map()\n"
          "            yield self.env.timeout(\n"
          "                self.retry_backoff * attempt * (1 + random.random()))\n")),
        "the op resend after a map refetch draws jitter from the global "
        "random stream (DET103)",
        LINT_JUDGES, "DET103"),
    Mutant(
        "tests.unseeded_random_in_test", "tests/test_util_hash_stats.py",
        (("import math\n", "import math\nimport random\n"),
         ("    assert r.stream(\"a\").random() != r.stream(\"b\").random()\n",
          "    assert random.Random().random() != r.stream(\"b\").random()\n")),
        "a test draws from an unseeded stream (DET103 over tests/)",
        LINT_JUDGES, "DET103"),
    Mutant(
        "lint.heartbeat_id_order", "src/repro/msgr/heartbeat.py",
        (("for addr in sorted(peers):", "for addr in sorted(peers, key=id):"),),
        "heartbeat pings go out in object-address order (DET105)",
        LINT_JUDGES, "DET105"),
    Mutant(
        "lint.fault_seed_from_env", "src/repro/faults.py",
        (("from dataclasses import dataclass\n",
          "import os\nfrom dataclasses import dataclass\n"),
         ("        return cls(seed=seed, specs=parse_fault_specs(text))\n",
          "        seed = int(os.environ.get(\"REPRO_FAULT_SEED\", seed))\n"
          "        return cls(seed=seed, specs=parse_fault_specs(text))\n")),
        "a parsed fault plan takes its seed from the environment (DET106)",
        LINT_JUDGES, "DET106"),
    Mutant(
        "lint.adversary_own_rng", "src/repro/msgr/adversary.py",
        (("from ..util.bufferlist import BufferList, DataBlob\n",
          "from ..util.bufferlist import BufferList, DataBlob\n"
          "from ..util.rng import SeededRng\n"),
         ('_ACTION_ORDER = ("corrupt", "truncate", "dup", "reorder", "jitter")\n',
          '_ACTION_ORDER = ("corrupt", "truncate", "dup", "reorder", "jitter")\n'
          '_ORDER_RNG = SeededRng(7).stream("adversary")\n'),
         ("        for kind in self._kinds:\n",
          "        for kind in _ORDER_RNG.sample(self._kinds, len(self._kinds)):\n")),
        "the wire adversary shuffles its kinds with an RNG of its own (DET107)",
        LINT_JUDGES, "DET107"),
    Mutant(
        "lint.real_sleep_in_dma", "src/repro/hw/dma.py",
        (("from typing import Any, Generator, Optional\n",
          "import time\nfrom typing import Any, Generator, Optional\n"),
         ("            setup = self.setup_latency + extra_setup\n",
          "            setup = self.setup_latency + extra_setup\n"
          "            time.sleep(setup)\n")),
        "a DMA transfer blocks the host for its setup time (SIM201)",
        LINT_JUDGES, "SIM201"),
    Mutant(
        "lint.dma_finish_outside_finally", "src/repro/hw/dma.py",
        (("        finally:\n            channels.finish(req)\n",
          "        except DmaError:\n            raise\n"
          "        channels.finish(req)\n"),),
        "a failed DMA transfer leaks its channel (SIM202)",
        LINT_JUDGES, "SIM202"),
    Mutant(
        "lint.cpu_hold_not_waited", "src/repro/hw/cpu.py",
        (("            yield req.hold(wall)\n",
          "            req.hold(wall)\n"
          "            yield self.env.timeout(wall)\n"),),
        "a CPU hold is made and a second timeout waited instead (SIM203)",
        LINT_JUDGES, "SIM203"),
    Mutant(
        "lint.adversary_unslotted", "src/repro/msgr/adversary.py",
        (('    __slots__ = ("injector", "_kinds")\n\n', ""),),
        "a hot-module class loses its __slots__ (PERF301)",
        LINT_JUDGES, "PERF301"),
    Mutant(
        "lint.dma_failure_stamp", "src/repro/hw/dma.py",
        (("                self.failures += 1\n",
          "                self.failures += 1\n"
          "                self.last_failure_at = self.env.now\n"),),
        "a slotted DMA engine assigns an undeclared attribute (PERF302)",
        LINT_JUDGES, "PERF302"),
    Mutant(
        "lint.rx_chunk_bound_method", "src/repro/hw/net.py",
        (("append(self._cb_granted)", "append(self._s_granted)"),),
        "the rx chunk machine binds a method per chunk again (PERF303)",
        LINT_JUDGES, "PERF303"),
    Mutant(
        "store.breakdown_view_drops_store",
        "src/repro/core/proxy_objectstore.py",
        (("self._parts = tuple((log._columns, len(log)) for log in logs)",
          "self._parts = tuple((log._columns, len(log)) for log in logs)"
          "[:-1]"),),
        "the bench's breakdown view loses the last proxy's writes",
        ("e2e-goldens",)),
    Mutant(
        "store.wal_ignores_key_bytes", "src/repro/objectstore/bluestore/kv.py",
        (("self.size_bytes += len(key) + len(value) + ENTRY_OVERHEAD",
          "self.size_bytes += len(value) + ENTRY_OVERHEAD"),),
        "a WAL put logs its value but not its key",
        ("e2e-goldens",)),
    Mutant(
        "store.allocated_first_extent_only",
        "src/repro/objectstore/bluestore/store.py",
        (("return sum(r & _LEN_MASK for r in runs)",
          "return runs[0] & _LEN_MASK if runs else 0"),),
        "an onode's allocated bytes count its first extent only",
        ("e2e-goldens",)),
    Mutant(
        "store.runs_drop_later_extent",
        "src/repro/objectstore/bluestore/store.py",
        (("packed = tuple(e.offset << _LEN_BITS | e.length for e in extents)",
          "packed = tuple(e.offset << _LEN_BITS | e.length"
          " for e in extents[:1])"),),
        "an onode keeps the first run of a fragmented allocation only",
        ("hash-tier1",)),
    Mutant(
        "store.record_drops_top_run",
        "src/repro/objectstore/bluestore/store.py",
        (("            while rest:\n", "            while rest > _RUN_MASK:\n"),),
        "an onode record decodes every run of a multi-run object but "
        "the last one allocated",
        ("hash-tier1",)),
    Mutant(
        "store.record_version_16_bits",
        "src/repro/objectstore/bluestore/store.py",
        (("record >> _VERSION_SHIFT & _VERSION_MASK",
          "record >> _VERSION_SHIFT & 0xFFFF"),),
        "an onode record's version decodes from its low 16 bits only",
        ("hash-tier1",)),
    Mutant(
        "qos.pending_prunes_in_flight_op", "src/repro/qos/workload.py",
        (("            proc.callbacks.append(finished)\n",
          "            finished(proc)\n"),),
        "an open-loop op leaves the pending set when it is issued, so the "
        "drain no longer waits on it",
        ("hash-tier1", "e2e-goldens")),
    Mutant(
        "osd.degraded_write_skips_unregistered_member",
        "src/repro/osd/daemon.py",
        (("            if (len(pg.acting) < self.osdmap.pools[pgid.pool].size\n"
          "                    or any(o not in pg.acting for o in full_holders)):\n",
          "            if any(o not in pg.acting for o in full_holders):\n"),),
        "a write on a PG missing a member that is no registered holder "
        "leaves the generation alone, so the member can return, pull "
        "before the write is readable, and register as current",
        ("hash-tier1",)),
    Mutant(
        "guard.uncalled_def", "src/repro/osd/pg.py",
        (("    @property\n    def collection(self) -> str:\n",
          "    def is_degraded(self) -> bool:\n"
          "        return len(self.acting) < 2\n\n"
          "    @property\n    def collection(self) -> str:\n"),),
        "a def nothing in src/, benchmarks/ or examples/ calls",
        ("e2e-goldens",)),
    Mutant(
        "guard.builtin_named_method", "src/repro/objectstore/api.py",
        (("    def remove(self, coll: str, oid: str) -> \"Transaction\":\n",
          "    def setattr(self, coll: str, oid: str) -> \"Transaction\":\n"
          "        return self\n\n"
          "    def remove(self, coll: str, oid: str) -> \"Transaction\":\n"),),
        "an uncalled method that shares its name with a builtin other "
        "modules call",
        ("e2e-goldens",)),
    Mutant(
        "guard.unused_import", "src/repro/osd/pg.py",
        (("from dataclasses import dataclass\n",
          "from dataclasses import dataclass, field\n"),),
        "a module imports a name it never loads",
        ("e2e-goldens",)),
    Mutant(
        "sim.compaction_drops_unwaited_timeout", "src/repro/sim/core.py",
        (("            if entry[3].callbacks is not _CANCELLED:\n"
          "                live.append(entry)\n",
          "            if entry[3].callbacks:\n"
          "                live.append(entry)\n"),),
        "heap compaction drops a timeout nobody waits on yet, "
        "cancelled or not",
        ("hash-tier1", "e2e-goldens")),
    Mutant(
        "sim.compaction_rebinds_queue", "src/repro/sim/core.py",
        (("        queue[:] = live\n        heapify(queue)\n",
          "        self._queue = live\n        heapify(live)\n"),),
        "compaction swaps in a new heap list, so a run() that triggers "
        "it from a callback keeps popping the old one and never sees "
        "what is filed afterwards",
        ("hash-tier1", "e2e-goldens")),
    Mutant(
        "sim.drain_forgets_dropped_deadline", "src/repro/sim/core.py",
        (("        elif self._dropped_at > self._now:\n",
          "        elif False:\n"),),
        "a run that drains ends at its last dispatch, before the latest "
        "cancelled deadline it dropped",
        ("hash-tier1", "e2e-goldens")),
    Mutant(
        "sim.cancel_accepts_waiters", "src/repro/sim/core.py",
        (("        if callbacks:\n"
          "            raise SimulationError(f\"{self!r} has waiters\")\n",
          ""),),
        "cancel() withdraws a timeout something waits on, which then "
        "never wakes",
        ("hash-tier1", "e2e-goldens")),
    Mutant(
        "recovery.abort_keeps_pending", "src/repro/osd/recovery.py",
        (("            if streams or not pull.pending:\n",
          "            if not pull.pending:\n"),),
        "an aborted pull keeps the sources it still awaits, so a stream "
        "whose push was lost or never persisted can still complete it",
        ("hash-tier1",)),
    Mutant(
        "bench.engine_wall_clock_restored", "src/repro/bench/reporting.py",
        (("from .radosbench import BenchResult\n",
          "from .radosbench import BenchResult\n"
          "from ..util.wallclock import perf_counter\n"),
         ("        \"cpu\": {\n"
          "            \"host_utilization_pct\": "
          "round(result.host_utilization_pct, 9),\n"
          "        },\n",
          "        \"cpu\": {\n"
          "            \"host_utilization_pct\": "
          "round(result.host_utilization_pct, 9),\n"
          "        },\n"
          "        \"engine\": {\"wall_clock_s\": round(perf_counter(), 6)},\n"),),
        "a result payload carries a host-clock field, so two runs of one "
        "seed no longer write the same bytes",
        ("hash-tier1",)),
    Mutant(
        "bench.block_key_renamed", "src/repro/bench/reporting.py",
        (('"throughput_MBps": round(result.throughput_bytes / 1e6, 9),',
          '"throughput_mbps": round(result.throughput_bytes / 1e6, 9),'),),
        "the bench block renames a key every BENCH_*.json reader reads",
        ("tier1",)),
    Mutant(
        "osd.strict_heap_by_seq_only", "src/repro/osd/opqueue.py",
        (("heapq.heappush(self._strict, (-priority, self._seq, payload))",
          "heapq.heappush(self._strict, (self._seq, -priority, payload))"),),
        "the strict band serves in arrival order, whatever the priority",
        ("tier1",)),
    Mutant(
        "recovery.stall_clock_from_issue", "src/repro/osd/recovery.py",
        (("        rec.issuing = True\n",
          "        if rec.pull is None:\n"
          "            rec.pull = _Pull()\n"
          "        rec.pull.started = self.env.now\n"),
         ("        rec.pull.started = self.env.now\n"
          "        have = tuple(sorted(local))\n",
          "        have = tuple(sorted(local))\n"),),
        "the stall clock starts when the tick issues the pull, so making "
        "the collection counts as stream silence and a second issue "
        "streams the same sources",
        ("hash-tier1",)),
    Mutant(
        "paper.dma_setup_latency_up_10pct", "src/repro/cluster/config.py",
        (("    dma_setup_latency: float = 2.28e-3\n",
          "    dma_setup_latency: float = 2.508e-3\n"),),
        "every DMA transfer pays 10 % more setup, so DoCeph's latency, "
        "IOPS and Table 3 move while the paper suite's shape assertions "
        "still hold",
        ("paper",)),
)


def _apply(root: pathlib.Path, mutant: Mutant) -> None:
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    for old, new in mutant.edits:
        count = text.count(old)
        if count != 1:
            raise SystemExit(
                f"{mutant.name}: anchor occurs {count} times in {mutant.path}")
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")


def _run_gate(root: pathlib.Path, gate: Gate, timeout: float) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    env.pop("REPRO_FAULT_SEED", None)
    env["PYTHONPATH"] = "src"
    env.update(gate.env)
    try:
        proc = subprocess.run(gate.command, cwd=root, env=env,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"killed": True, "detail": f"timeout after {timeout:.0f} s"}
    detail = ""
    if proc.returncode:
        lines = (proc.stdout + proc.stderr).splitlines()
        failed = [ln for ln in lines if ln.startswith(("FAILED", "ERROR"))]
        detail = (failed or lines[-1:] or [""])[0][:200]
    return {"killed": proc.returncode != 0, "exit": proc.returncode,
            "detail": detail}


def judge(tree: pathlib.Path, mutant: Mutant, timeout: float,
          gates: dict[str, Gate]) -> dict:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = pathlib.Path(tmp) / "tree"
        shutil.copytree(tree, root, ignore=shutil.ignore_patterns(
            "__pycache__", ".pytest_cache"))
        _apply(root, mutant)
        results = {"tier1": _run_gate(root, GATES["tier1"], timeout)}
        tier1_killed = results["tier1"]["killed"]
        for name, gate in gates.items():
            if name == "tier1":
                continue
            if tier1_killed and name not in mutant.targets:
                continue
            results[name] = _run_gate(root, gate, timeout)
    row = {"name": mutant.name, "path": mutant.path, "why": mutant.why,
           "targets": list(mutant.targets), "results": results}
    if mutant.rule:
        row["rule"] = mutant.rule
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", required=True, type=pathlib.Path,
                        help="checkout whose gates are judged")
    parser.add_argument("--only", nargs="*", default=None,
                        help="mutant names to run (default: all)")
    parser.add_argument("--gates", nargs="*", default=None,
                        help="gates to run besides tier1, from GATES and "
                             "JUDGES (default: every gate of GATES)")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=1800.0,
                        help="seconds before a gate counts as a kill")
    parser.add_argument("--commit", default="",
                        help="commit id of --tree, recorded in the output")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="results document; this tree's entry is "
                             "added or replaced")
    args = parser.parse_args(argv)

    mutants = [m for m in MUTANTS if args.only is None or m.name in args.only]
    if args.gates is None:
        gates = GATES
    else:
        unknown = set(args.gates) - set(GATES) - set(JUDGES)
        if unknown:
            parser.error(f"unknown gates: {', '.join(sorted(unknown))}")
        gates = {n: g for n, g in {**GATES, **JUDGES}.items()
                 if n == "tier1" or n in args.gates}
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        rows = list(pool.map(
            lambda m: judge(args.tree.resolve(), m, args.timeout, gates),
            mutants))
    entry = {"tree_commit": args.commit, "rule": RULE,
             "gates": {n: {"command": g.command, "env": g.env}
                       for n, g in gates.items()},
             "mutants": rows}
    if any(m.rule for m in mutants):
        entry["lint_rule"] = LINT_RULE
    if args.out:
        trees = []
        if args.out.exists():
            trees = json.loads(args.out.read_text(encoding="utf-8"))["trees"]
        trees = [t for t in trees if t["tree_commit"] != args.commit]
        text = json.dumps({"trees": [*trees, entry]}, indent=1,
                          sort_keys=True)
        args.out.write_text(text + "\n", encoding="utf-8")
    for row in rows:
        killers = sorted(g for g, r in row["results"].items() if r["killed"])
        print(f"{row['name']:34s} {', '.join(killers) or 'SURVIVES'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The fuzzing loop: corpus replay → generate/mutate → execute → shrink.

One :class:`Fuzzer` owns the seeded generator, the coverage map, the
queue of "interesting" scenarios (those that discovered new coverage)
and the regression corpus directory.  A session is:

1. **Corpus replay** — every ``*.plan`` file under the corpus directory
   (shrunk violations from earlier sessions) is replayed first; any
   that still violates is a regression and fails the run.
2. **Fuzzing** — each iteration either mutates a queue parent (chosen
   with probability proportional to the rarity of the coverage it
   discovered) or draws a fresh random scenario, executes it, and folds
   the result into the coverage map.
3. **Shrinking** — the first scenario exhibiting each new violation
   signature is greedily shrunk (re-executing every candidate) and the
   minimal plan is written to the corpus in the textual format.

Determinism: with the same seed, iteration count, executor and corpus
contents, the whole session — every scenario proposed, every verdict,
the report fingerprint — replays bit-identically.  Wall-clock is read
only through :func:`repro.util.wallclock.perf_counter` and only feeds
the (fingerprint-excluded) ``wall_s`` field and the ``--time-budget``
cutoff.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from ..util.digest import fingerprint, sha256_hex
from ..util.rng import SeededRng
from ..util.wallclock import perf_counter
from .coverage import CoverageMap
from .executor import execute_scenario, violation_signature
from .generator import ScenarioGenerator
from .scenario import Scenario, scenario_from_text, scenario_to_text
from .shrink import shrink

__all__ = ["FuzzReport", "Fuzzer", "ViolationRecord", "run_fuzz"]


@dataclass(frozen=True)
class ViolationRecord:
    """One (shrunk) violation the session found or replayed."""

    iteration: int  # -1 for corpus-replay regressions
    signature: str
    violations: tuple[str, ...]
    fingerprint: str
    scenario_text: str  # minimal plan, corpus format
    original_text: str  # the pre-shrink scenario
    shrink_executions: int
    corpus_path: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {
            "iteration": self.iteration,
            "signature": self.signature,
            "violations": list(self.violations),
            "fingerprint": self.fingerprint,
            "scenario": self.scenario_text,
            "original": self.original_text,
            "shrink_executions": self.shrink_executions,
            "corpus_path": self.corpus_path,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzzing session."""

    seed: int
    iterations_requested: int
    iterations_run: int
    executions: int
    coverage: dict[str, int]
    progression: list[tuple[int, int]]  # (iteration, coverage size)
    violations: list[ViolationRecord]
    corpus_replayed: list[str]
    corpus_failures: list[ViolationRecord]
    wall_s: float = 0.0
    log: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.corpus_failures

    def fingerprint(self) -> str:
        """Replay digest over everything that is a pure function of
        (seed, iterations, executor, corpus): scenarios judged, coverage
        counts, progression, violation plans.  Excludes wall-clock and
        filesystem paths."""
        doc = {
            "seed": self.seed,
            "iterations": self.iterations_run,
            "executions": self.executions,
            "coverage": dict(sorted(self.coverage.items())),
            "progression": [list(p) for p in self.progression],
            "violations": [
                {
                    "signature": v.signature,
                    "violations": list(v.violations),
                    "fingerprint": v.fingerprint,
                    "scenario": v.scenario_text,
                }
                for v in self.violations
            ],
            "corpus_replayed": list(self.corpus_replayed),
            "corpus_failures": [
                {"signature": v.signature, "scenario": v.scenario_text}
                for v in self.corpus_failures
            ],
        }
        return fingerprint(doc)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "iterations_requested": self.iterations_requested,
            "iterations_run": self.iterations_run,
            "executions": self.executions,
            "coverage": dict(sorted(self.coverage.items())),
            "coverage_keys": sorted(self.coverage),
            "progression": [list(p) for p in self.progression],
            "violations": [v.as_dict() for v in self.violations],
            "corpus_replayed": list(self.corpus_replayed),
            "corpus_failures": [v.as_dict() for v in self.corpus_failures],
            "wall_s": round(self.wall_s, 6),
            "fingerprint": self.fingerprint(),
        }


class Fuzzer:
    """Coverage-guided scenario fuzzer over the chaos/durability oracle."""

    def __init__(
        self,
        seed: int = 0,
        corpus_dir: Optional[str | pathlib.Path] = None,
        execute: Optional[Callable[[Scenario], Any]] = None,
        log: Optional[Callable[[str], None]] = None,
        shrink_budget: int = 60,
        nodes: int = 3,
    ) -> None:
        self.seed = int(seed)
        self.corpus_dir = (
            pathlib.Path(corpus_dir) if corpus_dir is not None else None
        )
        self._execute = execute if execute is not None else execute_scenario
        self._log_sink = log
        self.shrink_budget = shrink_budget
        self.generator = ScenarioGenerator(self.seed, nodes=nodes)
        self._rng = SeededRng(self.seed).child("fuzz").stream("loop")
        self.coverage = CoverageMap()
        #: (scenario, keys it discovered) — the mutation parent pool.
        self.queue: list[tuple[Scenario, tuple[str, ...]]] = []
        #: violation signatures already shrunk (here or in a previous
        #: soak session) — each signature is shrunk at most once.
        self.seen_signatures: set[str] = set()
        self.executions = 0
        self._lines: list[str] = []

    def restore(
        self,
        coverage: dict[str, int],
        queue: Iterable[tuple[str, Iterable[str]]] = (),
        seen_signatures: Iterable[str] = (),
    ) -> None:
        """Preload a previous session's checkpoint (soak mode).

        ``coverage`` is hit counts per key; ``queue`` is the persisted
        mutation-parent pool as ``(scenario text, discovered keys)``
        pairs; ``seen_signatures`` suppresses re-shrinking violation
        classes already minimized in an earlier session."""
        for key, count in coverage.items():
            if count > 0:
                self.coverage.counts[key] = (
                    self.coverage.counts.get(key, 0) + int(count)
                )
        for text, keys in queue:
            self.queue.append((scenario_from_text(text), tuple(keys)))
        self.seen_signatures.update(seen_signatures)

    # ------------------------------------------------------------- plumbing
    def _log(self, message: str) -> None:
        self._lines.append(message)
        if self._log_sink is not None:
            self._log_sink(message)

    def _run_one(self, scenario: Scenario) -> Any:
        self.executions += 1
        return self._execute(scenario)

    # ------------------------------------------------------------- corpus
    def corpus_entries(self) -> list[pathlib.Path]:
        if self.corpus_dir is None or not self.corpus_dir.is_dir():
            return []
        return sorted(self.corpus_dir.glob("*.plan"))

    def _write_corpus_entry(self, record_text: str, signature: str) -> str:
        """Persist a shrunk violation plan; returns the path written."""
        assert self.corpus_dir is not None
        digest = sha256_hex(record_text.encode("utf-8"))
        name = f"crash-{signature.replace('+', '_')}-{digest[:12]}.plan"
        self.corpus_dir.mkdir(parents=True, exist_ok=True)
        path = self.corpus_dir / name
        if not path.exists():
            path.write_text(record_text)
        return str(path)

    def _replay_corpus(
        self,
    ) -> tuple[list[str], list[ViolationRecord]]:
        replayed: list[str] = []
        failures: list[ViolationRecord] = []
        for path in self.corpus_entries():
            try:
                scenario = scenario_from_text(path.read_text())
            except ValueError as exc:
                self._log(f"corpus {path.name}: UNPARSEABLE ({exc})")
                failures.append(ViolationRecord(
                    iteration=-1, signature="unparseable",
                    violations=(str(exc),), fingerprint="",
                    scenario_text="", original_text="",
                    shrink_executions=0, corpus_path=str(path),
                ))
                continue
            outcome = self._run_one(scenario)
            new_keys = self.coverage.add(outcome.coverage)
            if new_keys:
                self.queue.append((scenario, tuple(new_keys)))
            replayed.append(path.name)
            if outcome.violations:
                signature = violation_signature(outcome.violations)
                self._log(
                    f"corpus {path.name}: REGRESSION ({signature})"
                )
                failures.append(ViolationRecord(
                    iteration=-1, signature=signature,
                    violations=outcome.violations,
                    fingerprint=outcome.fingerprint,
                    scenario_text=scenario_to_text(scenario),
                    original_text=scenario_to_text(scenario),
                    shrink_executions=0, corpus_path=str(path),
                ))
            else:
                self._log(
                    f"corpus {path.name}: pass"
                    f" (coverage {len(self.coverage)})"
                )
        return replayed, failures

    # ------------------------------------------------------------- search
    def _next_scenario(self) -> Scenario:
        if self.queue and self._rng.random() < 0.7:
            weights = [
                max(self.coverage.rarity(keys), 1e-6)
                for _scenario, keys in self.queue
            ]
            pick = self._rng.random() * sum(weights)
            for (parent, _keys), weight in zip(self.queue, weights):
                pick -= weight
                if pick <= 0.0:
                    return self.generator.mutate(parent, self.coverage)
            parent = self.queue[-1][0]
            return self.generator.mutate(parent, self.coverage)
        return self.generator.random_scenario()

    def _shrink_violation(
        self, scenario: Scenario, signature: str, iteration: int
    ) -> ViolationRecord:
        def still_fails(candidate: Scenario) -> bool:
            outcome = self._run_one(candidate)
            self.coverage.add(outcome.coverage)
            return violation_signature(outcome.violations) == signature

        result = shrink(
            scenario, still_fails, max_executions=self.shrink_budget
        )
        final = self._run_one(result.scenario)
        minimal_text = scenario_to_text(
            result.scenario,
            comments=[
                f"violation signature: {signature}",
                *(f"violation: {v}" for v in final.violations),
                f"found by repro.fuzz seed={self.seed}"
                f" iteration={iteration}",
            ],
        )
        corpus_path = ""
        if self.corpus_dir is not None:
            corpus_path = self._write_corpus_entry(minimal_text, signature)
        self._log(
            f"  shrunk to {result.scenario!r}"
            f" in {result.executions} executions"
            + (f" -> {corpus_path}" if corpus_path else "")
        )
        return ViolationRecord(
            iteration=iteration,
            signature=signature,
            violations=final.violations,
            fingerprint=final.fingerprint,
            scenario_text=minimal_text,
            original_text=scenario_to_text(scenario),
            shrink_executions=result.executions,
            corpus_path=corpus_path,
        )

    # ------------------------------------------------------------- session
    def run(
        self,
        iterations: int = 20,
        time_budget: Optional[float] = None,
    ) -> FuzzReport:
        """One full session: corpus replay, then ``iterations`` fuzz
        iterations (cut short by ``time_budget`` wall seconds, if set)."""
        t_start = perf_counter()
        replayed, corpus_failures = self._replay_corpus()
        progression: list[tuple[int, int]] = []
        violations: list[ViolationRecord] = []
        seen_signatures = self.seen_signatures
        iterations_run = 0
        for iteration in range(iterations):
            if (
                time_budget is not None
                and perf_counter() - t_start >= time_budget
            ):
                self._log(
                    f"time budget {time_budget:g}s exhausted after"
                    f" {iteration} iterations"
                )
                break
            scenario = self._next_scenario()
            outcome = self._run_one(scenario)
            iterations_run += 1
            new_keys = self.coverage.add(outcome.coverage)
            if new_keys:
                self.queue.append((scenario, tuple(new_keys)))
            progression.append((iteration, len(self.coverage)))
            status = ""
            if outcome.aborted:
                status = f", aborted ({outcome.aborted.split(':', 1)[0]})"
            signature = ""
            if outcome.violations:
                signature = violation_signature(outcome.violations)
                status = f", VIOLATION [{signature}]"
            self._log(
                f"iter {iteration}: coverage {len(self.coverage)}"
                f" (+{len(new_keys)}), acked {outcome.writes_acked},"
                f" failed {outcome.writes_failed}{status}"
            )
            if outcome.violations and signature not in seen_signatures:
                seen_signatures.add(signature)
                violations.append(
                    self._shrink_violation(scenario, signature, iteration)
                )
        return FuzzReport(
            seed=self.seed,
            iterations_requested=iterations,
            iterations_run=iterations_run,
            executions=self.executions,
            coverage=self.coverage.as_dict(),
            progression=progression,
            violations=violations,
            corpus_replayed=replayed,
            corpus_failures=corpus_failures,
            wall_s=perf_counter() - t_start,
            log=list(self._lines),
        )


def run_fuzz(
    seed: int = 0,
    iterations: int = 20,
    time_budget: Optional[float] = None,
    corpus_dir: Optional[str | pathlib.Path] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Convenience wrapper: one seeded session against the real executor."""
    fuzzer = Fuzzer(seed=seed, corpus_dir=corpus_dir, log=log)
    return fuzzer.run(iterations=iterations, time_budget=time_budget)

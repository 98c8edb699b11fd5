"""repro.lint — determinism & sim-safety static analysis (DESIGN.md §9).

An AST-based checker purpose-built for this repository's invariants.
PR 4 made everything load-bearing on byte-identical simulation digests;
these rules keep the next change from silently breaking that:

=======  ==========================================================
code     guards against
=======  ==========================================================
DET101   wall-clock reads outside ``repro.util.wallclock``
DET102   ambient entropy (``uuid4``, ``os.urandom``, ``secrets``)
DET103   the global ``random`` stream outside ``repro.util.rng``
DET104   set iteration feeding order-sensitive code
DET106   env-var reads outside the CLI/config boundary
SIM201   real blocking calls/imports inside simulated layers
PERF301  hot-module classes missing ``__slots__``
PERF303  per-event allocation in hot drain loops and in the bodies
         of ``Machine``-subclass state callbacks
=======  ==========================================================

Static entry points: :func:`lint_paths` / :func:`lint_source`; there
is no baseline, so the shipped tree must have zero findings.  The
dynamic companion :func:`check_tie_order` probes a scenario for
same-timestamp tie-order sensitivity by perturbing heap tie-breaking
and diffing digests.  CLI: ``python -m repro lint``.
"""

from .dynamic import TieOrderReport, TieSite, check_tie_order, patched_tie_order
from .engine import Finding, LintReport, lint_paths, lint_source
from .rules import RULES, Rule

__all__ = [
    "Finding",
    "LintReport",
    "RULES",
    "Rule",
    "TieOrderReport",
    "TieSite",
    "check_tie_order",
    "lint_paths",
    "lint_source",
    "patched_tie_order",
]

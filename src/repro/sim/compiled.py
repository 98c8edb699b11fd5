"""Shim: there is one engine.  ``benchmarks/e2e/harness.py`` (frozen by
BENCHMARK.json) still imports this constant; the next ``benchmark``-typed
PR drops that import and this file."""

ACTIVE_ENGINE = "pure"

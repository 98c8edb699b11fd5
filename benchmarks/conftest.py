"""Shared fixtures for the benchmark harness.

The Fig. 7/8/9/10 and Table 3 benches all consume one comparison sweep
(the paper derives them from the same runs); ``experiments.py`` memoizes
it process-wide, so whichever bench runs first pays the simulation cost.

Rendered paper-vs-measured tables are written to
``benchmarks/results/*.txt`` and echoed to stdout; machine-readable
results go to ``benchmarks/results/BENCH_<name>.json``.
"""

from __future__ import annotations

import pathlib
from typing import Any, Optional

import pytest

from repro.bench import run_comparison_sweep, write_results

#: One knob for all benches: simulated seconds of measured workload.
BENCH_DURATION = 8.0
BENCH_CLIENTS = 16

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def sweep():
    """Baseline-vs-DoCeph sweep over 1/4/8/16 MB (shared by benches)."""
    return run_comparison_sweep(duration=BENCH_DURATION,
                                clients=BENCH_CLIENTS)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def publish(results_dir: pathlib.Path, name: str, text: str,
            payload: Optional[dict[str, Any]] = None) -> None:
    """Write a rendered table to results/ and echo it; when ``payload``
    is given, also write the BENCH_<name>.json machine-readable form."""
    write_results(name, text, payload, results_dir)
    print("\n" + text)

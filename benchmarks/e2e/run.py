"""End-to-end benchmark of the DoCeph simulator: one command per workload.

    python3 benchmarks/e2e/run.py --workload w4m_doceph            # untraced
    python3 benchmarks/e2e/run.py --workload w4m_doceph --trace 1  # per layer
    python3 benchmarks/e2e/run.py --selfcheck | --sensitivity

Prints every metric by name with its unit, then one JSON object on the
last line; exits non-zero when an output is wrong.  See README.md.
"""

from __future__ import annotations

import time

# Set-up time is counted from here, before anything of the simulator is
# imported -- so this one read cannot go through repro.util.wallclock,
# whose import (repro.util, repro.sim: 50 ms) is part of what it times.
T0 = time.perf_counter()  # repro-lint: disable=DET101

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="one of the names in BENCHMARK.json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="wall seconds of measured replays "
                        "(default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = the traced run that yields per-layer metrics")
    p.add_argument("--quick", action="store_true",
                   help="short replays: every metric is printed, none is "
                        "meaningful, golden and sample-count checks are off")
    p.add_argument("--selfcheck", action="store_true",
                   help="two untraced sets of every workload must agree "
                        "within the bounds in BENCHMARK.json")
    p.add_argument("--sensitivity", action="store_true",
                   help="show that injected host delay and a simulated "
                        "knob move the metrics they should and no others")
    p.add_argument("--regen-golden", action="store_true",
                   help="rewrite golden/<workload>.json from this run "
                        "(for a change that alters the model)")
    args = p.parse_args(argv)
    if not (args.selfcheck or args.sensitivity or args.workload):
        p.error("one of --workload, --selfcheck, --sensitivity is required")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {SRC}: the benchmark measures "
              "the checkout it sits in and has nothing to run", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # imports the simulator: timed as part of set-up

    return harness.main(args, t0=T0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Seeded benchmark of the ofdm_music sensing chain.

Run from the repository root:

    python3 perfbench/run.py --workload mc-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all              # every workload, one table

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see perfbench/README.md). The last line of standard
output is one JSON object with the keys correct, attempted, failed and metrics.
The package is imported from ``src/`` next to this directory; without it the
script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("mc-sweep", "calibrate", "mc-sweep-parallel", "estimate-frames")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true",
                       help="run every workload in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--no-blas-pin", action="store_true",
                        help="keep default BLAS threading in mc-sweep-parallel "
                             "(the oversubscribed before-number)")
    parser.add_argument("--out", help="with --all: write the results as JSON here")
    return parser.parse_args(argv)


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "ofdm_music", "__init__.py")):
        print(f"error: no ofdm_music package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "mc-sweep-parallel" and not args.no_blas_pin:
        for key in BLAS_ENV:   # before numpy loads; pool workers inherit it
            os.environ[key] = "1"
    sys.path.insert(0, SRC)
    import measure   # imports numpy: only after the BLAS environment is set
    return measure.run(args)


def run_all(args) -> int:
    """Every workload in its own process; prints the combined results."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--no-blas-pin"] if args.no_blas_pin
                                              else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            return proc.returncode or 1
        results[name] = json.loads(lines[-2])["report"] | json.loads(lines[-1])
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

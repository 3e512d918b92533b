"""Set-up time of one workload in a fresh process; prints one JSON line.

import_s is the package import, config_s the workload's config, plan and
steering set-up, pool_s the start of a process pool like the one the harness
starts (mc-sweep-parallel only). They are scaled to the nominal machine speed
by a speed reference sample taken right after (see speed.py); the raw_ keys
hold the unscaled times. Started by measure.py, which sets the same BLAS
environment as the workload process.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(HERE, ".work")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(1, HERE)

    start = time.perf_counter()
    import ofdm_music  # noqa: F401  (timed: the package import)
    imported = time.perf_counter()
    import workloads
    workload = workloads.make(args.workload, args.seed, WORK_DIR)
    configured_start = time.perf_counter()
    workload.setup()
    configured = time.perf_counter()
    pool_s = 0.0
    if isinstance(workload, workloads.McSweepParallel):
        from ofdm_music import harness
        with harness.ProcessPoolExecutor(max_workers=workload.n_workers) as pool:
            list(pool.map(abs, range(workload.n_workers)))
        pool_s = time.perf_counter() - configured
    workload.close()
    import speed
    factor = speed.NOMINAL_S / speed.sample()   # after, so numpy's import is timed
    raw = {"import_s": imported - start, "config_s": configured - configured_start,
           "pool_s": pool_s}
    print(json.dumps({k: v * factor for k, v in raw.items()}
                     | {f"raw_{k}": v for k, v in raw.items()}))


if __name__ == "__main__":
    main()

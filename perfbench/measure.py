"""Closed-loop measurement, output checks and reports of one workload run.

Imported by run.py only after the BLAS environment of the workload is set,
because it loads numpy.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import numpy as np
import ofdm_music
import scipy
import spans
import speed
import workloads
from ofdm_music import harness
from percentiles import percentile, reportable_percentile
from run import BLAS_ENV, CHILD_TIMEOUT_S, HERE, ROOT

WORK_DIR = os.path.join(HERE, ".work")
SETUP_PROBES = 5

END_TO_END = {
    "trials_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class Phase:
    """Outputs and latency samples of one closed-loop phase.

    ``factors`` scale each operation's times to the nominal machine speed
    (see speed.py).
    """

    def __init__(self):
        self.prepared, self.outputs = [], []
        self.parts = []         # per operation, Workload.timed_parts
        self.factors = []
        self.reference_s = []   # speed reference samples taken between operations

    def __len__(self):
        return len(self.outputs)

    def raw_latencies(self):
        return [s for op in self.parts for s, _ in op]

    def adjusted_latencies_by_op(self):
        return [[s * (speed.NOMINAL_S / ref if ref else f) for s, ref in op]
                for op, f in zip(self.parts, self.factors)]

    def adjusted_latencies(self):
        return [s for op in self.adjusted_latencies_by_op() for s in op]

    def adjusted_op_times(self):
        return [sum(op) for op in self.adjusted_latencies_by_op()]


def _execute(workload, phase, prepared, tracer, fn):
    scope = tracer.operation(workload.units_per_op) if tracer else nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            output = fn(prepared)
    except Exception as exc:   # counted as a failed operation
        output = exc
    duration = time.perf_counter() - start
    phase.prepared.append(prepared)
    phase.outputs.append(output)
    phase.parts.append(workload.timed_parts(duration))


def run_loop(workload, seconds, min_ops=1, tracer=None, max_ops=None) -> Phase:
    """Run operations 0, 1, ... until ``seconds`` and ``min_ops`` are both met."""
    phase = Phase()
    track = speed.SpeedTrack()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        _execute(workload, phase, workload.prepare(i), tracer, workload.execute)
        i += 1
        done = i % workload.op_quantum == 0 and (
            (max_ops is not None and i >= max_ops)
            or (i >= min_ops and time.perf_counter() >= deadline))
        track.after_op(i, force=done)
        if done:
            phase.factors, phase.reference_s = track.factors(i), track.samples
            return phase


def single_op(workload, fn, tracer=None) -> Phase:
    """A phase of the one operation ``fn()``, on the inputs of operation 0."""
    phase = Phase()
    track = speed.SpeedTrack()
    _execute(workload, phase, 0, tracer, lambda _: fn())
    track.after_op(1, force=True)
    phase.factors, phase.reference_s = track.factors(1), track.samples
    return phase


def check_phase(workload, phase, label) -> tuple[int, list[str]]:
    """Failed operation count and messages for every output of a phase."""
    failed, messages = 0, []
    for i, (prepared, output) in enumerate(zip(phase.prepared, phase.outputs)):
        if isinstance(output, Exception):
            problems = [f"raised {output!r}"]
        else:
            problems = workload.check(prepared, output)
        if problems:
            failed += 1
            messages.extend(f"{label} operation {i}: {p}" for p in problems)
    return failed, messages


class Checks:
    """Attempted and failed operations, including the benchmark's own checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add_phase(self, workload, phase, label):
        failed, messages = check_phase(workload, phase, label)
        self.attempted += len(phase)
        self.failed += failed
        self.messages += messages

    def add(self, name, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.messages += [f"{name}: {p}" for p in problems]

    def run(self, name, fn):
        try:
            problems = fn()
        except Exception as exc:   # a check that raises is a failed check
            problems = [f"raised {exc!r}"]
        self.add(name, problems)


def quality(workload, phase, checks):
    """Quality figures over the leading operations, or None if too few ran."""
    pairs = list(zip(phase.prepared, phase.outputs))[:workload.quality_ops]
    if len(pairs) < workload.quality_ops or \
            any(isinstance(o, Exception) for _, o in pairs):
        return None
    figures = {}

    def band():
        values, problems = workload.quality(pairs)
        figures.update(values)
        return problems
    checks.run("quality band", band)
    return figures


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_probes(args) -> dict:
    """Median set-up times over fresh processes (import, config, pool start)."""
    runs = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    keys = runs[0].keys()
    return {k: statistics.median(r[k] for r in runs) for k in keys} | \
        {"samples": len(runs)}


def git_commit(root) -> str | None:
    """Commit of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, workload) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(ROOT),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
            "version"),
        "nproc": workloads.nproc(), "blas_threads": workloads.blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "workers": getattr(workload, "n_workers", 1),
    }


def worker_blas_threads(n_workers) -> list:
    """BLAS thread counts seen by processes of a pool like the harness starts."""
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return sorted(set(pool.map(workloads.worker_blas_threads, range(n_workers))))


def measure_untraced(args, workload, checks, report) -> dict:
    phase = run_loop(workload, args.seconds, workload.min_ops)
    checks.add_phase(workload, phase, "timed")
    checks.run("rerun", lambda: workload.rerun_check(phase.outputs))
    report["quality"] = quality(workload, phase, checks)
    rss = peak_rss_mb()
    setup = setup_probes(args)
    units = len(phase) * workload.units_per_op
    adjusted_ms = [s * 1e3 for s in phase.adjusted_latencies()]
    raw_ms = [s * 1e3 for s in phase.raw_latencies()]
    report["samples"] = {
        "operations": len(phase), workload.unit: units, "latency": len(adjusted_ms),
        "highest_reportable_percentile": reportable_percentile(len(adjusted_ms)),
        "speed_samples": len(phase.reference_s),
        "setup_probes": setup["samples"]}
    report["setup"] = setup
    report["unadjusted"] = {
        "trials_per_s": units / sum(phase.raw_latencies()),
        "latency_ms_p50": percentile(raw_ms, 50),
        "latency_ms_p90": percentile(raw_ms, 90),
        "reference_ms_median": statistics.median(phase.reference_s) * 1e3,
        "speed_factor_min": min(phase.factors),
        "speed_factor_median": statistics.median(phase.factors),
        "speed_factor_max": max(phase.factors)}
    return {
        "trials_per_s": units / sum(phase.adjusted_op_times()),
        "latency_ms_p50": percentile(adjusted_ms, 50),
        "latency_ms_p90": percentile(adjusted_ms, 90),
        "setup_s": setup["import_s"] + setup["config_s"] + setup["pool_s"],
        "peak_rss_mb": rss,
    }


def compare_phases(workload, base, other, label) -> list[str]:
    n = min(len(base), len(other))
    return [f"operation {i} differs {label}" for i in range(n)
            if not isinstance(base.outputs[i], Exception)
            and workload.fingerprint(base.outputs[i]) !=
            workload.fingerprint(other.outputs[i])]


def measure_traced(args, workload, checks, report) -> dict:
    extra = {"harness.pool.starts": 0.0, "harness.pool.efficiency": 0.0}
    if isinstance(workload, workloads.McSweepParallel):
        untraced, plain, traced, tracer = _traced_parallel(args, workload, checks,
                                                           extra)
    else:
        untraced = run_loop(workload, args.seconds / 2)
        checks.add_phase(workload, untraced, "untraced")
        tracer = spans.Tracer()
        restore = spans.instrument(tracer, ofdm_music)
        try:
            traced = run_loop(workload, args.seconds / 2, tracer=tracer)
        finally:
            restore()
        checks.add_phase(workload, traced, "traced")
        checks.add("tracing leaves outputs unchanged",
                   compare_phases(workload, untraced, traced, "when traced"))
        plain = untraced
    n = min(len(plain), len(traced))
    extra["trace.overhead"] = sum(traced.adjusted_op_times()[:n]) / \
        sum(plain.adjusted_op_times()[:n]) - 1
    setup = setup_probes(args)
    extra["setup.import_s"] = setup["import_s"]
    extra["setup.config_s"] = setup["config_s"]
    report["quality"] = quality(workload, untraced, checks)
    report["samples"] = {"traced_operations": len(traced),
                         "traced_units": tracer.units,
                         "untraced_operations": len(untraced),
                         "overhead_operations": n,
                         "span_calls": {k: len(v) for k, v in tracer.self_ns.items()},
                         "point_evals": tracer.point_calls,
                         "setup_probes": setup["samples"]}
    return spans.layer_metrics(tracer) | extra


def _traced_parallel(args, workload, checks, extra):
    """Sweeps at every worker, then sweep 0 at one worker, plain and traced.

    The one-worker runs give the pool efficiency and the worker-count
    invariance check; only they are traced, as spans in pool workers would
    stay in the workers.
    """
    starts = [0]
    pool_class = harness.ProcessPoolExecutor

    class CountingPool(pool_class):
        def __init__(self, *a, **k):
            starts[0] += 1
            super().__init__(*a, **k)
    harness.ProcessPoolExecutor = CountingPool
    try:
        untraced = run_loop(workload, args.seconds / 4)
    finally:
        harness.ProcessPoolExecutor = pool_class
    checks.add_phase(workload, untraced, "untraced")
    extra["harness.pool.starts"] = starts[0] / len(untraced)

    def first_sweep():
        return workload.sweep(workload.scenario(0), 1)
    plain = single_op(workload, first_sweep)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, ofdm_music)
    try:
        traced = single_op(workload, first_sweep, tracer)
    finally:
        restore()
    for label, phase in (("one-worker", plain), ("traced one-worker", traced)):
        checks.add_phase(workload, phase, label)
        checks.add(f"{label} sweep equals the sweep at {workload.n_workers} workers",
                   compare_phases(workload, untraced, phase, label))
    extra["harness.pool.efficiency"] = plain.adjusted_op_times()[0] / (
        workload.n_workers * untraced.adjusted_op_times()[0])
    return untraced, plain, traced, tracer


def run(args) -> int:
    workload = workloads.make(args.workload, args.seed, WORK_DIR)
    checks = Checks()
    report = {}
    try:
        workload.setup()
        try:   # warm-up: lazy set-up and caches, not timed, not counted
            workload.execute(workload.prepare(0))
        except Exception:
            pass   # the timed run repeats operation 0 and counts its failure
        if args.trace:
            metrics = measure_traced(args, workload, checks, report)
            units = spans.PER_LAYER
        else:
            metrics = measure_untraced(args, workload, checks, report)
            units = END_TO_END
    finally:
        workload.close()
    report["provenance"] = provenance(args, workload)
    if args.workload == "mc-sweep-parallel":
        report["provenance"]["blas_threads_workers"] = \
            worker_blas_threads(workload.n_workers)
    report["error_rate"] = checks.failed / max(1, checks.attempted)
    report["errors"] = checks.messages[:20]
    print_table(args, metrics, units, report)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def print_table(args, metrics, units, report):
    samples = report.get("samples", {})
    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    print(f"  samples: {json.dumps(samples)}")
    if report.get("quality"):
        print(f"  quality: {json.dumps(report['quality'])}")
    print(f"  error_rate: {report['error_rate']:.4g}")
    for message in report["errors"]:
        print(f"  error: {message}")

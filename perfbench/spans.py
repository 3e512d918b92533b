"""In-process span tracing of the ofdm_music layers.

``instrument`` rebinds public functions and methods of the package to timing
wrappers, in this process only, and returns a function that undoes it. Spans
are kept in memory. A call is recorded only inside an operation opened with
``Tracer.operation``, so input generation around the timed operations leaves
no spans. Self time is a span's duration minus the time of its child spans;
the operation's own self time is the part no layer span covers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

SPANS = (
    "signal_model.synthesize_csi",
    "signal_model.from_binary",
    "smoothing.smooth",
    "smoothing.covariance",
    "music.decompose",
    "music.mdl_order",
    "music.grid",
    "detection.detect",
    "detection.refine",
    "detection.cancel",
    "harness.generate_trial",
    "harness.score",
    "harness.fallback",
)

# Point evaluations are too many and too short to keep one record each; they
# are counted and timed in total, and still subtract from their parent.
POINT_EVAL = "music.point_eval"


class Tracer:
    """Span and counter store for one traced phase."""

    def __init__(self):
        self._stack: list[list[int]] = []   # child time of each open span
        self.self_ns: dict[str, list[int]] = defaultdict(list)
        self.point_calls = 0
        self.point_ns = 0
        self.counts: Counter = Counter()
        self.op_ns: list[int] = []
        self.op_self_ns = 0
        self.units = 0

    @contextmanager
    def operation(self, units: int):
        """Root span of one timed operation doing ``units`` units of work."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        frame = [0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            yield
        finally:
            duration = perf_counter_ns() - start
            self._stack.pop()
            self.op_ns.append(duration)
            self.op_self_ns += duration - frame[0]
            self.units += units

    def span(self, name: str, fn, on_result=None, on_error=None):
        """Wrap ``fn`` so each call inside an operation records a span.

        ``on_result(arguments, result)`` and ``on_error(exc)`` update counters;
        ``arguments`` maps parameter names of ``fn`` to the passed values.
        """
        stack = self._stack
        record = self.self_ns[name].append
        signature = inspect.signature(fn) if on_result else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                stack[-1][0] += duration
                record(duration - frame[0])
            if on_result is not None:
                on_result(signature.bind(*args, **kwargs).arguments, result)
            return result
        return wrapper

    def point_eval(self, fn):
        """Wrap the point evaluator: call count and total time only."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack[-1][0] += duration
                self.point_calls += 1
                self.point_ns += duration
        return wrapper


def _count_hooks(tracer: Tracer, errors_module):
    counts = tracer.counts

    def decomposed(_, subspaces):
        counts["decompose"] += 1
        counts["order0"] += subspaces.order_estimate == 0

    def detected(_, report):
        counts["detect"] += 1
        counts["spectra"] += report.spectra_computed
        counts["saturated"] += bool(report.saturated)

    def refined(arguments, peaks):
        counts["seeds"] += min(arguments["n_seeds"], arguments["grid"].values.size)
        counts["peaks"] += len(peaks)

    def cancel_failed(exc):
        if isinstance(exc, errors_module.AlreadyCanceledError):
            counts["cancel_dropped"] += 1

    def scored(arguments, _):
        counts["score"] += 1
        counts["fallback"] += len(arguments["report"].detections) < 2

    return decomposed, detected, refined, cancel_failed, scored


def instrument(tracer: Tracer, package):
    """Rebind the traced layers of ``package`` to ``tracer``; returns the undo."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package.__name__
                                     or name.startswith(package.__name__ + "."))]
    mod = functools.partial(importlib.import_module, package=package.__name__)
    signal_model, smoothing, music = mod(".signal_model"), mod(".smoothing"), \
        mod(".music")
    detection, harness, errors = mod(".detection"), mod(".harness"), mod(".errors")
    decomposed, detected, refined, cancel_failed, scored = \
        _count_hooks(tracer, errors)

    functions = [
        (signal_model, "synthesize_csi", "signal_model.synthesize_csi", {}),
        (smoothing, "smooth", "smoothing.smooth", {}),
        (smoothing, "covariance", "smoothing.covariance", {}),
        (music, "decompose", "music.decompose", {"on_result": decomposed}),
        (music, "mdl_order", "music.mdl_order", {}),
        (detection, "detect", "detection.detect", {"on_result": detected}),
        (detection, "refine_candidates", "detection.refine", {"on_result": refined}),
        (detection, "cancel_target", "detection.cancel", {"on_error": cancel_failed}),
        (harness, "generate_trial", "harness.generate_trial", {}),
        (harness, "assign_and_score", "harness.score", {"on_result": scored}),
    ]
    undo = []
    for owner, attr, name, hooks in functions:
        original = getattr(owner, attr)
        wrapped = tracer.span(name, original, **hooks)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
                undo.append((module, attr, original))

    evaluator, scoring = music.SpectrumEvaluator, harness.ScoringContext
    csi_matrix = signal_model.CsiMatrix
    methods = [
        (evaluator, "values", tracer.span("music.grid", evaluator.values)),
        (evaluator, "value", tracer.point_eval(evaluator.value)),
        (scoring, "grid_argmax", tracer.span("harness.fallback", scoring.grid_argmax)),
        (scoring, "residual_argmax",
         tracer.span("harness.fallback", scoring.residual_argmax)),
        (csi_matrix, "from_binary", classmethod(tracer.span(
            "signal_model.from_binary", csi_matrix.__dict__["from_binary"].__func__))),
    ]
    for cls, attr, wrapped in methods:
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


# Per-layer metrics and their units; the traced run reports exactly these.
PER_LAYER = {}
for _span in SPANS:
    PER_LAYER |= {f"{_span}.calls": "count", f"{_span}.self_ms_p50": "ms",
                  f"{_span}.self_ms_p90": "ms", f"{_span}.share": "fraction"}
PER_LAYER |= {
    f"{POINT_EVAL}.calls": "count",
    f"{POINT_EVAL}.us_mean": "us",
    f"{POINT_EVAL}.share": "fraction",
    "music.order0_share": "fraction",
    "detection.spectra_per_op": "count",
    "detection.seeds_refined": "count",
    "detection.refine_yield": "fraction",
    "detection.cancel_dropped": "count",
    "detection.saturated_share": "fraction",
    "harness.fallback_share": "fraction",
    "harness.pool.starts": "count",
    "harness.pool.efficiency": "fraction",
    "setup.import_s": "s",
    "setup.config_s": "s",
    "trace.overhead": "fraction",
    "trace.remainder_share": "fraction",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Metrics read from the tracer alone; counts are per unit of work.

    Shares divide self time by the total traced operation time, so the span
    shares, the point-evaluation share and the remainder add up to one.
    """
    from percentiles import percentile
    total = sum(tracer.op_ns)
    units, counts = tracer.units, tracer.counts
    out = {}
    for name in SPANS:
        samples = tracer.self_ns.get(name, [])
        out[f"{name}.calls"] = _ratio(len(samples), units)
        out[f"{name}.self_ms_p50"] = percentile(samples, 50) / 1e6 if samples else 0.0
        out[f"{name}.self_ms_p90"] = percentile(samples, 90) / 1e6 if samples else 0.0
        out[f"{name}.share"] = _ratio(sum(samples), total)
    out[f"{POINT_EVAL}.calls"] = _ratio(tracer.point_calls, units)
    out[f"{POINT_EVAL}.us_mean"] = _ratio(tracer.point_ns / 1e3, tracer.point_calls)
    out[f"{POINT_EVAL}.share"] = _ratio(tracer.point_ns, total)
    out["music.order0_share"] = _ratio(counts["order0"], counts["decompose"])
    out["detection.spectra_per_op"] = _ratio(counts["spectra"], units)
    out["detection.seeds_refined"] = _ratio(counts["seeds"], units)
    out["detection.refine_yield"] = _ratio(counts["peaks"], counts["seeds"])
    out["detection.cancel_dropped"] = _ratio(counts["cancel_dropped"], units)
    out["detection.saturated_share"] = _ratio(counts["saturated"], counts["detect"])
    out["harness.fallback_share"] = _ratio(counts["fallback"], counts["score"])
    out["trace.remainder_share"] = _ratio(tracer.op_self_ns, total)
    return out

"""Span tracing of the specthresh layers, installed from outside the package.

`install` wraps each layer's entry points in place: module functions in every
specthresh namespace that bound them (``from .x import f`` makes a second
binding), selected methods on their classes, and the ``scipy.linalg`` /
``numpy.linalg`` attributes the package calls.  Each call records one span
``[id, parent_id, name, t_start, t_end, extra]`` in memory; the child process
writes the list out when the pipeline ends.  `layer_metrics` turns a span list
into the per-layer numbers, using self time (span time minus the time of its
child spans).  It needs no third-party module, so the parent can run it.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# LAPACK operation counts in real flops for an n x n (rectangular: m x n,
# with n^3 read as m * n * min(m, n)) input; complex inputs count 4x.
_CUBIC = {"solve": 2.0 / 3.0, "inv": 2.0, "det": 2.0 / 3.0, "lstsq": 2.0,
          "eig": 25.0, "eigvals": 10.0, "svd": 21.0, "svdvals": 8.0 / 3.0}
LINALG = tuple(_CUBIC)


def _flops(op: str) -> Callable:
    def after(args, kwargs, out) -> float:
        a = args[0]
        m, n = a.shape[0], a.shape[-1]
        f = _CUBIC[op] * m * n * min(m, n)
        complex_in = a.dtype.kind == "c"
        if op == "solve":
            b = args[1] if len(args) > 1 else kwargs["b"]
            f += 2.0 * n * n * (b.shape[1] if b.ndim == 2 else 1)
            complex_in = complex_in or b.dtype.kind == "c"
        return float(4.0 * f if complex_in else f)
    return after


def _grid_n(args, kwargs, out) -> int:
    return int(args[0].n)


def _n_found(args, kwargs, out) -> int:
    return len(out)


def _jump_bytes(args, kwargs, out) -> int:
    return sum(v.nbytes for v in args[0].jump.values())


def _n_poles(args, kwargs, out) -> int:
    return len(args[0].poles)


_FACTORIES = ("free_model", "regular_model", "first_kind_model",
              "second_kind_model", "third_kind_model", "resonance_model")

# (defining module, function, span name, extra-value hook)
FUNCTIONS = [
    ("kernels", "assemble_r0", "kernels.r0", _grid_n),
    ("kernels", "assemble_gj", "kernels.gj", _grid_n),
    ("kernels", "assemble_gj_plus", "kernels.gj_plus", _grid_n),
    ("model", "weighted_operator_norm", "model.weighted_operator_norm", None),
    *[("models", f, "models.factory", None) for f in _FACTORIES],
    ("birman_schwinger", "tune_coupling", "birman_schwinger.tune_coupling",
     None),
    ("birman_schwinger", "detect_minus_one",
     "birman_schwinger.detect_minus_one", None),
    ("birman_schwinger", "riesz_projection",
     "birman_schwinger.riesz_projection", None),
    ("birman_schwinger", "classify_zero", "birman_schwinger.classify_zero",
     None),
    ("birman_schwinger", "check_hypotheses",
     "birman_schwinger.check_hypotheses", None),
    ("birman_schwinger", "scan_positive_resonances", "birman_schwinger.scan",
     _n_found),
    ("jordan", "build_jordan_chains", "jordan.build_jordan_chains", None),
    ("grushin", "invert_E_minus_plus", "grushin.invert_E_minus_plus", None),
    ("grushin", "lidskii_determinant", "grushin.lidskii_determinant", None),
    ("grushin", "threshold_resolvent_expansion",
     "grushin.threshold_resolvent_expansion", None),
    ("grushin", "resonance_resolvent_expansion",
     "grushin.resonance_resolvent_expansion", None),
    ("propagator", "resolvent_taylor", "propagator.resolvent_taylor", None),
    ("propagator", "verify_large_time", "propagator.verify_large_time", None),
    ("propagator", "check_high_energy", "propagator.check_high_energy", None),
]

# (defining module, class, method, span name, extra-value hook)
METHODS = [
    ("model", "QuadratureGrid", "distance_matrix", "model.distance_matrix",
     None),
    ("birman_schwinger", "Discretization", "R", "birman_schwinger.R", None),
    ("birman_schwinger", "Discretization", "M", "birman_schwinger.M", None),
    ("series", "ExpansionSeries", "__matmul__", "series.matmul", None),
    ("series", "ExpansionSeries", "eval", "series.eval", None),
    ("series", "ExpansionSeries", "laurent_inverse", "series.laurent_inverse",
     None),
    ("series", "ExpansionSeries", "det_series", "series.det_series", None),
    ("grushin", "GrushinReduction", "E_at", "grushin.direct", None),
    ("grushin", "GrushinReduction", "Emp_at", "grushin.direct", None),
    ("propagator", "CutPropagator", "__init__", "propagator.cut_build",
     _jump_bytes),
    # the public constructor hides the pole scan, so wrap the private method
    ("propagator", "CutPropagator", "_scan_poles", "propagator.pole_scan",
     _n_poles),
    ("propagator", "CutPropagator", "propagate", "propagator.propagate",
     None),
]


class Tracer:
    """In-memory span recorder; single-threaded, spans nest by call stack."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, clock(),
                   0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if after is not None:
                rec[5] = after(args, kwargs, out)
            return out
        return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point listed above; import specthresh first."""
    import numpy.linalg
    import scipy.linalg

    import specthresh.cli  # noqa: F401  (loads every module of the package)

    for mod in (scipy.linalg, numpy.linalg):
        for op in LINALG:
            if hasattr(mod, op):
                setattr(mod, op, tracer.wrap(f"linalg.{op}", getattr(mod, op),
                                             _flops(op)))
    package = [m for k, m in list(sys.modules.items())
               if k == "specthresh" or k.startswith("specthresh.")]
    for modname, fname, span, after in FUNCTIONS:
        orig = getattr(sys.modules[f"specthresh.{modname}"], fname)
        wrapped = tracer.wrap(span, orig, after)
        for mod in package:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)
    for modname, cname, meth, span, after in METHODS:
        cls = getattr(sys.modules[f"specthresh.{modname}"], cname)
        setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), after))


# ---------------------------------------------------------------------------
# aggregation

def _under(spans: List[list], name: str, ancestor: str) -> List[list]:
    """Spans called `name` that have a span called `ancestor` above them."""
    out = []
    for s in spans:
        if s[2] != name:
            continue
        p = s[1]
        while p >= 0 and spans[p][2] != ancestor:
            p = spans[p][1]
        if p >= 0:
            out.append(s)
    return out


def summarize(spans: List[list]) -> Dict[str, Dict]:
    """Per span name: calls, total and self seconds, summed extra values,
    and the call count by caller span name."""
    child_time = defaultdict(float)
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[4] - s[3]
    out: Dict[str, Dict] = {}
    for s in spans:
        rec = out.setdefault(s[2], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "extra": 0, "callers": Counter()})
        dur = s[4] - s[3]
        rec["calls"] += 1
        rec["total_s"] += dur
        rec["self_s"] += dur - child_time[s[0]]
        rec["extra"] += s[5] or 0
        rec["callers"][spans[s[1]][2] if s[1] >= 0 else "pipeline"] += 1
    for rec in out.values():
        rec["callers"] = dict(rec["callers"])
    return out


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Every per-layer metric of the benchmark from one run's spans."""
    sm = summarize(spans)

    def get(name, key):
        return sm.get(name, {}).get(key, 0)

    def group(names, key):
        return sum(get(n, key) for n in names)

    n_res = get("birman_schwinger.scan", "extra")
    sigma_scan = len(_under(spans, "linalg.svdvals", "birman_schwinger.scan"))
    inverts = get("grushin.invert_E_minus_plus", "calls")
    attempts = len(_under(spans, "series.laurent_inverse",
                          "grushin.invert_E_minus_plus"))
    return {
        "kernels.r0.calls": get("kernels.r0", "calls"),
        "kernels.r0.s": get("kernels.r0", "self_s"),
        "kernels.r0.bytes": sum(16 * s[5] ** 2 for s in spans
                                if s[2] == "kernels.r0"),
        "kernels.gj.calls": get("kernels.gj", "calls"),
        "kernels.gj.s": get("kernels.gj", "self_s"),
        "kernels.gj_plus.calls": get("kernels.gj_plus", "calls"),
        "kernels.gj_plus.s": get("kernels.gj_plus", "self_s"),
        "linalg.solve.calls": get("linalg.solve", "calls"),
        "linalg.solve.s": get("linalg.solve", "self_s"),
        "linalg.gflop": group([f"linalg.{op}" for op in LINALG], "extra")
        / 1e9,
        "linalg.eig.calls": group(["linalg.eig", "linalg.eigvals"], "calls"),
        "linalg.eig.s": group(["linalg.eig", "linalg.eigvals"], "self_s"),
        "linalg.svd.calls": group(["linalg.svd", "linalg.svdvals"], "calls"),
        "linalg.svd.s": group(["linalg.svd", "linalg.svdvals"], "self_s"),
        "linalg.inv.calls": get("linalg.inv", "calls"),
        "linalg.inv.s": get("linalg.inv", "self_s"),
        "linalg.det.calls": get("linalg.det", "calls"),
        "linalg.lstsq.calls": get("linalg.lstsq", "calls"),
        "model.distance_matrix.calls": get("model.distance_matrix", "calls"),
        "model.distance_matrix.s": get("model.distance_matrix", "self_s"),
        "model.weighted_norm.calls": get("model.weighted_operator_norm",
                                         "calls"),
        "models.factory.s": get("models.factory", "self_s"),
        "birman_schwinger.tune_coupling.s": get(
            "birman_schwinger.tune_coupling", "self_s"),
        "birman_schwinger.R.calls": get("birman_schwinger.R", "calls"),
        "birman_schwinger.R.self_s": get("birman_schwinger.R", "self_s"),
        "birman_schwinger.M.calls": get("birman_schwinger.M", "calls"),
        "birman_schwinger.detect_minus_one.s": get(
            "birman_schwinger.detect_minus_one", "self_s"),
        "birman_schwinger.riesz_projection.s": get(
            "birman_schwinger.riesz_projection", "self_s"),
        "birman_schwinger.scan.s": get("birman_schwinger.scan", "self_s"),
        "birman_schwinger.scan.sigma_evals": sigma_scan,
        "birman_schwinger.scan.resonances": n_res,
        "birman_schwinger.scan.evals_per_resonance":
            sigma_scan / n_res if n_res else 0.0,
        "jordan.build_jordan_chains.s": get("jordan.build_jordan_chains",
                                            "self_s"),
        "series.matmul.calls": get("series.matmul", "calls"),
        "series.matmul.s": get("series.matmul", "self_s"),
        "series.eval.calls": get("series.eval", "calls"),
        "series.eval.s": get("series.eval", "self_s"),
        "series.laurent_inverse.calls": get("series.laurent_inverse",
                                            "calls"),
        "series.det_series.s": get("series.det_series", "self_s"),
        "grushin.direct_evals": get("grushin.direct", "calls"),
        "grushin.direct.s": get("grushin.direct", "self_s"),
        "grushin.laurent_attempts_per_q": attempts / inverts if inverts
        else 0.0,
        "grushin.lidskii_determinant.s": get("grushin.lidskii_determinant",
                                             "self_s"),
        "propagator.cut_build.s": get("propagator.cut_build", "self_s"),
        "propagator.jump_bytes": get("propagator.cut_build", "extra"),
        "propagator.propagate.calls": get("propagator.propagate", "calls"),
        "propagator.propagate.s": get("propagator.propagate", "self_s"),
        "propagator.pole_scan.s": get("propagator.pole_scan", "self_s"),
        "propagator.pole_scan.sigma_evals": len(_under(
            spans, "linalg.svdvals", "propagator.pole_scan")),
        "propagator.pole_scan.poles_found": get("propagator.pole_scan",
                                                "extra"),
        "propagator.resolvent_taylor.calls": get(
            "propagator.resolvent_taylor", "calls"),
        "propagator.resolvent_taylor.s": get("propagator.resolvent_taylor",
                                             "self_s"),
    }

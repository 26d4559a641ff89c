"""Outside-in tracing of the program's layers.

The benchmark wraps public functions of each contactcurves module, in every
module namespace that holds them (``analysis.frenet_apparatus`` as well as
``curves.frenet_apparatus``), and methods on their class.  Each wrapped call
records a span: name, start, end, parent span, job id, and the time covered
by its child spans.  Spans stay in memory while the pass runs; the caller
writes them out when the run ends.  Wrappers are installed only for a
traced pass and removed afterwards, so untraced passes run the program's
own functions.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# span name -> (module attribute holding the function, function name)
FUNCTION_LAYERS = {
    "curves.coordinate_jets": ("curves", "coordinate_jets"),
    "curves.frenet_apparatus": ("curves", "frenet_apparatus"),
    "curves.frame_scalars": ("curves", "frame_scalars"),
    "model.gamma_frame": ("model", "gamma_frame"),
    "model.curvature_frame": ("model", "space_form_curvature_frame"),
    "analysis.residual_direct": ("analysis", "residual_direct"),
    "analysis.residual_closed_form": ("analysis", "residual_closed_form"),
    "analysis.classify": ("analysis", "classify"),
    "analysis.theorem31_check": ("analysis", "theorem31_check"),
    "analysis.solve_delta": ("analysis", "solve_delta"),
    "analysis.independence_check": ("analysis", "independence_check"),
    "cli.main": ("cli", "main"),
    "cli.load_curve_file": ("cli", "load_curve_file"),
    "cli.cmd_scan": ("cli", "cmd_scan"),
    "reporting.to_json": ("reporting", "to_json"),
    "reporting.to_csv": ("reporting", "to_csv"),
    "discrete.discrete_energy": ("discrete", "discrete_energy"),
    "discrete.energy_gradient": ("discrete", "energy_gradient"),
    "discrete.max_residual_norm": ("discrete", "max_residual_norm"),
    "discrete.descend": ("discrete", "descend"),
}
ELEMENTARY = ("sin", "cos", "exp", "log", "atan", "sqrt")
MODULES = ("jets", "expressions", "model", "curves", "families", "analysis",
           "discrete", "reporting", "cli")

SPAN_NAMES = ("jets.mul", "jets.elementary", "expressions.eval",
              "curves.integral_values", *FUNCTION_LAYERS)
# extra per-call quantities: span name -> (metric suffix, measure(args, result))
EXTRAS = {
    "curves.integral_values": ("points", lambda args, result: int(np.size(args[1]))),
    "reporting.to_json": ("bytes", lambda args, result: len(result.encode())),
    "reporting.to_csv": ("bytes", lambda args, result: len(result.encode())),
}


UNITS = {"calls": "count", "self_s": "s", "points": "count", "bytes": "bytes",
         "outputs_changed": "count", "route_gap_max": "abs"}


def unit(metric):
    """Unit of a per-layer metric; per-job and per-step ratios are 'ratio'."""
    return UNITS.get(metric.rsplit(".", 1)[1], "ratio")


class Tracer:
    """Span recorder for one pass over a workload's jobs."""

    def __init__(self, P):
        self.job = -1
        self.spans = []     # (name, start, end, parent index, job, child time, extra)
        self._stack = []    # indices of open spans
        self._child = []    # child time accumulated by each open span
        self._installed = []
        self._targets = _targets(P)

    def _wrap(self, name, fn):
        spans, stack, child = self.spans, self._stack, self._child
        clock = time.perf_counter
        measure = EXTRAS[name][1] if name in EXTRAS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                covered = child.pop()
                if child:
                    child[-1] += end - start
                spans[idx] = (name, start, end, parent, self.job, covered, None)
            if measure is not None:
                spans[idx] = spans[idx][:6] + (measure(args, result),)
            return result
        return traced

    def install(self):
        for owner, attr, name in self._targets:
            original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            wrapped = self._wrap(name, original)
            self._installed.append((owner, attr, original))
            _assign(owner, attr, wrapped)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            _assign(owner, attr, original)


def _assign(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _targets(P):
    """(owner, attribute, span name) for every place a wrapped function lives."""
    Jet = P.jets.Jet
    out = [(Jet, "__mul__", "jets.mul"), (Jet, "__rmul__", "jets.mul"),
           (Jet, "__truediv__", "jets.elementary"),
           (Jet, "__rtruediv__", "jets.elementary"),
           (P.expressions.Expr, "__call__", "expressions.eval"),
           (P.curves.IntegralCoordinate, "values", "curves.integral_values")]
    table = P.expressions._FUNCTIONS      # the parser's name -> function map
    for fn in ELEMENTARY:
        out.append((P.jets, fn, "jets.elementary"))
        if table.get(fn) is getattr(P.jets, fn):
            out.append((table, fn, "jets.elementary"))
    modules = [getattr(P, m) for m in MODULES]
    for name, (home, attr) in FUNCTION_LAYERS.items():
        original = getattr(getattr(P, home), attr)
        for mod in modules:
            if vars(mod).get(attr) is original:
                out.append((mod, attr, name))
    return out


def layer_totals(spans):
    """Calls, self time and extras per span name over a list of spans."""
    totals = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
    for name, suffix in ((n, e[0]) for n, e in EXTRAS.items()):
        totals[name][suffix] = 0
    for name, start, end, _parent, _job, covered, extra in spans:
        row = totals[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - covered
        if extra is not None:
            row[EXTRAS[name][0]] += extra
    return totals


def calls_by_job(spans, name, parent=None):
    """Number of spans with this name per job id, optionally by parent name."""
    counts = {}
    for span in spans:
        if span[0] != name:
            continue
        if parent is not None and (span[3] < 0 or spans[span[3]][0] != parent):
            continue
        counts[span[4]] = counts.get(span[4], 0) + 1
    return counts

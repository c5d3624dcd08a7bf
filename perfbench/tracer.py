"""Spans around the package's layer boundaries, recorded from outside.

The tracer replaces the names each caller binds (for example the
`eval_rows` that `pairboson.quadrature` imported) with a wrapper that
records a span: name, parent span, start, end and a size.  Spans are kept
in memory; `layer_metrics` reduces them and `write` dumps them.  No package
source changes, and leaving the tracer's context puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

PANEL_NODES = 15          # Gauss-Kronrod 7-15: kernel points per panel
KERNEL_BYTES_PER_POINT = 48   # r and lambda in, four float64 rows out


def _kernel_points(args, kwargs, result):
    return len(args[0])


def _matrix_dim(args, kwargs, result):
    return result.matrix.shape[0]


def _window_tried(args, kwargs, result):
    # outer_opt(model, tp, eta, quad_cfg, q_hint=...): the warm-start window
    # is only used on the attractive branch
    model = args[0]
    q_hint = kwargs.get("q_hint", args[4] if len(args) > 4 else None)
    return int(model.u > 0 and q_hint is not None and q_hint > 0)


# (module, name the module's code calls, span name, size of the call)
WRAPS = (
    ("pairboson.cli", "main", "cli.main", None),
    ("pairboson.cli", "_scan_point", "cli.scan_point", None),
    ("pairboson.cli", "eta_continuation", "solver.eta_continuation", None),
    ("pairboson.cli", "classify_phase", "solver.classify_phase", None),
    ("pairboson.solver", "outer_opt", "solver.outer_opt", _window_tried),
    ("pairboson.solver", "inf_rho", "solver.inf_rho", None),
    ("pairboson.solver", "pressure_tl", "pressure.pressure_tl", None),
    ("pairboson.solver", "grad_rho", "pressure.grad_rho", None),
    ("pairboson.solver", "grad_q", "pressure.grad_q", None),
    ("pairboson.solver", "total_dq", "pressure.total_dq", None),
    ("pairboson.solver", "el_residuals", "pressure.el_residuals", None),
    ("pairboson.solver", "radial_rows", "quadrature.radial_rows", None),
    ("pairboson.pressure", "radial_rows", "quadrature.radial_rows", None),
    ("pairboson.quadrature", "eval_rows", "kernels.eval_rows", _kernel_points),
    ("pairboson.pressure", "eval_rows", "kernels.eval_rows", _kernel_points),
    ("pairboson.oracle", "check_superstability", "oracle.check_superstability", None),
    ("pairboson.oracle", "check_variational_chain", "oracle.check_variational_chain", None),
    ("pairboson.oracle", "check_pair_exchange_bound", "oracle.check_pair_exchange_bound", None),
    ("pairboson.oracle", "build_hamiltonian", "oracle.build_hamiltonian", _matrix_dim),
    ("pairboson.oracle", "trace_pressure", "oracle.trace_pressure", None),
)


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    A span is a list [name, parent index or -1, start, end, size].
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []

    def _wrap(self, fn, name, size):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    span[4] = size(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[3] = perf_counter()
        return traced

    def __enter__(self):
        for modname, attr, name, size in WRAPS:
            module = importlib.import_module(modname)
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, size))
        return self

    def __exit__(self, *exc):
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)
        return False

    def write(self, path):
        """Dump the spans as tab-separated index, parent, name, start, end, size."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\tsize\n")
            for i, (name, parent, t0, t1, n) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{t0!r}\t{t1!r}\t{n}\n")


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from a finished span list.

    Self time is a span's duration minus its children's; spans nest on one
    thread, so children never overlap.  Ratios with an empty base read 0.
    """
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    self_s = [dur[i] - child[i] for i in range(n)]

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def parent_is(i, name):
        return spans[i][1] >= 0 and spans[spans[i][1]][0] == name

    def under(i, name):
        """Whether span i has an ancestor called name."""
        p = spans[i][1]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][1]
        return False

    kern = named("kernels.eval_rows")
    quad = named("quadrature.radial_rows")
    inner = named("solver.inf_rho")
    outer = named("solver.outer_opt")
    points = sum(spans[i][4] for i in kern)
    quad_kern = [i for i in kern if parent_is(i, "quadrature.radial_rows")]
    quad_points = sum(spans[i][4] for i in quad_kern)
    eta_steps = sum(1 for i in outer if parent_is(i, "solver.eta_continuation"))
    escapes = len(outer) - eta_steps
    tried = sum(spans[i][4] for i in outer)
    quad_in_inner = sum(1 for i in quad if under(i, "solver.inf_rho"))
    pressure = [i for i, s in enumerate(spans) if s[0].startswith("pressure.")]
    elr = named("pressure.el_residuals")
    ham = named("oracle.build_hamiltonian")
    trace = named("oracle.trace_pressure")
    scan_pts = [dur[i] for i in named("cli.scan_point")]
    layers = {}
    for i, s in enumerate(spans):
        layer = s[0].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s[i]
    busy_k = sum(dur[i] for i in kern)
    return {
        "kernels.calls": len(kern),
        "kernels.points": points,
        "kernels.busy_s": busy_k,
        "kernels.us_per_point": 1e6 * _ratio(busy_k, points),
        "kernels.bytes_computed": KERNEL_BYTES_PER_POINT * points,
        "quadrature.calls": len(quad),
        "quadrature.self_s": sum(self_s[i] for i in quad),
        "quadrature.us_per_call": 1e6 * _ratio(sum(dur[i] for i in quad), len(quad)),
        "quadrature.panels_per_call": _ratio(quad_points / PANEL_NODES, len(quad)),
        "quadrature.panels_evaluated": sum(spans[i][4] // PANEL_NODES for i in quad_kern),
        "quadrature.ragged_kernel_calls": sum(1 for i in quad_kern
                                              if spans[i][4] % PANEL_NODES),
        "solver.eta_steps": eta_steps,
        "solver.outer_calls": len(outer),
        "solver.window_escapes": escapes,
        "solver.windows_tried": tried,
        "solver.window_hit_ratio": _ratio(tried - escapes, tried),
        "solver.inner_solves": len(inner),
        "solver.inner_per_eta_step": _ratio(len(inner), eta_steps),
        "solver.quad_calls_per_inner": _ratio(quad_in_inner, len(inner)),
        "solver.inner_self_s": sum(self_s[i] for i in inner),
        "solver.outer_self_s": sum(self_s[i] for i in outer),
        "pressure.calls": len(pressure),
        "pressure.el_residuals_calls": len(elr),
        "pressure.el_residuals_s": sum(dur[i] for i in elr),
        "oracle.hamiltonians": len(ham),
        "oracle.build_s": sum(dur[i] for i in ham),
        "oracle.trace_calls": len(trace),
        "oracle.trace_s": sum(dur[i] for i in trace),
        "oracle.matrix_dim": max((spans[i][4] for i in ham), default=0),
        "cli.scan_points": len(scan_pts),
        "cli.scan_point_p50_s": _median(scan_pts),
        "cli.scan_point_max_s": max(scan_pts, default=0.0),
        "self_s": layers,
    }

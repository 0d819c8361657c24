"""Spans around calls into bmlocal's layers, installed from outside the package.

``Tracer.install()`` wraps each callable in ``TARGETS`` and rebinds every
reference to it that the package holds: the class attribute (and its
aliases, such as ``__rmul__ = __mul__``), module globals bound by
``from .x import y``, and values of module-level dicts such as
``cli.COMMANDS``.  Each call records a span (name, parent span, request,
start, end) in memory; ``save`` writes them out when the run ends.

A callable's self time is the sum of its spans' durations minus the time
covered by their direct child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, qualname) of every traced callable, grouped by layer.
TARGETS = [
    ("cli", "cmd_bm_identity"),
    ("cli", "cmd_decompose"),
    ("cli", "cmd_hilbert_defect"),
    ("cli", "cmd_nabla_cell"),
    ("cli", "cmd_bk_torsor"),
    ("cli", "cmd_interpolate"),
    ("cli", "cmd_validate_bounds"),
    ("cli", "cmd_suite"),
    ("cli", "main"),
    ("characters", "decompose"),
    ("characters", "weyl_character"),
    ("laurent", "LaurentPoly.__mul__"),
    ("laurent", "LaurentPoly.divide"),
    ("hilbert", "shifted_identity_check"),
    ("hilbert", "defect_degree"),
    ("hilbert", "equality_forcing_check"),
    ("bm_mult", "bm_identity"),
    ("weights", "validate_hodge_bound"),
    ("series", "TruncSeries.__mul__"),
    ("series", "TruncSeries.inverse"),
    ("series", "series_phi"),
    ("series", "LaurentSeriesMatrix.__mul__"),
    ("series", "LaurentSeriesMatrix.inverse"),
    ("_kernels", "poly_mul_mod"),
    ("breuil_kisin", "torsor_solve"),
    ("breuil_kisin", "inverse_direction_check"),
    ("polyfield", "Poly.__mul__"),
    ("polyfield", "Poly.divmod"),
    ("polyfield", "Poly.root_multiplicity"),
    ("polyfield", "det"),
    ("polyfield", "adjugate"),
    ("grassmannian", "Lattice.__init__"),
    ("grassmannian", "Lattice.contains"),
    ("grassmannian", "smith_type"),
    ("grassmannian", "lattice_dual"),
    ("grassmannian", "nabla_check"),
    ("grassmannian", "nabla_cell_dimension_bruteforce"),
    ("localfield", "LocalFieldElement.__mul__"),
    ("localfield", "LocalFieldElement.inverse"),
    ("interpolation", "interpolate_claim"),
    ("interpolation", "geometric_kernel"),
    ("interpolation", "LocalPoly.rebase"),
]

# Layer counters beyond calls and self time.
EXTRA_METRICS = {
    "cli.report_bytes": "bytes",
    "characters.weyl_character.repeat_share": "share",
    "laurent.LaurentPoly.divide.terms_in": "count",
    "series.TruncSeries.inverse.coeffs": "count",
    "kernels.poly_mul_mod.computed_ops": "count",
    "kernels.poly_mul_mod.computed_bytes": "bytes",
    "breuil_kisin.torsor_solve.iterations": "count",
    "breuil_kisin.torsor_solve.cap_share": "share",
    "trace_overhead_share": "share",
}


def span_name(module, qualname) -> str:
    """Metric names must start with a letter: ``_kernels`` reads ``kernels``."""
    return f"{module.lstrip('_')}.{qualname}"


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, qualname in TARGETS:
        units[f"{span_name(module, qualname)}.calls"] = "count"
        units[f"{span_name(module, qualname)}.self_ms"] = "ms"
    units.update(EXTRA_METRICS)
    return units


def _resolve(module, qualname):
    """(owner, attribute, function) of a traced callable, or None when this
    version of bmlocal does not have it; its metrics then read 0."""
    owner = sys.modules.get(f"bmlocal.{module}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = vars(owner).get(attr) if owner is not None else None
    return None if fn is None else (owner, attr, fn)


class Tracer:
    """Span store plus the layer counters the wrappers update."""

    def __init__(self):
        self.names = [span_name(module, qualname) for module, qualname in TARGETS]
        self.missing = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.current_request = -1
        self.counts = Counter()
        self._seen_weights = set()

    def _wrap(self, fn, idx, hook):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, *args, **kwargs)
            sid = len(self.start)
            self.name.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.current_request)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1

        return traced

    def _in_span(self, name) -> bool:
        idx = self.names.index(name)
        return any(self.name[s] == idx for s in self.stack)

    def install(self):
        """Wrap every target and rebind each reference bmlocal holds to it."""
        replace = {}
        for idx, (module, qualname) in enumerate(TARGETS):
            found = _resolve(module, qualname)
            if found is None:
                self.missing.append(self.names[idx])
                continue
            owner, attr, fn = found
            wrapped = self._wrap(fn, idx, HOOKS.get(qualname))
            replace[id(fn)] = wrapped
            setattr(owner, attr, wrapped)
        # Counted, not spanned: Frobenius steps inside the torsor solver.
        found = _resolve("series", "LaurentSeriesMatrix.phi")
        if found is not None:
            owner, attr, phi = found

            @functools.wraps(phi)
            def counted_phi(*args, **kwargs):
                if self._in_span("breuil_kisin.torsor_solve"):
                    self.counts["breuil_kisin.torsor_solve.iterations"] += 1
                return phi(*args, **kwargs)

            setattr(owner, attr, counted_phi)
        for modname, module in list(sys.modules.items()):
            if modname != "bmlocal" and not modname.startswith("bmlocal."):
                continue
            for key, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, key, replace[id(value)])
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if id(v) in replace:
                            value[k] = replace[id(v)]
                elif isinstance(value, type) and value.__module__.startswith("bmlocal"):
                    for k, v in list(vars(value).items()):
                        if id(v) in replace:
                            setattr(value, k, replace[id(v)])

    def spans(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "request": np.array(self.request, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, **self.spans())

    def layer_metrics(self) -> dict:
        """calls and self_ms per traced callable, plus the layer counters."""
        s = self.spans()
        n = len(self.names)
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        covered = np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        calls = np.bincount(s["name"], minlength=n)
        self_ms = np.bincount(s["name"], weights=self_time, minlength=n) * 1000.0
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_ms"] = float(self_ms[i])
        c = self.counts
        out["characters.weyl_character.repeat_share"] = (
            c["weyl_character.repeats"] / max(c["weyl_character.calls"], 1))
        for key in ("laurent.LaurentPoly.divide.terms_in",
                    "series.TruncSeries.inverse.coeffs",
                    "kernels.poly_mul_mod.computed_ops",
                    "kernels.poly_mul_mod.computed_bytes",
                    "breuil_kisin.torsor_solve.iterations"):
            out[key] = c[key]
        out["breuil_kisin.torsor_solve.cap_share"] = (
            c["breuil_kisin.torsor_solve.iterations"]
            / max(c["breuil_kisin.torsor_solve.cap"], 1))
        return out


# -- argument hooks: counters read off each call's inputs --------------------

def _weyl_character(tracer, w):
    key = tuple(int(x) for x in w)
    tracer.counts["weyl_character.calls"] += 1
    if key in tracer._seen_weights:
        tracer.counts["weyl_character.repeats"] += 1
    tracer._seen_weights.add(key)


def _divide(tracer, dividend, divisor):
    tracer.counts["laurent.LaurentPoly.divide.terms_in"] += len(dividend.terms)


def _inverse(tracer, series):
    tracer.counts["series.TruncSeries.inverse.coeffs"] += series.prec


def _poly_mul_mod(tracer, a, b, p, n):
    # np.convolve forms the full product before truncating to n terms.
    la, lb = len(a), len(b)
    tracer.counts["kernels.poly_mul_mod.computed_ops"] += la * lb
    tracer.counts["kernels.poly_mul_mod.computed_bytes"] += 8 * (la + lb + n)


def _torsor_solve(tracer, bk, g, N, start=None):
    # The iteration cap the solver itself applies.
    cap = getattr(sys.modules["bmlocal.breuil_kisin"], "_iteration_cap", None)
    if cap is not None:
        tracer.counts["breuil_kisin.torsor_solve.cap"] += cap(bk.p, bk.prec)


HOOKS = {
    "weyl_character": _weyl_character,
    "LaurentPoly.divide": _divide,
    "TruncSeries.inverse": _inverse,
    "poly_mul_mod": _poly_mul_mod,
    "torsor_solve": _torsor_solve,
}

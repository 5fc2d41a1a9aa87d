"""Layer tracing installed from outside the library.

:func:`install` wraps the public functions of each qdual module in place
(module attributes, the names other qdual modules imported, and class
methods) so that a run records one span per call into ``cli``, ``checks``
(one per check), ``supermatrix``, ``parsing``, ``presentations`` and
``algebra``.  Scalar operations in ``qfield`` are far too many for one span
each (tens of thousands per suite run), so they are aggregated per
(operation, parent span) instead.  Nothing under ``src/`` is changed;
:meth:`Tracer.uninstall` restores every patched binding.

Self time of a span is its duration minus the time covered by its child
spans; for ``qfield`` only the outermost call of a nested chain (``a - b``
calls ``__add__`` and ``__neg__``) is timed, the inner ones are counted.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

_perf = time.perf_counter

LAYERS = ("cli", "checks", "supermatrix", "parsing", "presentations",
          "algebra", "qfield")

_SUPERMATRIX_FUNCS = (
    "matmul", "identity", "power", "dual_generator_matrix",
    "gl_generator_matrix", "delta1", "delta2", "left_inverse",
    "decomposition_factors", "inverse_via_decomposition", "sdet",
    "closed_form_odd", "closed_form_even", "check_dual_pattern",
    "check_gl_pattern", "transform_plane",
)
_PRESENTATION_FUNCS = (
    "dual_algebra", "gl_algebra", "superplane", "dual_superplane", "rename",
    "tensor", "derive_inverse_rules", "load_presentation",
    "load_presentation_file",
)
_CHECKS_FUNCS = ("run_suite", "machine_lines", "text_lines", "has_failure")
_QFIELD_FUNCS = ("qnum", "q_power", "scalar")
_QFIELD_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inv", "eval_at",
)
_ELEMENT_METHODS = ("__mul__", "__rmul__", "__add__", "__radd__", "__pow__")


class Tracer:
    """In-memory spans, per-layer self time and counters for one run."""

    def __init__(self):
        # (span id, request id, layer, name, start, end, parent span id)
        self.spans = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = {}
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        self.counters = {"mul_pairs": 0, "mul_terms": 0, "raw_terms": 0,
                         "element_terms": 0, "presentation_objects": 0,
                         "qfield_general": 0, "qfield_max_deg": 0}
        # (operation, parent span name) -> [calls, outer seconds]
        self.qfield = {}
        self.request = 0
        # frames: [layer, name, start, time in child spans, span id]; the
        # root frame stands for the benchmark's own code
        self._stack = [["bench", "bench", 0.0, 0.0, 0]]
        self._next_id = 1
        self._qdepth = 0
        self._undo = []

    # -- span recording -----------------------------------------------------

    def span(self, layer, name, fn, after=None):
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        layer_calls = self.layer_calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            frame = [layer, name, _perf(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                dur = end - frame[2]
                parent[3] += dur
                self_s[layer] += dur - frame[3]
                calls[name] += 1
                layer_calls[layer] += 1
                spans.append((sid, self.request, layer, name, frame[2], end,
                              parent[4]))
            if after is not None:
                after(args, result)
            return result

        return traced

    def scalar_op(self, op, fn, qrational):
        stack = self._stack
        agg = self.qfield
        counters = self.counters
        self_s = self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            general = False
            for x in args[:2]:
                if isinstance(x, qrational) and len(x.den) > 1:
                    general = True
            parent = stack[-1]
            if self._qdepth:
                result = fn(*args, **kwargs)
                dur = 0.0
            else:
                self._qdepth = 1
                t0 = _perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._qdepth = 0
                dur = _perf() - t0
                parent[3] += dur
                self_s["qfield"] += dur
            key = (op, parent[1])
            slot = agg.get(key)
            if slot is None:
                slot = agg[key] = [0, 0.0]
            slot[0] += 1
            slot[1] += dur
            if general:
                counters["qfield_general"] += 1
            if isinstance(result, qrational):
                num, den = result.num, result.den
                deg = num[-1][0] if num else 0
                if den[-1][0] > deg:
                    deg = den[-1][0]
                if deg > counters["qfield_max_deg"]:
                    counters["qfield_max_deg"] = deg
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _patch_function(self, module, attr, wrapper_for):
        original = getattr(module, attr)
        wrapped = wrapper_for(original)
        for mod in _qdual_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
                    self._undo.append((mod, name, original))

    def _patch_method(self, cls, attr, wrapped):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def write_spans(self, path):
        """Write spans and the qfield aggregate as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[0], "request": s[1],
                                     "layer": s[2], "name": s[3],
                                     "start": s[4], "end": s[5],
                                     "parent": s[6]}) + "\n")
            for (op, parent), (calls, secs) in sorted(self.qfield.items()):
                fh.write(json.dumps({"layer": "qfield", "op": op,
                                     "parent": parent, "calls": calls,
                                     "seconds": secs}) + "\n")


def _qdual_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "qdual" or n.startswith("qdual."))]


def install(tracer):
    """Wrap every traced entry point of an imported qdual package."""
    from qdual import algebra, checks, cli, parsing, presentations, qfield
    from qdual import supermatrix

    t = tracer
    c = t.counters

    def after_mul(args, result):
        if len(args) > 1 and isinstance(args[1], algebra.Element):
            c["mul_pairs"] += len(args[0].terms) * len(args[1].terms)
            c["mul_terms"] += len(result.terms)

    def after_raw(args, result):
        c["raw_terms"] += len(result)

    def after_parse(args, result):
        c["element_terms"] += len(result.terms)

    def count_init(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            c["presentation_objects"] += 1
            return fn(*args, **kwargs)
        return counted

    for name in _QFIELD_FUNCS:
        t._patch_function(qfield, name, lambda f, n=name: t.scalar_op(
            n, f, qfield.QRational))
    for name in _QFIELD_METHODS:
        t._patch_method(qfield.QRational, name, t.scalar_op(
            name, qfield.QRational.__dict__[name], qfield.QRational))

    for name in _ELEMENT_METHODS:
        after = after_mul if name == "__mul__" else None
        t._patch_method(algebra.Element, name, t.span(
            "algebra", f"Element.{name}", algebra.Element.__dict__[name],
            after))
    t._patch_method(algebra.Presentation, "normal_form", t.span(
        "algebra", "Presentation.normal_form",
        algebra.Presentation.__dict__["normal_form"]))
    t._patch_method(algebra.Presentation, "__init__",
                    count_init(algebra.Presentation.__dict__["__init__"]))
    for name in ("invert_quasi_unit", "render_element"):
        t._patch_function(algebra, name, lambda f, n=name: t.span(
            "algebra", n, f))

    for name in _PRESENTATION_FUNCS:
        t._patch_function(presentations, name, lambda f, n=name: t.span(
            "presentations", n, f))
    t._patch_function(parsing, "parse_raw_terms", lambda f: t.span(
        "parsing", "parse_raw_terms", f, after_raw))
    t._patch_function(parsing, "parse_element", lambda f: t.span(
        "parsing", "parse_element", f, after_parse))
    for name in _SUPERMATRIX_FUNCS:
        t._patch_function(supermatrix, name, lambda f, n=name: t.span(
            "supermatrix", n, f))

    for name in _CHECKS_FUNCS:
        t._patch_function(checks, name, lambda f, n=name: t.span(
            "checks", n, f))
    # one span per check: run_suite looks the registry up on each call
    t._undo.append((checks, "_CHECKS", checks._CHECKS))
    checks._CHECKS = tuple((cid, ref, t.span("checks", cid, fn))
                           for cid, ref, fn in checks._CHECKS)

    t._patch_function(cli, "main", lambda f: t.span("cli", "cli.main", f))

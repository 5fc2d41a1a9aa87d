"""Exact calculus for quantum supermatrices with odd diagonal entries.

Everything is computed over the field of rational functions in the
deformation parameter q — no floating point, no truncation.  The package
provides:

* :mod:`qdual.qfield` — exact arithmetic in rational functions of q;
* :mod:`qdual.algebra` — finitely presented graded algebras with a
  normal-form rewriting engine and inverse letters;
* :mod:`qdual.presentations` — the builtin algebras, tensor products,
  and a small text format for custom presentations;
* :mod:`qdual.parsing` — an expression parser matching the printed
  normal-form syntax;
* :mod:`qdual.supermatrix` — 2x2 supermatrices over those algebras,
  inverses, superdeterminants, and closed-form powers;
* :mod:`qdual.checks` — the named verification suite;
* :mod:`qdual.cli` — the ``qdual`` command-line tool.

``import qdual`` imports none of them.  Each name below, and each submodule
as an attribute (``qdual.checks``), loads its module on first use (PEP 562),
so a caller that only builds presentations and normal forms loads the
kernel (``qfield``, ``algebra``, ``parsing``, ``presentations``) and never
``supermatrix`` or ``checks``, and no submodule imports ``dataclasses``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "qfield": (
        "ONE", "PoleError", "Q", "QRational", "ZERO", "q_power", "qnum",
        "scalar",
    ),
    "algebra": (
        "AlgebraError", "AlgebraMismatchError", "Element", "EVEN",
        "GeneratorSpec", "NonInvertiblePowerError", "NotQuasiUnitError",
        "ODD", "Presentation", "PresentationError", "RewriteLimitError",
        "invert_quasi_unit", "is_central", "render_element",
    ),
    "presentations": (
        "derive_inverse_rules", "dual_algebra", "dual_superplane",
        "gl_algebra", "load_presentation", "load_presentation_file",
        "rename", "superplane", "tensor",
    ),
    "parsing": ("ParseError", "parse_element"),
    "supermatrix": (
        "MatrixFormatError", "SuperMatrix", "check_dual_pattern",
        "check_gl_pattern", "closed_form_even", "closed_form_odd",
        "decomposition_factors", "delta1", "delta2", "dual_generator_matrix",
        "gl_generator_matrix", "identity", "inverse_via_decomposition",
        "left_inverse", "matmul", "power", "sdet", "transform_plane",
    ),
    "checks": (
        "CHECK_IDS", "CheckReport", "has_failure", "machine_lines",
        "run_suite", "text_lines",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here, so later lookups skip this function
    value = globals()[name] = getattr(
        _import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})

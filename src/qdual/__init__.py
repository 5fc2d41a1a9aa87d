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
"""

from .qfield import (
    ONE,
    PoleError,
    Q,
    QRational,
    ZERO,
    q_power,
    qnum,
    scalar,
)
from .algebra import (
    AlgebraError,
    AlgebraMismatchError,
    Element,
    EVEN,
    GeneratorSpec,
    NonInvertiblePowerError,
    NotQuasiUnitError,
    ODD,
    Presentation,
    PresentationError,
    RewriteLimitError,
    invert_quasi_unit,
    is_central,
    render_element,
)
from .presentations import (
    derive_inverse_rules,
    dual_algebra,
    dual_superplane,
    gl_algebra,
    load_presentation,
    load_presentation_file,
    rename,
    superplane,
    tensor,
)
from .parsing import ParseError, parse_element
from .supermatrix import (
    MatrixFormatError,
    SuperMatrix,
    check_dual_pattern,
    check_gl_pattern,
    closed_form_even,
    closed_form_odd,
    decomposition_factors,
    delta1,
    delta2,
    dual_generator_matrix,
    gl_generator_matrix,
    identity,
    inverse_via_decomposition,
    left_inverse,
    matmul,
    power,
    sdet,
    transform_plane,
)
from .checks import (
    CHECK_IDS,
    CheckReport,
    has_failure,
    machine_lines,
    run_suite,
    text_lines,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "AlgebraMismatchError",
    "CHECK_IDS",
    "CheckReport",
    "Element",
    "EVEN",
    "GeneratorSpec",
    "MatrixFormatError",
    "NonInvertiblePowerError",
    "NotQuasiUnitError",
    "ODD",
    "ONE",
    "ParseError",
    "PoleError",
    "Presentation",
    "PresentationError",
    "Q",
    "QRational",
    "RewriteLimitError",
    "SuperMatrix",
    "ZERO",
    "check_dual_pattern",
    "check_gl_pattern",
    "closed_form_even",
    "closed_form_odd",
    "decomposition_factors",
    "delta1",
    "delta2",
    "derive_inverse_rules",
    "dual_algebra",
    "dual_generator_matrix",
    "dual_superplane",
    "gl_algebra",
    "gl_generator_matrix",
    "has_failure",
    "identity",
    "invert_quasi_unit",
    "inverse_via_decomposition",
    "is_central",
    "left_inverse",
    "load_presentation",
    "load_presentation_file",
    "machine_lines",
    "matmul",
    "parse_element",
    "power",
    "q_power",
    "qnum",
    "rename",
    "render_element",
    "run_suite",
    "scalar",
    "sdet",
    "superplane",
    "tensor",
    "text_lines",
    "transform_plane",
]

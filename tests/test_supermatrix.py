"""2x2 supermatrices: products, inverses, determinants, closed-form powers."""

import pytest

from qdual.algebra import AlgebraMismatchError, is_central, render_element
from qdual.parsing import parse_element
from qdual.presentations import (
    derive_inverse_rules,
    dual_algebra,
    dual_superplane,
    gl_algebra,
    rename,
    superplane,
    tensor,
)
from qdual.qfield import Q, q_power
from qdual.supermatrix import (
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

DDUAL = derive_inverse_rules(dual_algebra())
GL = gl_algebra()
MAT = dual_generator_matrix(DDUAL)
GLMAT = gl_generator_matrix(GL)


# -- construction ------------------------------------------------------------

def test_generator_matrices():
    assert MAT.fmt == "dual"
    assert MAT.entries == (
        DDUAL.gen("alpha"), DDUAL.gen("b"), DDUAL.gen("c"), DDUAL.gen("delta")
    )
    assert GLMAT.fmt == "gl"
    assert GLMAT.e12 == GL.gen("beta")


def test_scalar_entries_are_coerced():
    m = SuperMatrix(0, DDUAL.gen("b"), 1, 0, fmt="dual")
    assert m.e11 == DDUAL.zero()
    assert m.e21 == DDUAL.one()


def test_format_validation():
    al, b = DDUAL.gen("alpha"), DDUAL.gen("b")
    with pytest.raises(MatrixFormatError):
        SuperMatrix(b, al, al, b, fmt="dual")  # even diagonal is not dual
    with pytest.raises(ValueError):
        SuperMatrix(al, b, b, al, fmt="sideways")
    with pytest.raises(TypeError):
        SuperMatrix(1, 0, 0, 1)  # no entry pins down the algebra
    with pytest.raises(AlgebraMismatchError):
        SuperMatrix(DDUAL.gen("alpha"), DDUAL.gen("b"), GL.gen("gamma"), 0)


def test_immutability_and_equality():
    with pytest.raises(AttributeError):
        MAT.e11 = DDUAL.zero()
    assert MAT == dual_generator_matrix(DDUAL)
    assert hash(MAT) == hash(dual_generator_matrix(DDUAL))
    untagged = SuperMatrix(*MAT.entries)
    assert untagged.fmt is None and untagged == MAT and hash(untagged) == hash(MAT)
    assert MAT != GLMAT


# -- products and powers -----------------------------------------------------

def test_identity_laws():
    eye = identity(DDUAL)
    assert matmul(eye, MAT) == MAT
    assert matmul(MAT, eye) == MAT
    assert MAT @ eye == MAT


def test_matmul_guards():
    with pytest.raises(TypeError):
        matmul(MAT, 3)
    with pytest.raises(AlgebraMismatchError):
        matmul(MAT, gl_generator_matrix(GL))


def test_power_guards_and_consistency():
    with pytest.raises(ValueError):
        power(MAT, 0)
    with pytest.raises(ValueError):
        power(MAT, -1)
    assert power(MAT, 1) == MAT
    assert MAT ** 3 == MAT @ MAT @ MAT
    for i, j in ((1, 2), (2, 2), (1, 4)):
        assert MAT ** i @ MAT ** j == MAT ** (i + j)


# -- determinant combinations and inverses -----------------------------------

def test_delta_combinations():
    assert render_element(delta1(MAT)) == "b*c + q*alpha*delta"
    assert render_element(delta2(MAT)) == "b*c - (1)/(q)*alpha*delta"
    d1, d2 = delta1(MAT), delta2(MAT)
    b, c = DDUAL.gen("b"), DDUAL.gen("c")
    al = DDUAL.gen("alpha")
    assert d1 * b == b * d1
    assert d2 * c == c * d2
    assert d1 * al == (Q * Q) * (al * d1)


def test_left_inverse_is_two_sided():
    inv = left_inverse(MAT)
    eye = identity(DDUAL)
    assert matmul(inv, MAT) == eye
    assert matmul(MAT, inv) == eye


def test_inverse_of_the_flip_matrix():
    flip = SuperMatrix(0, DDUAL.one(), DDUAL.one(), 0, fmt="dual")
    assert left_inverse(flip) == flip
    assert matmul(flip, flip) == identity(DDUAL)


def test_decomposition_reconstitutes():
    first, second = decomposition_factors(MAT)
    assert matmul(first, second) == MAT
    assert second.e11 == DDUAL.one()
    assert second.e21 == DDUAL.zero()
    assert first.e22 == DDUAL.zero()


def test_inverse_via_decomposition_matches():
    assert inverse_via_decomposition(MAT) == left_inverse(MAT)


def test_sdet_value_and_centrality():
    s = sdet(MAT)
    assert render_element(s) == "b*c^-1 - (1)/(q)*alpha*delta*c^-2"
    assert s == parse_element("b*c^-1 - alpha*c^-1*delta*c^-1", DDUAL)
    assert is_central(s)
    assert not is_central(sdet(MAT) + DDUAL.gen("b"))


# -- closed-form powers ------------------------------------------------------

def test_closed_form_odd_base_case():
    assert closed_form_odd(DDUAL, 1) == MAT


def test_powers_match_closed_forms():
    for n in (1, 2, 3):
        assert MAT ** (2 * n - 1) == closed_form_odd(DDUAL, n)
        assert MAT ** (2 * n) == closed_form_even(DDUAL, n)


def test_closed_form_guards():
    with pytest.raises(ValueError):
        closed_form_odd(DDUAL, 0)
    with pytest.raises(ValueError):
        closed_form_even(DDUAL, 0)


# -- relation patterns -------------------------------------------------------

def test_generator_matrix_satisfies_dual_pattern():
    out = check_dual_pattern(MAT, Q)
    assert out.ok
    assert out.bracket_ordering == "DA"
    assert not [r for r in out.failures() if "D*A" in r.name]


def test_square_fails_dual_pattern_but_passes_gl():
    sq = MAT @ MAT
    assert not check_dual_pattern(sq, Q).ok
    assert check_gl_pattern(sq, Q * Q).ok


def test_cube_satisfies_dual_pattern_at_shifted_parameter():
    out = check_dual_pattern(MAT ** 3, Q ** 3)
    assert out.ok
    assert out.bracket_ordering == "DA"


def test_gl_matrix_pattern():
    assert check_gl_pattern(GLMAT, Q).ok
    assert not check_gl_pattern(GLMAT, Q * Q).ok
    assert not check_dual_pattern(MAT, Q * Q).ok


def test_product_of_two_dual_matrices_is_gl_type():
    two = tensor(DDUAL, rename(DDUAL, "2"))
    m1 = dual_generator_matrix(two)
    m2 = dual_generator_matrix(two, suffix="2")
    prod = m1 @ m2
    assert check_gl_pattern(prod, Q).ok
    assert not check_dual_pattern(prod, Q).ok


# -- coordinate transformations ----------------------------------------------

def test_gl_matrix_preserves_both_planes():
    t = tensor(GL, superplane())
    mat = gl_generator_matrix(t)
    coords = (t.gen("x"), t.gen("xi"))
    assert transform_plane(mat, coords, "plane", Q).ok
    t2 = tensor(GL, dual_superplane())
    mat2 = gl_generator_matrix(t2)
    dual_coords = (t2.gen("eta"), t2.gen("y"))
    assert transform_plane(mat2, dual_coords, "dual_plane", Q).ok


def test_dual_matrix_swaps_the_planes():
    t = tensor(DDUAL, superplane())
    mat = dual_generator_matrix(t)
    coords = (t.gen("x"), t.gen("xi"))
    assert transform_plane(mat, coords, "dual_plane", Q).ok
    assert not transform_plane(mat, coords, "plane", Q).ok
    t2 = tensor(DDUAL, dual_superplane())
    mat2 = dual_generator_matrix(t2)
    dual_coords = (t2.gen("eta"), t2.gen("y"))
    assert transform_plane(mat2, dual_coords, "plane", Q).ok
    assert not transform_plane(mat2, dual_coords, "dual_plane", Q).ok


def test_transform_guards():
    t = tensor(GL, superplane())
    mat = gl_generator_matrix(t)
    coords = (t.gen("x"), t.gen("xi"))
    with pytest.raises(ValueError):
        transform_plane(mat, coords, "torus", Q)
    # the target is checked before any product is formed
    with pytest.raises(ValueError):
        transform_plane(mat, (None, None), "torus", Q)

"""2x2 supermatrix calculus over a presented algebra.

Two entry layouts occur.  A matrix in gl format has even diagonal entries
and odd off-diagonal entries; a matrix in dual format has odd diagonal
entries and even, invertible off-diagonal entries.  Multiplication is the
ordinary row-by-column product with entry products taken left-to-right; no
sign factors are inserted at the matrix level, because all Koszul signs
already live in the entry algebra's exchange rules.

Beyond the arithmetic, this module carries the derived objects for a
dual-format generator matrix: the two determinant-like combinations
delta1/delta2, the left (and two-sided) inverse built from them, the
inverse obtained from a triangular decomposition, the central
superdeterminant, closed-form expressions for odd and even matrix powers,
and structured relation-pattern checks used by the verification suite.

In relation names and outcome records the four entries of a matrix are
labelled A = e11, B = e12, C = e21, D = e22.
"""

from collections import namedtuple

from .algebra import (
    AlgebraError,
    AlgebraMismatchError,
    EVEN,
    Element,
    ODD,
    invert_quasi_unit,
)
from .qfield import ONE, Q, _coerce, qnum

_SLOTS = ("e11", "e12", "e21", "e22")
_PARITY_PATTERN = {
    # fmt: (e11, e12, e21, e22)
    "gl": (EVEN, ODD, ODD, EVEN),
    "dual": (ODD, EVEN, EVEN, ODD),
}


class MatrixFormatError(AlgebraError):
    """An entry's parity contradicts the declared matrix format."""


class SuperMatrix:
    """An immutable 2x2 matrix of algebra elements.

    ``fmt`` is optional metadata ("gl" or "dual"); when present, each
    homogeneous entry's parity must match the format's pattern.  Equality
    compares entries only, never the tag.
    """

    __slots__ = (*_SLOTS, "fmt")

    def __init__(self, e11, e12, e21, e22, fmt=None):
        entries = (e11, e12, e21, e22)
        pres = next((x.pres for x in entries if isinstance(x, Element)), None)
        if pres is None:
            raise TypeError("at least one entry must be an algebra element")
        for slot, x in zip(_SLOTS, entries):
            if isinstance(x, Element):
                if x.pres is not pres:
                    raise AlgebraMismatchError(
                        "matrix entries live in different algebras"
                    )
            else:
                c = _coerce(x)
                if c is None:
                    raise TypeError(f"entry {x!r} is not an element or scalar")
                x = pres.scalar(c)
            object.__setattr__(self, slot, x)
        object.__setattr__(self, "fmt", fmt)
        if fmt is not None:
            pattern = _PARITY_PATTERN.get(fmt)
            if pattern is None:
                raise ValueError(f"unknown matrix format {fmt!r}")
            for x, want in zip(self.entries, pattern):
                got = x.parity()
                if got is not None and got != want:
                    raise MatrixFormatError(
                        f"entry parity {got} contradicts {fmt!r} format"
                    )

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.e11, self.e12, self.e21, self.e22) == (
            other.e11, other.e12, other.e21, other.e22)

    def __hash__(self):
        return hash((self.e11, self.e12, self.e21, self.e22))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, past __setattr__
        return self.__class__, (*self.entries, self.fmt)

    @property
    def pres(self):
        return self.e11.pres

    @property
    def entries(self):
        return (self.e11, self.e12, self.e21, self.e22)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, n):
        return power(self, n)

    def __repr__(self):
        return f"[[{self.e11}, {self.e12}], [{self.e21}, {self.e22}]]"


def matmul(lhs, rhs):
    """Row-by-column product; entry products multiply left-to-right."""
    if not isinstance(lhs, SuperMatrix) or not isinstance(rhs, SuperMatrix):
        raise TypeError("matmul expects two supermatrices")
    if lhs.pres is not rhs.pres:
        raise AlgebraMismatchError("matrices live in different algebras")
    return SuperMatrix(
        lhs.e11 * rhs.e11 + lhs.e12 * rhs.e21,
        lhs.e11 * rhs.e12 + lhs.e12 * rhs.e22,
        lhs.e21 * rhs.e11 + lhs.e22 * rhs.e21,
        lhs.e21 * rhs.e12 + lhs.e22 * rhs.e22,
    )


def identity(pres):
    one, zero = pres.one(), pres.zero()
    return SuperMatrix(one, zero, zero, one)


def power(mat, n):
    """n-th power by repeated multiplication, n >= 1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("power expects an integer n >= 1")
    out = mat
    for _ in range(n - 1):
        out = matmul(out, mat)
    return out


def dual_generator_matrix(pres, suffix=""):
    """The dual-format matrix [[alpha, b], [c, delta]] of generators.

    ``suffix`` selects a renamed copy (e.g. "2" for the second tensor
    factor's alpha2/b2/c2/delta2).
    """
    g = lambda name: pres.gen(name + suffix)
    return SuperMatrix(g("alpha"), g("b"), g("c"), g("delta"), fmt="dual")


def gl_generator_matrix(pres, suffix=""):
    """The gl-format matrix [[a, beta], [gamma, d]] of generators."""
    g = lambda name: pres.gen(name + suffix)
    return SuperMatrix(g("a"), g("beta"), g("gamma"), g("d"), fmt="gl")


# ---------------------------------------------------------------------------
# inverse theory for dual-format matrices


def delta1(mat):
    """The combination e12*e21 - q*e22*e11 (= bc - q*delta*alpha)."""
    return mat.e12 * mat.e21 - Q * (mat.e22 * mat.e11)


def delta2(mat):
    """The combination e21*e12 - q*e11*e22 (= cb - q*alpha*delta)."""
    return mat.e21 * mat.e12 - Q * (mat.e11 * mat.e22)


def left_inverse(mat):
    """Inverse of a dual-format matrix via the delta combinations.

    Returns [[-q*d1*e22, d1*e12], [d2*e21, -q*d2*e11]] with d1 = delta1^-1
    and d2 = delta2^-1; the result is in fact a two-sided inverse.
    """
    d1 = invert_quasi_unit(delta1(mat))
    d2 = invert_quasi_unit(delta2(mat))
    return SuperMatrix(
        -Q * (d1 * mat.e22),
        d1 * mat.e12,
        d2 * mat.e21,
        -Q * (d2 * mat.e11),
        fmt="dual",
    )


def decomposition_factors(mat):
    """Split a dual-format matrix into lower-triangular-ish times unipotent.

        M = [[e11, e12 - e11*e21^-1*e22], [e21, 0]] * [[1, e21^-1*e22], [0, 1]]

    Requires e21 invertible (a quasi-unit).
    """
    pres = mat.pres
    c_inv = invert_quasi_unit(mat.e21)
    w = c_inv * mat.e22
    first = SuperMatrix(mat.e11, mat.e12 - mat.e11 * w, mat.e21, pres.zero())
    second = SuperMatrix(pres.one(), w, pres.zero(), pres.one())
    return first, second


def inverse_via_decomposition(mat):
    """Invert each factor of :func:`decomposition_factors`, multiply reversed.

    The unipotent factor inverts by negating its corner.  The other factor
    [[x, u], [y, 0]] with y and u quasi-units inverts as
    [[0, y^-1], [u^-1, -u^-1*x*y^-1]].
    """
    pres = mat.pres
    first, second = decomposition_factors(mat)
    second_inv = SuperMatrix(
        pres.one(), -second.e12, pres.zero(), pres.one()
    )
    y_inv = invert_quasi_unit(first.e21)
    u_inv = invert_quasi_unit(first.e12)
    first_inv = SuperMatrix(
        pres.zero(), y_inv, u_inv, -(u_inv * first.e11 * y_inv)
    )
    return matmul(second_inv, first_inv)


def sdet(mat):
    """The superdeterminant e12^2 * delta1^-1 of a dual-format matrix.

    Central: it commutes with every generator of the entry algebra.
    """
    return mat.e12 * mat.e12 * invert_quasi_unit(delta1(mat))


# ---------------------------------------------------------------------------
# closed-form powers of the dual generator matrix


def closed_form_odd(pres, n):
    """Predicted (2n-1)-th power of the dual generator matrix, n >= 1.

    Entries ([k] denotes the q-number (1 - q^{2k})/(1 - q^2), [k]' the
    base-q^2 variant):

        A = ([n]*alpha + q[n-1]*delta) * (bc)^(n-1)
        B = (bc + q[n-1]'*alpha*delta) * (bc)^(n-2) * b
        C = (cb + q[n-1]'*delta*alpha) * (cb)^(n-2) * c
        D = ([n]*delta + q[n-1]*alpha) * (cb)^(n-1)

    At n = 1 the (bc)^(n-2) factor needs (bc)^-1.  The powers come from
    :func:`odd_closed_forms` started at n: bc and cb are raised to n-2 once,
    and one more product each gives the (n-1)-th powers.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("closed_form_odd expects an integer n >= 1")
    return next(odd_closed_forms(pres, n, start=n))


def closed_form_even(pres, n):
    """Predicted (2n)-th power of the dual generator matrix, n >= 1.

    With kappa = q*(1 - q^2)/(1 + q^2)*[n]*[n-1]:

        A = (bc + kappa*alpha*delta) * (bc)^(n-1)
        B = [n]*(alpha + q*delta) * b * (cb)^(n-1)
        C = [n]*(delta + q*alpha) * c * (bc)^(n-1)
        D = (cb + kappa*delta*alpha) * (cb)^(n-1)

    The constant part of D is cb, not bc: the antidiagonal swap
    (alpha <-> delta, b <-> c) is an automorphism of the entry relations
    exchanging A with D, and direct expansion of the fourth power confirms
    the cb form.  The powers come from :func:`even_closed_forms` started at
    n: bc and cb are raised to n-1 once each.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("closed_form_even expects an integer n >= 1")
    return next(even_closed_forms(pres, n, start=n))


def _dual_letters(pres):
    """alpha, delta, b, c and the products bc, cb, alpha*delta, delta*alpha."""
    al, de, b, c = (pres.gen(x) for x in ("alpha", "delta", "b", "c"))
    return al, de, b, c, b * c, c * b, al * de, de * al


def odd_closed_forms(pres, max_n, start=1):
    """closed_form_odd(pres, n) for n = start..max_n, in order of n.

    (bc)^(n-2) and (cb)^(n-2) are raised once, at n = start, and then
    carried: each step takes one product per power, and the (n-1)-th
    powers of one n are the (n-2)-th powers of the next.
    """
    al, de, b, c, bc, cb, ad, da = _dual_letters(pres)
    bc0, cb0 = bc ** (start - 2), cb ** (start - 2)
    for n in range(start, max_n + 1):
        bc1, cb1 = (bc0 * bc, cb0 * cb) if n > 1 else (pres.one(),) * 2
        qn, qn1, qn1_2 = qnum(n), qnum(n - 1), qnum(n - 1, 2)
        yield SuperMatrix(
            (qn * al + (Q * qn1) * de) * bc1,
            (bc + (Q * qn1_2) * ad) * bc0 * b,
            (cb + (Q * qn1_2) * da) * cb0 * c,
            (qn * de + (Q * qn1) * al) * cb1,
            fmt="dual",
        )
        bc0, cb0 = bc1, cb1


def even_closed_forms(pres, max_n, start=1):
    """closed_form_even(pres, n) for n = start..max_n, in order of n.

    (bc)^(n-1) and (cb)^(n-1) are raised once, at n = start, and then
    carried: each step takes one product per power.
    """
    al, de, b, c, bc, cb, ad, da = _dual_letters(pres)
    bc1, cb1 = bc ** (start - 1), cb ** (start - 1)
    for n in range(start, max_n + 1):
        if n > start:
            bc1, cb1 = bc1 * bc, cb1 * cb
        kappa = Q * (ONE - Q * Q) * (ONE + Q * Q).inv() * qnum(n) * qnum(n - 1)
        yield SuperMatrix(
            (bc + kappa * ad) * bc1,
            qnum(n) * ((al + Q * de) * b) * cb1,
            qnum(n) * ((de + Q * al) * c) * bc1,
            (cb + kappa * da) * cb1,
            fmt="gl",
        )


# ---------------------------------------------------------------------------
# relation-pattern checks (structured outcomes, never raising)


class RelationResult(namedtuple("RelationResult", "name residual")):
    """One relation instance: a name and its residual, zero when it holds."""

    __slots__ = ()

    @property
    def holds(self):
        return self.residual.is_zero


class CheckOutcome(namedtuple(
        "CheckOutcome", "ok relations bracket_ordering", defaults=((), None))):
    """Aggregate of relation results; ``ok`` means every expectation held.

    ``bracket_ordering`` is set by :func:`check_dual_pattern` to record
    which ordering of the final bracket relation's right-hand side holds:
    "DA", "AD", "both", or "neither".
    """

    __slots__ = ()

    def failures(self):
        return [r for r in self.relations if not r.holds]


def _outcome(*relations):
    """The outcome of (name, residual) relations that must all hold."""
    rels = tuple(RelationResult(name, r) for name, r in relations)
    return CheckOutcome(all(r.holds for r in rels), rels)


def check_dual_pattern(mat, p):
    """Do the entries satisfy the dual-format relations at parameter p?

    Verifies A*B = p^-1*B*A (likewise A*C, D*B, D*C), A*D + D*A = 0,
    A^2 = D^2 = 0, and the bracket relation
    B*C - C*B = (p - p^-1) * (product of D and A), testing the right-hand
    side in both the D*A and A*D orderings and recording which holds.
    """
    a, b, c, d = mat.entries
    pi = p.inv()
    ad, da = a * d, d * a
    base = _outcome(
        ("A*B = p^-1*B*A", a * b - pi * (b * a)),
        ("A*C = p^-1*C*A", a * c - pi * (c * a)),
        ("D*B = p^-1*B*D", d * b - pi * (b * d)),
        ("D*C = p^-1*C*D", d * c - pi * (c * d)),
        ("A*D + D*A = 0", ad + da),
        ("A*A = 0", a * a),
        ("D*D = 0", d * d),
    )
    bracket = b * c - c * b
    coeff = p - pi
    r_da = RelationResult("B*C - C*B = (p - p^-1)*D*A", bracket - coeff * da)
    r_ad = RelationResult("B*C - C*B = (p - p^-1)*A*D", bracket - coeff * ad)
    if r_da.holds and r_ad.holds:
        ordering = "both"
    elif r_da.holds:
        ordering = "DA"
    elif r_ad.holds:
        ordering = "AD"
    else:
        ordering = "neither"
    ok = base.ok and ordering != "neither"
    return CheckOutcome(ok, base.relations + (r_da, r_ad), ordering)


def check_gl_pattern(mat, p):
    """Do the entries satisfy the gl-format relations at parameter p?

    Verifies A*B = p*B*A (likewise A*C, D*B, D*C), B*C + C*B = 0,
    B^2 = C^2 = 0, and A*D - D*A = (p - p^-1)*C*B.
    """
    a, b, c, d = mat.entries
    cb = c * b
    return _outcome(
        ("A*B = p*B*A", a * b - p * (b * a)),
        ("A*C = p*C*A", a * c - p * (c * a)),
        ("D*B = p*B*D", d * b - p * (b * d)),
        ("D*C = p*C*D", d * c - p * (c * d)),
        ("B*C + C*B = 0", b * c + cb),
        ("B*B = 0", b * b),
        ("C*C = 0", c * c),
        ("A*D - D*A = (p - p^-1)*C*B", a * d - d * a - (p - p.inv()) * cb),
    )


def transform_plane(mat, coords, target, p):
    """Do matrix-transformed coordinates satisfy the target plane relations?

    coords = (v1, v2) are elements of the matrix's algebra (normally a
    tensor of an entry algebra with a plane algebra).  The transformed pair
    is w1 = e11*v1 + e12*v2, w2 = e21*v1 + e22*v2.  For target "plane" the
    expected relations are w1*w2 = p*w2*w1 and w2^2 = 0; for "dual_plane"
    they are w1^2 = 0 and w2*w1 = p*w1*w2.
    """
    if target not in ("plane", "dual_plane"):
        raise ValueError(f"unknown target {target!r}")
    v1, v2 = coords
    w1 = mat.e11 * v1 + mat.e12 * v2
    w2 = mat.e21 * v1 + mat.e22 * v2
    if target == "plane":
        return _outcome(
            ("w1*w2 = p*w2*w1", w1 * w2 - p * (w2 * w1)),
            ("w2*w2 = 0", w2 * w2),
        )
    return _outcome(
        ("w1*w1 = 0", w1 * w1),
        ("w2*w1 = p*w1*w2", w2 * w1 - p * (w1 * w2)),
    )

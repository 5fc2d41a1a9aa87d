"""Exact arithmetic in the field of rational functions of q."""

import copy
import pickle
import random
import time
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest

from qdual import qfield
from qdual.parsing import parse_element
from qdual.presentations import dual_algebra
from qdual.qfield import (
    ONE,
    PoleError,
    Q,
    QRational,
    ZERO,
    _padd,
    _kdiv,
    _kmul,
    _pdivmod,
    _pgcd,
    _pmul,
    q_power,
    qnum,
    scalar,
)


def test_partial_fraction_identity():
    lhs = ONE / (ONE - Q) + ONE / (ONE + Q)
    rhs = scalar(2) / (ONE - Q * Q)
    assert lhs == rhs
    assert lhs.eval_at(2) == Fraction(-2, 3)


def test_canonical_form_cancels():
    assert (Q * Q - ONE) / (Q - ONE) == Q + ONE
    assert hash((Q * Q - ONE) / (Q - ONE)) == hash(Q + ONE)
    assert ((Q - ONE) * (Q + ONE) - (Q * Q - ONE)).is_zero


def test_constants_hash_like_their_fraction():
    for v in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3)):
        assert scalar(v) == v
        assert hash(scalar(v)) == hash(Fraction(v)) == hash(v)
    assert hash(ONE - ONE) == hash(0)
    assert hash(Q / Q) == hash(1)


def test_str_renderings():
    assert str(Q) == "q"
    assert str(ONE) == "1"
    assert str(ZERO) == "0"
    assert str(-Q) == "-q"
    assert str(q_power(-1)) == "(1)/(q)"
    assert str(ONE / (Q - ONE)) == "(1)/(q - 1)"
    assert str((Q * Q - ONE) / Q) == "(q^2 - 1)/(q)"
    assert str(scalar(Fraction(3, 2))) == "3/2"


def test_powers():
    assert Q ** 0 == ONE
    assert Q ** 5 == q_power(5)
    assert Q ** -3 == q_power(-3)
    assert (Q + ONE) ** 2 == Q * Q + 2 * Q + ONE
    assert ((Q + ONE) ** -2) * (Q + ONE) ** 2 == ONE


def test_mixed_scalar_arithmetic():
    assert 2 + Q == Q + 2
    assert Fraction(1, 2) * Q == Q / 2
    assert 1 - Q == -(Q - 1)
    assert 6 / (2 * Q) == 3 * q_power(-1)


def test_zero_division_and_inverse_guards():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


def test_eval_pole():
    f = ONE / (ONE - Q * Q)
    assert f.eval_at(2) == Fraction(-1, 3)
    with pytest.raises(PoleError):
        f.eval_at(1)
    with pytest.raises(PoleError):
        f.eval_at(-1)
    # poles removed by cancellation are not poles
    assert ((Q * Q - ONE) / (Q - ONE)).eval_at(1) == 2


def test_qnum_values():
    assert qnum(0).is_zero
    assert qnum(1).is_one
    assert str(qnum(2)) == "q^2 + 1"
    assert str(qnum(3)) == "q^4 + q^2 + 1"
    assert str(qnum(2, 2)) == "q^4 + 1"
    assert qnum(2).eval_at(2) == 5
    assert qnum(3, 2).eval_at(2) == 1 + 16 + 256


def test_qnum_guards():
    with pytest.raises(ValueError) as info:
        qnum(-1)
    assert str(info.value) == "qnum requires n >= 0"
    with pytest.raises(ValueError) as info:
        qnum(1, 0)
    assert str(info.value) == "qnum requires k >= 1"


def test_qnum_recurrence():
    # [n] = 1 + q^2 [n-1], and the base-q^(2k) analogue for k = 2, 3
    for k in (1, 2, 3):
        for n in range(1, 13):
            assert qnum(n, k) == ONE + q_power(2 * k) * qnum(n - 1, k)


def test_field_axioms_fuzz():
    rng = random.Random(9001)
    pool = [ZERO, ONE, Q, q_power(-1), Q + ONE, scalar(Fraction(2, 3))]
    for _ in range(520):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == ZERO
        if not b.is_zero:
            assert b * b.inv() == ONE
            assert (a / b) * b == a
        new = rng.choice((a + b, a - b, a * b))
        if len(pool) < 120:
            pool.append(new)


def test_eval_is_a_homomorphism_fuzz():
    """eval_at commutes with +, -, *, / at two sample points, exactly."""
    rng = random.Random(31337)
    points = (Fraction(3, 2), Fraction(2))
    pool = [
        (ONE, (Fraction(1), Fraction(1))),
        (Q, points),
        (Q + ONE, tuple(v + 1 for v in points)),
        (scalar(Fraction(-5, 4)), (Fraction(-5, 4), Fraction(-5, 4))),
    ]
    ops = ("add", "sub", "mul", "div")
    trees = 0
    while trees < 500:
        (fa, va), (fb, vb) = rng.choice(pool), rng.choice(pool)
        op = rng.choice(ops)
        if op == "add":
            f, v = fa + fb, tuple(x + y for x, y in zip(va, vb))
        elif op == "sub":
            f, v = fa - fb, tuple(x - y for x, y in zip(va, vb))
        elif op == "mul":
            f, v = fa * fb, tuple(x * y for x, y in zip(va, vb))
        else:
            if fb.is_zero or any(y == 0 for y in vb):
                continue
            f, v = fa / fb, tuple(x / y for x, y in zip(va, vb))
        for point, expected in zip(points, v):
            assert f.eval_at(point) == expected
        trees += 1
        if len(pool) < 80:
            pool.append((f, v))


def _coefficients(f):
    return [c for _, c in f.num + f.den]


def _canonical(f):
    # every coefficient is an int exactly when it is integral
    return all(
        type(c) is (int if Fraction(c).denominator == 1 else Fraction)
        for c in _coefficients(f)
    )


def test_integral_coefficients_are_ints():
    forms = (scalar(Fraction(4, 2)), scalar(2), ONE + ONE)
    for f in forms:
        assert f.num == ((0, 2),) and f.den == ((0, 1),)
        assert [type(c) for c in _coefficients(f)] == [int, int]
        assert hash(f) == hash(forms[0]) == hash(2)
    half = scalar(Fraction(1, 2))
    assert type(half.num[0][1]) is Fraction
    assert type((half + half).num[0][1]) is int
    # dividing by a non-monic denominator makes it monic with exact division
    f = (2 * Q + 4) / (3 * Q * Q - 6)
    assert f.num == ((0, Fraction(4, 3)), (1, Fraction(2, 3)))
    assert f.den == ((0, -2), (2, 1))
    assert _canonical(f)
    for v in (ZERO, ONE, Q, half, f, scalar(3), qnum(4)):
        assert type(v.eval_at(2)) is Fraction
        assert type(v.eval_at(Fraction(1, 3))) is Fraction


def _random_ops(rng, pool, rounds):
    """Seeded + - * / ** over a growing pool; yields (a, op, b, result)."""
    ops = ("add", "sub", "mul", "div", "pow")
    for _ in range(rounds):
        a, b = rng.choice(pool), rng.choice(pool)
        op = rng.choice(ops)
        if op == "add":
            f = a + b
        elif op == "sub":
            f = a - b
        elif op == "mul":
            f = a * b
        elif op == "div":
            if b.is_zero:
                continue
            f = a / b
        else:
            b = rng.randint(-2, 3)
            if a.is_zero and b < 0:
                continue
            f = a ** b
        yield a, op, b, f
        size = f.num[-1][0] - f.num[0][0] if f.num else 0
        size += f.den[-1][0]
        if len(pool) < 60 and size <= 8:
            pool.append(f)


def _seed_pool():
    return [
        ONE, Q, q_power(-2), scalar(Fraction(1, 2)), scalar(Fraction(-3, 7)),
        Q - q_power(-1), qnum(3), ONE / (2 * Q + 3),
        (Q * Q - scalar(Fraction(1, 2))) / (3 * Q - 1),
        scalar(Fraction(-2, 5)) * Q + 6,
    ]


def test_representation_invariant_fuzz():
    rng = random.Random(4242)
    for _, _, _, f in _random_ops(rng, _seed_pool(), 800):
        assert _canonical(f)
        assert f.den[-1][1] == 1
        assert [k for k, _ in f.num] == sorted({k for k, _ in f.num})
        assert [k for k, _ in f.den] == sorted({k for k, _ in f.den})
        # negation and inversion build coefficients too
        assert _canonical(-f)
        if not f.is_zero:
            assert _canonical(f.inv())


def test_scalar_layer_against_sympy():
    """Every result equals sympy's cancelled quotient with a monic denominator,
    and evaluates like it at rational points."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("q")

    def poly(p):
        return sympy.Poly.from_dict(
            {(k,): sympy.Rational(c.numerator, c.denominator) for k, c in p}
            or {(0,): 0}, x, domain="QQ")

    def fraction(r):
        return Fraction(int(r.p), int(r.q))

    def terms(p, scale):
        return tuple((k, fraction(c / scale))
                     for (k,), c in sorted(p.terms()) if c)

    rng = random.Random(20010)
    points = (Fraction(2), Fraction(-1, 3), Fraction(5, 2))
    checked = 0
    for a, op, b, f in _random_ops(rng, _seed_pool(), 200):
        na, da = poly(a.num), poly(a.den)
        if op == "pow":
            num, den = (na ** b, da ** b) if b >= 0 else (da ** -b, na ** -b)
        else:
            nb, db = poly(b.num), poly(b.den)
            num, den = {
                "add": (na * db + nb * da, da * db),
                "sub": (na * db - nb * da, da * db),
                "mul": (na * nb, da * db),
                "div": (na * db, da * nb),
            }[op]
        c, num, den = sympy.cancel((num, den))
        num, den = (sympy.Poly(e, x, domain="QQ") for e in (num, den))
        lc = den.LC()
        assert f.num == terms(num, lc / c)
        assert f.den == terms(den, lc)
        for v in points:
            dv = den.eval(sympy.Rational(v.numerator, v.denominator))
            if dv:
                nv = num.eval(sympy.Rational(v.numerator, v.denominator))
                assert f.eval_at(v) == fraction(c * nv / dv)
        checked += 1
    assert checked > 170


# -- the fast paths against the general algorithms ---------------------------
#
# Each fast path must return the same canonical (num, den) tuples as the
# general path, with the same coefficient types.  The oracles below are the
# plain dict algorithms the fast paths replace.


def _canon(d):
    return tuple(
        (k, int(v) if Fraction(v).denominator == 1 else Fraction(v))
        for k, v in sorted(d.items()) if v
    )


def _dict_pmul(a, b):
    d = {}
    for ka, va in a:
        for kb, vb in b:
            d[ka + kb] = d.get(ka + kb, 0) + va * vb
    return _canon(d)


def _dict_padd(a, b):
    d = dict(a)
    for k, v in b:
        d[k] = d.get(k, 0) + v
    return _canon(d)


def _dict_pdivmod(a, b):
    db, lb = b[-1]
    q, r = {}, dict(a)
    while r:
        k = max(r)
        if k < db:
            break
        c = Fraction(r[k]) / lb
        q[k - db] = c
        for kb, vb in b:
            nv = r.get(kb + k - db, 0) - c * vb
            if nv:
                r[kb + k - db] = nv
            else:
                r.pop(kb + k - db, None)
    return _canon(q), _canon(r)


def _general_mul(a, b):
    return QRational._make(_dict_pmul(a.num, b.num), _dict_pmul(a.den, b.den))


def _general_add(a, b):
    num = _dict_padd(_dict_pmul(a.num, b.den), _dict_pmul(b.num, a.den))
    return QRational._make(num, _dict_pmul(a.den, b.den))


def _structure(f):
    return f.num, f.den, [type(c) for _, c in f.num + f.den]


_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 7), Fraction(5, 4))


def _random_poly(rng, degree, terms):
    d = {rng.randint(0, degree): rng.choice(_COEFFS) for _ in range(terms)}
    return _canon(d)


def _laurent_monomial(c, k):
    if k >= 0:
        return QRational(((k, c),), ((0, 1),))
    return QRational(((0, c),), ((-k, 1),))


def _fast_path_pool(rng):
    pool = [ZERO, ONE, Q, q_power(-3), qnum(3), scalar(Fraction(2, 3))]
    pool += [_laurent_monomial(c, k) for c in _COEFFS for k in (-4, -1, 0, 2, 5)]
    for _ in range(40):
        # numerators and denominators divisible by powers of q
        num = _random_poly(rng, 5, 3)
        den = _random_poly(rng, 4, 3) or ((0, 1),)
        i, j = rng.randint(0, 3), rng.randint(0, 3)
        pool.append(QRational._make(
            tuple((k + i, c) for k, c in num), tuple((k + j, c) for k, c in den)
        ))
    return pool


def test_fast_paths_match_the_general_path_fuzz():
    rng = random.Random(70001)
    pool = _fast_path_pool(rng)
    for _ in range(600):
        a = rng.choice(pool)
        if rng.random() < 0.3:
            # a shared denominator
            b = QRational._make(_random_poly(rng, 6, 3), a.den)
        else:
            b = rng.choice(pool)
        assert _structure(a * b) == _structure(_general_mul(a, b))
        assert _structure(a + b) == _structure(_general_add(a, b))
        assert _structure(a - b) == _structure(_general_add(a, -b))
        if b:
            inverse = QRational._make(b.den, b.num)
            assert _structure(a / b) == _structure(_general_mul(a, inverse))


def test_inverse_matches_the_gcd_reduction_fuzz():
    # den/num with num's leading coefficient divided out, against _make:
    # Fraction and int coefficients, factors of q above and below, and
    # quotients of powers
    rng = random.Random(70024)
    pool = _fast_path_pool(rng)
    for _ in range(600):
        num = _random_poly(rng, 8, rng.randint(1, 6))
        den = _random_poly(rng, 6, rng.randint(1, 4))
        i, j = rng.randint(0, 4), rng.randint(0, 4)
        c = rng.choice(_COEFFS)
        pool.append(c * QRational._make(
            tuple((k + i, v) for k, v in num), tuple((k + j, v) for k, v in den)
        ))
    pool += [(Q**3 + 2 * Q + 1) ** 30 / (Q**2 + 3) ** 40,
             Fraction(-2, 3) * (Q + 2) / (Q**2 + 1) * q_power(-5)]
    for x in pool:
        if x:
            want = QRational._make(x.den, x.num)
            assert _structure(x.inv()) == _structure(want)
            assert x.inv() * x == ONE


def test_polynomial_kernels_match_the_dict_algorithms():
    rng = random.Random(70002)
    for _ in range(600):
        a = _random_poly(rng, 12, rng.randint(0, 6))
        b = _random_poly(rng, 6, rng.randint(1, 4))
        one_term = _random_poly(rng, 6, 1)
        for x, y in ((a, b), (b, a), (one_term, a), (a, one_term)):
            assert _pmul(x, y) == _dict_pmul(x, y)
            assert _padd(x, y) == _dict_padd(x, y)
            assert [type(c) for _, c in _pmul(x, y)] == [
                type(c) for _, c in _dict_pmul(x, y)
            ]
        # integer inputs keep the quotient and the remainder integral
        # wherever the exact values are
        ints = tuple((k, int(c * 28)) for k, c in a)
        for x, y in ((a, b), (ints, b), (ints, one_term), (b, a), ((), b)):
            if not y:
                continue
            got = _pdivmod(x, y)
            assert got == _dict_pdivmod(x, y)
            assert [type(c) for _, c in got[0] + got[1]] == [
                type(c) for _, c in sum(_dict_pdivmod(x, y), ())
            ]


def test_monomial_products_match_the_general_path_fuzz():
    # c*q^i * c'*q^j in one step against _make of the two _pmul results:
    # int and Fraction coefficients, Fraction pairs with an integral
    # product, and negative exponents on either side
    rng = random.Random(70010)
    coeffs = (1, -1, 2, -6, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3),
              Fraction(3, 5), Fraction(5, 3), Fraction(-5, 6))
    for _ in range(600):
        a = _laurent_monomial(rng.choice(coeffs), rng.randint(-4, 4))
        b = _laurent_monomial(rng.choice(coeffs), rng.randint(-4, 4))
        want = QRational._make(_pmul(a.num, b.num), _pmul(a.den, b.den))
        assert _structure(a * b) == _structure(want)
    got = _laurent_monomial(Fraction(2, 3), -2) * _laurent_monomial(Fraction(3, 2), 5)
    assert _structure(got) == (((3, 1),), ((0, 1),), [int, int])
    got = _laurent_monomial(Fraction(1, 2), 1) * _laurent_monomial(-2, -3)
    assert _structure(got) == (((0, -1),), ((2, 1),), [int, int])


def test_merged_sums_match_a_dict_reference_fuzz():
    rng = random.Random(70011)
    for _ in range(600):
        a = _random_poly(rng, 12, rng.randint(0, 8))
        b = _random_poly(rng, 12, rng.randint(0, 8))
        # on a's degrees: its negative (full cancellation), or 1 or -2 minus
        # it, which turns a Fraction sum into an integer
        c = _canon({k: rng.choice((0, 1, -2)) - v for k, v in a})
        for x, y in ((a, b), (b, a), (a, c), (c, a), (_padd(b, c), a)):
            got, want = _padd(x, y), _dict_padd(x, y)
            assert got == want
            assert [type(v) for _, v in got] == [type(v) for _, v in want]
        assert _padd(a, tuple((k, -v) for k, v in a)) == ()
    x = ((0, Fraction(1, 2)), (3, Fraction(-2, 3)))
    y = ((0, Fraction(1, 2)), (1, 5), (3, Fraction(5, 3)))
    assert [type(v) for _, v in _padd(x, y)] == [int, int, int]


def test_sums_over_powers_of_q_match_the_general_path_fuzz(monkeypatch):
    # A/q^i + B/q^j against the cross-product sum, with the targets T = a + b
    # of 0, a constant, a polynomial and q^-k.  b = T - a has a's power of q
    # unless T's is larger, and only then does the sum take the shift path:
    # a sum over two different powers of q keeps the larger one, as the
    # numerator over it has a nonzero constant term
    shifted = []
    add = QRational.__add__

    def counted(x, y):
        if len(x.den) == len(y.den) == 1 and x.den != y.den:
            shifted.append(None)
        return add(x, y)

    monkeypatch.setattr(QRational, "__add__", counted)
    rng = random.Random(70023)
    for _ in range(400):
        a = QRational._make(_random_poly(rng, 6, rng.randint(1, 4)),
                            ((rng.randint(0, 5), 1),))
        k = rng.randint(1, 8)
        targets = (ZERO, scalar(rng.choice(_COEFFS)),
                   QRational(_random_poly(rng, 5, 3) or ((0, 1),), ((0, 1),)),
                   q_power(-k), rng.choice(_COEFFS) * q_power(-k))
        others = [t - a for t in targets]
        others.append(QRational._make(_random_poly(rng, 6, rng.randint(1, 4)),
                                      ((rng.randint(0, 5), 1),)))
        for b in others:
            for x, y in ((a, b), (b, a)):
                got, want = x + y, _general_add(x, y)
                assert _structure(got) == _structure(want)
                assert got == want and hash(got) == hash(want)
        for t, b in zip(targets, others):
            assert a + b == t and hash(a + b) == hash(t)
            assert hash(b + a) == hash(t)
    assert len(shifted) > 1000


def _strided_poly(rng, terms, stride, low, coeffs):
    # terms at low + stride*i for i in a random set, coefficients from coeffs
    slots = rng.sample(range(2 * terms), terms)
    return _canon({low + stride * i: rng.choice(coeffs) for i in slots})


def _assert_pmul_matches(x, y):
    got, want = _pmul(x, y), _dict_pmul(x, y)
    assert got == want
    assert [type(c) for _, c in got] == [type(c) for _, c in want]


def test_kronecker_products_match_the_dict_loop_fuzz():
    rng = random.Random(70005)
    small = (1, -1, 2, -3, 5, -8, 13)
    fractions = small + (Fraction(1, 2), Fraction(-3, 7))
    kronecker = 0
    for _ in range(400):
        # below, at and above 64 term pairs; strides 1, 2, 3 and mixed
        la, lb = rng.randint(2, 20), rng.randint(2, 20)
        sa = rng.choice((1, 2, 3))
        sb = sa if rng.random() < 0.6 else rng.choice((1, 2, 3))
        coeffs = fractions if rng.random() < 0.15 else small
        x = _strided_poly(rng, la, sa, rng.randint(-5, 9), coeffs)
        y = _strided_poly(rng, lb, sb, rng.randint(-5, 9), small)
        _assert_pmul_matches(x, y)
        _assert_pmul_matches(y, x)
        kronecker += len(x) * len(y) >= 64 and _kmul(x, y) is not None
    assert kronecker > 100
    # middle terms cancel: (1 + q)(1 - q), and its q^2-base analogues
    assert _pmul(((0, 1), (1, 1)), ((0, 1), (1, -1))) == ((0, 1), (2, -1))
    for n in (2, 8, 9, 32, 40):
        plus = tuple((2 * i + 3, 1) for i in range(n))
        alternating = tuple((2 * i, (-1) ** i) for i in range(n))
        _assert_pmul_matches(plus, alternating)
        # q^3 (1 + q^2 + ... + q^(2n-2)) (q^-7 - q^-5) = q^-4 - q^(2n-4)
        telescoping = ((-7, 1), (-5, -1))
        assert _pmul(plus, telescoping) == ((-4, 1), (2 * n - 4, -1))


def test_kronecker_products_stay_exact_at_the_64_bit_boundary():
    # eight terms each: 64 term pairs, and every middle coefficient of the
    # product sums eight products of extreme coefficients
    def flat(c, stride=1):
        return tuple((stride * i, c) for i in range(8))

    below = (1 << 30) - 1
    for m in (below, -below):
        x, y = flat(m), flat(below, 2)
        assert _kmul(x, flat(below)) is not None
        assert _pmul(x, flat(below))[7] == (7, 8 * m * below)
        _assert_pmul_matches(x, y)
    for m in (1 << 30, 1 << 31, (1 << 31) + 1, 1 << 62, (1 << 63) - 1,
              1 << 63, -(1 << 63), (1 << 64) + 3):
        x, y = flat(m), flat(-3)
        if abs(m) * 3 * 8 >= 1 << 63:
            assert _kmul(x, y) is None and _kmul(y, x) is None
        _assert_pmul_matches(x, y)
        _assert_pmul_matches(x, x)
        assert _kmul(x, x) is None
    # a middle coefficient of exactly 2^63, from coefficients of 2^30
    x = flat(1 << 30)
    assert _pmul(x, x)[7] == (7, 1 << 63)


def test_sparse_and_fraction_products_take_the_dict_loop():
    dense = tuple((i, i + 1) for i in range(10))
    sparse = tuple((i, 1) for i in range(9)) + ((10 ** 6, 1),)
    assert _kmul(dense, sparse) is None
    _assert_pmul_matches(dense, sparse)
    halves = tuple((i, Fraction(2 * i + 1, 2)) for i in range(10))
    assert _kmul(dense, halves) is None and _kmul(halves, dense) is None
    _assert_pmul_matches(dense, halves)
    _assert_pmul_matches(halves, halves)


def _pmonic(a):
    # a divided by its leading coefficient, each coefficient in its
    # canonical type: the associate that a gcd over Q is compared by
    return _canon({k: Fraction(c) / a[-1][1] for k, c in a})


def _gcd_make(num, den):
    # the reduction by a full gcd, as it was before exact quotients were
    # settled by one division
    g = _pgcd(num, den)
    num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
    lc = den[-1][1]
    num, den = tuple((k, Fraction(c) / lc) for k, c in num), _pmonic(den)
    return QRational(_canon(dict(num)), den)


def _counting(monkeypatch, *names):
    # replace each named qfield kernel by a wrapper that logs its calls
    calls = {name: [] for name in names}
    for name in names:
        def counted(*args, _f=getattr(qfield, name), _log=calls[name]):
            _log.append(args)
            return _f(*args)
        monkeypatch.setattr(qfield, name, counted)
    return calls


def test_exact_quotients_take_one_division(monkeypatch):
    num = den = ONE
    for i in range(5):
        num = num * qnum(12 - i)
        den = den * qnum(i + 1)
    inverse = den.inv()
    calls = _counting(monkeypatch, "_kdiv", "_pdivmod", "_pgcd")
    got = num * inverse
    assert calls == {"_kdiv": [(num.num, den.num)], "_pdivmod": [], "_pgcd": []}
    monkeypatch.undo()
    assert _structure(got) == _structure(_gcd_make(num.num, den.num))
    assert got.den == ((0, 1),) and len(got.num) == 5 * 7 + 1


def _assert_kdiv_agrees(a, b):
    # _kdiv gives long division's quotient whenever it gives one, and a
    # quotient only when long division leaves no remainder
    got = _kdiv(a, b)
    quo, rem = _pdivmod(a, b)
    if got is not None:
        assert not rem and got == quo
        assert all(type(c) is int for _, c in got)
    return got


def test_kronecker_quotients_match_long_division_fuzz():
    rng = random.Random(70007)
    small = (1, -1, 2, -3, 5, -8, 13)
    exact = 0
    for _ in range(400):
        # strides 1, 2, 3 and mixed, exponents offset both ways, negative
        # and non-unit leading coefficients
        s = rng.choice((1, 2, 3))
        quo = _strided_poly(rng, rng.randint(1, 20), s, rng.randint(0, 6), small)
        b = _strided_poly(rng, rng.randint(2, 12), rng.choice((s, 1, 2)),
                          rng.randint(-3, 6), small)
        a = _pmul(quo, b)
        got = _assert_kdiv_agrees(a, b)
        if got is not None:
            exact += 1
            assert got == quo
        # a remainder of lower degree than b: no quotient
        r = _strided_poly(rng, 2, 1, b[0][0], small)
        if r[-1][0] < b[-1][0]:
            assert _assert_kdiv_agrees(_padd(a, r), b) is None
        # quo / 2 is not integral, so the exact quotient is a Fraction one
        if any(c % 2 for _, c in quo):
            assert _assert_kdiv_agrees(a, _pmul(b, ((0, 2),))) is None
            assert _pdivmod(a, _pmul(b, ((0, 2),)))[1] == ()
    assert exact > 300
    # a Laurent quotient is not a polynomial one: q^-1 = (1 + q) / (q + q^2)
    assert _assert_kdiv_agrees(((0, 1), (1, 1)), ((1, 1), (2, 1))) is None
    # a Fraction coefficient falls back
    halves = ((0, Fraction(1, 2)), (1, 1), (2, Fraction(1, 2)))
    assert _assert_kdiv_agrees(halves, ((0, 1), (1, 1))) is None
    assert _assert_kdiv_agrees(((0, 1), (2, 1)), halves[:2]) is None


def test_kronecker_quotients_stay_exact_at_the_64_bit_boundary():
    minus = ((0, 1), (1, -1))

    def flat(c, n=8):
        return tuple((i, c) for i in range(n))

    # (1 - q) * c * [8]_q = c * (1 - q^8): max|quo| * max|b| * 2 must stay
    # below 2^63
    for c in ((1 << 62) - 1, -(1 << 62) + 1):
        a = ((0, c), (8, -c))
        assert _assert_kdiv_agrees(a, minus) == flat(c)
    for c in (1 << 62, -(1 << 62)):
        a = ((0, c), (8, -c))
        assert _assert_kdiv_agrees(a, minus) is None
        assert _pdivmod(a, minus) == (flat(c), ())
    # (1 - 2q) * sum (2^i + 1) q^i = 2 - q - ... - q^(n-1) - (2^n + 2) q^n:
    # the dividend fits the slots, and from n = 62 on the quotient
    # outgrows the bound
    b = ((0, 1), (1, -2))
    for n in (60, 61, 62):
        quo = tuple((i, (1 << i) + 1) for i in range(n))
        a = _pmul(quo, b)
        assert a[-1] == (n, -(1 << n) - 2) and len(a) == n + 1
        assert _assert_kdiv_agrees(a, b) == (quo if n < 62 else None)
        assert _pdivmod(a, b) == (quo, ())
    # 2^62 (1 + q + q^2 - q^3 - q^4 - q^5) / (1 - q) = 2^62 (1 + 2q + 3q^2
    # + 2q^3 + q^4): a quotient coefficient past the slots
    a = tuple((i, (1 << 62) * (1 if i < 3 else -1)) for i in range(6))
    quo = tuple((i, (1 << 62) * c) for i, c in enumerate((1, 2, 3, 2, 1)))
    assert _assert_kdiv_agrees(a, minus) is None
    assert _pdivmod(a, minus) == (quo, ())


def _same_terms(got, want):
    # identical tuples, coefficient types included
    assert got == want
    assert [type(c) for _, c in got] == [type(c) for _, c in want]


def _gapped_poly(rng, terms, g, low, coeffs):
    # terms at low + g*i for a random, unevenly spaced set of i
    slots = sorted(rng.sample(range(3 * terms), terms))
    return _canon({low + g * i: rng.choice(coeffs) for i in slots})


def test_kronecker_kernel_matches_the_reference_loops_fuzz():
    # _kmul against the dict loop and _kdiv against long division, on the
    # shapes the kernel meets: strides 1, 2, 3, uneven gaps with a common
    # stride, mixed strides, one-term operands and negative coefficients
    rng = random.Random(70011)
    signed = (1, -1, 2, -3, 5, -8, 13, -21)
    products = quotients = 0
    for _ in range(300):
        g = rng.choice((1, 2, 3))
        h = g if rng.random() < 0.7 else rng.choice((1, 2, 3))
        x = _gapped_poly(rng, rng.randint(1, 24), g, rng.randint(-4, 6), signed)
        y = _gapped_poly(rng, rng.choice((1, rng.randint(2, 24))), h,
                         rng.randint(-4, 6), signed)
        for a, b in ((x, y), (y, x)):
            got = _kmul(a, b)
            if got is not None:
                products += 1
                _same_terms(got, _dict_pmul(a, b))
            _assert_pmul_matches(a, b)
        a = _dict_pmul(x, y)
        for b, quo in ((y, x), (x, y)):
            got = _assert_kdiv_agrees(a, b)
            if got is not None:
                quotients += 1
                _same_terms(got, quo)
    assert products > 400 and quotients > 300


def test_kronecker_kernel_reads_back_zero_slots():
    # products and quotients whose middle slots cancel to zero
    for g in (1, 2, 3):
        for m in (2, 5, 9):
            ones = tuple((g * i, 1) for i in range(m))
            minus = ((0, 1), (g, -1))
            telescoped = ((0, 1), (g * m, -1))
            _same_terms(_kmul(ones, minus), telescoped)
            _same_terms(_kmul(minus, ones), telescoped)
            # (1 + q^(mg)) [3] / [3]: a quotient with zero slots inside
            three = ((0, 1), (g, 1), (2 * g, 1))
            spread = ((0, 1), (g * m, 1))
            a = _kmul(spread, three)
            _same_terms(a, _dict_pmul(spread, three))
            _same_terms(_kdiv(telescoped, minus), ones)
            _same_terms(_kdiv(a, three), spread)
    # one term on either side, or both
    _same_terms(_kmul(((3, -2),), ((1, 5),)), ((4, -10),))
    _same_terms(_kmul(((3, -2),), ((0, 1), (2, 1))), ((3, -2), (5, -2)))
    _same_terms(_kdiv(((4, -10),), ((1, 5),)), ((3, -2),))
    _same_terms(_kdiv(((3, -2), (5, -2)), ((3, -2),)), ((0, 1), (2, 1)))
    assert _kdiv(((4, -10),), ((1, 3),)) is None


def test_kronecker_kernel_guards_at_the_64_bit_boundary():
    # max|a| * max|b| * min(len) below 2^63 takes the kernel, at 2^63 falls
    # back; the results agree with the dict loop either way
    for stride in (1, 2):
        a = tuple((stride * i, 3) for i in range(8))
        for m in ((1 << 63) // 24 - 1, (1 << 63) // 24 + 1):
            for sign in (1, -1):
                b = tuple((stride * i, sign * m) for i in range(8))
                got = _kmul(a, b)
                assert (got is None) == (3 * m * 8 >= 1 << 63)
                _assert_pmul_matches(a, b)
                if got is not None:
                    _same_terms(got, _dict_pmul(a, b))
                    _same_terms(_kdiv(got, a), b)
    # a Fraction coefficient and a sparse operand fall back
    dense = tuple((i, i + 1) for i in range(10))
    assert _kmul(dense, ((0, Fraction(1, 2)), (1, 1))) is None
    assert _kdiv(dense, ((0, Fraction(1, 2)), (1, 1))) is None
    assert _kmul(dense, ((0, 1), (10 ** 6, 1))) is None
    assert _kdiv(_dict_pmul(dense, ((0, 1), (10 ** 6, 1))), dense) is None


def test_kronecker_slots_are_native_signed_words():
    # the packed integer is sum c * 2^(64 i) whatever the byte order, an
    # offset wider than the operand packs it alike, and the slots read back
    ks, cs = (0, 2, 4), (5, -1, -(1 << 63))
    want = 5 - (1 << 64) - (1 << 191)
    for slots in (3, 4, 9):
        off = qfield._koffset(slots)
        assert qfield._kpack(ks, cs, 2, off) == want
        assert qfield._kunpack(want, 3, 0, 2, off) == tuple(zip(ks, cs))
        assert qfield._kunpack(want, 2, 0, 2, off) is None


def test_heuristic_gcd_matches_euclid_and_sympy_fuzz(monkeypatch):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("q")
    rng = random.Random(70008)
    coeffs = tuple(range(-9, 10))

    def poly(degree, low=0):
        p = _canon({low + i: rng.choice(coeffs) for i in range(degree + 1)})
        return p if len(p) > 1 else ((low, 1), (low + degree + 1, 1))

    def sympy_gcd(a, b):
        pa, pb = (sympy.Poly.from_dict({(k,): c for k, c in p}, x, domain="ZZ")
                  for p in (a, b))
        return tuple((k, int(c)) for (k,), c in sorted(pa.gcd(pb).terms()))

    def primitive(p):
        # the associate with coprime integer coefficients and a positive
        # leading one
        p = _pmonic(p)
        scale = lcm(*[Fraction(c).denominator for _, c in p])
        return tuple((k, int(c * scale)) for k, c in p)

    cases = []
    for _ in range(60):
        # a common factor with a non-unit content, and a power of q
        common = _pmul(poly(rng.randint(1, 8)), ((0, rng.choice((1, 2, 6, -4))),))
        a = _pmul(common, poly(rng.randint(4, 16), rng.randint(0, 3)))
        b = _pmul(common, poly(rng.randint(4, 16), rng.randint(0, 3)))
        cases.append((a, b))
    for _ in range(20):
        cases.append((poly(rng.randint(8, 20)), poly(rng.randint(8, 20))))
    heuristic = []
    hgcd = qfield._hgcd

    def counted(a, b):
        g = hgcd(a, b)
        heuristic.append(g is not None)
        return g

    monkeypatch.setattr(qfield, "_hgcd", counted)
    got = [_pgcd(a, b) for a, b in cases]
    monkeypatch.setattr(qfield, "_hgcd", lambda a, b: None)
    euclid = [_pgcd(a, b) for a, b in cases]
    for (a, b), g, e in zip(cases, got, euclid):
        assert primitive(g) == primitive(e) == primitive(sympy_gcd(a, b))
        # both routes give the one primitive associate
        assert g == e and _is_primitive(g)
    # GCDHEU runs at 64 term pairs or more, and settles every such case
    long_cases = sum(len(a) * len(b) >= 64 for a, b in cases)
    assert all(heuristic) and len(heuristic) == long_cases > 70


def _is_primitive(p):
    # integer coefficients with no common factor and a positive leading one
    return (all(type(c) is int for _, c in p) and p[-1][1] > 0
            and gcd(*[c for _, c in p]) == 1)


def test_heuristic_gcd_falls_back_to_the_remainder_sequence(monkeypatch):
    # coefficients of 2^62 or more take the primitive remainder sequence
    plus = ((0, 1), (1, 1))
    big = ((0, 1 << 62), (1, 1))
    assert qfield._hgcd(big, plus) is None
    assert _pgcd(_pmul(big, plus), plus) == plus
    # a gcd is defined up to a constant factor
    halves = ((0, Fraction(1, 2)), (1, 1))
    assert _pmonic(_pgcd(halves, ((0, 1), (1, 2)))) == _pmonic(halves)
    # short operands take the remainder sequence, which is cheaper there
    a, b = _pmul(plus, ((0, 2), (1, 3))), _pmul(plus, ((0, -1), (2, 5)))
    calls = _counting(monkeypatch, "_hgcd")
    assert _pgcd(a, b) == plus and calls["_hgcd"] == []
    monkeypatch.undo()
    # a candidate counts only when it divides both inputs
    assert qfield._hgcd(a, b) == plus
    monkeypatch.setattr(qfield, "_kdiv", lambda a, b: None)
    assert qfield._hgcd(a, b) is None


def test_fraction_operands_take_the_heuristic_gcd(monkeypatch):
    # a gcd is only defined up to a constant, so long Fraction operands are
    # scaled to integer ones and reach GCDHEU; the result agrees with the
    # remainder sequence up to a constant factor
    rng = random.Random(70010)
    digits = [c for c in range(-9, 10) if c]

    def poly(degree):
        return _canon({i: Fraction(rng.choice(digits), rng.choice((1, 2, 3, 7)))
                       for i in range(degree + 1)})

    cases = []
    for _ in range(20):
        common = poly(rng.randint(1, 6))
        cases.append((_pmul(common, poly(rng.randint(8, 16))),
                      _pmul(common, poly(rng.randint(8, 16)))))
    cases += [(poly(20), poly(24)) for _ in range(5)]
    assert all(any(type(c) is Fraction for _, c in a) for a, _ in cases)
    calls = _counting(monkeypatch, "_hgcd")
    got = [_pgcd(a, b) for a, b in cases]
    made = [_structure(QRational._make(a, b)) for a, b in cases]
    assert len(calls["_hgcd"]) == 2 * len(cases)
    assert all(type(c) is int for args in calls["_hgcd"] for p in args for _, c in p)
    monkeypatch.setattr(qfield, "_hgcd", lambda a, b: None)
    assert [_pmonic(g) for g in got] == [_pmonic(_pgcd(a, b)) for a, b in cases]
    assert made == [_structure(QRational._make(a, b)) for a, b in cases]


def test_big_coefficients_take_the_remainder_sequence(monkeypatch):
    # past GCDHEU's 2^62 bound the gcd stays integral: every remainder is
    # made primitive, so no Fraction reaches long division
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("q")
    rng = random.Random(70011)

    def poly(degree, bits):
        p = _canon({i: rng.randint(-(1 << bits), 1 << bits)
                    for i in range(degree + 1)})
        return p if len(p) > 1 else ((0, 1), (degree + 1, 1))

    def monic_sympy_gcd(a, b):
        pa, pb = (sympy.Poly.from_dict({(k,): c for k, c in p}, x, domain="QQ")
                  for p in (a, b))
        g = pa.gcd(pb).monic()
        return _canon({k: Fraction(int(c.p), int(c.q)) for (k,), c in g.terms()})

    hgcd = qfield._hgcd
    heuristic = []
    monkeypatch.setattr(qfield, "_hgcd", lambda a, b: heuristic.append(
        hgcd(a, b)) or heuristic[-1])
    calls = _counting(monkeypatch, "_pdivmod")
    for _ in range(12):
        common = _pmul(poly(rng.randint(1, 6), 70), ((rng.randint(0, 2), 3),))
        a = _pmul(common, poly(rng.randint(8, 14), rng.choice((4, 66))))
        b = _pmul(common, poly(rng.randint(8, 14), rng.choice((4, 66))))
        g = _pgcd(a, b)
        assert _is_primitive(g) and _pmonic(g) == monic_sympy_gcd(a, b)
    assert len(heuristic) == 12 and not any(heuristic)
    assert all(type(c) is int for args in calls["_pdivmod"] for p in args
               for _, c in p)
    monkeypatch.undo()
    # a parsed quotient whose coefficients pass 2^62: 61 s through Euclid
    # over Q, a fraction of a second here
    dual = dual_algebra()
    t0 = time.perf_counter()
    f = parse_element("(q^3+2*q+1)^30*b/(q^2+3)^40", dual)
    assert time.perf_counter() - t0 < 10
    assert f * (Q * Q + 3) ** 40 == parse_element("(q^3+2*q+1)^30*b", dual)


def test_coprimality_modulo_a_prime_keeps_the_canonical_tuples(monkeypatch):
    # past GCDHEU's 2^62 bound, a coprime pair is settled by its images
    # modulo a prime and a pair with a common factor falls through to the
    # remainder sequence; both give the tuples the remainder sequence gives
    rng = random.Random(70013)

    def poly(degree, bits):
        p = _canon({i: rng.randint(-(1 << bits), 1 << bits)
                    for i in range(degree + 1)})
        return p if len(p) > 1 else ((0, 1), (degree + 1, 1))

    cases = []
    for _ in range(12):
        num, den = poly(rng.randint(8, 14), 66), poly(rng.randint(8, 14), 66)
        common = poly(rng.randint(1, 4), rng.choice((3, 70)))
        cases += [(num, den, True), (_pmul(num, common), _pmul(den, common), False)]
    pcoprime = qfield._pcoprime
    found = []
    monkeypatch.setattr(qfield, "_pcoprime", lambda a, b: found.append(
        pcoprime(a, b)) or found[-1])
    got = [_structure(QRational._make(num, den)) for num, den, _ in cases]
    assert found == [coprime for _, _, coprime in cases]
    monkeypatch.setattr(qfield, "_pcoprime", lambda a, b: False)
    assert got == [_structure(QRational._make(num, den)) for num, den, _ in cases]


def test_coprimality_needs_a_prime_off_the_leading_coefficients():
    p61, p31 = qfield._PRIMES
    a, b = ((0, 1), (1, p61)), ((0, 1), (2, 1))
    assert qfield._pcoprime(a, b)  # taken modulo 2^31 - 1
    # (q + 1)(p61 p31 q^2 + 1) and q + 1 share a factor; no prime qualifies
    assert not qfield._pcoprime(((0, 1), (2, p61 * p31)), b)
    assert not qfield._pcoprime(((0, 1), (1, 1), (2, p61 * p31), (3, p61 * p31)),
                                ((0, 1), (1, 1)))


def test_long_coprime_quotient_takes_no_remainder_sequence(monkeypatch):
    # its coefficients pass 2^62, so GCDHEU gives up; the pair is coprime
    # modulo 2^61 - 1 (3.5 s through the remainder sequence)
    dual = dual_algebra()
    calls = _counting(monkeypatch, "_pdivmod", "_pcoprime")
    f = parse_element("(q^3+2*q+1)^60*b/(q^2+3)^80", dual)
    assert calls["_pdivmod"] == [] and len(calls["_pcoprime"]) == 1
    monkeypatch.undo()
    assert f * (Q * Q + 3) ** 80 == parse_element("(q^3+2*q+1)^60*b", dual)


def test_coprime_degree_80_quotient_takes_no_long_division(monkeypatch):
    rng = random.Random(70009)
    digits = [c for c in range(-9, 10) if c]
    num = tuple((i, rng.choice(digits)) for i in range(81))
    den = tuple((i, rng.choice(digits)) for i in range(81))
    calls = _counting(monkeypatch, "_pdivmod", "_kdiv")
    got = QRational._make(num, den)
    assert calls["_pdivmod"] == [] and len(calls["_kdiv"]) == 3
    # coprime: the value is only scaled to a monic denominator
    lc = den[-1][1]
    assert got.num == _canon({k: Fraction(c, lc) for k, c in num})
    assert got.den == _canon({k: Fraction(c, lc) for k, c in den})


def test_inexact_quotients_match_the_gcd_reduction():
    rng = random.Random(70006)
    for _ in range(200):
        common = _random_poly(rng, 4, 3)
        num = _pmul(_random_poly(rng, 6, 4), common)
        den = _pmul(_random_poly(rng, 6, 4), common)
        if len(num) < 2 or len(den) < 2:
            continue
        got = QRational._make(num, den)
        assert _structure(got) == _structure(_gcd_make(num, den))
    # coefficients past GCDHEU's 2^62 bound, and Fraction ones, at lengths
    # that reach GCDHEU and below it
    big = (1 << 62, -(1 << 64) - 1, 3 ** 45, Fraction(1 << 70, 3),
           Fraction(-5, 1 << 66), 7, Fraction(1, 2))
    for _ in range(60):
        n = rng.choice((3, 6, 12))
        common = _canon({rng.randint(0, 4): rng.choice(big) for _ in range(3)})
        num = _pmul(_canon({rng.randint(0, n): rng.choice(big)
                            for _ in range(n)}), common)
        den = _pmul(_canon({rng.randint(0, n): rng.choice(big)
                            for _ in range(n)}), common)
        if len(num) < 2 or len(den) < 2:
            continue
        got = QRational._make(num, den)
        assert _structure(got) == _structure(_gcd_make(num, den))
    # (q + 2)(q^3 + 1) / ((q + 2)(3q - 3)): a remainder, then the gcd
    f = QRational._make(((0, 2), (1, 1), (3, 2), (4, 1)), ((0, -6), (1, 3), (2, 3)))
    assert str(f) == "(1/3*q^3 + 1/3)/(q - 1)"


def test_qnum_is_the_reduced_quotient():
    for k in range(1, 5):
        for n in range(41):
            num = ((0, 1), (2 * k * n, -1)) if n else ()
            expected = QRational._make(num, ((0, 1), (2 * k, -1)))
            assert _structure(qnum(n, k)) == _structure(expected)


def test_powers_match_repeated_products(monkeypatch):
    rng = random.Random(70004)
    pool = _fast_path_pool(rng)
    pool += [(3 * Q - 1) / (2 * Q + Fraction(1, 5)), (Q + 2) / (Q - 3)]
    for f in pool:
        for k in range(-3, 7):
            if k < 0 and not f:
                continue
            base = f if k >= 0 else f.inv()
            want = ONE
            for _ in range(abs(k)):
                want = want * base
            assert _structure(f ** k) == _structure(want)
    assert ZERO ** 5 is ZERO and ZERO ** 0 is ONE
    # a power of a reduced value is reduced: no multi-term gcd runs
    f = (Q + 2) / (Q - 3)
    multi_term = []
    pgcd = qfield._pgcd

    def counted(a, b):
        if len(a) > 1 and len(b) > 1:
            multi_term.append((a, b))
        return pgcd(a, b)

    monkeypatch.setattr(qfield, "_pgcd", counted)
    got = f ** 40
    assert multi_term == []
    assert got * f ** -40 == ONE and got.den[-1][1] == 1


def _plain_value(poly, v):
    return sum((Fraction(c) * v ** k for k, c in poly), Fraction(0))


def test_eval_at_matches_plain_fraction_sums():
    rng = random.Random(70003)
    points = (0, 1, -1, 2, Fraction(-1, 3), Fraction(5, 7), Fraction(1, 2))
    pool = _fast_path_pool(rng)
    for v in points[1:]:
        # a denominator vanishing at v
        pool.append(ONE / (Q - v) + rng.choice(pool))
        pool.append(rng.choice(pool) / ((Q - v) * (Q * Q + 1)))
    poles = 0
    for f in pool:
        for v in points:
            den = _plain_value(f.den, Fraction(v))
            if not den:
                poles += 1
                with pytest.raises(PoleError):
                    f.eval_at(v)
                continue
            got = f.eval_at(v)
            assert type(got) is Fraction
            assert got == _plain_value(f.num, Fraction(v)) / den
    assert poles >= 12


def test_eval_at_matches_the_value_of_each_polynomial_fuzz():
    # sparse terms with runs of equal gaps and uneven ones, Fraction
    # coefficients, at negative, zero and fractional points
    rng = random.Random(70013)
    points = (0, -1, -2, 3, Fraction(-1, 3), Fraction(5, 7), Fraction(-7, 2),
              Fraction(1, 2))
    coeffs = (1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-3, 7))
    poles = 0
    for _ in range(150):
        num = _gapped_poly(rng, rng.randint(1, 12), rng.choice((1, 2)),
                           rng.randint(0, 3), coeffs)
        den = _gapped_poly(rng, rng.randint(1, 6), 1, rng.randint(0, 2), coeffs)
        f = QRational._make(num, den)
        if rng.random() < 0.3:
            # a factor (q - v) in the denominator puts a pole at v
            f = f / (Q - rng.choice(points))
        for v in points:
            den_v = _plain_value(f.den, Fraction(v))
            if not den_v:
                poles += 1
                with pytest.raises(PoleError):
                    f.eval_at(v)
                continue
            got = f.eval_at(v)
            assert type(got) is Fraction
            assert got == _plain_value(f.num, Fraction(v)) / den_v
    assert poles > 20
    assert ZERO.eval_at(0) == 0 and type(ZERO.eval_at(0)) is Fraction


def test_qnum_keeps_the_small_values_in_a_bounded_cache():
    lru = qfield._qnum_lru
    for k in (1, 2, 3):
        for n in range(34):
            first = qnum(n, k)
            assert qnum(n, k) is first if n <= 32 else qnum(n, k) == first
            assert first.num == tuple((2 * k * i, 1) for i in range(n))
            assert lru.cache_info().currsize <= 32
    # above [32] every call builds its own value, so the cache holds no
    # long polynomial
    assert qnum(33) is not qnum(33)
    assert lru.cache_info().maxsize == 32


def test_only_exact_values_are_accepted():
    for bad in (0.1, 0.5, 2.0, "1/2", None, Decimal("0.5"), 1j):
        with pytest.raises(TypeError):
            scalar(bad)
        with pytest.raises(TypeError):
            Q.eval_at(bad)
        with pytest.raises(TypeError):
            Q * bad
    assert scalar(Fraction(6, 3)).num == ((0, 2),)
    assert Q.eval_at(Fraction(1, 3)) == Fraction(1, 3)


def test_products_with_the_unit_object_are_the_other_operand():
    for x in (Q, ZERO, -ONE, scalar(Fraction(1, 2)), (Q + 2) / (Q - 3)):
        assert ONE * x is x and x * ONE is x
    # ints and Fractions are coerced first, so the product is a QRational
    for got, want in ((ONE * 0, 0), (ONE * 2, 2), (2 * ONE, 2),
                      (ONE * Fraction(1, 2), Fraction(1, 2))):
        assert got.__class__ is QRational and got == want
    assert ONE * 0 is ZERO
    for bad in (lambda: ONE * "x", lambda: "x" * ONE, lambda: ONE * 1.5):
        with pytest.raises(TypeError):
            bad()
    for k in (-3, 0, 5):
        assert ONE ** k is ONE
    assert ONE.inv() is ONE
    d = dual_algebra()
    e = parse_element("2*b*c - q*alpha + 1", d)
    assert ONE * e == e and e * ONE == e


def test_scalar_one_is_the_unit_object():
    assert scalar(1) is ONE and scalar(Fraction(2, 2)) is ONE
    d = dual_algebra()
    for one in (parse_element("1", d), d.scalar(1)):
        assert one == d.one() and one.terms[0][1] is ONE


def test_copies_and_pickles_keep_the_unit_object():
    for make in (copy.copy, copy.deepcopy,
                 lambda x: pickle.loads(pickle.dumps(x))):
        assert make(ONE) is ONE
        # other values come back equal, with the same canonical tuples
        for x in (ZERO, Q, scalar(Fraction(-3, 2)), (Q + 2) / (Q * Q - 3)):
            y = make(x)
            assert y == x and (y.num, y.den) == (x.num, x.den)

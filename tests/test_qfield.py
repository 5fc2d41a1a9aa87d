"""Exact arithmetic in the field of rational functions of q."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from qdual import qfield
from qdual.qfield import (
    ONE,
    PoleError,
    Q,
    QRational,
    ZERO,
    _padd,
    _kmul,
    _pdivmod,
    _pgcd,
    _pmonic,
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


def _gcd_make(num, den):
    # the reduction by a full gcd, as it was before exact quotients were
    # settled by one division
    g = _pgcd(num, den)
    num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
    lc = den[-1][1]
    num, den = tuple((k, Fraction(c) / lc) for k, c in num), _pmonic(den)
    return QRational(_canon(dict(num)), den)


def test_exact_quotients_take_one_division(monkeypatch):
    num = den = ONE
    for i in range(5):
        num = num * qnum(12 - i)
        den = den * qnum(i + 1)
    inverse = den.inv()
    calls = []
    pdivmod = qfield._pdivmod

    def counted(a, b):
        calls.append((a, b))
        return pdivmod(a, b)

    monkeypatch.setattr(qfield, "_pdivmod", counted)
    monkeypatch.setattr(qfield, "_pgcd", None)
    got = num * inverse
    assert calls == [(num.num, den.num)]
    monkeypatch.undo()
    assert _structure(got) == _structure(_gcd_make(num.num, den.num))
    assert got.den == ((0, 1),) and len(got.num) == 5 * 7 + 1


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
    # (q + 2)(q^3 + 1) / ((q + 2)(3q - 3)): a remainder, then one Euclid step
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

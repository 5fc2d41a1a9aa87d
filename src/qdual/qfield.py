"""Exact arithmetic in Q(q), the rational functions of the deformation parameter.

Every scalar in this package is a :class:`QRational`: a quotient of univariate
polynomials in q with exact rational coefficients.  Each value is reduced and
its denominator is kept monic, so two equal rational functions are
structurally equal (identical term tuples).  The zero value has the unique
representation 0/1.

The general path reduces by a polynomial gcd.  These fast paths skip it, and
each returns the same canonical (num, den) tuples, since a reduced value with
a monic denominator is unique:

* a product with a Laurent monomial c*q^k can only cancel a power of q, so
  it shifts exponents and scales by c;
* a polynomial product with a one-term factor is a shift and a scale;
* a product of two polynomials (both denominators 1) is already reduced;
* a quotient whose denominator divides its numerator is settled by one
  division, and otherwise Euclid starts from that division's remainder;
* a sum over one shared denominator adds the numerators (and needs no
  reduction when that denominator is 1); a sum of polynomials whose degree
  ranges do not overlap concatenates them;
* a power raises the numerator and the denominator apart;
* :func:`qnum` builds its polynomial directly.

A product of two integer polynomials with at least 64 term pairs is one
big-integer product (Kronecker substitution): each operand is packed into
64-bit slots, one slot per exponent step, and the slots of the product are
read back in one pass.  It falls back to the term-by-term loop for
``Fraction`` coefficients, for a coefficient of the product that could
reach 2^63, and for operands so sparse that the slots would mostly be
empty.  Division runs on a dense coefficient list, and evaluation uses
Horner's rule on integers scaled by a power of the point's denominator.

A coefficient is a Python ``int`` when it is integral and a ``Fraction`` only
when it is not.  Almost every coefficient the engine makes is an integer
(q^k, q - q^-1, [n], Gaussian binomials), and ``int`` arithmetic skips the
gcd that every ``Fraction`` operation pays.  Since an ``int`` and the equal
``Fraction`` compare and hash alike, the split changes no value, no equality
and no rendering; keeping each coefficient in its one canonical type keeps
equal values structurally identical.

Negative powers of q are ordinary rational functions: q^-1 is 1/q.  The
q-integers used by the closed-form matrix powers live here as :func:`qnum`;
they always reduce to honest polynomials.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a zero of its denominator."""


# A polynomial in q is a tuple of (degree, coefficient) pairs in strictly
# increasing degree with nonzero coefficients, each an int when integral and
# a Fraction otherwise; () is zero.

_PZERO = ()
_PONE = ((0, 1),)


def _coef(v):
    # the canonical form of a coefficient: an int when v is integral
    if v.__class__ is int:
        return v
    return v.numerator if v.denominator == 1 else v


def _cdiv(a, b):
    # exact a / b as a canonical coefficient; `/` on two ints gives a float
    if a.__class__ is int and b.__class__ is int:
        quo, rem = divmod(a, b)
        return Fraction(a, b) if rem else quo
    return _coef(a / b)


def _pnorm(d):
    return tuple(sorted((k, _coef(v)) for k, v in d.items() if v))


def _padd(a, b):
    if not a or not b or a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    d = dict(a)
    for k, v in b:
        nv = d.get(k, 0) + v
        if nv:
            d[k] = _coef(nv)
        else:
            d.pop(k, None)
    return tuple(sorted(d.items()))


def _pneg(a):
    return tuple((k, -v) for k, v in a)


def _pdivc(a, c):
    return tuple((k, _cdiv(v, c)) for k, v in a)


def _pshift(a, n):
    return tuple((k + n, v) for k, v in a)


def _pmul(a, b):
    if not a or not b:
        return _PZERO
    if len(a) == 1 or len(b) == 1:
        # a one-term operand shifts and scales the other
        if len(a) != 1:
            a, b = b, a
        (k, c), = a
        if c == 1:
            return _pshift(b, k) if k else b
        return tuple((kb + k, _coef(c * vb)) for kb, vb in b)
    if len(a) * len(b) >= 64:
        p = _kmul(a, b)
        if p is not None:
            return p
    d = {}
    for ka, va in a:
        for kb, vb in b:
            k = ka + kb
            d[k] = d.get(k, 0) + va * vb
    return _pnorm(d)


# Kronecker substitution (D. Harvey, J. Symbolic Comput. 44, 2009): with the
# exponents k0 + g*i of a polynomial put at q^g = 2^64, one integer product
# computes every coefficient of a polynomial product, as long as each fits a
# signed 64-bit slot.  A "q" memoryview writes and reads a slot in two's
# complement; xor-ing 2^63 into every slot maps c to c + 2^63 in [0, 2^64),
# where the slots add and carry like the digits of one unsigned integer.


def _koffset(n):
    # 2^63 in each of n slots
    return int.from_bytes(b"\0\0\0\0\0\0\0\x80" * n, "little")


def _kpack(a, g):
    # sum c * 2^(64 (k - k0) / g) over the terms of a, for coefficients
    # below 2^63 in size; a Fraction raises TypeError
    k0 = a[0][0]
    n = (a[-1][0] - k0) // g + 1
    buf = bytearray(8 * n)
    slots = memoryview(buf).cast("q")
    for k, c in a:
        slots[(k - k0) // g] = c
    off = _koffset(n)
    return (int.from_bytes(buf, sys.byteorder) ^ off) - off


def _kmul(a, b):
    # a * b by Kronecker substitution, or None where it does not apply: a
    # Fraction coefficient, a coefficient of the product that could reach
    # 2^63, or operands so sparse that the integers would mostly hold zeros
    la, lb = len(a), len(b)
    ka, kb = a[0][0], b[0][0]
    g = gcd(*[k - ka for k, _ in a], *[k - kb for k, _ in b])
    n = (a[-1][0] - ka + b[-1][0] - kb) // g + 1
    if n > 4 * (la + lb):
        return None
    bound = max(abs(c) for _, c in a) * max(abs(c) for _, c in b) * min(la, lb)
    if bound >= 1 << 63:
        return None
    try:
        p = _kpack(a, g) * _kpack(b, g)
    except TypeError:
        return None
    off = _koffset(n)
    slots = memoryview(((p + off) ^ off).to_bytes(8 * n, sys.byteorder)).cast("q")
    k0 = ka + kb
    return tuple([(k, c) for k, c in zip(range(k0, k0 + g * n, g), slots) if c])


def _ppow(a, k):
    # a^k for k >= 1 by repeated squaring
    out = _PONE
    while True:
        if k & 1:
            out = _pmul(out, a)
        k >>= 1
        if not k:
            return out
        a = _pmul(a, a)


def _peval(a, v):
    # Horner's rule over the sparse terms, from the top degree down, on
    # v = p/s scaled by s^deg so that integer coefficients stay integers
    if not a:
        return Fraction(0)
    p, s = v.numerator, v.denominator
    k, acc = a[-1]
    scale = 1
    for j, c in reversed(a[:-1]):
        scale *= s ** (k - j)
        acc = acc * p ** (k - j) + c * scale
        k = j
    return Fraction(acc * p ** k, scale * s ** k)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return _PZERO, _PZERO
    db, lb = b[-1]
    # the remainder as a dense list, r[i] the coefficient of q^(lo + i)
    lo = min(a[0][0], b[0][0])
    r = [0] * (a[-1][0] - lo + 1)
    for k, v in a:
        r[k - lo] = v
    tail = [(kb - db, vb) for kb, vb in b[:-1]]
    q = []
    for i in range(len(r) - 1, db - lo - 1, -1):
        if r[i]:
            c = _cdiv(r[i], lb)
            q.append((i + lo - db, c))
            for j, vb in tail:
                r[i + j] -= c * vb
    rem = tuple((i + lo, _coef(v)) for i, v in enumerate(r[:db - lo]) if v)
    return tuple(reversed(q)), rem


def _pmonic(a):
    if not a or a[-1][1] == 1:
        return a
    return _pdivc(a, a[-1][1])


def _pgcd(a, b):
    # monic gcd of two nonzero polynomials.  The power of q they share is
    # found without division, and it is the whole gcd when either is a
    # Laurent monomial c*q^k, which is remarkably often the case (most
    # coefficients in the rewriting engine are monomials in q)
    m = min(a[0][0], b[0][0])
    if len(a) == 1 or len(b) == 1:
        return ((m, 1),)
    a = _pshift(a, -a[0][0])
    b = _pshift(b, -b[0][0])
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return _pshift(_pmonic(a), m)


def _pstr(a):
    if not a:
        return "0"
    parts = []
    for k, c in reversed(a):
        neg = c < 0
        mag = -c if neg else c
        if k == 0:
            body = str(mag)
        elif mag == 1:
            body = "q" if k == 1 else f"q^{k}"
        else:
            body = f"{mag}*q" if k == 1 else f"{mag}*q^{k}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


class QRational:
    """A reduced rational function of q with a monic denominator.

    ``num`` and ``den`` are polynomials: tuples of (degree, coefficient)
    pairs in increasing degree, each coefficient an ``int`` when it is
    integral and a ``Fraction`` only when it is not.  Instances are immutable
    and canonical: equal values compare equal structurally, which the
    rewriting engine relies on.  Construct values through :func:`scalar`,
    :func:`q_power`, the constants ``ZERO``/``ONE``/``Q`` and arithmetic,
    not by calling this class directly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    # -- construction --------------------------------------------------

    @staticmethod
    def _make(num, den):
        if not den:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if not num:
            return ZERO
        if len(num) > 1 and len(den) > 1:
            # a quotient of polynomials is often exact (a Gaussian binomial
            # is one), and then one division settles it; otherwise Euclid
            # goes on from the remainder, as gcd(num, den) = gcd(den, rem)
            quo, rem = _pdivmod(num, den)
            if not rem:
                return QRational(quo, _PONE)
            g = _pgcd(den, rem)
        else:
            g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        elif g[0][0]:
            # the gcd is a power of q: cancel it by shifting exponents
            num = _pshift(num, -g[0][0])
            den = _pshift(den, -g[0][0])
        lc = den[-1][1]
        if lc != 1:
            num = _pdivc(num, lc)
            den = _pdivc(den, lc)
        return QRational(num, den)

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self):
        return not self.num

    @property
    def is_one(self):
        return self.num == _PONE and self.den == _PONE

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            num = _padd(self.num, other.num)
            if self.den != _PONE:
                return QRational._make(num, self.den)
            return QRational(num, _PONE) if num else ZERO
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return QRational._make(num, _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return QRational(_pneg(self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        if len(b.num) == len(b.den) == 1:
            a, b = b, a
        if len(a.num) == len(a.den) == 1:
            # c*q^k * N/D, with N/D reduced, can only cancel a power of q:
            # q^min(k, low D) for k >= 0, q^min(-k, low N) for k < 0.  The
            # result is c*q^(k-m)*N / (q^-m*D) for the m below
            if not b.num:
                return ZERO
            (k, c), = a.num
            k -= a.den[0][0]
            n, d = b.num, b.den
            m = min(k, d[0][0]) if k >= 0 else min(0, k + n[0][0])
            return QRational(_pmul(((k - m, c),), n), _pshift(d, -m) if m else d)
        if self.den == other.den == _PONE:
            # a product of polynomials is reduced with a monic denominator
            num = _pmul(self.num, other.num)
            return QRational(num, _PONE) if num else ZERO
        return QRational._make(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        return QRational._make(self.den, self.num)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        if not k:
            return ONE
        if not self.num:
            return ZERO
        # a power of a reduced value is reduced and a power of a monic
        # denominator is monic, so num and den are raised apart, with no gcd
        return QRational(_ppow(self.num, k), _ppow(self.den, k))

    # -- evaluation -----------------------------------------------------

    def eval_at(self, v):
        """Evaluate at an exact rational point q = v.

        Returns a ``Fraction``.  Raises :class:`PoleError` if v is a zero of
        the denominator.
        """
        v = _exact(v)
        d = _peval(self.den, v)
        if not d:
            raise PoleError(f"pole at q = {v}")
        return _peval(self.num, v) / d

    # -- comparison / hashing / rendering --------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its Fraction and int values, so hash like them
        if self.den == _PONE:
            if not self.num:
                return hash(0)
            if len(self.num) == 1 and self.num[0][0] == 0:
                return hash(self.num[0][1])
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == _PONE:
            return _pstr(self.num)
        return f"({_pstr(self.num)})/({_pstr(self.den)})"

    __repr__ = __str__


def _coerce(v):
    if isinstance(v, QRational):
        return v
    if isinstance(v, int) or isinstance(v, Fraction):
        return scalar(v)
    return None


def _exact(v):
    if not isinstance(v, (int, Fraction)):
        raise TypeError(f"expected an int or Fraction, got {type(v).__name__}")
    return v


def scalar(v):
    """The constant rational function with value v (int or Fraction).

    Raises ``TypeError`` for anything else: a float is not exact.
    """
    v = _coef(_exact(v))
    if not v:
        return ZERO
    return QRational(((0, v),), _PONE)


def q_power(k):
    """q^k for any integer k (negative k gives 1/q^|k|)."""
    if k >= 0:
        return QRational(((k, 1),), _PONE)
    return QRational(_PONE, ((-k, 1),))


ZERO = QRational(_PZERO, _PONE)
ONE = QRational(_PONE, _PONE)
Q = q_power(1)


def qnum(n, k=1):
    """The q-integer [n] in base q^(2k): (1 - q^(2kn)) / (1 - q^(2k)).

    Requires n >= 0 and k >= 1.  The quotient always reduces to the
    polynomial 1 + q^(2k) + ... + q^(2k(n-1)); [0] is 0 and [1] is 1.
    """
    if n < 0:
        raise ValueError("qnum requires n >= 0")
    if k < 1:
        raise ValueError("qnum requires k >= 1")
    if n == 0:
        return ZERO
    return QRational(tuple((2 * k * j, 1) for j in range(n)), _PONE)

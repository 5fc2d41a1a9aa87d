"""Exact arithmetic in Q(q), the rational functions of the deformation parameter.

Every scalar in this package is a :class:`QRational`: a quotient of univariate
polynomials in q with exact ``Fraction`` coefficients.  Each value is reduced
by a polynomial gcd on construction and the denominator is kept monic, so two
equal rational functions are structurally equal (identical term tuples).  The
zero value has the unique representation 0/1.

Negative powers of q are ordinary rational functions: q^-1 is 1/q.  The
q-integers used by the closed-form matrix powers live here as :func:`qnum`;
they always reduce to honest polynomials.
"""

from __future__ import annotations

from fractions import Fraction


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a zero of its denominator."""


_F0 = Fraction(0)
_F1 = Fraction(1)

# A polynomial in q is a tuple of (degree, coefficient) pairs in strictly
# increasing degree with nonzero Fraction coefficients; () is zero.

_PZERO = ()
_PONE = ((0, _F1),)


def _pnorm(d):
    return tuple(sorted((k, v) for k, v in d.items() if v))


def _padd(a, b):
    d = dict(a)
    for k, v in b:
        nv = d.get(k, _F0) + v
        if nv:
            d[k] = nv
        else:
            d.pop(k, None)
    return tuple(sorted(d.items()))


def _pneg(a):
    return tuple((k, -v) for k, v in a)


def _pscale(a, c):
    if not c:
        return _PZERO
    return tuple((k, v * c) for k, v in a)


def _pshift(a, n):
    return tuple((k + n, v) for k, v in a)


def _pmul(a, b):
    if not a or not b:
        return _PZERO
    d = {}
    for ka, va in a:
        for kb, vb in b:
            k = ka + kb
            d[k] = d.get(k, _F0) + va * vb
    return _pnorm(d)


def _pdeg(a):
    return a[-1][0] if a else -1


def _plc(a):
    return a[-1][1] if a else _F0


def _peval(a, v):
    acc = _F0
    for k, c in a:
        acc += c * v ** k
    return acc


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lb = b[-1][0], b[-1][1]
    q = {}
    r = dict(a)
    while r:
        k = max(r)
        if k < db:
            break
        c = r[k] / lb
        q[k - db] = c
        for kb, vb in b:
            kk = kb + k - db
            nv = r.get(kk, _F0) - c * vb
            if nv:
                r[kk] = nv
            else:
                r.pop(kk, None)
    return _pnorm(q), _pnorm(r)


def _pmonic(a):
    if not a or a[-1][1] == 1:
        return a
    return _pscale(a, 1 / a[-1][1])


def _pgcd(a, b):
    if not a:
        return _pmonic(b)
    if not b:
        return _pmonic(a)
    # factor out the common power of q first; it is the whole gcd remarkably
    # often (most coefficients in the rewriting engine are monomials in q)
    m = min(a[0][0], b[0][0])
    a = _pshift(a, -a[0][0])
    b = _pshift(b, -b[0][0])
    if _pdeg(a) == 0 or _pdeg(b) == 0:
        return _pshift(_PONE, m)
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

    Instances are immutable and canonical: equal values compare equal
    structurally, which the rewriting engine relies on.  Construct values
    through :func:`scalar`, :func:`q_power`, the constants ``ZERO``/``ONE``/``Q``
    and arithmetic, not by calling this class directly.
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
        g = _pgcd(num, den)
        if g != _PONE:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        lc = den[-1][1]
        if lc != 1:
            inv = 1 / lc
            num = _pscale(num, inv)
            den = _pscale(den, inv)
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
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- evaluation -----------------------------------------------------

    def eval_at(self, v):
        """Evaluate at an exact rational point q = v.

        Returns a ``Fraction``.  Raises :class:`PoleError` if v is a zero of
        the denominator.
        """
        v = Fraction(v)
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
                return hash(_F0)
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


def scalar(v):
    """The constant rational function with value v (int or Fraction)."""
    v = Fraction(v)
    if not v:
        return ZERO
    return QRational(((0, v),), _PONE)


def q_power(k):
    """q^k for any integer k (negative k gives 1/q^|k|)."""
    if k >= 0:
        return QRational(((k, _F1),), _PONE)
    return QRational(_PONE, ((-k, _F1),))


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
    num = _padd(_PONE, ((2 * k * n, -_F1),))
    den = _padd(_PONE, ((2 * k, -_F1),))
    return QRational._make(num, den)

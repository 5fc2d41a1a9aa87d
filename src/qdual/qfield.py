"""Exact arithmetic in Q(q), the rational functions of the deformation parameter.

Every scalar in this package is a :class:`QRational`: a quotient of univariate
polynomials in q with exact rational coefficients.  Each value is reduced and
its denominator is kept monic, so two equal rational functions are
structurally equal (identical term tuples).  The zero value has the unique
representation 0/1.

The general path reduces by a polynomial gcd.  These fast paths skip it, and
each returns the same canonical (num, den) tuples, since a reduced value with
a monic denominator is unique:

* a product of two Laurent monomials c*q^i, d*q^j is c*d*q^(i+j);
* a product with a Laurent monomial c*q^k can only cancel a power of q, so
  it shifts exponents and scales by c;
* a polynomial product with a one-term factor is a shift and a scale;
* a product of two polynomials (both denominators 1) is already reduced;
* a quotient whose denominator divides its numerator is settled by one
  division, and a short one that leaves a remainder takes its gcd from it;
* a sum over one shared denominator adds the numerators (and needs no
  reduction when that denominator is 1); a sum of polynomials whose degree
  ranges do not overlap concatenates them, and others merge their terms;
* a sum over two different powers of q shifts the numerator over the
  smaller one up to the larger and adds, with no reduction;
* a power raises the numerator and the denominator apart;
* a product with the ``ONE`` object is the other operand, and ``ONE``'s
  inverse and powers are ``ONE``: callers multiply plainly and never test
  for the unit themselves;
* :func:`qnum` builds its polynomial directly, and keeps the small ones in
  a bounded LRU cache.

Long integer polynomials go through one big-integer kernel (Kronecker
substitution): each operand is packed into signed 64-bit slots, one slot
per exponent step, and the slots of the result are read back in one pass.
It serves three jobs:

* a product with at least 64 term pairs is one integer product;
* an exact quotient, where long division would take 64 steps or more, is
  one integer divmod, whose quotient counts only when the remainder is 0
  and its slots bound every coefficient of quotient * divisor below 2^63;
* a gcd of two polynomials with at least 64 term pairs is first tried by
  the heuristic GCDHEU (Char, Geddes and Gonnet, 1989): the integer gcd of
  the packed operands, read back and accepted only when the quotient
  kernel divides both by it, which proves it is the gcd.

Each falls back, to the term-by-term loop, long division or the primitive
remainder sequence, for ``Fraction`` coefficients (products and
quotients), for a coefficient that could reach 2^63 (2^62 for the gcd),
and for operands so sparse that the slots would mostly be empty.  A gcd
takes primitive integer operands on both routes and gives a primitive
integer result.  Before a gcd that GCDHEU leaves open falls back, Euclid
modulo a word-sized prime that divides neither leading coefficient can
prove the operands coprime, which settles the gcd as 1.  Long division
runs on a dense coefficient list.  Evaluation runs Horner's rule on the
numerator and the denominator apart, as integers scaled by a power of the
point's denominator, and normalises one ``Fraction`` at the end.

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

import struct
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from math import gcd, lcm


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
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        (ka, va), (kb, vb) = a[i], b[j]
        if ka < kb:
            out.append(a[i])
            i += 1
        elif kb < ka:
            out.append(b[j])
            j += 1
        else:
            v = va + vb
            if v:
                out.append((ka, v if v.__class__ is int else _coef(v)))
            i, j = i + 1, j + 1
    return tuple(out) + a[i:] + b[j:]


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
# computes every coefficient of a polynomial product, and one integer divmod
# every coefficient of an exact quotient, as long as each fits a signed
# 64-bit slot.  struct and memoryview write and read the slots in native
# two's complement; xor-ing 2^63 into every slot maps c to c + 2^63 in
# [0, 2^64), where the slots add and carry like the digits of one unsigned
# integer.  An offset over more slots than an operand puts 2^63, a zero
# slot, above it, so one offset, formed once for the widest integer of a
# product or quotient, packs both operands and reads back the result.  Each
# operand is split into exponents and coefficients once, and a result with
# no zero slot is read back in one zip.


def _koffset(n):
    # 2^63 in each of n slots
    return int.from_bytes(b"\0\0\0\0\0\0\0\x80" * n, "little")


def _kstride(ks):
    # the step of evenly spaced exponents, else the gcd of their offsets;
    # 0 for a single term.  Strictly increasing exponents that span one
    # step fewer than their count are consecutive
    n = len(ks) - 1
    k0 = ks[0]
    span = ks[-1] - k0
    if span == n:
        return min(n, 1)
    s = ks[1] - k0
    if span == s * n and ks == tuple(range(k0, ks[-1] + 1, s)):
        return s
    return gcd(*[k - k0 for k in ks])


def _kbound(cs):
    return max(max(cs), -min(cs))


def _kpack(ks, cs, g, off):
    # sum c * 2^(64 (k - k0) / g) over the terms, for off 2^63 in each of at
    # least as many slots as the terms span; struct.error for a Fraction
    # coefficient or one of 2^63 or more in size
    n = (ks[-1] - ks[0]) // g + 1
    if n != len(cs):
        full = [0] * n
        k0 = ks[0]
        for k, c in zip(ks, cs):
            full[(k - k0) // g] = c
        cs = full
    return (int.from_bytes(struct.pack(f"{n}q", *cs), sys.byteorder) ^ off) - off


def _kunpack(p, n, k0, g, off):
    # the polynomial whose coefficients at q^(k0 + g*i) are the n signed
    # slots of p, or None when p does not fit n slots; off as for _kpack
    try:
        buf = ((p + off) ^ off).to_bytes(8 * n, sys.byteorder)
    except OverflowError:
        return None
    cs = memoryview(buf).cast("q").tolist()
    ks = range(k0, k0 + g * n, g)
    if 0 in cs:
        return tuple(compress(zip(ks, cs), cs))
    return tuple(zip(ks, cs))


def _kmul(a, b):
    # a * b by Kronecker substitution, or None where it does not apply: a
    # Fraction coefficient, a coefficient of the product that could reach
    # 2^63, or operands so sparse that the integers would mostly hold zeros
    ka, ca = zip(*a)
    kb, cb = zip(*b)
    g = gcd(_kstride(ka), _kstride(kb)) or 1
    n = (ka[-1] - ka[0] + kb[-1] - kb[0]) // g + 1
    if n > 4 * (len(a) + len(b)):
        return None
    if _kbound(ca) * _kbound(cb) * min(len(a), len(b)) >= 1 << 63:
        return None
    off = _koffset(n)
    try:
        p = _kpack(ka, ca, g, off) * _kpack(kb, cb, g, off)
    except struct.error:
        return None
    return _kunpack(p, n, ka[0] + kb[0], g, off)


def _kdiv(a, b):
    # the polynomial a / b by one big-integer divmod, or None: when b does
    # not divide a, and also when a coefficient or the quotient does not
    # fit the slots or the operands are too sparse.  A zero remainder whose
    # quotient fits n signed slots, with max|quo| * max|b| * min(len) below
    # 2^63, proves quo * b = a term by term: every coefficient of quo * b
    # then fits a slot, and a balanced base-2^64 expansion is unique
    ka, ca = zip(*a)
    kb, cb = zip(*b)
    if ka[0] < kb[0]:
        return None
    g = gcd(_kstride(ka), _kstride(kb)) or 1
    na = (ka[-1] - ka[0]) // g + 1
    n = na - (kb[-1] - kb[0]) // g
    if n < 1 or na > 4 * (len(a) + len(b)):
        return None
    off = _koffset(na)
    try:
        quo, rem = divmod(_kpack(ka, ca, g, off), _kpack(kb, cb, g, off))
    except struct.error:
        return None
    if rem:
        return None
    quo = _kunpack(quo, n, ka[0] - kb[0], g, off)
    if quo is None:
        return None
    _, cq = zip(*quo)
    if _kbound(cq) * _kbound(cb) * min(len(cq), len(cb)) >= 1 << 63:
        return None
    return quo


def _hgcd(a, b):
    # GCDHEU (B. Char, K. Geddes, G. Gonnet, J. Symbolic Comput. 7, 1989)
    # for primitive integer a and b with nonzero constant terms, or None for
    # coefficients of 2^62 or more or a failed candidate.  The balanced
    # slots of the integer gcd of a and b at q^g = 2^64, made primitive,
    # give a candidate h; the gcd is positive, so the leading slot of h is
    # too.  Since 2^64 > 2 min(|a|, |b|) + 2, h is the gcd when it divides
    # both (the CGG theorem), and _kdiv checks exactly that
    ka, ca = zip(*a)
    kb, cb = zip(*b)
    if max(_kbound(ca), _kbound(cb)) >= 1 << 62:
        return None
    g = gcd(_kstride(ka), _kstride(kb))
    n = max(ka[-1], kb[-1]) // g + 1
    if n > 4 * (len(a) + len(b)):
        return None
    off = _koffset(n)
    h = _kunpack(gcd(_kpack(ka, ca, g, off), _kpack(kb, cb, g, off)),
                 min(ka[-1], kb[-1]) // g + 1, 0, g, off)
    if h is None:
        return None
    content = gcd(*[c for _, c in h])
    h = tuple((k, c // content) for k, c in h)
    if _kdiv(a, h) is None or _kdiv(b, h) is None:
        return None
    return h


def _ppow(a, k):
    # a^k for k >= 1 by repeated squaring; a one-term a in one step
    if len(a) == 1:
        (j, c), = a
        return ((j * k, c ** k),)
    out = _PONE
    while True:
        if k & 1:
            out = _pmul(out, a)
        k >>= 1
        if not k:
            return out
        a = _pmul(a, a)


def _peval(a, p, s):
    # (a at q = p/s) * s^deg(a), by Horner's rule over the sparse terms from
    # the top degree down; integer coefficients keep it an integer, and a
    # run of equal gaps reuses p^gap and s^gap
    k, acc = a[-1]
    scale = 1
    gap = pg = sg = None
    for j, c in reversed(a[:-1]):
        if k - j != gap:
            gap = k - j
            pg, sg = p ** gap, s ** gap
        scale *= sg
        acc = acc * pg + c * scale
        k = j
    return acc * p ** k


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


def _pprim(a):
    # a / (c q^k) for the c and k that leave integer coefficients with no
    # common factor, a positive leading one and a nonzero constant term
    k0 = a[0][0]
    cs = [c for _, c in a]
    m = lcm(*[c.denominator for c in cs])
    if m != 1:
        cs = [c.numerator * (m // c.denominator) for c in cs]
    content = gcd(*cs) if cs[-1] > 0 else -gcd(*cs)
    if content == m == 1 and not k0:
        return a
    return tuple((k - k0, c // content) for (k, _), c in zip(a, cs))


# word-sized primes for the coprimality test
_PRIMES = (2**61 - 1, 2**31 - 1)


def _pcoprime(a, b):
    # True when the integer polynomials a and b are coprime by their images
    # mod a prime p that divides neither leading coefficient: a common
    # factor of positive degree keeps that degree mod p, since its leading
    # coefficient divides both.  False when no prime qualifies or the gcd
    # mod p is not a constant
    p = next((p for p in _PRIMES if a[-1][1] % p and b[-1][1] % p), None)
    if p is None:
        return False
    f, g = _pmodp(a, p), _pmodp(b, p)
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        # f mod g by long division in place, highest degree first
        n = len(g)
        inv = pow(g[0], -1, p)
        for i in range(len(f) - n + 1):
            c = f[i] * inv % p
            if c:
                f[i:i + n] = [(x - c * y) % p for x, y in zip(f[i:i + n], g)]
        r = f[len(f) - n + 1:]
        while r and not r[0]:
            del r[0]
        if not r:
            return False
        f, g = g, r
    return True


def _pmodp(a, p):
    # the coefficients of a mod p as a list, highest degree first
    out = [0] * (a[-1][0] + 1)
    for k, c in a:
        out[-1 - k] = c % p
    return out


def _pgcd(a, b):
    # the gcd of two nonzero polynomials, a primitive integer polynomial.
    # The power of q they share is found without division, and it is the
    # whole gcd when either is a Laurent monomial c*q^k, which is remarkably
    # often the case (most coefficients in the rewriting engine are
    # monomials in q).  Otherwise the gcd of the primitive parts is, at 64
    # term pairs or more, GCDHEU's or 1 when their images modulo a prime
    # are coprime (a test that GCDHEU's 2^62 bound does not limit), else
    # the last nonzero remainder of
    # the primitive remainder sequence (G. Collins, J. ACM 14, 1967), where
    # a times lc(b)^(deg a - deg b + 1) keeps long division integral; it
    # stops early at a constant, which is primitive only as 1
    m = min(a[0][0], b[0][0])
    if len(a) == 1 or len(b) == 1:
        return ((m, 1),)
    a, b = _pprim(a), _pprim(b)
    g = None
    if len(a) * len(b) >= 64:
        g = _hgcd(a, b) or (_PONE if _pcoprime(a, b) else None)
    if g is None:
        if a[-1][0] < b[-1][0]:
            a, b = b, a
        while len(b) > 1:
            lb = b[-1][1] ** (a[-1][0] - b[-1][0] + 1)
            if lb != 1:
                a = tuple((k, c * lb) for k, c in a)
            r = _pdivmod(a, b)[1]
            a, b = b, r and _pprim(r)
        g = b or a
    return _pshift(g, m)


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
        rem = None
        if len(num) > 1 and len(den) > 1:
            # a quotient of polynomials is often exact (a Gaussian binomial
            # is one), and then one division settles it: an integer divmod
            # where long division would take 64 steps or more
            if (len(num) - len(den) + 1) * (len(den) - 1) >= 64:
                quo, rem = _kdiv(num, den), None
            else:
                quo, rem = _pdivmod(num, den)
            if quo is not None and not rem:
                return QRational(quo, _PONE)
        # gcd(num, den) = gcd(den, num mod den)
        g = _pgcd(den, rem) if rem else _pgcd(num, den)
        if len(g) > 1:
            num = _kdiv(num, g) or _pdivmod(num, g)[0]
            den = _kdiv(den, g) or _pdivmod(den, g)[0]
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
        return _qsum(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return QRational(_pneg(self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _qsum(self.num, self.den, _pneg(other.num), other.den)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _qsum(other.num, other.den, _pneg(self.num), self.den)

    def __mul__(self, other):
        if other.__class__ is not QRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self is ONE:
            return other
        if other is ONE:
            return self
        a, b = self, other
        if len(b.num) == len(b.den) == 1:
            if len(a.num) == len(a.den) == 1:
                # c*q^i * d*q^j = c*d*q^(i+j) in one step
                (i, c), (j, d) = a.num[0], b.num[0]
                k = i + j - a.den[0][0] - b.den[0][0]
                c = _coef(c * d)
                if k < 0:
                    return QRational(((0, c),), ((-k, 1),))
                return QRational(((k, c),), _PONE)
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
        if self is ONE:
            return ONE
        num = self.num
        if not num:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        # den/num is reduced already: dividing out num's leading
        # coefficient makes it canonical, with no gcd
        lc = num[-1][1]
        if lc == 1:
            return QRational(self.den, num)
        return QRational(_pdivc(self.den, lc), _pdivc(num, lc))

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
        if not k or self is ONE:
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
        p, s = _exact(v).numerator, v.denominator
        d = _peval(self.den, p, s)
        if not d:
            raise PoleError(f"pole at q = {v}")
        if not self.num:
            return Fraction(0)
        # num(v) / den(v) = (n s^-dn) / (d s^-dd) for the two top degrees
        shift = self.num[-1][0] - self.den[-1][0]
        n = _peval(self.num, p, s)
        if shift > 0:
            return Fraction(n, d * s ** shift)
        return Fraction(n * s ** -shift, d)

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

    def __reduce__(self):
        # copies and pickles of the unit are the ONE object itself
        return "ONE" if self is ONE else (QRational, (self.num, self.den))


def _qsum(an, ad, bn, bd):
    # an/ad + bn/bd, both reduced; a difference negates one numerator
    if ad == bd:
        num = _padd(an, bn)
        if ad != _PONE:
            return QRational._make(num, ad)
        return QRational(num, _PONE) if num else ZERO
    if len(ad) == len(bd) == 1:
        # A/q^a + B/q^b with a < b is (q^(b-a)*A + B)/q^b, reduced: B has a
        # nonzero constant term, which the sum keeps
        shift = bd[0][0] - ad[0][0]
        if shift < 0:
            an, bn, bd, shift = bn, an, ad, -shift
        return QRational(_padd(_pshift(an, shift), bn), bd)
    return QRational._make(_padd(_pmul(an, bd), _pmul(bn, ad)), _pmul(ad, bd))


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
    if v == 1:
        return ONE
    return QRational(((0, v),), _PONE)


def q_power(k):
    """q^k for any integer k (negative k gives 1/q^|k|), else TypeError."""
    if not isinstance(k, int):
        raise TypeError(f"q_power expects an integer, got {type(k).__name__}")
    if k >= 0:
        return QRational(((k, 1),), _PONE)
    return QRational(_PONE, ((-k, 1),))


def _qmono(c, k):
    # c * q^k for a nonzero int or Fraction c
    c = _coef(c)
    if k >= 0:
        return QRational(((k, c),), _PONE)
    return QRational(((0, c),), ((-k, 1),))


ZERO = QRational(_PZERO, _PONE)
ONE = QRational(_PONE, _PONE)
Q = q_power(1)


def qnum(n, k=1):
    """The q-integer [n] in base q^(2k): (1 - q^(2kn)) / (1 - q^(2k)).

    Requires n >= 0 and k >= 1.  The quotient always reduces to the
    polynomial 1 + q^(2k) + ... + q^(2k(n-1)); [0] is 0 and [1] is 1.
    The values up to [32] stay in a small LRU cache, so a repeated call
    for one of them returns the same object.
    """
    if n < 0:
        raise ValueError("qnum requires n >= 0")
    if k < 1:
        raise ValueError("qnum requires k >= 1")
    return _qnum_lru(n, k) if n <= 32 else _qnum(n, k)


def _qnum(n, k):
    if n == 0:
        return ZERO
    return QRational(tuple(zip(range(0, 2 * k * n, 2 * k), repeat(1, n))), _PONE)


# a Gaussian binomial takes each small q-integer many times; the bound on n
# keeps the cache below about 100 KB
_qnum_lru = lru_cache(maxsize=32)(_qnum)

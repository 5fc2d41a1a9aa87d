"""Expression parser for algebra elements.

Grammar (whitespace-insensitive)::

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ['^' ['-'] DIGITS]
    base   := NAME | DIGITS | '(' expr ')'

``q`` is the reserved scalar indeterminate; every other name must be a
generator of the target presentation.  Division requires a purely scalar
divisor.  A negative exponent applies to a scalar or to a single product of
invertible generators.  Parentheses nest at most ``_MAX_DEPTH`` (100) deep,
so no input can exhaust the interpreter's stack.  :func:`render_element`'s
default style emits text this grammar accepts, so elements round-trip.

One grammar, two semantic backends.  :func:`parse_raw_terms` expands the
text into unnormalised (coefficient, word) terms, as descriptor rules need.
:func:`parse_element` evaluates it on normal-form elements, so a power like
``(b+c)^12`` costs twelve element products rather than 2^12 raw words.
Division and negative powers are decided on the shape of the raw expansion
(does it have letters; is it a single term), which the element backend
tracks next to each element: ``b/(b*b^-1)`` is rejected and ``(c*b)^-1``
inverts the word ``c*b``, as in the raw backend.  A first pass over the
shape alone raises every :class:`ParseError` before any algebra runs.
"""

import operator
import re

from .qfield import ONE, Q, ZERO, scalar

__all__ = ["ParseError", "parse_element", "parse_raw_terms"]


class ParseError(ValueError):
    """Bad expression text; ``position`` is a 0-based character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_MAX_DEPTH = 100
_NAME_RE = re.compile(r"[A-Za-z_]\w*")
_INT_RE = re.compile(r"\d+")
_PUNCT = "+-*/^()"


def _tokenize(text):
    toks = []
    pos, n = 0, len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _PUNCT:
            toks.append((ch, ch, pos))
            pos += 1
            continue
        m = _NAME_RE.match(text, pos)
        if m is None:
            m = _INT_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {ch!r}", pos)
            toks.append(("int", m.group(), pos))
        else:
            toks.append(("name", m.group(), pos))
        pos = m.end()
    toks.append(("end", "", n))
    return toks


class _Parser:
    """Recursive descent over the token list, on a semantic backend.

    The backend builds each production's value (see :class:`_RawTerms`).
    Division and negative powers are decided on the shape of the raw
    expansion, which every backend reports alike.
    """

    def __init__(self, toks, resolver, backend):
        self.toks = toks
        self.i = 0
        self.depth = 0
        self.resolver = resolver
        self.invertible = {idx for idx, inv in resolver.values() if inv}
        self.b = backend

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expr(self):
        b = self.b
        if self.peek()[0] == "-":
            self.take()
            value = b.scale(self.term(), _MINUS_ONE)
        else:
            value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            if op == "-":
                rhs = b.scale(rhs, _MINUS_ONE)
            value = b.add(value, rhs)
        return value

    def term(self):
        b = self.b
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            rhs = self.factor()
            if op == "*":
                value = b.mul(value, rhs)
            else:
                s = b.scalar(rhs)
                if s is None:
                    raise ParseError("divisor must be a scalar expression", pos)
                if s.is_zero:
                    raise ParseError("division by zero", pos)
                value = b.scale(value, s.inv())
        return value

    def factor(self):
        base = self.base()
        if self.peek()[0] != "^":
            return base
        _, _, pos = self.take()
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.take()
        if tok[0] != "int":
            raise ParseError("exponent must be an integer", tok[2])
        return self._power(base, sign * int(tok[1]), pos)

    def base(self):
        kind, val, pos = self.take()
        if kind == "int":
            return self.b.term(scalar(int(val)), ())
        if kind == "name":
            if val == "q":
                return self.b.term(Q, ())
            hit = self.resolver.get(val)
            if hit is None:
                raise ParseError(f"unknown generator {val!r}", pos)
            return self.b.term(ONE, ((hit[0], 1),))
        if kind == "(":
            if self.depth == _MAX_DEPTH:
                raise ParseError(
                    f"parentheses nested more than {_MAX_DEPTH} deep", pos
                )
            self.depth += 1
            inner = self.expr()
            tok = self.take()
            if tok[0] != ")":
                raise ParseError("expected ')'", tok[2])
            self.depth -= 1
            return inner
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {val!r}", pos)

    def _power(self, value, k, pos):
        b = self.b
        if k >= 0:
            return b.power(value, k)
        s = b.scalar(value)
        if s is not None:
            if s.is_zero:
                raise ParseError("cannot invert zero", pos)
            return b.term(s ** k, ())
        single = b.single(value)
        if single is None:
            raise ParseError("cannot invert a sum of monomials", pos)
        c, w = single
        if c.is_zero:
            raise ParseError("cannot invert zero", pos)
        for g, _ in w:
            if g not in self.invertible:
                raise ParseError(
                    "negative power of a non-invertible generator", pos
                )
        inv = ONE if c == ONE else c.inv()
        step = b.term(inv, tuple((g, -s) for g, s in reversed(w)))
        return b.power(step, -k)


_MINUS_ONE = -ONE


class _RawTerms:
    """Values are raw (coefficient, word) lists: expanded, not normalised.

    A backend provides ``term(c, word)``, ``add``, ``mul``, ``scale`` (by a
    scalar), ``power`` (k >= 0) and the two shape queries the parser
    decides on: ``scalar`` (the value when the raw expansion has no
    letters, else None) and ``single`` (the raw expansion's only term,
    else None).
    """

    def term(self, c, word):
        return [(c, word)]

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return [(ca * cb, wa + wb) for ca, wa in a for cb, wb in b]

    def scale(self, terms, s):
        return [(c * s, w) for c, w in terms]

    def power(self, terms, k):
        out = [(ONE, ())]
        for _ in range(k):
            out = self.mul(out, terms)
        return out

    def scalar(self, terms):
        if any(w for _, w in terms):
            return None
        return sum((c for c, _ in terms), ZERO)

    def single(self, terms):
        return terms[0] if len(terms) == 1 else None


class _Shape:
    """Values are raw shapes alone: (scalar or None, single term or None).

    Nothing is expanded, so a first pass on this backend raises every
    :class:`ParseError` before any algebra runs.
    """

    def term(self, c, word):
        return (None if word else c), (c, word)

    def add(self, a, b):
        return _known(operator.add, a[0], b[0]), None

    def mul(self, a, b):
        return _known(operator.mul, a[0], b[0]), _known(_join, a[1], b[1])

    def scale(self, v, c):
        return _known(operator.mul, v[0], c), _known(_join, v[1], (c, ()))

    def power(self, v, k):
        if k == 0:
            return ONE, (ONE, ())
        return _known(operator.pow, v[0], k), _known(_repeat, v[1], k)

    def scalar(self, v):
        return v[0]

    def single(self, v):
        return v[1]


def _known(f, x, y):
    return None if x is None or y is None else f(x, y)


def _join(s, t):
    c = t[0] if s[0] is ONE else s[0] if t[0] is ONE else s[0] * t[0]
    return c, s[1] + t[1]


def _repeat(t, k):
    return (t[0] if t[0] is ONE else t[0] ** k), t[1] * k


class _Elements(_Shape):
    """Values are (normal-form element of ``pres``, its raw shape)."""

    def __init__(self, pres):
        self.pres = pres

    def term(self, c, word):
        return self.pres.normal_form(word, c), super().term(c, word)

    def add(self, a, b):
        return a[0] + b[0], super().add(a[1], b[1])

    def mul(self, a, b):
        return a[0] * b[0], super().mul(a[1], b[1])

    def scale(self, v, c):
        return v[0] * c, super().scale(v[1], c)

    def power(self, v, k):
        return v[0] ** k, super().power(v[1], k)

    def scalar(self, v):
        return v[1][0]

    def single(self, v):
        return v[1][1]


def parse_raw_terms(text, resolver):
    """Parse to raw (coefficient, word) pairs without normalizing.

    ``resolver`` maps generator names to (index, invertible) pairs.  Used by
    the presentation-descriptor loader, where rule right-hand sides must stay
    unreduced.
    """
    return _Parser(_tokenize(text), resolver, _RawTerms()).parse()


def parse_element(text, pres):
    """Parse expression text to a normal-form element of ``pres``."""
    resolver = {
        g.name: (i, g.invertible) for i, g in enumerate(pres.generators)
    }
    toks = _tokenize(text)
    _Parser(toks, resolver, _Shape()).parse()
    return _Parser(toks, resolver, _Elements(pres)).parse()[0]

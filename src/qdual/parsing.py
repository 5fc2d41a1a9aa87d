"""Expression parser for algebra elements.

Grammar (whitespace-insensitive)::

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ['^' ['-'] DIGITS]
    base   := NAME | DIGITS | '(' expr ')'

``q`` is the reserved scalar indeterminate; every other name must be a
generator of the target presentation.  Division requires a purely scalar
divisor.  A negative exponent applies to a scalar or to a single product of
invertible generators.  Parentheses nest at most 100 deep, so no input can
exhaust the interpreter's stack; exponents are at most 512 either way,
integer literals at most 4300 digits long (CPython's int-string limit), and
the word of a single term at most 65,536 letters long, so that nested powers
such as ``((b^512)^512)^512`` are refused before the word is built.
:func:`render_element`'s default style emits text this grammar accepts, so
elements round-trip.

Parse once.  One pass computes each production's raw shape (its value if
the full expansion into words has no letters, its only term if it has one)
and records the operations that build it as a postfix program.  Division
and negative powers are decided on the shape: ``b/(b*b^-1)`` is rejected,
and ``(c*b)^-1`` inverts the word ``c*b``.  The operand's operations become
one ``scale`` by the divisor's inverse, or one ``term`` of the inverted word,
and every scalar factor becomes one ``term``.  Every :class:`ParseError`
comes from this pass, before any algebra runs.  :func:`parse_element` runs
the program on normal-form elements, so ``(b+c)^12`` costs twelve element
products rather than 2^12 raw words; :func:`parse_raw_terms` runs it on
raw (coefficient, word) lists, at most 4096 of them with at most 65,536
letters in all, for descriptor rules.
"""

import math
import operator
import re
from functools import reduce

from .qfield import ONE, Q, scalar

__all__ = ["ParseError", "parse_element", "parse_raw_terms"]


class ParseError(ValueError):
    """Bad expression text; ``position`` is a 0-based character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_MAX_DEPTH = 100
_MAX_EXPONENT = 512
_MAX_DIGITS = 4300
_MAX_RAW_TERMS = 4096
_MAX_LETTERS = 65536
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
            if m.end() - pos > _MAX_DIGITS:
                raise ParseError(
                    f"integer literal longer than {_MAX_DIGITS} digits", pos
                )
            toks.append(("int", m.group(), pos))
        else:
            toks.append(("name", m.group(), pos))
        pos = m.end()
    toks.append(("end", "", n))
    return toks


class _Parser:
    """One pass of recursive descent over the token list.

    Each production appends its operations to ``ops`` and returns its raw
    shape: (scalar or None, single term or None, the number of terms
    :func:`parse_raw_terms` builds for it, saturating above
    ``_MAX_RAW_TERMS``, and their total letters, saturating above
    ``_MAX_LETTERS``).  A number past ``max_terms`` or ``max_letters`` is
    refused.
    """

    def __init__(self, toks, resolver, max_terms, max_letters):
        self.toks = toks
        self.i = 0
        self.depth = 0
        self.resolver = resolver
        self.invertible = {idx for idx, inv in resolver.values() if inv}
        self.max_terms = max_terms
        self.max_letters = max_letters
        self.ops = []

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def emit(self, op, arg, shape, pos):
        if shape[2] > self.max_terms:
            raise ParseError(
                f"expands to more than {self.max_terms} raw terms", pos)
        if shape[3] > self.max_letters:
            raise ParseError(
                f"expands to more than {self.max_letters} letters", pos)
        self.ops.append((op, arg))
        return shape

    def check_letters(self, letters, pos):
        # checked before _join or _repeat builds a single term's word
        if letters > _MAX_LETTERS:
            raise ParseError(f"a term longer than {_MAX_LETTERS} letters", pos)

    def scale(self, shape, s):
        self.ops.append(("scale", s))
        return _scaled(shape, s)

    def leaf(self, word, c):
        self.ops.append(("term", (word, c)))
        return (None if word else c), (c, word), 1, len(word)

    def parse(self):
        self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return self.ops

    def expr(self):
        negative = self.peek()[0] == "-"
        if negative:
            self.take()
        shape = self.term()
        if negative:
            shape = self.scale(shape, _MINUS_ONE)
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.take()
            rhs = self.term()
            if op == "-":
                rhs = self.scale(rhs, _MINUS_ONE)
            shape = self.emit("add", None, _sum(shape, rhs), pos)
        return shape

    def term(self):
        shape = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            start = len(self.ops)
            rhs = self.factor()
            if op == "*":
                if shape[1] is not None and rhs[1] is not None:
                    self.check_letters(len(shape[1][1]) + len(rhs[1][1]), pos)
                shape = self.emit("mul", None, _product(shape, rhs), pos)
                continue
            s = rhs[0]
            if s is None:
                raise ParseError("divisor must be a scalar expression", pos)
            if s.is_zero:
                raise ParseError("division by zero", pos)
            del self.ops[start:]
            shape = self.scale(shape, s.inv())
        return shape

    def factor(self):
        start = len(self.ops)
        shape = self.base()
        if self.peek()[0] == "^":
            shape = self.power(shape, start)
        if shape[0] is not None:
            # a scalar is one raw term, however it was written
            del self.ops[start:]
            self.leaf((), shape[0])
            shape = shape[0], shape[1], 1, 0
        return shape

    def base(self):
        kind, val, pos = self.take()
        if kind == "int":
            return self.leaf((), scalar(int(val)))
        if kind == "name":
            if val == "q":
                return self.leaf((), Q)
            hit = self.resolver.get(val)
            if hit is None:
                raise ParseError(f"unknown generator {val!r}", pos)
            return self.leaf(((hit[0], 1),), ONE)
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

    def power(self, shape, start):
        _, _, pos = self.take()
        negative = self.peek()[0] == "-"
        if negative:
            self.take()
        tok = self.take()
        if tok[0] != "int":
            raise ParseError("exponent must be an integer", tok[2])
        k = int(tok[1])
        if k > _MAX_EXPONENT:
            raise ParseError(
                f"exponent outside -{_MAX_EXPONENT}..{_MAX_EXPONENT}", tok[2])
        if shape[1] is not None:
            self.check_letters(len(shape[1][1]) * k, pos)
        if not negative or k == 0:
            shape = _power(shape, k)
            if shape[0] is not None:  # factor() makes it one term
                return shape
            return self.emit("power", k, shape, pos)
        s = shape[0]
        if s is not None:
            if s.is_zero:
                raise ParseError("cannot invert zero", pos)
            s = s ** -k
            return s, (s, ()), 1, 0
        if shape[1] is None:
            raise ParseError("cannot invert a sum of monomials", pos)
        c, w = shape[1]
        if c.is_zero:
            raise ParseError("cannot invert zero", pos)
        for g, _ in w:
            if g not in self.invertible:
                raise ParseError(
                    "negative power of a non-invertible generator", pos
                )
        del self.ops[start:]
        step = self.leaf(tuple((g, -e) for g, e in reversed(w)), c.inv())
        return self.emit("power", k, _power(step, k), pos)


_MINUS_ONE = -ONE


# The raw shape of each operation, from the shapes of its operands.

def _sum(a, b):
    return (_known(operator.add, a[0], b[0]), None, _count(a[2] + b[2]),
            _letters(a[3] + b[3]))


def _product(a, b):
    # every term of a meets every term of b
    return (_known(operator.mul, a[0], b[0]), _known(_join, a[1], b[1]),
            _count(a[2] * b[2]), _letters(a[3] * b[2] + b[3] * a[2]))


def _scaled(v, c):
    return (_known(operator.mul, v[0], c), _known(_join, v[1], (c, ())),
            v[2], v[3])


def _power(v, k):
    # each of the n^k words of v^k takes k words of v, and each word of v
    # is in k * n^(k-1) of those places
    if k == 0:
        return ONE, (ONE, ()), 1, 0
    return (_known(operator.pow, v[0], k), _known(_repeat, v[1], k),
            _count(v[2] ** k), _letters(k * v[2] ** (k - 1) * v[3]))


def _count(n):
    return min(n, _MAX_RAW_TERMS + 1)


def _letters(n):
    return min(n, _MAX_LETTERS + 1)


def _known(f, x, y):
    return None if x is None or y is None else f(x, y)


def _join(s, t):
    return s[0] * t[0], s[1] + t[1]


def _repeat(t, k):
    return t[0] ** k, t[1] * k


def _run(program, term, ops):
    """Evaluate a postfix program: ``term(word, c)`` makes a value, and
    ``ops`` maps each other operation to a function of two values (``add``,
    ``mul``) or of a value and the operation's argument."""
    stack = []
    for op, arg in program:
        if op == "term":
            stack.append(term(*arg))
        elif arg is None:
            rhs = stack.pop()
            stack[-1] = ops[op](stack[-1], rhs)
        else:
            stack[-1] = ops[op](stack[-1], arg)
    return stack[0]


def _raw_mul(a, b):
    return [(ca * cb, wa + wb) for ca, wa in a for cb, wb in b]


_ELEMENT_OPS = {"add": operator.add, "mul": operator.mul,
                "scale": operator.mul, "power": operator.pow}
_RAW_OPS = {"add": operator.add, "mul": _raw_mul,
            "scale": lambda terms, s: [(c * s, w) for c, w in terms],
            "power": lambda t, k: reduce(_raw_mul, [t] * k, [(ONE, ())])}


def parse_raw_terms(text, resolver):
    """Parse to raw (coefficient, word) pairs without normalizing.

    ``resolver`` maps generator names to (index, invertible) pairs.  Used by
    the presentation-descriptor loader, where rule right-hand sides stay
    unreduced.  Text that expands past 4096 pairs or 65,536 letters in all
    is a :class:`ParseError`.
    """
    program = _Parser(_tokenize(text), resolver, _MAX_RAW_TERMS,
                      _MAX_LETTERS).parse()
    return _run(program, lambda word, c: [(c, word)], _RAW_OPS)


def parse_element(text, pres):
    """Parse expression text to a normal-form element of ``pres``."""
    resolver = {
        g.name: (i, g.invertible) for i, g in enumerate(pres.generators)
    }
    program = _Parser(_tokenize(text), resolver, math.inf, math.inf).parse()
    return _run(program, pres.normal_form, _ELEMENT_OPS)

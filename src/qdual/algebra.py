"""Finitely presented Z2-graded algebras over Q(q), with normal forms.

A :class:`Presentation` fixes an ordered list of generators, each even or odd,
and one exchange rule per out-of-order pair: for generators g_j, g_i with
rank(j) > rank(i),

    g_j * g_i  =  lam * g_i * g_j  +  C

with lam a nonzero scalar and C a combination of strictly smaller words.
Odd generators square to zero and are never invertible; invertible even
generators contribute inverse letters g^-1 that annihilate against g.

Elements are finite Q(q)-linear combinations of normal-ordered monomials
g_1^e1 * ... * g_n^en (exponents: odd in {0,1}, invertible even in Z,
plain even in N).

One engine computes every normal form: multiplication tables in the manner
of Plural (Levandovskyy & Schönemann, ISSAC 2003).  Each presentation keeps
two lazily filled maps, both at unit coefficient: the letter table, from
(normal-form monomial m, letter x) to the normal form of m*x, and the pair
table, from two normal-form monomials (m1, m2) to the normal form of m1*m2.
The built-in presentations and their constructions are memoised (see
:mod:`qdual.presentations`), so there is one pair of tables per
presentation and they live for the whole process.  A word is folded in
letter by letter through the letter table; letters that sort after the
monomial or merge with its last exponent join it directly.  A product of
two elements looks each out-of-order pair of monomials up in the pair
table; on a miss it folds m2 into m1 letter by letter and stores the rows,
which each later product scales by its coefficient.  A missing letter
entry is built from smaller ones: with m = r * g^s and the exchange rule
g^s * x = lam * x * g^s + sum mu * u, the entry is
lam * (r*x)*g^s + sum mu * r*u, each folded through the letter table
again.  The misses run on an explicit stack, so exponents in the
thousands need no deep recursion, and every rule applied counts against a
step cap.

Letter-table entries are keyed on the part of m above x when the part
split off below it is even: ``b^j c^-9 * b`` reuses the entry for
``c^-9 * b`` for every j.  When that part holds an odd letter the key is
the whole monomial, because its odd letters are what make some
corrections vanish (for the derived rule of ``c^-1 * b^-1`` they stop the
correction from recreating its own redex).  As in whole-word rewriting, a
product that repeats an odd letter is zero; validation rejects any
correction that drops an odd letter of its exchanged pair, which is what
makes that sound.

Folding letter by letter gives the normal form that whole-word rewriting
gives only when the presentation is confluent, and :meth:`normal_form`
assumes it; check C16 compares it with random-order rewriting
(:meth:`~Presentation.brute_force_nf`).  On a descriptor that is not
confluent, ``normal_form`` may differ from leftmost rewriting, which stays
in :func:`_reduce` as the engine of ``brute_force_nf`` and the tests'
oracle.  Whole-word rewriting carries each pending word's coefficient as a
chain of rule coefficients and multiplies it out only for a word that
ends at a nonzero monomial, so the many words that end at zero cost no
scalar work; the words rewritten, and their order, are the same as with
multiplying at every step.

Elements are immutable.  The two tables are the only shared mutable
state: threads may share elements and presentations, and concurrent misses
in either table only compute identical entries twice.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .qfield import ONE, QRational, ZERO, _PONE, _coerce, _pstr

EVEN = 0
ODD = 1

_STEP_CAP = 2_000_000


class AlgebraError(Exception):
    """Base class for algebra-layer errors."""


class PresentationError(AlgebraError):
    """A presentation fails validation (missing rule, bad parity, ...)."""


class AlgebraMismatchError(AlgebraError):
    """Operands belong to different presentations."""


class NonInvertiblePowerError(AlgebraError):
    """Negative exponent requested on a non-invertible generator."""


class UnderivedInverseError(AlgebraError):
    """An inverse-letter exchange was needed but has not been derived."""


class NotQuasiUnitError(AlgebraError):
    """Inversion of an element that is not unit-plus-nilpotent."""


class RewriteLimitError(AlgebraError):
    """Rewriting exceeded the safety step cap (should never happen)."""


@dataclass(frozen=True)
class GeneratorSpec:
    """One generator: a name, a parity, and whether a formal inverse exists.

    Rank is positional: a generator's rank is its index in the presentation's
    generator tuple, and normal order sorts letters by ascending rank.
    """

    name: str
    parity: int
    invertible: bool = False

    def __post_init__(self):
        if self.parity not in (EVEN, ODD):
            raise PresentationError(f"bad parity for {self.name!r}")
        if self.parity == ODD and self.invertible:
            raise PresentationError(f"odd generator {self.name!r} cannot be invertible")
        if not self.name.isidentifier():
            raise PresentationError(f"generator name {self.name!r} is not an identifier")


# A letter is (generator index, sign) with sign +1 or -1; a word is a tuple of
# letters.  A monomial is a tuple of (generator index, exponent) pairs with
# strictly increasing indices and nonzero exponents.


def _word_key(word, parities):
    # measure used for the termination assertion: (even length, rank sequence)
    even = sum(1 for g, _ in word if parities[g] == EVEN)
    return (even, tuple(g for g, _ in word))


def _expand(mono):
    out = []
    for g, e in mono:
        s = 1 if e > 0 else -1
        out.extend((g, s) for _ in range(abs(e)))
    return tuple(out)


def _unit(c):
    return ONE if isinstance(c, QRational) and c.is_one else c


class Presentation:
    """An ordered, finitely presented Z2-graded algebra over Q(q)."""

    def __init__(self, name, generators, rules, *, derived=False, _validated=False):
        self.name = name
        self.generators = tuple(generators)
        self.index = {g.name: i for i, g in enumerate(self.generators)}
        self._parities = tuple(g.parity for g in self.generators)
        # coefficients equal to 1 become the ONE singleton, which the
        # engine's `is ONE` shortcuts test for
        self._rules = {
            key: (_unit(lam), tuple((_unit(mu), word) for mu, word in corr))
            for key, (lam, corr) in rules.items()
        }
        # "derived" means every inverse-letter exchange rule is present; it is
        # vacuously true when nothing is invertible.
        self.derived = derived or not any(g.invertible for g in self.generators)
        if not _validated:
            self._validate()
        self._one = Element(self, (((), ONE),))
        self._zero = Element(self, ())
        # (normal-form monomial, letter) -> normal form of their product at
        # unit coefficient; filled lazily by _run
        self._mul_table = {}
        # (normal-form monomial, normal-form monomial) -> their product's
        # (monomial, coefficient) rows at unit coefficient; filled lazily by
        # Element.__mul__
        self._pair_table = {}

    # -- validation -------------------------------------------------------

    def _validate(self):
        if len(self.index) != len(self.generators):
            raise PresentationError("duplicate generator names")
        n = len(self.generators)
        for key, (lam, corr) in self._rules.items():
            gj, sj, gi, si = key
            if not (0 <= gi < n and 0 <= gj < n):
                raise PresentationError("rule references unknown generator")
            if (sj, si) != (1, 1):
                raise PresentationError(
                    "hand-written rules must relate plain letters; inverse-letter "
                    "rules are derived, not authored"
                )
            if gj <= gi:
                raise PresentationError(
                    f"rule for ({self.generators[gj].name}, {self.generators[gi].name}) "
                    "must have the higher-ranked generator on the left"
                )
            if not isinstance(lam, QRational) or lam.is_zero:
                raise PresentationError("exchange coefficient must be a nonzero scalar")
            pair_parity = (self._parities[gi] + self._parities[gj]) % 2
            pair_odd = {g for g in (gi, gj) if self._parities[g] == ODD}
            lhs_key = _word_key(((gi, 1), (gj, 1)), self._parities)
            for mu, word in corr:
                if not isinstance(mu, QRational) or mu.is_zero:
                    raise PresentationError("zero or non-scalar correction coefficient")
                par = 0
                for g, s in word:
                    if not 0 <= g < n:
                        raise PresentationError("correction references unknown generator")
                    if s not in (1, -1):
                        raise PresentationError("bad letter sign in correction")
                    if s == -1 and not self.generators[g].invertible:
                        raise PresentationError(
                            f"correction inverts non-invertible {self.generators[g].name!r}"
                        )
                    par += self._parities[g]
                if par % 2 != pair_parity:
                    raise PresentationError(
                        f"correction in rule "
                        f"({self.generators[gj].name}, {self.generators[gi].name}) "
                        "breaks the parity grading"
                    )
                dropped = pair_odd - {g for g, _ in word}
                if dropped:
                    # a product repeating an odd letter is taken to be zero
                    # (the table's shortcut and _reduce's prune); that holds
                    # only if corrections never remove an odd letter
                    raise PresentationError(
                        f"correction in rule "
                        f"({self.generators[gj].name}, {self.generators[gi].name}) "
                        f"drops the odd letter {self.generators[min(dropped)].name!r} "
                        "of the exchanged pair; products would not be associative"
                    )
                if not _word_key(word, self._parities) < lhs_key:
                    raise PresentationError(
                        "correction term is not smaller than the exchanged pair; "
                        "rewriting would not terminate"
                    )
        for j in range(n):
            for i in range(j):
                if (j, 1, i, 1) not in self._rules:
                    raise PresentationError(
                        f"missing exchange rule for "
                        f"({self.generators[j].name}, {self.generators[i].name})"
                    )

    # -- rule lookup --------------------------------------------------------

    def _rule(self, gj, sj, gi, si):
        r = self._rules.get((gj, sj, gi, si))
        if r is None:
            if sj == -1 or si == -1:
                raise UnderivedInverseError(
                    f"no exchange rule for inverse letters in {self.name!r}; "
                    "apply derive_inverse_rules first"
                )
            raise PresentationError("missing exchange rule")  # pragma: no cover
        return r

    # -- element construction -------------------------------------------

    def _element(self, acc):
        terms = [(m, c) for m, c in acc.items() if c]
        if not terms:
            return self._zero
        terms.sort(key=lambda t: self._mono_key(t[0]), reverse=True)
        return Element(self, tuple(terms))

    def _mono_key(self, mono):
        even = sum(abs(e) for g, e in mono if self._parities[g] == EVEN)
        return (even, mono)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def scalar(self, c):
        c = _coerce(c)
        if c is None:
            raise TypeError("scalar expects an int, Fraction or QRational")
        return self._element({(): c})

    def gen(self, name, exp=1):
        """The element g^exp for a generator g given by name."""
        return self.normal_form([(name, exp)])

    # -- words and rewriting ----------------------------------------------

    def letters(self, word):
        """Expand (generator, exponent) pairs into validated single letters."""
        out = []
        for item in word:
            g, e = item
            if isinstance(g, str):
                if g not in self.index:
                    raise AlgebraError(f"unknown generator {g!r} in {self.name!r}")
                g = self.index[g]
            if not isinstance(e, int):
                raise AlgebraError("exponent must be an integer")
            if e == 0:
                continue
            spec = self.generators[g]
            if e < 0 and not spec.invertible:
                raise NonInvertiblePowerError(
                    f"negative power of non-invertible generator {spec.name!r}"
                )
            s = 1 if e > 0 else -1
            out.extend((g, s) for _ in range(abs(e)))
        return tuple(out)

    def normal_form(self, word, coeff=ONE):
        """Normal form of coeff * (product of the word's letters).

        The word is a sequence of (generator, exponent) pairs, generators by
        name or index.  Its letters are folded in from left to right through
        the multiplication table.
        """
        c = _coerce(coeff)
        if c is None:
            raise TypeError("coefficient must be an int, Fraction or QRational")
        letters = self.letters(word)
        return self._element(_run(self, _fold(self, {(): c}, letters)))

    def brute_force_nf(self, word, seed, coeff=ONE):
        """Like :meth:`normal_form` but applying rules in seeded random order.

        Exists as an independent check that the rewriting system is confluent:
        on a confluent system every reduction order reaches the same normal
        form.  Test-suite oracle; not meant for production use.

        The zero-branch shortcut (dropping words that repeat an odd
        generator) is disabled here when possible, to keep the oracle
        independent of it.  It stays on for presentations with invertible
        generators: the inverse-pair exchange corrections regenerate their
        own redex while inserting an odd pair, so under arbitrary reduction
        orders the shortcut is what bounds the expansion.  Dropping such
        words is sound regardless: corrections only ever add odd letters
        (validation rejects a correction that drops an odd letter of its
        exchanged pair), and any sorted monomial with a squared odd letter
        collapses to zero, so every descendant of a repeating word
        contributes nothing.

        With the shortcut off, most of the words rewritten end at zero.
        Coefficients are multiplied out only for the words that survive
        (see :func:`_reduce`), so those words cost rule applications but no
        scalar products.  The seed alone fixes the reduction: the rules
        applied and their order do not depend on when coefficients are
        multiplied.
        """
        c = _coerce(coeff)
        if c is None:
            raise TypeError("coefficient must be an int, Fraction or QRational")
        rng = random.Random(seed)
        prune = any(g.invertible for g in self.generators)
        return self._element(
            _reduce(self, [(c, self.letters(word))], rng=rng, prune=prune)
        )

    def parity_of(self, mono):
        return sum(self._parities[g] for g, _ in mono) % 2

    def __repr__(self):
        return f"<Presentation {self.name!r}, {len(self.generators)} generators>"


def _has_repeated_odd(pres, word):
    seen = 0
    for g, _ in word:
        if pres._parities[g] == ODD:
            bit = 1 << g
            if seen & bit:
                return True
            seen |= bit
    return False


def _collapse(pres, word):
    # word is rank-sorted; merge runs into exponents, dropping zeros.
    # Returns None when the monomial is zero (odd square).
    out = []
    for g, s in word:
        if out and out[-1][0] == g:
            out[-1][1] += s
        else:
            out.append([g, s])
    mono = []
    for g, e in out:
        if e == 0:
            continue
        if pres._parities[g] == ODD and e >= 2:
            return None
        mono.append((g, e))
    return tuple(mono)


def _letters_str(pres, letters):
    return "*".join(
        pres.generators[g].name + ("" if s == 1 else "^-1") for g, s in letters
    )


def _step_cap_error(pres, length, pair):
    return RewriteLimitError(
        f"rewriting in {pres.name!r} exceeded the step cap of {_STEP_CAP} at "
        f"a word of length {length}, applying the rule for "
        f"{_letters_str(pres, pair)}"
    )


def _chain_value(node):
    # multiply a coefficient chain out from its nearest known value,
    # memoising every node on the way down
    path = []
    while node[0] is None:
        path.append(node)
        node = node[1]
    v = node[0]
    for n in reversed(path):
        v = n[0] = v * n[2]
    return v


def _reduce(pres, items, *, rng=None, prune=True):
    """Rewrite (coefficient, word) pairs to a {monomial: coefficient} map.

    Whole-word rewriting: the engine of :meth:`Presentation.brute_force_nf`
    and the tests' oracle for the multiplication table.  With ``rng`` unset
    the leftmost out-of-order pair is exchanged first; with it, each step
    takes a random pending word (``rng.randrange``) and a random redex in it
    (``rng.choice``).

    A pending word carries its coefficient as a chain node ``[value or
    None, parent node, factor]``: the product of its input coefficient and
    the rule coefficients applied on the way.  The chain is multiplied out,
    memoising every node on it, only for a sorted word whose monomial is
    nonzero.  With ``prune`` off, most words repeat an odd letter, are
    rewritten many times and then dropped, and their products are never
    formed.  A unit rule coefficient reuses the parent node.  Rule
    coefficients are nonzero, so only an input coefficient can be zero,
    and the words visited, their order and the random draws are those of
    multiplying at every step.
    """
    acc = {}
    pending = [([c, None, None], word) for c, word in items]
    steps = 0
    while pending:
        if rng is None:
            node, word = pending.pop()
        else:
            node, word = pending.pop(rng.randrange(len(pending)))
        if node[1] is None and not node[0]:
            continue  # a zero input coefficient
        if prune and _has_repeated_odd(pres, word):
            continue
        if rng is None:
            t = None
            for k in range(len(word) - 1):
                if word[k][0] > word[k + 1][0]:
                    t = k
                    break
        else:
            redexes = [
                k for k in range(len(word) - 1) if word[k][0] > word[k + 1][0]
            ]
            t = rng.choice(redexes) if redexes else None
        if t is None:
            m = _collapse(pres, word)
            if m is not None:
                coeff = _chain_value(node)
                c0 = acc.get(m)
                acc[m] = coeff if c0 is None else c0 + coeff
            continue
        steps += 1
        if steps > _STEP_CAP:
            raise _step_cap_error(pres, len(word), word[t : t + 2])
        gj, sj = word[t]
        gi, si = word[t + 1]
        lam, corr = pres._rule(gj, sj, gi, si)
        head, tail = word[:t], word[t + 2 :]
        pending.append((
            node if lam is ONE else [None, node, lam],
            head + (word[t + 1], word[t]) + tail,
        ))
        for mu, u in corr:
            pending.append((node if mu is ONE else [None, node, mu], head + u + tail))
    return acc


class Element:
    """An element of a presented algebra in normal form.

    Stored as a tuple of (monomial, coefficient) pairs sorted by a fixed
    monomial order, largest first, with no zero coefficients; equal elements
    are structurally equal.  Supports +, -, * (elements and scalars) and
    integer powers; a negative power routes through
    :func:`invert_quasi_unit`.
    """

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        self.pres = pres
        self.terms = terms

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def parity(self):
        """0 or 1 when homogeneous, None for zero or mixed elements."""
        if not self.terms:
            return None
        seen = {self.pres.parity_of(m) for m, _ in self.terms}
        return seen.pop() if len(seen) == 1 else None

    # -- arithmetic -----------------------------------------------------

    def _check(self, other):
        if other.pres is not self.pres:
            raise AlgebraMismatchError(
                f"operands live in different algebras "
                f"({self.pres.name!r} vs {other.pres.name!r})"
            )

    def __add__(self, other):
        if not isinstance(other, Element):
            c = _coerce(other)
            if c is None:
                return NotImplemented
            other = self.pres.scalar(c)
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            c0 = acc.get(m)
            acc[m] = c if c0 is None else c0 + c
        return self.pres._element(acc)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.pres, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        if not isinstance(other, Element):
            c = _coerce(other)
            if c is None:
                return NotImplemented
            other = self.pres.scalar(c)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Element):
            c = _coerce(other)
            if c is None:
                return NotImplemented
            if not c:
                return self.pres._zero
            return Element(self.pres, tuple((m, k * c) for m, k in self.terms))
        self._check(other)
        pres = self.pres
        pairs = pres._pair_table
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                # the coefficient is formed only once the monomial product
                # is known to be nonzero: most products repeat an odd letter
                m = _concat(pres, m1, m2)
                if m is _NEEDS_REWRITE:
                    row = pairs.get((m1, m2))
                    if row is None:
                        row = tuple(
                            _run(pres, _fold(pres, {m1: ONE}, _expand(m2))).items()
                        )
                        pairs[m1, m2] = row
                    if not row:
                        continue
                    c = c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2
                    for mo, k in row:
                        kk = k if c is ONE else c if k is ONE else c * k
                        c0 = acc.get(mo)
                        acc[mo] = kk if c0 is None else c0 + kk
                elif m is not None:
                    c = c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2
                    c0 = acc.get(m)
                    acc[m] = c if c0 is None else c0 + c
        return pres._element(acc)

    def __rmul__(self, other):
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return self.__mul__(c)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return invert_quasi_unit(self) ** (-n)
        out = self.pres._one
        for _ in range(n):
            out = out * self
        return out

    # -- comparison / rendering -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Element):
            c = _coerce(other)
            if c is None:
                return NotImplemented
            other = self.pres.scalar(c)
        return self.pres is other.pres and self.terms == other.terms

    def __hash__(self):
        # zero and scalar elements equal their coefficient, so hash like it
        if not self.terms:
            return hash(ZERO)
        if len(self.terms) == 1 and not self.terms[0][0]:
            return hash(self.terms[0][1])
        return hash((id(self.pres), self.terms))

    def __str__(self):
        return render_element(self)

    __repr__ = __str__


# sentinel: monomial concatenation needs the rewriting engine
_NEEDS_REWRITE = object()


def _concat(pres, m1, m2):
    # Fast path for products of already-ordered monomials.  Returns the
    # combined monomial, None for a zero product, or _NEEDS_REWRITE.
    if not m1:
        return m2
    if not m2:
        return m1
    g1, e1 = m1[-1]
    g2, e2 = m2[0]
    if g1 < g2:
        return m1 + m2
    if g1 > g2:
        return _NEEDS_REWRITE
    e = e1 + e2
    if pres._parities[g1] == ODD and e >= 2:
        return None
    if e == 0:
        return m1[:-1] + m2[1:]
    return m1[:-1] + ((g1, e),) + m2[1:]


# The table is filled by generator "frames" that _run keeps on an explicit
# stack.  A frame yields each (monomial, letter) product the table lacks and
# is sent back its row, a tuple of (monomial, coefficient) pairs.


def _fold(pres, cur, letters):
    """Frame: multiply the {monomial: coefficient} map cur by the letters.

    Letters join a monomial directly when they sort after it or merge with
    its last exponent; every other product comes from the table.  Returns
    the resulting map.
    """
    table = pres._mul_table
    parities = pres._parities
    for x in letters:
        g, s = x
        nxt = {}
        for m, k in cur.items():
            if not m or m[-1][0] < g:
                mo = m + (x,)
            elif m[-1][0] == g:
                e = m[-1][1] + s
                if e == 0:
                    mo = m[:-1]
                elif parities[g] == ODD:
                    continue
                else:
                    mo = m[:-1] + ((g, e),)
            else:
                if parities[g] == ODD and any(h == g for h, _ in m):
                    continue  # a repeated odd letter: zero, as in _reduce
                row = table.get((m, x))
                if row is None:
                    row = yield m, x
                for mo, ko in row:
                    kk = k if ko is ONE else ko if k is ONE else k * ko
                    c0 = nxt.get(mo)
                    nxt[mo] = kk if c0 is None else c0 + kk
                continue
            c0 = nxt.get(mo)
            nxt[mo] = k if c0 is None else c0 + k
        cur = {m: k for m, k in nxt.items() if k}
    return cur


def _exchange(pres, m, x):
    """Frame for the table entry m*x: one exchange rule, then table folds.

    With m = rest * g^s and the rule g^s * x = lam * x * g^s + sum mu * u,
    m*x = lam * rest*x*g^s + sum mu * rest*u.
    """
    g, e = m[-1]
    s = 1 if e > 0 else -1
    rest = m[:-1] if e == s else m[:-1] + ((g, e - s),)
    lam, corr = pres._rule(g, s, x[0], x[1])
    acc = {}
    for mu, word in ((lam, (x, (g, s))),) + corr:
        part = yield from _fold(pres, {rest: mu}, word)
        for mo, ko in part.items():
            c0 = acc.get(mo)
            acc[mo] = ko if c0 is None else c0 + ko
    return tuple((mo, ko) for mo, ko in acc.items() if ko)


def _prefixed(pres, prefix, core, x):
    """Frame for (prefix * core) * x from the table entry core * x.

    prefix is even and sorts before x, so it only multiplies each term of
    core*x from the left.
    """
    row = yield core, x
    acc = {}
    for t, k in row:
        mo = _concat(pres, prefix, t)
        if mo is _NEEDS_REWRITE:
            part = (yield from _fold(pres, {prefix: k}, _expand(t))).items()
        else:
            part = () if mo is None else ((mo, k),)
        for mo, ko in part:
            c0 = acc.get(mo)
            acc[mo] = ko if c0 is None else c0 + ko
    return tuple((mo, ko) for mo, ko in acc.items() if ko)


def _run(pres, frame):
    """Drive a frame to its result, filling the table entries it lacks.

    An entry m*x is keyed on the part of m above x when the part below is
    even (the module docstring says why), else on all of m.
    """
    table = pres._mul_table
    parities = pres._parities
    stack = [(None, frame)]
    open_keys = set()
    steps = 0
    reply = None
    while True:
        key, frame = stack[-1]
        try:
            m, x = frame.send(reply)
        except StopIteration as done:
            reply = done.value
            stack.pop()
            if key is not None:
                table[key] = reply
                open_keys.discard(key)
            if not stack:
                return reply
            continue
        reply = None
        p = 0
        while m[p][0] <= x[0]:
            p += 1
        if p and not any(parities[h] for h, _ in m[:p]):
            stack.append((None, _prefixed(pres, m[:p], m[p:], x)))
            continue
        key = (m, x)
        reply = table.get(key)
        if reply is not None:
            continue
        g, e = m[-1]
        pair = ((g, 1 if e > 0 else -1), x)
        length = sum(abs(e) for _, e in m) + 1
        if key in open_keys:
            raise RewriteLimitError(
                f"rewriting in {pres.name!r} does not terminate: the rule for "
                f"{_letters_str(pres, pair)} at a word of length {length} "
                "needs its own result"
            )
        steps += 1
        if steps > _STEP_CAP:
            raise _step_cap_error(pres, length, pair)
        open_keys.add(key)
        stack.append((key, _exchange(pres, m, x)))


def invert_quasi_unit(x):
    """Two-sided inverse of u + nu: u an invertible monomial, nu nilpotent.

    The unit part u must be a single monomial in invertible generators (its
    terms contain no odd letters); every remaining term must contain an odd
    generator, which makes nu nilpotent and the geometric series finite:

        (u + nu)^-1 = u^-1 - u^-1 nu u^-1 + u^-1 nu u^-1 nu u^-1 - ...

    Raises :class:`NotQuasiUnitError` when x has no such splitting.
    """
    pres = x.pres
    unit = [
        (m, c)
        for m, c in x.terms
        if all(pres._parities[g] == EVEN for g, _ in m)
    ]
    if len(unit) != 1:
        raise NotQuasiUnitError(
            "quasi-unit inversion needs exactly one purely even term, "
            f"found {len(unit)}"
        )
    um, uc = unit[0]
    if any(not pres.generators[g].invertible for g, _ in um):
        raise NotQuasiUnitError("even part contains a non-invertible generator")
    inv_word = tuple((g, -e) for g, e in reversed(um))
    u_inv = pres.normal_form(inv_word, uc.inv())
    nil = x - pres._element({um: uc})
    if nil.is_zero:
        return u_inv
    n_odd = sum(1 for g in pres.generators if g.parity == ODD)
    result = u_inv
    term = u_inv
    for _ in range(n_odd + 1):
        term = -(term * nil * u_inv)
        if term.is_zero:
            return result
        result = result + term
    raise NotQuasiUnitError("nilpotent part failed to terminate")  # pragma: no cover


def is_central(x, names=None):
    """True when x commutes with the named generators (default: all)."""
    pres = x.pres
    if names is None:
        names = [g.name for g in pres.generators]
    for n in names:
        g = pres.gen(n)
        if x * g != g * x:
            return False
    return True


# ---------------------------------------------------------------------------
# rendering

_GREEK = {"alpha": "α", "beta": "β", "gamma": "γ", "delta": "δ", "xi": "ξ", "eta": "η"}

# style -> (greek display of a name or None, prime, separator, exponent
# format).  Outside ascii a trailing "2", a second tensor factor's copy,
# shows as a prime.
_STYLES = {
    "ascii": (None, "", "*", "^{}"),
    "unicode": (_GREEK.get, "′", "*", "^{}"),
    "latex": (lambda n: "\\" + n if n in _GREEK else None, "'", " ", "^{{{}}}"),
}


def _latex_poly(p):
    return re.sub(r"\^(-?\d+)", r"^{\1}", _pstr(p)).replace("*", " ")


def render_element(x, style="ascii"):
    """Canonical text for an element.

    The default ascii style is the round-trip format accepted by the
    expression parser; ``unicode`` and ``latex`` are display-only styles.
    """
    if style not in _STYLES:
        raise ValueError(f"unknown render style {style!r}")
    greek, prime, sep, power = _STYLES[style]
    latex = style == "latex"
    names = []
    for spec in x.pres.generators:
        name, mark = spec.name, ""
        if greek is not None and len(name) > 1 and name.endswith("2"):
            name, mark = name[:-1], prime
        names.append(((greek and greek(name)) or name) + mark)
    out = []
    for mono, coeff in x.terms:
        # the sign is rendered apart from the magnitude, whose leading
        # numerator coefficient is positive
        neg = coeff.num[-1][1] < 0
        mag = -coeff if neg else coeff
        body = sep.join(
            names[g] + ("" if e == 1 else power.format(e)) for g, e in mono
        )
        if not (body and mag.is_one):
            if mag.den == _PONE:
                c = (_latex_poly if latex else _pstr)(mag.num)
                # a constant sum keeps its parentheses unless it is the
                # only, positive, term, so that a sign in front of it
                # applies to all of it and the ascii text reparses
                alone = not body and len(x.terms) == 1 and not neg
                if len(mag.num) > 1 and not alone:
                    c = f"({c})"
            elif latex:
                c = rf"\frac{{{_latex_poly(mag.num)}}}{{{_latex_poly(mag.den)}}}"
            else:
                c = str(mag)
            body = f"{c}{sep}{body}" if body else c
        if out:
            out.append(" - " if neg else " + ")
        elif neg:
            out.append("-")
        out.append(body)
    return "".join(out) or "0"

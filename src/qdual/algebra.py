"""Finitely presented Z2-graded algebras over Q(q), with normal forms.

A :class:`Presentation` fixes an ordered list of generators, each even or odd,
and one exchange rule per out-of-order pair: for generators g_j, g_i with
rank(j) > rank(i),

    g_j * g_i  =  lam * g_i * g_j  +  C

with lam a nonzero scalar and C a combination of strictly smaller words.
Odd generators square to zero and are never invertible; invertible even
generators contribute inverse letters g^-1 that annihilate against g.  A
presentation is built from authored rules for plain letters only, however
it is constructed (descriptor, tensor product or renamed copy): the
constructor validates them, then derives the exchange rules for inverse
letters that they imply.

Elements are finite Q(q)-linear combinations of normal-ordered monomials
g_1^e1 * ... * g_n^en (exponents: odd in {0,1}, invertible even in Z,
plain even in N).

One engine computes every normal form and every product: block products on
a multiplication table in the manner of Plural (Levandovskyy & Schönemann,
ISSAC 2003).  Each presentation keeps one lazily filled map at unit
coefficient, the pair table, from two normal-form monomials (m1, m2) to the
normal form of m1*m2.  Every presentation is interned by structure (see
:mod:`qdual.presentations`), so there is one table per presentation and it
lives for the whole process.

A block is a power g^e of one generator.  One loop multiplies rows, each a
normal-form monomial with a coefficient, by blocks in turn: a word's normal
form is the row 1 times the word's runs of one generator, and a product of
two elements looks each out-of-order pair of monomials up in the pair table
and, on a miss, stores the row m1 times the blocks of m2, which each later
product scales by its coefficient.  A pair that shares an odd letter is
stored as zero at once.  A block g^e moves left past each last block h^f of
a row by a swap, h^f * g^e = lam^|f*e| * g^e * h^f, wherever the exchange
rule has no correction that survives there (see below).  The swap table
is built with the presentation and holds one entry per rule: lam = c * q^k
as the pair (c, k) of a rational c and an integer k where lam has that
form, so a run of swaps adds exponents and scales the row once, and each
correction word as its blocks and its odd mask.  No product adds an entry.
At any other block pair, the one-block pair h^f * g^e, itself a pair-table
entry, takes the place of both blocks.  So a product recurses only where a
correction splits a row, as deep as its monomials have blocks, never as
deep as an exponent.

A one-block pair is filled from the rule's swap entry.  With s the sign of
f, x = g^±1 and the exchange rule h^s * x = lam * x * h^s + sum mu * u, the
entries R_j = h^(j*s) * x follow one from the other:

    R_j = lam * R_(j-1) * h^s + sum mu * h^((j-1)*s) * u,    R_0 = x,

each product again by the block loop.  A fill starts after the largest j
the table holds and stores every R_j up to |f|, in a loop, so exponents in
the thousands need no deep recursion; h^f * g^e multiplies R_|f| by g^±1
once per further letter.  One set of open entries and one step count guard
each fill, with everything it asks for: an entry that needs its own result,
or a fill past the step cap, raises :class:`RewriteLimitError`.

A word that repeats an odd letter is zero, in every presentation that can
be built.  Validation rejects any correction that drops an odd letter of
its exchanged pair, and the derived rules keep the authored corrections
inside them, so every word that rewriting derives from such a word still
repeats that letter, and the sorted word it ends at holds the letter's
square, which is zero.  Rewriting and block products skip such words: two
monomials that share an odd letter multiply to zero, and a correction that
shares an odd letter with the rest of its row vanishes.

The same fact ends the chains of derived rules.  The rule for c^-1 * b^-1
in the dual algebra has the correction b^-1 c^-1 delta alpha c^-1 b^-1,
which asks for c^-2 * b^-1 again, behind the odd prefix alpha delta.  The
swap table holds the odd mask of each correction word that repeats no odd
letter, and at a row p * h^f * s the block loop compares them with the odd
mask of p, of s and of the letters around the row.  Where every correction
shares one of those letters, as delta alpha does with any odd letter of
the dual algebra, g^e swaps past h^f as if the rule had none: there the
chain ends.  Where only some do, the one-block pair is asked for under
that mask, less the bits that no correction of the rule holds, and its fill
drops the vanishing correction words.  An entry under a nonzero mask is
keyed with it and holds the normal form less the words that share an odd
letter with the mask.  A swap alone cannot end every chain: with
y*x = x*y + a*d*y*x + 1 (a, d odd) the correction 1 never vanishes, so the
fill of y*x asks for y*x again behind a*d, and only the entry under the
mask of a and d, which drops a*d*y*x, ends it.

Multiplying block by block gives the normal form that whole-word rewriting
gives only when the presentation is confluent, and :meth:`normal_form` and
products assume it; check C16 compares it with random-order rewriting
(:meth:`~Presentation.brute_force_nf`).  On a descriptor that is not
confluent, ``normal_form`` may differ from leftmost rewriting.  Whole-word
rewriting stays in :func:`_reduce`, one loop for the leftmost and the
seeded random order, as the engine of ``brute_force_nf`` and the tests'
oracle.

Elements are immutable.  The pair table and the sort-key cache are the
only shared mutable state: threads may share elements and presentations,
and concurrent misses in either only compute identical entries twice.
"""

import random
import re
import sys
from collections import namedtuple

from .qfield import ONE, QRational, ZERO, _PONE, _coerce, _pstr, _qmono

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


class NotQuasiUnitError(AlgebraError):
    """Inversion of an element that is not unit-plus-nilpotent."""


class RewriteLimitError(AlgebraError):
    """Rewriting passed the step cap, or a table entry needs its own result.

    Validation bounds the authored rules, not the inverse-letter rules they
    imply: with v*u = u*v + w (u, v invertible, w even) the rule for
    v^-1*u^-1 recreates its own redex, and a normal form through it raises
    this.  The built-in presentations never do.
    """


class GeneratorSpec(namedtuple("GeneratorSpec", "name parity invertible")):
    """One generator: a name, a parity, and whether a formal inverse exists.

    Rank is positional: a generator's rank is its index in the presentation's
    generator tuple, and normal order sorts letters by ascending rank.
    """

    __slots__ = ()

    def __new__(cls, name, parity, invertible=False):
        if parity not in (EVEN, ODD):
            raise PresentationError(f"bad parity for {name!r}")
        if parity == ODD and invertible:
            raise PresentationError(f"odd generator {name!r} cannot be invertible")
        if not name.isidentifier():
            raise PresentationError(f"generator name {name!r} is not an identifier")
        if name == "q":
            raise PresentationError(
                "'q' is the scalar indeterminate, not a valid generator name")
        return super().__new__(cls, name, parity, invertible)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the checks above
        return cls(*iterable)


# A letter is (generator index, sign) with sign +1 or -1; a word is a tuple of
# letters.  A monomial is a tuple of (generator index, exponent) pairs with
# strictly increasing indices and nonzero exponents.


def _word_key(word, parities):
    # measure used for the termination assertion: (even length, rank sequence)
    even = sum(1 for g, _ in word if parities[g] == EVEN)
    return (even, tuple(g for g, _ in word))


def _unit(c):
    return ONE if isinstance(c, QRational) and c.is_one else c


def _inverse_rules(rules, generators):
    """The exchange rules for inverse letters that authored rules imply.

    For every authored rule g_j*g_i = lam*g_i*g_j + C and every invertible
    participant:

        g_j * g_i^-1    = lam^-1 * g_i^-1 * g_j  -  lam^-1 * g_i^-1 C g_i^-1
        g_j^-1 * g_i    = lam^-1 * g_i * g_j^-1  -  lam^-1 * g_j^-1 C g_j^-1
        g_j^-1 * g_i^-1 = lam * g_i^-1 * g_j^-1  +  g_i^-1 g_j^-1 C g_j^-1 g_i^-1

    These are consequences of the presentation, not new axioms: each one is
    the authored rule multiplied by inverse letters on both sides.
    """
    out = {}
    for (gj, _, gi, _), (lam, corr) in rules.items():
        inv_i = generators[gi].invertible
        inv_j = generators[gj].invertible
        li = (gi, -1)
        lj = (gj, -1)
        lam_inv = _unit(lam.inv()) if inv_i or inv_j else None
        if inv_i:
            out[(gj, 1, gi, -1)] = (
                lam_inv,
                tuple((_unit(-(lam_inv * mu)), (li,) + u + (li,)) for mu, u in corr),
            )
        if inv_j:
            out[(gj, -1, gi, 1)] = (
                lam_inv,
                tuple((_unit(-(lam_inv * mu)), (lj,) + u + (lj,)) for mu, u in corr),
            )
        if inv_i and inv_j:
            out[(gj, -1, gi, -1)] = (
                lam,
                tuple((mu, (li, lj) + u + (lj, li)) for mu, u in corr),
            )
    return out


class Presentation:
    """An ordered, finitely presented Z2-graded algebra over Q(q)."""

    def __init__(self, name, generators, rules):
        self.name = name
        self.generators = tuple(generators)
        self.index = {g.name: i for i, g in enumerate(self.generators)}
        self._parities = tuple(g.parity for g in self.generators)
        # coefficients equal to 1 become the ONE singleton, whose products
        # QRational.__mul__ skips; rule coefficients arrive as fresh objects
        self._rules = {
            key: (_unit(lam), tuple((_unit(mu), word) for mu, word in corr))
            for key, (lam, corr) in rules.items()
        }
        # authored plain-letter rules gain the inverse-letter rules they imply
        self._validate()
        self._rules.update(_inverse_rules(self._rules, self.generators))
        # one swap entry per rule key, built with the rules (see _swap)
        self._swaps = {key: _swap(self, lam, corr)
                       for key, (lam, corr) in self._rules.items()}
        self._one = Element(self, (((), ONE),))
        self._zero = Element(self, ())
        # (normal-form monomial, normal-form monomial) -> their product's
        # (monomial, coefficient) rows at unit coefficient; filled lazily by
        # Element.__mul__ and, for one-block pairs, by _block_pair, whose
        # keys carry a nonzero odd mask as a third item
        self._pair_table = {}
        # per monomial its sort key and odd mask (see _sort_key)
        self._keys = {}

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
                    # a word repeating an odd letter is taken to be zero
                    # (see the module docstring); that holds only if
                    # corrections never remove an odd letter
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

    # -- element construction -------------------------------------------

    def _element(self, acc):
        terms = [(m, c) for m, c in acc.items() if c]
        if not terms:
            return self._zero
        if len(terms) > 1:
            terms.sort(key=self._sort_key, reverse=True)
        return Element(self, tuple(terms))

    def _sort_key(self, term):
        # (even degree, monomial, odd mask), computed once per monomial; the
        # odd mask never decides the order, as the monomials differ
        m = term[0]
        key = self._keys.get(m)
        if key is None:
            even = odd = 0
            for g, e in m:
                if self._parities[g]:
                    odd |= 1 << g
                else:
                    even += abs(e)
            key = self._keys[m] = (even, m, odd)
        return key

    def _odd(self, m):
        # the odd mask of a normal-form monomial, from its sort key where an
        # element holds it; the block loop's passing rows add no key
        key = self._keys.get(m)
        return key[2] if key else _odd_mask(self, m)

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

    def _pairs(self, word):
        # the word's (generator index, exponent) pairs, validated, less e = 0
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
            yield g, e

    def letters(self, word):
        """Expand (generator, exponent) pairs into validated single letters."""
        return tuple((g, 1 if e > 0 else -1)
                     for g, e in self._pairs(word) for _ in range(abs(e)))

    def normal_form(self, word, coeff=ONE):
        """Normal form of coeff * (product of the word's letters).

        The word is a sequence of (generator, exponent) pairs, generators by
        name or index.  Its runs of one generator are multiplied in from left
        to right as blocks, with no pair expanded into letters.
        """
        c = _coerce(coeff)
        if c is None:
            raise TypeError("coefficient must be an int, Fraction or QRational")
        pairs = tuple(self._pairs(word))
        if _has_repeated_odd(self, pairs):
            return self._zero
        return self._element(dict(_blocks(self, (((), c),), _word_blocks(pairs))))

    def brute_force_nf(self, word, seed, coeff=ONE):
        """Like :meth:`normal_form` but applying rules in seeded random order.

        An independent check that the rewriting system is confluent: on a
        confluent system every reduction order reaches the same normal
        form.  Test-suite oracle (check C16); the seed fixes the rules
        applied and their order.
        """
        c = _coerce(coeff)
        if c is None:
            raise TypeError("coefficient must be an int, Fraction or QRational")
        rng = random.Random(seed)
        return self._element(_reduce(self, [(c, self.letters(word))], rng=rng))

    def parity_of(self, mono):
        return sum(self._parities[g] for g, _ in mono) % 2

    def __repr__(self):
        return f"<Presentation {self.name!r}, {len(self.generators)} generators>"

    # a presentation is its structure's one interned object, and its tables
    # are shared: a copy is the object itself, and a pickle rebuilds through
    # the intern, so copied and unpickled elements mix with the originals

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        from .presentations import _authored, _descriptor
        return _descriptor, (self.name, self.generators,
                             tuple(sorted(_authored(self))))


def _has_repeated_odd(pres, word):
    # a word of letters (g, ±1) or of pairs (g, e): an odd generator twice,
    # or at an exponent of 2 or more
    seen = 0
    for g, e in word:
        if pres._parities[g] == ODD:
            bit = 1 << g
            if seen & bit or e > 1:
                return True
            seen |= bit
    return False


def _word_blocks(word):
    # a word's runs of one generator as blocks (g, e), dropping e = 0, from
    # its letters or its (g, e) pairs; the monomial of a sorted word.  A run
    # of an odd letter is a single letter only in a word that does not
    # repeat one.
    runs = []
    for g, s in word:
        if runs and runs[-1][0] == g:
            runs[-1][1] += s
        else:
            runs.append([g, s])
    return tuple((g, e) for g, e in runs if e)


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


def _reduce(pres, items, *, rng=None):
    """Rewrite (coefficient, word) pairs to a {monomial: coefficient} map.

    Whole-word rewriting in one loop: the engine of
    :meth:`Presentation.brute_force_nf` and the tests' oracle for the
    multiplication table.  Each step pops a pending word, drops it if it
    repeats an odd letter, and exchanges one out-of-order pair in it.  Only
    two choices depend on ``rng``: unset, the last pending word and its
    leftmost redex; set, a random word (``rng.randrange``) and a random
    redex in it (``rng.choice``).
    """
    acc = {}
    pending = list(items)
    steps = 0
    while pending:
        coeff, word = pending.pop(-1 if rng is None else rng.randrange(len(pending)))
        if not coeff or _has_repeated_odd(pres, word):
            continue
        redexes = [k for k in range(len(word) - 1) if word[k][0] > word[k + 1][0]]
        if not redexes:
            # no odd letter repeats, so the monomial is nonzero
            m = _word_blocks(word)
            c0 = acc.get(m)
            acc[m] = coeff if c0 is None else c0 + coeff
            continue
        t = redexes[0] if rng is None else rng.choice(redexes)
        steps += 1
        if steps > _STEP_CAP:
            raise _step_cap_error(pres, len(word), word[t : t + 2])
        lam, corr = pres._rules[word[t] + word[t + 1]]
        head, tail = word[:t], word[t + 2 :]
        pending.append((coeff * lam, head + (word[t + 1], word[t]) + tail))
        for mu, u in corr:
            pending.append((coeff * mu, head + u + tail))
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

    def _merge(self, other, negate):
        # self + other, or self - other with negate set
        if not isinstance(other, Element):
            c = _coerce(other)
            if c is None:
                return NotImplemented
            other = self.pres.scalar(c)
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            c0 = acc.get(m)
            if c0 is None:
                acc[m] = -c if negate else c
            else:
                acc[m] = c0 - c if negate else c0 + c
        return self.pres._element(acc)

    def __add__(self, other):
        return self._merge(other, False)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.pres, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        return self._merge(other, True)

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
                        # a pair that shares an odd letter is zero
                        row = pairs[m1, m2] = (
                            () if pres._odd(m1) & pres._odd(m2)
                            else tuple(_blocks(pres, ((m1, ONE),), m2)))
                    if not row:
                        continue
                    c = c1 * c2
                    for mo, k in row:
                        kk = c * k
                        c0 = acc.get(mo)
                        acc[mo] = kk if c0 is None else c0 + kk
                elif m is not None:
                    c = c1 * c2
                    c0 = acc.get(m)
                    acc[m] = c if c0 is None else c0 + c
        return pres._element(acc)

    def __rmul__(self, other):
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return self.__mul__(c)

    def __pow__(self, n):
        """self^n for an integer n; a negative n inverts self first.

        A power of one block is one step: for n >= 2,
        (k * g^e)^n = k^n * g^(e*n), and zero for an odd g.  A power of one
        generator meets no exchange rule, so this holds in every
        presentation.  Any other element is multiplied in n times in turn.
        """
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return invert_quasi_unit(self) ** (-n)
        pres = self.pres
        if n >= 2 and len(self.terms) == 1 and len(self.terms[0][0]) == 1:
            ((g, e),), k = self.terms[0]
            if pres._parities[g]:
                return pres._zero
            c = _unit(k ** n)
            return Element(pres, ((((g, e * n),), c),))
        out = pres._one
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


def _odd_mask(pres, m):
    return sum(1 << g for g, _ in m if pres._parities[g])


def _swap(pres, lam, corr):
    # the swap entry of a rule: its factor lam = c * q^k as (c, k), with c an
    # int or a Fraction, or as (lam, 0) where lam is no Laurent monomial;
    # each correction that repeats no odd letter as (mu, blocks, odd mask);
    # and the union of those masks
    terms = tuple((mu, _word_blocks(u), _odd_mask(pres, u)) for mu, u in corr
                  if not _has_repeated_odd(pres, u))
    cmask = 0
    for _, _, mk in terms:
        cmask |= mk
    if len(lam.num) == len(lam.den) == 1:
        (k, c), = lam.num
        return c, k - lam.den[0][0], terms, cmask
    return lam, 0, terms, cmask


def _swap_run(pres, t, g, e, mask):
    """How far the block g^e moves left through the last blocks of the
    monomial t by swaps, and at what factor.

    g^e passes a block h^f (h > g) at lam^|f*e| of the rule for h^±1 * g^±1
    as long as every correction in the rule's swap entry shares an odd
    letter with the bits of mask and the odd letters of the rest of t, on
    both sides of h^f.  Returns (i, factor, pmask): g^e has passed t[i:] at
    factor, a scalar (a QRational once a rule's factor is no Laurent
    monomial), ONE where it is 1; pmask is None where g^e reached its
    place, and otherwise the odd mask under which the one-block pair
    t[i-1] * g^e is asked for, less the bits that no correction of its rule
    holds.
    """
    swaps = pres._swaps
    sg = 1 if e > 0 else -1
    c, k, odd, pmask = 1, 0, None, None
    i = len(t)
    while i:
        h, f = t[i - 1]
        if h <= g:
            break
        lc, lk, terms, cmask = swaps[h, 1 if f > 0 else -1, g, sg]
        if terms:
            if odd is None:
                odd = pres._odd(t)
            pm = mask | (odd & ~(1 << h))
            if not all(mk & pm for _, _, mk in terms):
                pmask = pm & cmask
                break
        n = abs(f * e)
        if lc != 1:
            c *= lc ** n
        k += lk * n
        i -= 1
    if c.__class__ is QRational:
        return i, c * _qmono(1, k) if k else c, pmask
    return i, _qmono(c, k) if k or c != 1 else ONE, pmask


def _blocks(pres, rows, blocks, mask=0, fill=None):
    """The (monomial, coefficient) rows times the blocks, in order, as a list
    of (monomial, coefficient) pairs with distinct monomials and no zeros.

    Each block g^e multiplies every current row t on the right.  g^e moves
    left past the last blocks of t by swaps (:func:`_swap_run`, with the odd
    letters around the rows as mask), scaling the row once by the
    product of their factors, and then joins the rest of t directly.  Where
    it stops at a block h^f, with t = p * h^f * s, t * g^e is the sum of
    k * p*u*s over the row (u, k) of the one-block pair h^f * g^e under the
    mask the run returns, where p*u*s is p times the blocks of u and then of
    s, again by this loop; fill guards the fill that asks, if any.  Every
    swap entry is built with the presentation, so no product adds one.
    """
    for blk in blocks:
        g, e = blk
        nxt = {}
        for t, k in rows:
            i = len(t)
            if i and t[-1][0] > g:
                i, f, pmask = _swap_run(pres, t, g, e, mask)
                k = k * f
                if pmask is not None:
                    p, s = t[:i - 1], t[i:]
                    for u, ku in _block_pair(pres, p, t[i - 1], blk, pmask,
                                             fill):
                        for mo, ko in _blocks(pres, ((p, k * ku),), u + s,
                                              mask, fill):
                            c0 = nxt.get(mo)
                            nxt[mo] = ko if c0 is None else c0 + ko
                    continue
            mo = _concat(pres, t[:i], (blk,))
            if mo is None:
                continue  # an odd square
            mo += t[i:]
            c0 = nxt.get(mo)
            nxt[mo] = k if c0 is None else c0 + k
        rows = nxt.items()
    return [(mo, ko) for mo, ko in rows if ko]


def _block_pair(pres, p, hf, blk, mask, fill):
    """The rows of h^f * g^e, a pair-table entry, less the words that share
    an odd letter with mask.

    The block loop asks for it at a row p * h^f * s.  On a miss the entries
    R_j = h^(j*s) * g^±1 are filled as the module docstring says, from the
    swap entry of the rule for h^s * g^±1: its factor, and the blocks of
    each correction whose odd mask misses mask.  Every R_j up to |f| is
    stored; the block loop multiplies R_|f| by g^±1 once per further
    letter.  fill, the open entries and the step count of the fill that
    asks, guards every fill this one asks for in turn.
    """
    table = pres._pair_table
    # every key, of this pair and of each R_j, is (h^f, g^e) as two
    # monomials, with a nonzero mask as a third item
    tail = (mask,) if mask else ()
    key = ((hf,), (blk,)) + tail
    row = table.get(key)
    if row is not None:
        return row
    h, f = hf
    g, e = blk
    s = 1 if f > 0 else -1
    x = (g, 1 if e > 0 else -1)
    # the largest j whose entry the table holds
    n = abs(f)
    while n and (((h, n * s),), (x,)) + tail not in table:
        n -= 1
    rows = table[(((h, n * s),), (x,)) + tail] if n else (((x,), ONE),)
    if fill is None:
        fill = [set(), 0]  # the open entries and the steps taken
    pair = ((h, s), x)
    rule = pair[0] + pair[1]
    lam = pres._rules[rule][0]
    # a correction word that shares an odd letter with mask is zero
    terms = [(mu, u) for mu, u, mk in pres._swaps[rule][2] if not mask & mk]
    for j in range(n + 1, abs(f) + 1):
        k = (((h, j * s),), (x,)) + tail
        if k in fill[0]:
            raise RewriteLimitError(
                f"rewriting in {pres.name!r} does not terminate: the rule "
                f"for {_letters_str(pres, pair)} at a word of length "
                f"{j + 1} needs its own result"
            )
        fill[1] += 1
        if fill[1] > _STEP_CAP:
            length = sum(abs(d) for _, d in p) + abs(f) + 1
            raise _step_cap_error(pres, length, pair)
        fill[0].add(k)
        r = ((h, (j - 1) * s),) if j > 1 else ()
        parts = [([(mo, lam * ko) for mo, ko in rows],
                  (pair[0],))]
        parts += [(((r, mu),), u) for mu, u in terms]
        acc = {}
        for start, blocks in parts:
            for mo, ko in _blocks(pres, start, blocks, mask, fill):
                c0 = acc.get(mo)
                acc[mo] = ko if c0 is None else c0 + ko
        rows = table[k] = tuple((mo, ko) for mo, ko in acc.items() if ko)
        fill[0].discard(k)
    if abs(e) > 1:
        rows = table[key] = tuple(
            _blocks(pres, rows, (x,) * (abs(e) - 1), mask, fill))
    return rows


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
    try:
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
    except ValueError:
        # CPython refuses to turn an integer past its int-string limit into
        # text; nothing else in the loop raises ValueError
        raise AlgebraError(
            "coefficient too long to print: an integer past CPython's "
            f"{sys.get_int_max_str_digits()}-digit limit for integer strings"
        ) from None
    return "".join(out) or "0"

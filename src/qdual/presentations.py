"""Built-in algebra presentations and constructions on presentations.

The four built-ins are the entry algebra of a dual supermatrix (odd diagonal
entries alpha, delta; invertible even off-diagonal entries b, c), the entry
algebra of an ordinary quantum supermatrix (even a, d; odd beta, gamma), the
quantum superplane (x even, xi odd) and its dual (eta odd, y even).

Constructions: super tensor products (disjoint copies that commute up to the
Koszul sign), renamed copies for second tensor factors, and a small text
format for loading custom presentations, in which each built-in is written.
A tensor product authors its factors' rules and one Koszul-sign rule per
cross pair, a renamed copy its original's rules: every route passes only
plain-letter rules to :class:`~qdual.algebra.Presentation`, which validates
them and derives the exchange rules for inverse letters.

Every route ends at one structural intern keyed on the name, generators
and authored rules sorted by key, so one structure is one object however
it was built: elements from separate calls mix, and each multiplication
table is filled once per process.  A copy of a presentation is the object
itself, and a pickle rebuilds it through the intern.  The built-ins,
``tensor`` and ``rename`` keep identity caches in front of it, which keep
every presentation passed to them alive; two threads making the first
call at the same moment may each build an object.
"""

from functools import lru_cache

from .algebra import (
    EVEN,
    ODD,
    GeneratorSpec,
    Presentation,
    PresentationError,
)
from .parsing import ParseError, parse_raw_terms
from .qfield import ONE, scalar

_MINUS_ONE = -ONE


@lru_cache(maxsize=None)
def dual_algebra():
    """Entry algebra of the dual supermatrix [[alpha, b], [c, delta]].

    alpha, delta are odd and nilpotent; b, c are even and invertible.  The
    only non-trivial exchange is c*b = b*c - (q - q^-1)*delta*alpha; all other
    out-of-order pairs exchange with a plain power of q or a sign.
    """
    return load_presentation(
        """
        generator alpha odd
        generator delta odd
        generator b even invertible
        generator c even invertible
        rule delta*alpha = -alpha*delta
        rule b*alpha = q*alpha*b
        rule b*delta = q*delta*b
        rule c*alpha = q*alpha*c
        rule c*delta = q*delta*c
        rule c*b = b*c - (q - q^-1)*delta*alpha
        """,
        name="dual",
    )


@lru_cache(maxsize=None)
def gl_algebra():
    """Entry algebra of the quantum supermatrix [[a, beta], [gamma, d]].

    beta, gamma are odd and nilpotent; a, d are even (not invertible here).
    The only non-trivial exchange is d*a = a*d - (q - q^-1)*gamma*beta.
    """
    return load_presentation(
        """
        generator beta odd
        generator gamma odd
        generator a even
        generator d even
        rule gamma*beta = -beta*gamma
        rule a*beta = q*beta*a
        rule a*gamma = q*gamma*a
        rule d*beta = q*beta*d
        rule d*gamma = q*gamma*d
        rule d*a = a*d - (q - q^-1)*gamma*beta
        """,
        name="gl",
    )


@lru_cache(maxsize=None)
def superplane():
    """Quantum superplane coordinates: x even, xi odd, x*xi = q*xi*x."""
    return load_presentation(
        "generator x even\ngenerator xi odd\nrule xi*x = q^-1*x*xi",
        name="plane",
    )


@lru_cache(maxsize=None)
def dual_superplane():
    """Dual superplane coordinates: eta odd, y even, y*eta = q*eta*y."""
    return load_presentation(
        "generator eta odd\ngenerator y even\nrule y*eta = q*eta*y",
        name="dualplane",
    )


@lru_cache(maxsize=None)
def rename(pres, suffix, /):
    """The copy of a presentation with every generator name suffixed.

    The same (presentation, suffix) always gives the same object.
    """
    gens = tuple(
        GeneratorSpec(g.name + suffix, g.parity, g.invertible)
        for g in pres.generators
    )
    return _descriptor(pres.name + suffix, gens, tuple(sorted(_authored(pres))))


def tensor(a, b, name=None):
    """Super tensor product of two presentations, named ``AxB`` by default.

    Generator names must be disjoint; use :func:`rename` for a second copy.
    The first factor's generators keep their ranks and the second factor's
    follow.  Across factors, letters exchange freely up to the Koszul sign:
    odd past odd picks up -1, everything else commutes.  The same factors
    and resolved name always give the same object.
    """
    return _tensor(a, b, name or f"{a.name}x{b.name}")


@lru_cache(maxsize=None)
def _tensor(a, b, name):
    clash = {g.name for g in a.generators} & {g.name for g in b.generators}
    if clash:
        raise PresentationError(
            f"tensor factors share generator names: {sorted(clash)}"
        )
    off = len(a.generators)
    rules = _authored(a)
    for (gj, _, gi, _), (lam, corr) in _authored(b):
        shifted = tuple(
            (mu, tuple((g + off, s) for g, s in word)) for mu, word in corr
        )
        rules.append(((gj + off, 1, gi + off, 1), (lam, shifted)))
    for bi, bg in enumerate(b.generators, off):
        for ai, ag in enumerate(a.generators):
            eps = _MINUS_ONE if (bg.parity and ag.parity) else ONE
            rules.append(((bi, 1, ai, 1), (eps, ())))
    return _descriptor(name, a.generators + b.generators, tuple(sorted(rules)))


def _authored(pres):
    # the plain-letter rules pres was built from, without the derived ones
    return [(key, rule) for key, rule in pres._rules.items() if key[1] == key[3] == 1]


def derive_inverse_rules(pres, /):
    """Return ``pres``: every presentation already has its inverse-letter rules.

    Kept so that code written for the earlier two-step build still runs.
    """
    return pres


# ---------------------------------------------------------------------------
# presentation descriptor files
#
# A small line-oriented text format:
#
#     # comment
#     generator alpha odd
#     generator b even invertible
#     rule b*alpha = (q)*alpha*b
#     rule c*b = b*c - ((q^2 - 1)/(q))*delta*alpha
#
# Generators are ranked in declaration order.  Every out-of-order pair needs
# a rule; rule right-hand sides use the same expression syntax as the CLI.


def load_presentation(text, name="custom"):
    """Parse a presentation descriptor; raises PresentationError on bad input.

    Loads with the same name, generators and rules return the same object.
    """
    gens = []
    raw_rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        head, rest = fields[0], fields[1] if len(fields) > 1 else ""
        if head == "generator":
            parts = rest.split()
            if len(parts) < 2 or parts[1] not in ("even", "odd"):
                raise PresentationError(
                    f"line {lineno}: expected 'generator NAME even|odd [invertible]'"
                )
            invertible = False
            if len(parts) == 3:
                if parts[2] != "invertible":
                    raise PresentationError(f"line {lineno}: unknown flag {parts[2]!r}")
                invertible = True
            elif len(parts) > 3:
                raise PresentationError(f"line {lineno}: too many fields")
            parity = ODD if parts[1] == "odd" else EVEN
            try:
                gens.append(GeneratorSpec(parts[0], parity, invertible))
            except PresentationError as e:
                raise PresentationError(f"line {lineno}: {e}") from None
        elif head == "rule":
            if "=" not in rest:
                raise PresentationError(f"line {lineno}: rule needs '='")
            lhs, rhs = rest.split("=", 1)
            raw_rules.append((lineno, lhs.strip(), rhs.strip()))
        else:
            raise PresentationError(f"line {lineno}: unknown directive {head!r}")
    if not gens:
        raise PresentationError("descriptor declares no generators")
    index = {g.name: i for i, g in enumerate(gens)}
    resolver = {g.name: (i, g.invertible) for i, g in enumerate(gens)}
    rules = {}
    for lineno, lhs, rhs in raw_rules:
        parts = [p.strip() for p in lhs.split("*")]
        if len(parts) != 2 or not all(p in index for p in parts):
            raise PresentationError(
                f"line {lineno}: rule left side must be 'HIGH*LOW' with known generators"
            )
        gj, gi = index[parts[0]], index[parts[1]]
        try:
            terms = parse_raw_terms(rhs, resolver)
        except ParseError as e:
            raise PresentationError(f"line {lineno}: {e}") from None
        swapped = ((gi, 1), (gj, 1))
        merged = {}
        for mu, word in terms:
            merged[word] = merged.get(word, scalar(0)) + mu
        lam = merged.pop(swapped, None)
        if lam is None or lam.is_zero:
            raise PresentationError(
                f"line {lineno}: rule right side must contain the swapped pair "
                f"{parts[1]}*{parts[0]} with a nonzero coefficient"
            )
        corr = tuple((mu, word) for word, mu in merged.items() if not mu.is_zero)
        if (gj, 1, gi, 1) in rules:
            raise PresentationError(f"line {lineno}: duplicate rule for {lhs!r}")
        rules[(gj, 1, gi, 1)] = (lam, corr)
    return _descriptor(name, tuple(gens), tuple(sorted(rules.items())))


@lru_cache(maxsize=None)
def _descriptor(name, gens, rules):
    # the one structural intern: one presentation per (name, generators,
    # authored rules sorted by key), whether loaded, renamed or a tensor
    return Presentation(name, gens, dict(rules))


def load_presentation_file(path):
    """Load a descriptor file, named by its path; it must be UTF-8 text.

    Every :class:`PresentationError` raised while loading starts with
    ``PATH: ``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise PresentationError(
            f"{path}: not UTF-8 text (byte {e.start})"
        ) from None
    try:
        return load_presentation(text, name=str(path))
    except PresentationError as e:
        raise PresentationError(f"{path}: {e}") from None

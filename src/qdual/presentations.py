"""Built-in algebra presentations and constructions on presentations.

The four built-ins are the entry algebra of a dual supermatrix (odd diagonal
entries alpha, delta; invertible even off-diagonal entries b, c), the entry
algebra of an ordinary quantum supermatrix (even a, d; odd beta, gamma), the
quantum superplane (x even, xi odd) and its dual (eta odd, y even).

Each built-in is written in the descriptor format that
:func:`load_presentation` reads, so it is the same object as a load of the
same text under the same name.

Constructions: super tensor products (disjoint copies that commute up to the
Koszul sign), renamed copies for second tensor factors, derivation of the
exchange rules for inverse letters, and a small text format for loading
custom presentations.

The built-ins and the three constructions are memoised, so the same inputs
always give the same :class:`~qdual.algebra.Presentation`: elements built
through separate calls can be mixed, and each presentation's multiplication
table is filled once per process.  The caches key on presentation identity
and keep every presentation passed to them alive.  Two threads making the
first call at the same moment may each build an object; every later call
returns the cached one.  Descriptor files are interned by structure: every
load of the same name, generators and rules returns one presentation.
"""

from __future__ import annotations

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
    return Presentation(
        pres.name + suffix,
        gens,
        dict(pres._rules),
        derived=pres.derived,
        _validated=True,
    )


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
    gens = a.generators + b.generators
    off = len(a.generators)
    rules = dict(a._rules)
    for (gj, sj, gi, si), rule in b._rules.items():
        lam, corr = rule
        shifted = tuple(
            (mu, tuple((g + off, s) for g, s in word)) for mu, word in corr
        )
        rules[(gj + off, sj, gi + off, si)] = (lam, shifted)
    for bi, bg in enumerate(b.generators):
        for ai, ag in enumerate(a.generators):
            eps = _MINUS_ONE if (bg.parity and ag.parity) else ONE
            for sb in ((1, -1) if bg.invertible else (1,)):
                for sa in ((1, -1) if ag.invertible else (1,)):
                    rules[(bi + off, sb, ai, sa)] = (eps, ())
    return Presentation(
        name,
        gens,
        rules,
        derived=a.derived and b.derived,
        _validated=True,
    )


@lru_cache(maxsize=None)
def derive_inverse_rules(pres, /):
    """Extend a presentation with the exchange rules for inverse letters.

    For every authored rule g_j*g_i = lam*g_i*g_j + C and every invertible
    participant, the implied rules are added:

        g_j * g_i^-1   = lam^-1 * g_i^-1 * g_j  -  lam^-1 * g_i^-1 C g_i^-1
        g_j^-1 * g_i   = lam^-1 * g_i * g_j^-1  -  lam^-1 * g_j^-1 C g_j^-1
        g_j^-1 * g_i^-1 = lam * g_i^-1 * g_j^-1 + g_i^-1 g_j^-1 C g_j^-1 g_i^-1

    These are consequences of the presentation, not new axioms: each one is
    obtained by multiplying the authored rule by inverse letters on both
    sides.  Returns the derived presentation, the same object on every call
    (the input itself when nothing is invertible or the rules were already
    derived).
    """
    if pres.derived:
        return pres
    rules = dict(pres._rules)
    for (gj, sj, gi, si), (lam, corr) in pres._rules.items():
        if (sj, si) != (1, 1):
            continue
        inv_i = pres.generators[gi].invertible
        inv_j = pres.generators[gj].invertible
        li = (gi, -1)
        lj = (gj, -1)
        lam_inv = lam.inv()
        if inv_i:
            rules[(gj, 1, gi, -1)] = (
                lam_inv,
                tuple((-(lam_inv * mu), (li,) + u + (li,)) for mu, u in corr),
            )
        if inv_j:
            rules[(gj, -1, gi, 1)] = (
                lam_inv,
                tuple((-(lam_inv * mu), (lj,) + u + (lj,)) for mu, u in corr),
            )
        if inv_i and inv_j:
            rules[(gj, -1, gi, -1)] = (
                lam,
                tuple((mu, (li, lj) + u + (lj, li)) for mu, u in corr),
            )
    return Presentation(
        pres.name, pres.generators, rules, derived=True, _validated=True
    )


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
            if parts[0] == "q":
                raise PresentationError(
                    f"line {lineno}: 'q' is the scalar indeterminate, "
                    "not a valid generator name"
                )
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
    return _descriptor(name, tuple(gens), tuple(rules.items()))


@lru_cache(maxsize=None)
def _descriptor(name, gens, rules):
    # one presentation per (name, generators, rules), however often loaded
    return Presentation(name, gens, dict(rules))


def load_presentation_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_presentation(fh.read(), name=str(path))

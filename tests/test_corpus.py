"""Normal forms and products over a seeded corpus of random descriptors.

Each draft has two or three odd and two or three even generators in a random
order, an exchange factor on every pair, and on some even pairs corrections
made of odd pairs, constants, single even letters and odd pairs times the
exchanged pair.  A draft whose critical pairs join, and whose test words
whole-word rewriting takes to one normal form in two random orders, is
taken as confluent: there the block products must agree with leftmost
rewriting on every word that rewriting finishes within the step cap.  On
every other word and draft they may only give up by
:class:`RewriteLimitError`.
"""

import random

from qdual import algebra
from qdual.algebra import ODD, RewriteLimitError
from qdual.presentations import load_presentation
from qdual.qfield import ONE

# exchange factors and their inverses
FACTORS = (("1", "1"), ("(-1)", "(-1)"), ("q", "q^-1"), ("(-q)", "(-q^-1)"),
           ("q^-1", "q"), ("q^2", "q^-2"), ("2", "1/2"), ("(q+1)", "1/(q+1)"))


def draft(rng):
    """A random descriptor: its text, and its generators as (name, parity,
    invertible) in rank order.

    Rules without corrections agree with each other whatever their
    factors.  In half the drafts one even pair x, y alone has corrections,
    drawn from 1 and an odd pair a*b, and the factors are set to fit them:
    every letter but x and y passes x*y, and every letter but x, y, a and b
    passes a*b, at a total factor of 1.  In the other half any even pair
    may have corrections drawn from odd pairs, 1 and single even letters,
    and every factor is left to chance.  In both, a correction may also be
    an odd pair times the exchanged pair itself, wherever that word sorts
    below it, so that the rule asks for its own pair again behind the odd
    pair.
    """
    gens = [(f"o{i}", ODD, False) for i in range(rng.randint(2, 3))]
    gens += [(f"e{i}", 0, rng.random() < 0.7) for i in range(rng.randint(2, 3))]
    rng.shuffle(gens)
    names = [n for n, _, _ in gens]
    odd = [n for n, p, _ in gens if p]
    even = [n for n, p, _ in gens if not p]
    # c[u, v] = (i, s): u*v = FACTORS[i][s] * v*u, with c[v, u] = (i, 1 - s)
    c = {}
    for j, u in enumerate(names):
        for v in names[:j]:
            c[u, v] = (rng.randrange(len(FACTORS)), 0)
            c[v, u] = (c[u, v][0], 1)
    balanced = rng.random() < 0.5
    if balanced:
        x, y = rng.sample(even, 2)
        a, b = rng.sample(odd, 2)
        for z in names:
            for u, v in ((x, y), (a, b)):
                if z not in (x, y, u, v):
                    c[z, v] = (c[z, u][0], 1 - c[z, u][1])
                    c[v, z] = c[z, u]
    lines = [f"generator {n} {'odd' if p else 'even'}{' invertible' * inv}"
             for n, p, inv in gens]
    def own(pair, hj, hi):
        # the odd pair times hj*hi, lowest rank first, where it sorts below
        # hi*hj (its first letter ranks below hi), and 1 elsewhere
        pair = sorted(pair, key=names.index)
        if names.index(pair[0]) < names.index(hi):
            return f"{pair[0]}*{pair[1]}*{hj}*{hi}"
        return "1"

    for j, hj in enumerate(names):
        for hi in names[:j]:
            i, side = c[hj, hi]
            rhs = f"{FACTORS[i][side]}*{hi}*{hj}"
            corr = ()
            if balanced and {hi, hj} == {x, y}:
                corr = [rng.choice((f"{a}*{b}", "1", own((a, b), hj, hi)))
                        for _ in range(rng.randint(1, 2))]
            elif not balanced and hi in even and hj in even \
                    and rng.random() < 0.6:
                pair = rng.sample(odd, 2)
                corr = [rng.choice(("*".join(pair), "1", rng.choice(even),
                                    own(pair, hj, hi)))
                        for _ in range(rng.randint(1, 2))]
            for word in corr:
                rhs += f" + {FACTORS[rng.randrange(len(FACTORS))][0]}*{word}"
            lines.append(f"rule {hj}*{hi} = {rhs}")
    return "\n".join(lines), gens


def words(rng, gens, count):
    """Random (name, exponent) words, about half of them behind odd letters."""
    odd = [n for n, p, _ in gens if p]
    even = [g for g in gens if not g[1]]
    out = []
    for _ in range(count):
        word = []
        if rng.random() < 0.5:
            word = [(n, 1) for n in rng.sample(odd, rng.randint(1, 2))]
        for _ in range(rng.randint(2, 4)):
            name, parity, inv = rng.choice(gens if rng.random() < 0.25 else even)
            e = 1 if parity else rng.choice((-2, -1, 1, 2) if inv else (1, 2))
            word.append((name, e))
        out.append(word)
    return out


def _vanishes_in_part(pres):
    # a rule whose corrections differ in their odd letters, so that behind
    # some odd letter only some of them vanish
    for _, corr in pres._rules.values():
        masks = {algebra._odd_mask(pres, u) for _, u in corr
                 if not algebra._has_repeated_odd(pres, u)}
        if len(masks) > 1:
            return True
    return False


def _needs_masked_fill(pres):
    # a rule with a correction that holds the rule's own pair again, beside
    # one whose odd letters differ: no swap ends its chain there, only a fill
    # under an odd mask (see the algebra module docstring)
    for (h, s, g, e), (_, corr) in pres._rules.items():
        own = [u for _, u in corr
               if any(u[k:k + 2] == ((h, s), (g, e)) for k in range(len(u) - 1))]
        if own and len({algebra._odd_mask(pres, u) for _, u in corr
                        if not algebra._has_repeated_odd(pres, u)}) > 1:
            return True
    return False


def _nf(pres, items):
    return pres._element(algebra._reduce(pres, items))


def _joins(pres):
    # every critical pair joins: a word x*y*z out of order at both places
    # reaches one normal form whichever rule is applied first, and x*y*y^-1,
    # x*x^-1*y rewrite to x and y
    letters = [(g, s) for g, spec in enumerate(pres.generators)
               for s in ((1, -1) if spec.invertible else (1,))]
    for x in letters:
        for y in letters:
            for z in letters:
                if x[0] > y[0] > z[0]:
                    lam, corr = pres._rules[x + y]
                    first = [(lam, (y, x, z))] + [(mu, u + (z,)) for mu, u in corr]
                    lam, corr = pres._rules[y + z]
                    second = [(lam, (x, z, y))] + [(mu, (x,) + u) for mu, u in corr]
                    if _nf(pres, first) != _nf(pres, second):
                        return False
                elif x[0] > y[0] == z[0] and y[1] == -z[1]:
                    if _nf(pres, [(ONE, (x, y, z))]) != _nf(pres, [(ONE, (x,))]):
                        return False
                elif x[0] == y[0] > z[0] and x[1] == -y[1]:
                    if _nf(pres, [(ONE, (x, y, z))]) != _nf(pres, [(ONE, (z,))]):
                        return False
    return True


def _oracle(pres, ws):
    # the leftmost normal forms of the words where the draft is taken as
    # confluent, with None for a word that rewriting takes past the step
    # cap; None where the draft is not
    try:
        if not _joins(pres):
            return None
    except RewriteLimitError:
        return None
    wants = []
    for w in ws:
        try:
            if pres.brute_force_nf(w, 1) != pres.brute_force_nf(w, 2):
                return None
            wants.append(_nf(pres, [(ONE, pres.letters(w))]))
        except RewriteLimitError:
            wants.append(None)
    return wants


def test_block_products_match_rewriting_over_random_descriptors(monkeypatch):
    # runaway drafts stop at a low step cap
    monkeypatch.setattr(algebra, "_STEP_CAP", 200)
    rng = random.Random(2024)
    confluent = partial = own = 0
    for n in range(80):
        text, gens = draft(rng)
        pres = load_presentation(text, name=f"draft{n}")
        ws = words(rng, gens, 15)
        cuts = [rng.randint(0, len(w)) for w in ws]
        wants = _oracle(pres, ws)
        ok = wants is not None
        confluent += ok
        partial += ok and _vanishes_in_part(pres)
        own += ok and _needs_masked_fill(pres)
        for w, cut, want in zip(ws, cuts, wants or [None] * len(ws)):
            # the normal form of w, then a product of two normal forms
            for split in (len(w), cut):
                try:
                    got = pres.normal_form(w[:split]) * pres.normal_form(w[split:])
                except RewriteLimitError:
                    assert want is None, (text, w, split)
                    continue
                assert want is None or got == want, (text, w, split)
    assert confluent
    assert partial
    assert own

"""Seeded inputs of the three workloads and the answers they are checked against.

Everything here is deterministic in the seed.  Inputs come in *rounds*, and
every round holds the same slots (a query family and a size class).  Each
slot group draws its concrete inputs from a fixed list of variants in
seeded passes: every pass is a fresh seeded permutation of the whole list.
So the seed decides which input meets which and in what order, while every
few rounds each variant has run equally often.  A run executes whole
rounds until its time is up, so runs with different seeds see the same mix
of cheap and expensive operations and their percentiles stay comparable.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1729  # also qdual's own default fuzz seed
VERIFY_MAX_N = 6
# fuzz seeds a verify suite run passes to ``qdual verify --seed``.  Only C16
# uses it, to draw random words, and its cost differs 50-fold between fuzz
# seeds, so every run cycles through the same pool (qdual's default and the
# first seven integers, not picked by cost) in seeded passes.
VERIFY_SEEDS = (DEFAULT_SEED, 1, 2, 3, 4, 5, 6, 7)
CHECK_IDS = [f"C{i:02d}" for i in range(1, 18)]
SMOKE_MAX_N = 2
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def verify_seeds(seed):
    """Endless fuzz seeds of consecutive suite runs, in seeded passes."""
    return _passes(random.Random(seed), VERIFY_SEEDS)


# -- nf --------------------------------------------------------------------
#
# Family "word": long unsorted words; rewriting work grows about like k^4
# while the answer stays small.  Family "expand": the parser expands every
# raw word before normalising, 2^k or 3^k of them.  Family "inverse": cheap
# words with inverse letters, dominated by per-query set-up.

_WORDS = {
    "dual": (("c", 1), ("b", 1)),
    "gl": (("d", 1), ("a", 1)),
    "glxplane": (("xi", 0), ("d", 1), ("a", 1)),
    "dualxplane": (("x", 0), ("c", 1), ("b", 1)),
    "dualxdual": (("c2", 1), ("b2", 1)),
}
_EXPANSIONS = {
    "dual": "(b+c)",
    "gl": "(a+d+beta)",
    "glxplane": "(a+d*xi+x)",
    "dualxplane": "(b+c*x)",
    "dualxdual": "(c*b2+b*c2)",
}
_INVERSES = {
    "dual": (("c", -1), ("b", 1), ("alpha", 0)),
    "dualxplane": (("c", -1), ("b", 1), ("alpha", 0), ("xi", 0)),
    "dualxdual": (("c2", -1), ("b2", 1), ("alpha2", 0)),
}
# exponent of the expansion per algebra and size class; the classes cost
# about 30-80 ms ("mid") and 130-500 ms ("high") per query
_EXPANSION_K = {
    "mid": {"dual": 6, "gl": 5, "glxplane": 5, "dualxplane": 6,
            "dualxdual": 4},
    "high": {"dual": 7, "gl": 6, "glxplane": 6, "dualxplane": 7,
             "dualxdual": 5},
    "smoke": {"dual": 2, "gl": 2, "glxplane": 2, "dualxplane": 2,
              "dualxdual": 2},
}
# share of "inverse" queries also reduced by brute_force_nf
BRUTE_SHARE = 0.3


def _word_text(word, k):
    return "*".join(name if sign == 0 else f"{name}^{sign * k}"
                    for name, sign in word)


def _word_pairs(word, k):
    return [(name, 1 if sign == 0 else sign * k) for name, sign in word]


def _query(family, alg, k):
    if family == "expand":
        return {"algebra": alg, "expr": f"{_EXPANSIONS[alg]}^{k}",
                "family": family, "word": None}
    word = (_WORDS if family == "word" else _INVERSES)[alg]
    return {"algebra": alg, "expr": _word_text(word, k), "family": family,
            "word": _word_pairs(word, k)}


def _nf_groups(smoke):
    """Slot groups: (family, variants as (algebra, k), slots per round).

    15 slots per round: the 10 cheap ones put the median inside the cheap
    cluster, and p90 falls among the five heavy ones.
    """
    if smoke:
        return (
            ("inverse", [(a, k) for a in _INVERSES for k in (1, 2)], 3),
            ("word", [(a, 2) for a in _WORDS], 1),
            ("expand", list(_EXPANSION_K["smoke"].items()), 1),
        )
    return (
        ("inverse", [(a, k) for a in _INVERSES for k in range(2, 10)], 10),
        ("word", [(a, 7) for a in _WORDS], 1),
        ("expand", list(_EXPANSION_K["mid"].items()), 1),
        ("word", [(a, 9) for a in _WORDS], 1),
        ("expand", list(_EXPANSION_K["high"].items()), 1),
        ("word", [(a, 10) for a in _WORDS], 1),
    )


def _passes(rng, variants):
    while True:
        batch = list(variants)
        rng.shuffle(batch)
        yield from batch


def nf_rounds(seed, smoke=False):
    """Endless rounds of nf queries: dicts with algebra, expr, family,
    word (the letters for brute_force_nf, or None) and brute."""
    rng = random.Random(seed)
    groups = [(family, _passes(random.Random(f"{seed}:{i}"), variants), m)
              for i, (family, variants, m) in enumerate(_nf_groups(smoke))]
    while True:
        queries = []
        for family, feed, m in groups:
            for _ in range(m):
                q = _query(family, *next(feed))
                q["brute"] = family == "inverse" and rng.random() < BRUTE_SHARE
                queries.append(q)
        rng.shuffle(queries)
        yield queries


def nf_universe(smoke=False):
    """Every (algebra, expr) the stream can draw, for recording answers."""
    return sorted({(q["algebra"], q["expr"])
                   for family, variants, _ in _nf_groups(smoke)
                   for q in (_query(family, a, k) for a, k in variants)})


def nf_key(algebra, expr):
    return f"{algebra}\t{expr}"


# -- scalars -----------------------------------------------------------------
#
# Each round checks the q-Pascal rule for Gaussian binomials in base q^2 at
# one k for every n in the range, in one of its two forms, and the
# closed-form kappa coefficient of the even matrix powers at one n.

SCALAR_N = (3, 14)
SCALAR_SMOKE_N = (2, 4)
KAPPA_N = (2, 16)
_POINTS = tuple(Fraction(a, b) for a in range(-5, 6) if a
                for b in (1, 2, 3, 5, 7) if Fraction(a, b) not in (1, -1))


def scalar_rounds(seed, smoke=False):
    """Endless rounds of identity specs: dicts with kind, n, k, form, points."""
    rng = random.Random(seed)
    lo, hi = SCALAR_SMOKE_N if smoke else SCALAR_N
    pascal = [(n, _passes(random.Random(f"{seed}:{n}"), range(1, n)))
              for n in range(lo, hi + 1)]
    kappa = _passes(random.Random(f"{seed}:kappa"),
                    range(KAPPA_N[0], (hi if smoke else KAPPA_N[1]) + 1))
    while True:
        specs = [{"kind": "pascal", "n": n, "k": next(ks),
                  "form": rng.randint(0, 1)} for n, ks in pascal]
        specs.append({"kind": "kappa", "n": next(kappa), "k": 0, "form": 0})
        for spec in specs:
            spec["points"] = rng.sample(_POINTS, 2)
        rng.shuffle(specs)
        yield specs


def ref_qint(n, v):
    """[n] in base q^2 at q = v, in plain Fraction arithmetic."""
    return sum((v ** (2 * j) for j in range(n)), Fraction(0))


def ref_gauss(n, k, v):
    """Gaussian binomial [n choose k] in base q^2 at q = v."""
    if k < 0 or k > n:
        return Fraction(0)
    num = den = Fraction(1)
    for i in range(k):
        num *= ref_qint(n - i, v)
        den *= ref_qint(i + 1, v)
    return num / den


def ref_kappa(n, v):
    """kappa(n) = q (1 - q^2) / (1 + q^2) [n] [n-1] at q = v."""
    return v * (1 - v * v) / (1 + v * v) * ref_qint(n, v) * ref_qint(n - 1, v)


# -- presentations and recorded answers --------------------------------------


def build_presentations(workload):
    """Build, through the public API, every presentation the workload uses."""
    from qdual import (derive_inverse_rules, dual_algebra, dual_superplane,
                       gl_algebra, rename, superplane, tensor)

    if workload == "scalars":
        return {}
    dual = derive_inverse_rules(dual_algebra())
    gl = gl_algebra()
    out = {
        "dual": dual,
        "gl": gl,
        "glxplane": tensor(gl, superplane()),
        "dualxplane": tensor(dual, superplane()),
        "dualxdual": tensor(dual, rename(dual, "2"), name="dualxdual"),
    }
    if workload == "verify":
        out["plane"] = superplane()
        out["dualplane"] = dual_superplane()
        out["glxdualplane"] = tensor(gl, dual_superplane())
        out["dualxdualplane"] = tensor(dual, dual_superplane())
    return out


def verify_expected_path(max_n, seed):
    return EXPECTED_DIR / f"verify_n{max_n}_seed{seed}.txt"


def load_nf_expected():
    path = EXPECTED_DIR / "nf.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)

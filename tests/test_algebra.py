"""Normal-form rewriting in the presented graded algebras.

The frozen expected strings in this file were computed independently by
hand from the exchange rules before the engine produced them.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qdual import algebra, cli
from qdual.algebra import (
    AlgebraError,
    AlgebraMismatchError,
    EVEN,
    GeneratorSpec,
    NonInvertiblePowerError,
    NotQuasiUnitError,
    ODD,
    Presentation,
    PresentationError,
    RewriteLimitError,
    UnderivedInverseError,
    invert_quasi_unit,
    is_central,
    render_element,
)
from qdual.presentations import (
    derive_inverse_rules,
    dual_algebra,
    dual_superplane,
    gl_algebra,
    load_presentation,
    rename,
    superplane,
    tensor,
)
from qdual.qfield import ONE, Q, QRational, q_power, qnum, scalar

from helpers import random_element, random_word

DUAL = dual_algebra()
DDUAL = derive_inverse_rules(DUAL)
GL = gl_algebra()
PLANE = superplane()
DPLANE = dual_superplane()


# -- single exchange steps ---------------------------------------------------

def test_base_exchange_rules():
    al, de = DUAL.gen("alpha"), DUAL.gen("delta")
    b, c = DUAL.gen("b"), DUAL.gen("c")
    assert b * al == Q * (al * b)
    assert b * de == Q * (de * b)
    assert c * al == Q * (al * c)
    assert c * de == Q * (de * c)
    assert de * al == -(al * de)
    assert (al * al).is_zero
    assert (de * de).is_zero


def test_even_pair_exchange_has_a_correction():
    got = DUAL.normal_form([("c", 1), ("b", 1)])
    assert render_element(got) == "b*c + (q^2 - 1)/(q)*alpha*delta"


def test_three_letter_word():
    got = DUAL.normal_form([("c", 1), ("b", 1), ("alpha", 1)])
    want = DUAL.normal_form([("alpha", 1), ("b", 1), ("c", 1)], Q * Q)
    assert got == want
    assert got == DUAL.brute_force_nf([("c", 1), ("b", 1), ("alpha", 1)], 7)


def test_repeated_odd_letter_dies_even_at_a_distance():
    assert DUAL.normal_form([("alpha", 1), ("b", 1), ("alpha", 1)]).is_zero
    assert DUAL.normal_form([("delta", 1), ("c", 2), ("delta", 1)]).is_zero


def test_gl_exchange_rules():
    a, d = GL.gen("a"), GL.gen("d")
    be, ga = GL.gen("beta"), GL.gen("gamma")
    assert a * be == Q * (be * a)
    assert d * ga == Q * (ga * d)
    assert ga * be == -(be * ga)
    assert (be * be).is_zero
    assert d * a == a * d - (Q - q_power(-1)) * (ga * be)


def test_plane_relations():
    x, xi = PLANE.gen("x"), PLANE.gen("xi")
    assert xi * x == q_power(-1) * (x * xi)
    assert (xi * xi).is_zero
    eta, y = DPLANE.gen("eta"), DPLANE.gen("y")
    assert y * eta == Q * (eta * y)
    assert (eta * eta).is_zero


# -- inverse letters ---------------------------------------------------------

def test_underived_presentation_rejects_inverse_exchanges():
    with pytest.raises(UnderivedInverseError):
        DUAL.normal_form([("b", -1), ("alpha", 1)])


def test_negative_power_of_odd_generator():
    with pytest.raises(NonInvertiblePowerError):
        DDUAL.gen("alpha", -1)


def test_derived_single_inverse_exchanges():
    al = DDUAL.gen("alpha")
    b, bi = DDUAL.gen("b"), DDUAL.gen("b", -1)
    c, ci = DDUAL.gen("c"), DDUAL.gen("c", -1)
    assert bi * al == q_power(-1) * (al * bi)
    assert ci * al == q_power(-1) * (al * ci)
    assert b * bi == DDUAL.one()
    assert bi * b == DDUAL.one()
    assert c * ci == DDUAL.one()


def test_derived_inverse_pair_exchange():
    # c^-1 b^-1 in terms of b^-1 c^-1 keeps the even-pair correction shape
    lhs = DDUAL.gen("c", -1) * DDUAL.gen("b", -1)
    bi, ci = DDUAL.gen("b", -1), DDUAL.gen("c", -1)
    de, al = DDUAL.gen("delta"), DDUAL.gen("alpha")
    rhs = bi * ci - (Q - q_power(-1)) * (bi * ci * de * al * ci * bi)
    assert lhs == rhs
    # sanity: multiplying back by b c returns 1
    assert lhs * DDUAL.gen("b") * DDUAL.gen("c") == DDUAL.one()


def test_conjugated_exchange_identity():
    b, ci = DDUAL.gen("b"), DDUAL.gen("c", -1)
    al, de = DDUAL.gen("alpha"), DDUAL.gen("delta")
    lhs = b * ci - ci * b
    rhs = (Q - q_power(-1)) * (al * ci * ci * de)
    assert lhs == rhs
    assert render_element(lhs) == "(q^2 - 1)/(q^3)*alpha*delta*c^-2"


# -- quasi-unit inversion ----------------------------------------------------

def test_invert_quasi_unit_roundtrip():
    b, c = DDUAL.gen("b"), DDUAL.gen("c")
    de, al = DDUAL.gen("delta"), DDUAL.gen("alpha")
    u = b * c - Q * (de * al)
    v = invert_quasi_unit(u)
    assert u * v == DDUAL.one()
    assert v * u == DDUAL.one()


def test_invert_unit_plus_nilpotent():
    al, de = DDUAL.gen("alpha"), DDUAL.gen("delta")
    u = DDUAL.one() + al * de
    assert invert_quasi_unit(u) == DDUAL.one() - al * de


def test_invert_quasi_unit_rejections():
    with pytest.raises(NotQuasiUnitError):
        invert_quasi_unit(DDUAL.zero())
    with pytest.raises(NotQuasiUnitError):
        invert_quasi_unit(DDUAL.gen("alpha"))  # nilpotent, no unit part
    with pytest.raises(NotQuasiUnitError):
        invert_quasi_unit(DDUAL.gen("b") + DDUAL.gen("c"))  # two unit terms
    with pytest.raises(NotQuasiUnitError):
        invert_quasi_unit(GL.gen("a"))  # not declared invertible


def test_is_central():
    b, al, de = DDUAL.gen("b"), DDUAL.gen("alpha"), DDUAL.gen("delta")
    c = DDUAL.gen("c")
    d1 = b * c - Q * (de * al)
    s = b * b * invert_quasi_unit(d1)
    assert is_central(s)
    assert is_central(DDUAL.one())
    assert not is_central(b)
    assert not is_central(al)
    assert is_central(b, names=("b",))


# -- element arithmetic ------------------------------------------------------

def test_mismatched_algebras_refuse_to_mix():
    with pytest.raises(AlgebraMismatchError):
        DUAL.gen("b") + GL.gen("a")
    with pytest.raises(AlgebraMismatchError):
        DUAL.gen("b") * GL.gen("a")


def test_scalar_coercion_and_powers():
    b = DDUAL.gen("b")
    assert 2 * b == b + b
    assert b - b == DDUAL.zero()
    assert b ** 0 == DDUAL.one()
    assert b ** -2 == DDUAL.gen("b", -2)
    assert b ** 3 == DDUAL.normal_form([("b", 3)])
    assert (Q * b) * DDUAL.gen("b", -1) == DDUAL.scalar(Q)


def test_parity_grading():
    al, b = DDUAL.gen("alpha"), DDUAL.gen("b")
    assert al.parity() == ODD
    assert b.parity() == EVEN
    assert (al * b).parity() == ODD
    assert (al * DDUAL.gen("delta")).parity() == EVEN
    assert (al + b).parity() is None
    assert DDUAL.zero().parity() is None


def test_parity_is_multiplicative_fuzz():
    rng = random.Random(424242)
    for pres in (DDUAL, GL, PLANE, DPLANE):
        for _ in range(60):
            x = pres.normal_form(random_word(pres, rng, 5))
            y = pres.normal_form(random_word(pres, rng, 5))
            p, r = x.parity(), y.parity()
            if p is None or r is None:
                continue
            xy = x * y
            if xy:
                assert xy.parity() == (p + r) % 2


def test_associativity_fuzz():
    rng = random.Random(55001)
    for pres in (DDUAL, GL, PLANE, DPLANE):
        for _ in range(310):
            x = random_element(pres, rng, n_words=2, max_len=3)
            y = random_element(pres, rng, n_words=2, max_len=3)
            z = random_element(pres, rng, n_words=2, max_len=3)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z


def _whole_word_nf(pres, word, coeff=ONE):
    # leftmost whole-word rewriting, which never reads the table
    return pres._element(algebra._reduce(pres, [(coeff, pres.letters(word))]))


def _whole_word_product(x, y):
    # the product as one rewrite of each concatenated word
    pres = x.pres
    acc = pres.zero()
    for m1, c1 in x.terms:
        for m2, c2 in y.terms:
            acc = acc + _whole_word_nf(pres, m1 + m2, c1 * c2)
    return acc


def test_table_products_match_whole_word_rewriting_fuzz():
    rng = random.Random(31337)
    presentations = (
        derive_inverse_rules(DUAL),
        gl_algebra(),
        tensor(DDUAL, superplane()),
        tensor(DDUAL, rename(DDUAL, "2"), name="dualxdual"),
    )
    for pres in presentations:
        for _ in range(40):
            x = random_element(pres, rng, n_words=3, max_len=4)
            y = random_element(pres, rng, n_words=3, max_len=4)
            want = _whole_word_product(x, y)
            assert x * y == want
            assert x * y == want  # again, from a filled table
        assert pres._mul_table


TWIST = """
generator u even invertible
generator theta odd
rule theta*u = q^2*u*theta
"""


def test_normal_form_matches_whole_word_rewriting_fuzz():
    rng = random.Random(9041)
    presentations = [build() for build in cli._BUILTIN_ALGEBRAS.values()]
    presentations.append(derive_inverse_rules(load_presentation(TWIST)))
    for pres in presentations:
        for _ in range(60):
            word = random_word(pres, rng, 7)
            assert pres.normal_form(word) == _whole_word_nf(pres, word)


def test_long_exponent_misses_need_no_recursion():
    # a chain of 3000 misses (c^i * b for every i), far past the recursion
    # limit; c^n b = b c^n - (q - q^-1) [n] delta alpha c^(n-1)
    got = DDUAL.gen("c", 3000) * DDUAL.gen("b")
    de_al = DDUAL.gen("delta") * DDUAL.gen("alpha")
    assert got == DDUAL.gen("b") * DDUAL.gen("c", 3000) - (
        (Q - q_power(-1)) * qnum(3000) * (de_al * DDUAL.gen("c", 2999))
    )


def test_cold_long_product_fills_a_bounded_table(monkeypatch):
    monkeypatch.setattr(DDUAL, "_mul_table", {})
    monkeypatch.setattr(DDUAL, "_pair_table", {})
    got = DDUAL.gen("c", 40) * DDUAL.gen("b", 40)
    assert len(got.terms) == 2
    # 1482 of the entries are (alpha delta b^j c^i)*b, whose odd letters
    # keep the whole monomial in the key; the rest are chains like c^i*b
    assert len(DDUAL._mul_table) == 1718


def test_entry_that_needs_itself_fails_fast():
    # the derived rule v^-1 u^-1 = u^-1 v^-1 + u^-1 v^-1 w v^-1 u^-1
    # recreates its own redex with an even letter that never vanishes
    pres = derive_inverse_rules(load_presentation(
        "generator w even\n"
        "generator u even invertible\n"
        "generator v even invertible\n"
        "rule u*w = w*u\n"
        "rule v*w = w*v\n"
        "rule v*u = u*v + w\n",
        name="runaway",
    ))
    with pytest.raises(RewriteLimitError) as err:
        pres.normal_form([("v", -1), ("u", -1)])
    assert str(err.value) == (
        "rewriting in 'runaway' does not terminate: the rule for "
        "v^-1*u^-1 at a word of length 2 needs its own result"
    )
    assert render_element(pres.normal_form([("v", 1), ("u", 1)])) == "u*v + w"


def test_scalar_elements_hash_like_their_coefficient():
    assert DDUAL.one() == 1 and hash(DDUAL.one()) == hash(1)
    assert DDUAL.zero() == 0 and hash(DDUAL.zero()) == hash(0)
    half = DDUAL.scalar(scalar(1) / 2)
    assert half == scalar(1) / 2 and hash(half) == hash(scalar(1) / 2)
    assert DDUAL.scalar(Q) == Q and hash(DDUAL.scalar(Q)) == hash(Q)
    b = DDUAL.gen("b")
    assert hash(b * DDUAL.gen("b", -1)) == hash(1)
    assert len({DDUAL.one(), 1, scalar(1)}) == 1


def test_rewrite_limit_names_presentation_word_and_rule(monkeypatch):
    monkeypatch.setattr(algebra, "_STEP_CAP", 0)
    # normal_form reads the multiplication table too, and the fuzz tests
    # fill it: start cold so the word needs a rule application
    monkeypatch.setattr(DDUAL, "_mul_table", {})
    monkeypatch.setattr(DDUAL, "_pair_table", {})
    with pytest.raises(RewriteLimitError) as err:
        DDUAL.normal_form([("alpha", 1), ("c", 1), ("b", -1)])
    assert str(err.value) == (
        "rewriting in 'dual' exceeded the step cap of 0 at a word of "
        "length 3, applying the rule for c*b^-1"
    )
    # a table miss inside a product rewrites through the same capped engine
    monkeypatch.setattr(DDUAL, "_mul_table", {})
    monkeypatch.setattr(DDUAL, "_pair_table", {})
    with pytest.raises(RewriteLimitError, match=r"length 4, .* rule for c\*b$"):
        DDUAL.gen("c", 3) * DDUAL.gen("b", 3)
    # whole-word rewriting, the engine of brute_force_nf, keeps the same cap
    with pytest.raises(RewriteLimitError) as err:
        DDUAL.brute_force_nf([("alpha", 1), ("c", 1), ("b", -1)], 0)
    assert str(err.value) == (
        "rewriting in 'dual' exceeded the step cap of 0 at a word of "
        "length 3, applying the rule for c*b^-1"
    )


# -- the whole-monomial product table -----------------------------------------

# scalars with Fraction and non-monic numerators and denominators
_SCALES = (
    scalar(Fraction(3, 7)) * Q,
    2 * Q + 3,
    (3 * Q - 1) / (2 * Q + Fraction(1, 5)),
    scalar(Fraction(-5, 2)) / (Q * Q + Q),
)


def _pair_table_algebras():
    presentations = [build() for build in cli._BUILTIN_ALGEBRAS.values()]
    presentations.append(derive_inverse_rules(load_presentation(TWIST)))
    return presentations


def test_pair_table_products_match_whole_word_rewriting_fuzz(monkeypatch):
    rng = random.Random(88001)
    for pres in _pair_table_algebras():
        monkeypatch.setattr(pres, "_pair_table", {})
        cases = []
        for _ in range(30):
            x = rng.choice(_SCALES) * random_element(pres, rng, 3, 4)
            y = random_element(pres, rng, 3, 4) * rng.choice(_SCALES)
            cases.append((x, y, _whole_word_product(x, y)))
        for x, y, want in cases:
            assert x * y == want  # cold pair table
        assert pres._pair_table
        for x, y, want in cases:
            assert x * y == want  # warm pair table


def test_pair_table_rows_can_cancel_to_zero(monkeypatch):
    monkeypatch.setattr(DDUAL, "_pair_table", {})
    # alpha b * delta b = q alpha delta b^2 and delta b * alpha b is its
    # negative; alpha b * alpha b repeats an odd letter
    x = scalar(Fraction(3, 7)) * Q * (
        DDUAL.normal_form([("alpha", 1), ("b", 1)])
        + DDUAL.normal_form([("delta", 1), ("b", 1)])
    )
    assert (x * x).terms == ()
    rows = [row for row in DDUAL._pair_table.values() if row]
    assert len(rows) == 2
    assert rows[0][0][0] == rows[1][0][0]


def test_repeated_product_adds_no_table_entry():
    rng = random.Random(88002)
    for pres in _pair_table_algebras():
        x = random_element(pres, rng, 3, 5)
        y = random_element(pres, rng, 3, 5)
        first = x * y
        sizes = len(pres._mul_table), len(pres._pair_table)
        assert (x * y).terms == first.terms
        assert (len(pres._mul_table), len(pres._pair_table)) == sizes


def test_pair_table_rows_are_stored_at_unit_coefficient(monkeypatch):
    monkeypatch.setattr(DDUAL, "_pair_table", {})
    s = scalar(Fraction(3, 7)) * Q
    x = DDUAL.normal_form([("c", 3), ("alpha", 1)]) + DDUAL.gen("delta")
    y = DDUAL.gen("b", 2) + DDUAL.normal_form([("alpha", 1), ("b", -1)])
    scaled = (s * x) * y
    assert DDUAL._pair_table
    for (m1, m2), row in DDUAL._pair_table.items():
        want = _whole_word_nf(DDUAL, m1 + m2)
        assert DDUAL._element(dict(row)).terms == want.terms
    assert scaled.terms == (s * (x * y)).terms


def test_cold_suite_at_n20():
    # a fresh interpreter starts with every table empty, and n=20 reaches
    # larger monomials than the n=6 and n=12 goldens
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qdual.cli", "verify", "--max-n", "20",
         "--format", "machine"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, check=True,
    )
    assert proc.stderr == b""
    rows = [json.loads(line) for line in proc.stdout.decode().splitlines()]
    statuses = [r["status"] for r in rows]
    assert statuses == ["pass"] * 16 + ["anomaly"]
    assert rows[-1]["check_id"] == "C17"
    assert rows[-1]["params"]["ordering"] == "DA"


def test_normal_form_is_idempotent_fuzz():
    rng = random.Random(77003)
    for pres in (DDUAL, GL, PLANE, DPLANE):
        for _ in range(80):
            x = random_element(pres, rng)
            rebuilt = pres.zero()
            for mono, coeff in x.terms:
                rebuilt = rebuilt + pres.normal_form(mono, coeff)
            assert rebuilt == x


def test_confluence_fuzz():
    """Seeded random reduction orders all reach the deterministic answer."""
    rng = random.Random(616)
    presentations = (DDUAL, GL, PLANE, DPLANE)
    for i in range(504):
        pres = presentations[i % len(presentations)]
        word = random_word(pres, rng, 8)
        expected = pres.normal_form(word)
        for seed in range(5):
            assert pres.brute_force_nf(word, seed) == expected


# -- whole-word rewriting -----------------------------------------------------

def _eager_reduce(pres, items, *, rng=None, prune=True):
    # algebra._reduce as it was before coefficient chains: every rule
    # application multiplies its word's coefficient at once
    acc = {}
    pending = list(items)
    while pending:
        if rng is None:
            coeff, word = pending.pop()
        else:
            coeff, word = pending.pop(rng.randrange(len(pending)))
        if not coeff:
            continue
        if prune and algebra._has_repeated_odd(pres, word):
            continue
        redexes = [k for k in range(len(word) - 1) if word[k][0] > word[k + 1][0]]
        if not redexes:
            m = algebra._collapse(pres, word)
            if m is not None:
                c0 = acc.get(m)
                acc[m] = coeff if c0 is None else c0 + coeff
            continue
        t = redexes[0] if rng is None else rng.choice(redexes)
        lam, corr = pres._rule(*word[t], *word[t + 1])
        head, tail = word[:t], word[t + 2:]
        pending.append((coeff * lam, head + (word[t + 1], word[t]) + tail))
        for mu, u in corr:
            pending.append((coeff * mu, head + u + tail))
    return acc


def _log_rules(monkeypatch):
    # every rule application, in order, across all presentations
    log = []
    rule = Presentation._rule

    def logged(pres, *key):
        log.append((pres.name, key))
        return rule(pres, *key)

    monkeypatch.setattr(Presentation, "_rule", logged)
    return log


def _structure(acc):
    # a {monomial: coefficient} map down to its tuples and coefficient types
    return [
        (m, type(c), c.num, c.den, [type(k) for _, k in c.num + c.den])
        for m, c in acc.items()
    ]


def test_coefficient_chains_match_eager_multiplication_fuzz(monkeypatch):
    log = _log_rules(monkeypatch)
    rng = random.Random(50321)
    scales = (ONE, scalar(0), scalar(-1)) + _SCALES
    for pres in _pair_table_algebras():
        for _ in range(30):
            items = [
                (rng.choice(scales), pres.letters(random_word(pres, rng, 6)))
                for _ in range(rng.randrange(1, 4))
            ]
            for seed in (None, rng.randrange(2**32)):
                # leftmost mode prunes as the oracle helpers do, seeded mode
                # as brute_force_nf does
                prune = seed is None or any(g.invertible for g in pres.generators)
                runs = []
                for reduce in (_eager_reduce, algebra._reduce):
                    log.clear()
                    draws = None if seed is None else random.Random(seed)
                    got = reduce(pres, items, rng=draws, prune=prune)
                    runs.append((_structure(got), list(log)))
                assert runs[0] == runs[1]


def test_oracle_multiplies_only_surviving_coefficients(monkeypatch):
    # C16's costliest word at fuzz seed 6 repeats the odd letter beta, so
    # every rule application acts on a word that ends at zero
    word = [(3, 2), (3, 1), (2, 2), (2, 2), (0, 1), (0, 1), (2, 2)]
    log = _log_rules(monkeypatch)
    products = []
    mul = QRational.__mul__

    def counted(a, b):
        products.append(None)
        return mul(a, b)

    monkeypatch.setattr(QRational, "__mul__", counted)
    monkeypatch.setattr(QRational, "__rmul__", counted)
    for seed in (0, 1, 2, 3):
        log.clear()
        products.clear()
        assert GL.brute_force_nf(word, seed).is_zero
        assert len(log) > 2000
        assert 10 * len(products) < len(log)


NONCONFLUENT = """
generator x even
generator y even
generator z even
rule y*x = q*x*y
rule z*x = x*z
rule z*y = y*z + x
"""


def test_oracle_sees_a_non_confluent_descriptor():
    # z*y*x = (y*z + x)*x = q*x*y*z + x^2, but
    # z*y*x = q*z*x*y = q*x*z*y = q*x*y*z + q*x^2
    pres = load_presentation(NONCONFLUENT, name="nonconfluent")
    word = [("z", 1), ("y", 1), ("x", 1)]
    assert render_element(pres.normal_form(word)) == "q*x*y*z + x^2"
    got = [render_element(pres.brute_force_nf(word, seed)) for seed in range(8)]
    assert got == [
        "q*x*y*z + q*x^2", "q*x*y*z + x^2", "q*x*y*z + x^2", "q*x*y*z + x^2",
        "q*x*y*z + q*x^2", "q*x*y*z + q*x^2", "q*x*y*z + q*x^2", "q*x*y*z + x^2",
    ]


# -- tensor products ---------------------------------------------------------

def test_tensor_sign_convention():
    two = tensor(DDUAL, rename(DDUAL, "2"))
    al, al2 = two.gen("alpha"), two.gen("alpha2")
    b, b2 = two.gen("b"), two.gen("b2")
    assert al2 * al == -(al * al2)  # odd  x odd  anticommute
    assert al2 * b == b * al2       # odd  x even commute
    assert b2 * al == al * b2       # even x odd  commute
    assert b2 * b == b * b2         # even x even commute
    assert b2 * two.gen("b", -1) == two.gen("b", -1) * b2


def test_tensor_name_collision():
    with pytest.raises(PresentationError):
        tensor(DUAL, DUAL)


def test_rename_keeps_structure():
    prime = rename(DUAL, "2")
    got = prime.normal_form([("c2", 1), ("b2", 1)])
    assert render_element(got) == "b2*c2 + (q^2 - 1)/(q)*alpha2*delta2"


# -- presentation validation -------------------------------------------------

def _gens(*specs):
    return tuple(GeneratorSpec(n, p, invertible=i) for n, p, i in specs)


def test_rejects_odd_invertible_generator():
    with pytest.raises(PresentationError):
        GeneratorSpec("z", ODD, invertible=True)


def test_rejects_duplicate_generator_names():
    gens = _gens(("u", EVEN, False), ("u", ODD, False))
    with pytest.raises(PresentationError):
        Presentation("bad", gens, {(1, 1, 0, 1): (ONE, ())})


def test_rejects_missing_rule():
    gens = _gens(("u", EVEN, False), ("v", EVEN, False))
    with pytest.raises(PresentationError):
        Presentation("bad", gens, {})


def test_rejects_rule_keyed_in_wrong_order():
    gens = _gens(("u", EVEN, False), ("v", EVEN, False))
    rules = {(0, 1, 1, 1): (Q, ())}
    with pytest.raises(PresentationError):
        Presentation("bad", gens, rules)


def test_rejects_zero_exchange_coefficient():
    gens = _gens(("u", EVEN, False), ("v", EVEN, False))
    rules = {(1, 1, 0, 1): (ONE - ONE, ())}
    with pytest.raises(PresentationError):
        Presentation("bad", gens, rules)


def test_rejects_parity_breaking_correction():
    # v u -> u v + theta would map an even word to an odd correction
    gens = _gens(("u", EVEN, False), ("v", EVEN, False), ("theta", ODD, False))
    rules = {
        (1, 1, 0, 1): (ONE, ((ONE, ((2, 1),)),)),
        (2, 1, 0, 1): (ONE, ()),
        (2, 1, 1, 1): (ONE, ()),
    }
    with pytest.raises(PresentationError):
        Presentation("bad", gens, rules)


def test_rejects_non_decreasing_correction():
    # correction u v is not strictly below the rewritten pair v u
    gens = _gens(("u", EVEN, False), ("v", EVEN, False))
    rules = {(1, 1, 0, 1): (Q, ((ONE, ((0, 1), (1, 1))),))}
    with pytest.raises(PresentationError):
        Presentation("bad", gens, rules)


def test_letters_validation():
    with pytest.raises(AlgebraError):
        DUAL.normal_form([("nosuch", 1)])
    with pytest.raises(AlgebraError):
        DUAL.normal_form([("b", "2")])
    assert DUAL.normal_form([("b", 0)]) == DUAL.one()

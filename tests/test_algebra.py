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
    invert_quasi_unit,
    is_central,
    render_element,
)
from qdual.presentations import (
    dual_algebra,
    dual_superplane,
    gl_algebra,
    load_presentation,
    rename,
    superplane,
    tensor,
)
from qdual.parsing import parse_element
from qdual.qfield import ONE, Q, q_power, qnum, scalar

from helpers import count_products, random_element, random_word

DUAL = dual_algebra()
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

def test_dual_algebra_inverts_b_and_c_directly():
    # the inverse-letter rules come with the presentation: no derive step
    pres = dual_algebra()
    al = pres.gen("alpha")
    assert pres.normal_form([("b", -1), ("alpha", 1)]) == (
        q_power(-1) * (al * pres.gen("b", -1))
    )
    for name in ("b", "c"):
        g, gi = pres.gen(name), pres.gen(name, -1)
        assert g * gi == pres.one() and gi * g == pres.one()
        assert g ** -1 == gi


def test_negative_power_of_odd_generator():
    with pytest.raises(NonInvertiblePowerError):
        DUAL.gen("alpha", -1)


def test_derived_single_inverse_exchanges():
    al = DUAL.gen("alpha")
    b, bi = DUAL.gen("b"), DUAL.gen("b", -1)
    c, ci = DUAL.gen("c"), DUAL.gen("c", -1)
    assert bi * al == q_power(-1) * (al * bi)
    assert ci * al == q_power(-1) * (al * ci)
    assert b * bi == DUAL.one()
    assert bi * b == DUAL.one()
    assert c * ci == DUAL.one()


def test_derived_inverse_pair_exchange():
    # c^-1 b^-1 in terms of b^-1 c^-1 keeps the even-pair correction shape
    lhs = DUAL.gen("c", -1) * DUAL.gen("b", -1)
    bi, ci = DUAL.gen("b", -1), DUAL.gen("c", -1)
    de, al = DUAL.gen("delta"), DUAL.gen("alpha")
    rhs = bi * ci - (Q - q_power(-1)) * (bi * ci * de * al * ci * bi)
    assert lhs == rhs
    # sanity: multiplying back by b c returns 1
    assert lhs * DUAL.gen("b") * DUAL.gen("c") == DUAL.one()


def test_conjugated_exchange_identity():
    b, ci = DUAL.gen("b"), DUAL.gen("c", -1)
    al, de = DUAL.gen("alpha"), DUAL.gen("delta")
    lhs = b * ci - ci * b
    rhs = (Q - q_power(-1)) * (al * ci * ci * de)
    assert lhs == rhs
    assert render_element(lhs) == "(q^2 - 1)/(q^3)*alpha*delta*c^-2"


# -- quasi-unit inversion ----------------------------------------------------

def test_invert_quasi_unit_roundtrip():
    b, c = DUAL.gen("b"), DUAL.gen("c")
    de, al = DUAL.gen("delta"), DUAL.gen("alpha")
    u = b * c - Q * (de * al)
    v = invert_quasi_unit(u)
    assert u * v == DUAL.one()
    assert v * u == DUAL.one()


def test_invert_unit_plus_nilpotent():
    al, de = DUAL.gen("alpha"), DUAL.gen("delta")
    u = DUAL.one() + al * de
    assert invert_quasi_unit(u) == DUAL.one() - al * de


def test_invert_quasi_unit_rejections():
    with pytest.raises(NotQuasiUnitError):
        invert_quasi_unit(DUAL.zero())
    with pytest.raises(NotQuasiUnitError):
        invert_quasi_unit(DUAL.gen("alpha"))  # nilpotent, no unit part
    with pytest.raises(NotQuasiUnitError):
        invert_quasi_unit(DUAL.gen("b") + DUAL.gen("c"))  # two unit terms
    with pytest.raises(NotQuasiUnitError):
        invert_quasi_unit(GL.gen("a"))  # not declared invertible


def test_is_central():
    b, al, de = DUAL.gen("b"), DUAL.gen("alpha"), DUAL.gen("delta")
    c = DUAL.gen("c")
    d1 = b * c - Q * (de * al)
    s = b * b * invert_quasi_unit(d1)
    assert is_central(s)
    assert is_central(DUAL.one())
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
    b = DUAL.gen("b")
    assert 2 * b == b + b
    assert b - b == DUAL.zero()
    assert b ** 0 == DUAL.one()
    assert b ** -2 == DUAL.gen("b", -2)
    assert b ** 3 == DUAL.normal_form([("b", 3)])
    assert (Q * b) * DUAL.gen("b", -1) == DUAL.scalar(Q)
    assert 3 - b == DUAL.scalar(3) - b


def test_power_of_one_block_matches_the_repeated_product(monkeypatch):
    # (k * g^e)^n is one step, k^n * g^(e*n), in every presentation: a
    # power of one generator meets no exchange rule
    coeffs = (ONE, -ONE, Q, scalar(Fraction(2, 3)), (Q + 1) / (Q * Q))
    for build in cli._BUILTIN_ALGEBRAS.values():
        pres = build()
        for spec in pres.generators:
            exps = range(-3, 4) if spec.invertible else range(0, 4)
            for e, k in ((e, k) for e in exps for k in coeffs):
                x = pres.normal_form([(spec.name, e)], k)
                expected = pres.one()
                for n in range(7):
                    power = x ** n
                    assert power == expected, (pres.name, spec.name, e, k, n)
                    if n >= 2 and e and spec.parity == ODD:
                        assert power.is_zero
                    if n >= 1 and e and k is ONE and power:
                        assert power.terms[0][1] is ONE
                    expected = expected * x
    # a negative power still inverts first
    inverted = []
    invert = algebra.invert_quasi_unit

    def counted(x):
        inverted.append(x)
        return invert(x)

    monkeypatch.setattr(algebra, "invert_quasi_unit", counted)
    x = DUAL.normal_form([("c", 2)], Q)
    assert x ** -3 == DUAL.normal_form([("c", -6)], Q ** -3)
    assert inverted == [x]
    monkeypatch.undo()
    assert count_products(monkeypatch, lambda: parse_element("b^512", DUAL)) == 0


def test_inexact_scalars_and_unknown_styles_are_refused():
    word = [("b", 1)]
    for call, message in (
        (lambda: DUAL.scalar(1.5), "scalar expects an int, Fraction or QRational"),
        (lambda: DUAL.normal_form(word, 1.5),
         "coefficient must be an int, Fraction or QRational"),
        (lambda: DUAL.brute_force_nf(word, 7, 1.5),
         "coefficient must be an int, Fraction or QRational"),
    ):
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        render_element(DUAL.gen("b"), "html")
    assert str(info.value) == "unknown render style 'html'"


def test_q_power_refuses_a_degree_that_is_not_an_integer():
    # a float degree would give a polynomial that is not exact
    for k in (1.5, 2.0, Fraction(3, 2)):
        with pytest.raises(TypeError) as info:
            q_power(k)
        assert str(info.value) == (
            f"q_power expects an integer, got {type(k).__name__}"
        )


def test_parity_grading():
    al, b = DUAL.gen("alpha"), DUAL.gen("b")
    assert al.parity() == ODD
    assert b.parity() == EVEN
    assert (al * b).parity() == ODD
    assert (al * DUAL.gen("delta")).parity() == EVEN
    assert (al + b).parity() is None
    assert DUAL.zero().parity() is None


def test_parity_is_multiplicative_fuzz():
    rng = random.Random(424242)
    for pres in (DUAL, GL, PLANE, DPLANE):
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
    for pres in (DUAL, GL, PLANE, DPLANE):
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


def test_table_products_match_whole_word_rewriting_fuzz(monkeypatch):
    rng = random.Random(31337)
    presentations = (
        DUAL,
        gl_algebra(),
        tensor(DUAL, superplane()),
        tensor(DUAL, rename(DUAL, "2"), name="dualxdual"),
    )
    for pres in presentations:
        monkeypatch.setattr(pres, "_pair_table", {})
        for _ in range(40):
            x = random_element(pres, rng, n_words=3, max_len=4)
            y = random_element(pres, rng, n_words=3, max_len=4)
            want = _whole_word_product(x, y)
            assert x * y == want
            assert x * y == want  # again, from a filled table
        assert pres._pair_table


TWIST = """
generator u even invertible
generator theta odd
rule theta*u = q^2*u*theta
"""

# exchange factors that are not Laurent monomials, on invertible letters
SCALED = """
generator x even invertible
generator y even invertible
generator z even invertible
rule y*x = (q+1)*x*y
rule z*y = 2*y*z
rule z*x = q^-1*x*z
"""


# a rule with two corrections, a*d with the odd letters a and d, and 1 with
# none: behind a or d only a*d vanishes, so the block loop fills one-block
# pairs of y^f * x under that odd mask
SPLIT = """
generator a odd
generator d odd
generator x even
generator y even
rule d*a = -a*d
rule x*a = q*a*x
rule x*d = q^-1*d*x
rule y*a = q^-1*a*y
rule y*d = q*d*y
rule y*x = x*y + a*d + 1
"""


def _behind_odd_letters(suffix=""):
    # inverse letters behind each odd prefix, whose letters end the chain of
    # c^-k * b^-1 (see the algebra module docstring)
    a, d, b, c = (name + suffix for name in ("alpha", "delta", "b", "c"))
    for prefix in ([a], [d], [a, d], [d, a]):
        for k in range(1, 7):
            for j in range(1, 7):
                yield [(g, 1) for g in prefix] + [(c, -k), (b, -j)]


def test_normal_form_matches_whole_word_rewriting_fuzz(monkeypatch):
    rng = random.Random(9041)
    presentations = [build() for build in cli._BUILTIN_ALGEBRAS.values()]
    presentations += [load_presentation(TWIST), load_presentation(SCALED),
                      load_presentation(SPLIT, name="split")]
    for pres in presentations:
        # from a cold table, so that every masked fill is checked too
        monkeypatch.setattr(pres, "_pair_table", {})
        words = [random_word(pres, rng, 7) for _ in range(60)]
        if pres.name in ("dual", "dualxdual"):
            words += _behind_odd_letters()
        if pres.name == "dualxdual":
            words += _behind_odd_letters("2")
        if pres.name == "split":
            words += [[(o, 1), ("y", f), ("x", e)]
                      for o in "ad" for f in range(1, 5) for e in range(1, 5)]
        for word in words:
            assert pres.normal_form(word) == _whole_word_nf(pres, word), word
        if pres.name == "split":
            assert any(len(key) == 3 for key in pres._pair_table)


def test_correction_holding_its_own_pair_ends_behind_odd_letters(monkeypatch):
    # y*x = x*y + a*d*y*x + 1: the correction 1 never vanishes, so no swap
    # ends the chain; the fill of y*x asks for y*x again behind a*d, where
    # only the entry under the mask of a and d, without a*d*y*x, ends it
    pres = load_presentation(
        SPLIT.replace("a*d + 1", "a*d*y*x + 1"), name="split_self")
    monkeypatch.setattr(pres, "_pair_table", {})
    words = [[("y", 1), ("x", 1)], [("a", 1), ("y", 2), ("x", 1)]]
    words += [[("y", f), ("x", e)] for f in range(1, 4) for e in range(1, 4)]
    words += [[(o, 1), ("y", f), ("x", e)]
              for o in "ad" for f in range(1, 4) for e in range(1, 4)]
    for word in words:
        assert pres.normal_form(word) == _whole_word_nf(pres, word), word
    x = pres.normal_form([("y", 2), ("a", 1)]) + pres.gen("x")
    y = pres.gen("x", 2) + pres.normal_form([("y", 1), ("d", 1)])
    assert x * y == _whole_word_product(x, y)
    assert pres.normal_form([("y", 1), ("x", 1)]) == (
        pres.normal_form([("x", 1), ("y", 1)])
        + pres.normal_form([("a", 1), ("d", 1), ("x", 1), ("y", 1)])
        + pres.normal_form([("a", 1), ("d", 1)]) + 1)


def test_long_exponent_misses_need_no_recursion():
    # a chain of 3000 misses (c^i * b for every i), far past the recursion
    # limit; c^n b = b c^n - (q - q^-1) [n] delta alpha c^(n-1)
    got = DUAL.gen("c", 3000) * DUAL.gen("b")
    de_al = DUAL.gen("delta") * DUAL.gen("alpha")
    assert got == DUAL.gen("b") * DUAL.gen("c", 3000) - (
        (Q - q_power(-1)) * qnum(3000) * (de_al * DUAL.gen("c", 2999))
    )


def test_cold_long_product_fills_a_bounded_table(monkeypatch):
    monkeypatch.setattr(DUAL, "_pair_table", {})
    got = DUAL.gen("c", 40) * DUAL.gen("b", 40)
    assert len(got.terms) == 2
    # c^40 * b fills the chain c^j * b for j = 1..40, and the other 39
    # letters b multiply its rows; in the row alpha delta c^39 each b swaps
    # past c^39, as the correction delta alpha vanishes behind alpha delta
    b, c = 2, 3
    assert set(DUAL._pair_table) == (
        {(((c, j),), ((b, 1),)) for j in range(1, 41)}
        | {(((c, 40),), ((b, 40),))}
    )


def test_entry_that_needs_itself_fails_fast():
    # the implied rule v^-1 u^-1 = u^-1 v^-1 + u^-1 v^-1 w v^-1 u^-1
    # recreates its own redex with an even letter that never vanishes
    pres = load_presentation(
        "generator w even\n"
        "generator u even invertible\n"
        "generator v even invertible\n"
        "rule u*w = w*u\n"
        "rule v*w = w*v\n"
        "rule v*u = u*v + w\n",
        name="runaway",
    )
    with pytest.raises(RewriteLimitError) as err:
        pres.normal_form([("v", -1), ("u", -1)])
    assert str(err.value) == (
        "rewriting in 'runaway' does not terminate: the rule for "
        "v^-1*u^-1 at a word of length 2 needs its own result"
    )
    assert render_element(pres.normal_form([("v", 1), ("u", 1)])) == "u*v + w"


def test_entry_that_needs_itself_behind_an_odd_letter_fails_fast():
    # the implied rule for g2^-1 g1^-1 recreates its own redex behind g0,
    # which no correction holds; a fresh interpreter with a time limit, as a
    # normal form that keeps rewriting would exhaust memory
    code = (
        "from qdual.algebra import RewriteLimitError\n"
        "from qdual.presentations import load_presentation\n"
        "pres = load_presentation(\n"
        "    'generator g0 odd\\n'\n"
        "    'generator g1 even invertible\\n'\n"
        "    'generator g2 even invertible\\n'\n"
        "    'rule g1*g0 = q^2*g0*g1\\n'\n"
        "    'rule g2*g0 = -q*g0*g2\\n'\n"
        "    'rule g2*g1 = q^-1*g1*g2 + (1 + q^2)\\n', name='slow.qd')\n"
        "try:\n"
        "    pres.normal_form([('g0', 1), ('g2', -1), ('g1', -1)])\n"
        "except RewriteLimitError as err:\n"
        "    print(err)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, timeout=5)
    assert proc.stdout.decode() == (
        "rewriting in 'slow.qd' does not terminate: the rule for "
        "g2^-1*g1^-1 at a word of length 2 needs its own result\n"
    )


def test_scalar_elements_hash_like_their_coefficient():
    assert DUAL.one() == 1 and hash(DUAL.one()) == hash(1)
    assert DUAL.zero() == 0 and hash(DUAL.zero()) == hash(0)
    half = DUAL.scalar(scalar(1) / 2)
    assert half == scalar(1) / 2 and hash(half) == hash(scalar(1) / 2)
    assert DUAL.scalar(Q) == Q and hash(DUAL.scalar(Q)) == hash(Q)
    b = DUAL.gen("b")
    assert hash(b * DUAL.gen("b", -1)) == hash(1)
    assert len({DUAL.one(), 1, scalar(1)}) == 1


def test_rewrite_limit_names_presentation_word_and_rule(monkeypatch):
    monkeypatch.setattr(algebra, "_STEP_CAP", 0)
    # normal_form reads the pair table too, and the fuzz tests fill it:
    # start cold so the word needs a rule application
    monkeypatch.setattr(DUAL, "_pair_table", {})
    # the correction delta alpha of c*b^-1 survives behind the even prefix b,
    # whose letter the step-cap length counts
    with pytest.raises(RewriteLimitError) as err:
        DUAL.normal_form([("b", 1), ("c", 1), ("b", -1)])
    assert str(err.value) == (
        "rewriting in 'dual' exceeded the step cap of 0 at a word of "
        "length 3, applying the rule for c*b^-1"
    )
    # a table miss inside a product rewrites through the same capped engine
    monkeypatch.setattr(DUAL, "_pair_table", {})
    with pytest.raises(RewriteLimitError, match=r"length 4, .* rule for c\*b$"):
        DUAL.gen("c", 3) * DUAL.gen("b", 3)
    # whole-word rewriting, the engine of brute_force_nf, keeps the same cap
    with pytest.raises(RewriteLimitError) as err:
        DUAL.brute_force_nf([("alpha", 1), ("c", 1), ("b", -1)], 0)
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
    presentations.append(load_presentation(TWIST))
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
    monkeypatch.setattr(DUAL, "_pair_table", {})
    # alpha b * delta b = q alpha delta b^2 and delta b * alpha b is its
    # negative; alpha b * alpha b repeats an odd letter
    x = scalar(Fraction(3, 7)) * Q * (
        DUAL.normal_form([("alpha", 1), ("b", 1)])
        + DUAL.normal_form([("delta", 1), ("b", 1)])
    )
    assert (x * x).terms == ()
    # the element-level rows; one-block rows are stored alongside them
    monos = [m for m, _ in x.terms]
    rows = [DUAL._pair_table[m1, m2] for m1 in monos for m2 in monos]
    assert [len(row) for row in rows] == [0, 1, 1, 0]
    assert rows[1][0][0] == rows[2][0][0]


def test_repeated_product_adds_no_table_entry():
    rng = random.Random(88002)
    for pres in _pair_table_algebras():
        x = random_element(pres, rng, 3, 5)
        y = random_element(pres, rng, 3, 5)
        first = x * y
        size = len(pres._pair_table)
        assert (x * y).terms == first.terms
        assert len(pres._pair_table) == size


def test_pair_table_rows_are_stored_at_unit_coefficient(monkeypatch):
    split = load_presentation(SPLIT, name="split")
    cases = (
        (DUAL,
         DUAL.normal_form([("c", 3), ("alpha", 1)]) + DUAL.gen("delta"),
         DUAL.gen("b", 2) + DUAL.normal_form([("alpha", 1), ("b", -1)])),
        # y^3 * x^2 behind a asks for y^j * x under the odd mask of a
        (split,
         split.normal_form([("y", 3), ("a", 1)]) + split.gen("d"),
         split.gen("x", 2) + split.normal_form([("a", 1), ("x", 1)])),
    )
    s = scalar(Fraction(3, 7)) * Q
    for pres, x, y in cases:
        monkeypatch.setattr(pres, "_pair_table", {})
        scaled = (s * x) * y
        # every correction of dual vanishes behind its odd letters
        masked = any(len(key) == 3 for key in pres._pair_table)
        assert masked == (pres is split)
        for key, row in pres._pair_table.items():
            # an entry under an odd mask lacks the words that share its
            # letters
            m1, m2, mask = key if len(key) == 3 else key + (0,)
            want = _whole_word_nf(pres, m1 + m2)
            assert pres._element(dict(row)).terms == tuple(
                (m, k) for m, k in want.terms
                if not mask & algebra._odd_mask(pres, m))
        assert scaled.terms == (s * (x * y)).terms


def test_pair_that_shares_an_odd_letter_is_stored_as_zero(monkeypatch):
    monkeypatch.setattr(DUAL, "_pair_table", {})
    x = DUAL.normal_form([("alpha", 1), ("b", 1)])
    y = DUAL.normal_form([("alpha", 1), ("c", 1)])
    assert (x * y).is_zero
    # the element-level row only: no one-block pair was filled for it
    assert DUAL._pair_table == {(x.terms[0][0], y.terms[0][0]): ()}


def test_correction_that_vanishes_behind_odd_letters_is_a_swap(monkeypatch):
    monkeypatch.setattr(DUAL, "_pair_table", {})
    # c * b^-1 = b^-1 * c + (a word holding delta alpha), which vanishes
    # behind alpha: the block loop swaps and fills no pair entry
    word = [("alpha", 1), ("c", 1), ("b", -1)]
    got = DUAL.normal_form(word)
    assert DUAL._pair_table == {}
    assert got == _whole_word_nf(DUAL, word)
    assert got == DUAL.normal_form([("alpha", 1), ("b", -1), ("c", 1)])


def test_cold_suite_fills_a_bounded_table(monkeypatch):
    # the pair-table sizes of a cold run_suite(6): zero rows of pairs that
    # share an odd letter and swaps behind odd letters fill nothing more
    from qdual.checks import run_suite
    for pres in (DUAL, GL):
        for cache in ("_pair_table", "_keys"):
            monkeypatch.setattr(pres, cache, {})
    run_suite(6)
    assert len(DUAL._pair_table) <= 606
    assert len(GL._pair_table) <= 304
    for pres in (DUAL, GL):
        assert not any(len(key) == 3 for key in pres._pair_table)
        # one swap entry per rule, whatever the exponents it swapped at
        assert len(pres._swaps) <= len(pres._rules)


def test_swap_table_is_built_with_the_presentation(monkeypatch):
    # one entry per rule before any product, and a read-only table holds
    # through a cold suite: no product adds or replaces an entry
    from types import MappingProxyType
    from qdual.checks import run_suite
    from qdual.presentations import _authored
    builtins = [cli._algebra_by_name(name) for name in cli._BUILTIN_ALGEBRAS]
    fresh = [Presentation(pres.name, pres.generators, dict(_authored(pres)))
             for pres in builtins]
    fresh.append(load_presentation(SPLIT, name="split swaps"))
    for pres in fresh:
        assert not pres._pair_table
        assert pres._swaps.keys() == pres._rules.keys(), pres.name
    before = [dict(pres._swaps) for pres in builtins]
    for pres, swaps in zip(builtins, before):
        for cache in ("_pair_table", "_keys"):
            monkeypatch.setattr(pres, cache, {})
        monkeypatch.setattr(pres, "_swaps", MappingProxyType(dict(swaps)))
    run_suite(6)
    assert [pres._swaps for pres in builtins] == before


def test_long_swap_chain_keeps_one_entry_per_rule(monkeypatch):
    for cache in ("_pair_table", "_keys"):
        monkeypatch.setattr(DUAL, cache, {})
    DUAL.normal_form([("c", 3000), ("b", 1)])
    assert len(DUAL._swaps) <= len(DUAL._rules)


def _correction_bits(pres, rule):
    # the odd letters of a rule's corrections that repeat no odd letter
    bits = 0
    for _, u in pres._rules[rule][1]:
        if not algebra._has_repeated_odd(pres, u):
            bits |= algebra._odd_mask(pres, u)
    return bits


def test_masked_entries_carry_only_correction_bits(monkeypatch):
    # alpha holds no letter of c2*b2's correction delta2 alpha2, so c2^j * b2
    # behind alpha is the unmasked entry; in split, y^j * x behind a keeps
    # the bit of a, which the correction a*d holds
    cases = ((cli._algebra_by_name("dualxdual"),
              [("alpha", 1), ("c2", 2), ("b2", 1)]),
             (load_presentation(SPLIT, name="split"),
              [("a", 1), ("y", 3), ("x", 2)]))
    for pres, word in cases:
        for cache in ("_pair_table", "_keys"):
            monkeypatch.setattr(pres, cache, {})
        assert pres.normal_form(word) == _whole_word_nf(pres, word)
        masked = [key for key in pres._pair_table if len(key) == 3]
        assert bool(masked) == (pres.name == "split")
        for ((h, f),), ((g, e),), mask in masked:
            rule = (h, 1 if f > 0 else -1, g, 1 if e > 0 else -1)
            assert mask & ~_correction_bits(pres, rule) == 0, (h, f, g, e, mask)


# -- block products --------------------------------------------------------

def _random_monomial(rng, pres):
    # exponents up to 6 either way on invertible letters; odd letters, which
    # lead the order in most of these algebras, in a third of the draws
    mono = []
    for g, spec in enumerate(pres.generators):
        if spec.parity == ODD:
            if rng.random() < 1 / 3:
                mono.append((g, 1))
        elif rng.random() < 2 / 3:
            e = rng.randint(1, 6)
            mono.append((g, -e if spec.invertible and rng.random() < 0.5 else e))
    return tuple(mono)


# exchange factors lam = c*q^k with c a Fraction or an integer other than
# +-1, and one correction that vanishes behind a or d
SCALED_ODD = """
generator a odd
generator d odd
generator x even invertible
generator y even invertible
rule d*a = -a*d
rule x*a = 2*q*a*x
rule x*d = 1/2*d*x
rule y*a = -3*q^-1*a*y
rule y*d = q*d*y
rule y*x = 2/3*q*x*y + a*d
"""

# an exchange factor that is no Laurent monomial, raised per swap
POWER = """
generator b even invertible
generator c even invertible
rule c*b = (q+1)^16*b*c
"""


def test_block_products_match_whole_word_rewriting_fuzz(monkeypatch):
    # from cold tables: pair-table misses whose blocks all swap, and misses
    # that ask for a one-block pair, told apart by its calls
    calls = []
    block_pair = algebra._block_pair

    def counted(*args, **kwargs):
        calls.append(None)
        return block_pair(*args, **kwargs)

    monkeypatch.setattr(algebra, "_block_pair", counted)
    rng = random.Random(19001)
    presentations = [
        DUAL, GL, cli._algebra_by_name("dualxplane"),
        cli._algebra_by_name("dualxdual"), load_presentation(TWIST),
        load_presentation(SCALED), cli._algebra_by_name("glxplane"),
        load_presentation(SCALED_ODD, name="scaled_odd"),
        load_presentation(POWER, name="power"),
    ]
    for pres in presentations:
        for cache in ("_pair_table", "_keys"):
            monkeypatch.setattr(pres, cache, {})
        paths = {"swaps": 0, "one-block pair": 0}
        for _ in range(120):
            m1 = _random_monomial(rng, pres)
            m2 = _random_monomial(rng, pres)
            miss = (m1, m2) not in pres._pair_table
            before = len(calls)
            got = pres._element({m1: ONE}) * pres._element({m2: ONE})
            assert got == _whole_word_nf(pres, m1 + m2), (pres.name, m1, m2)
            if miss and (m1, m2) in pres._pair_table:
                paths["one-block pair" if len(calls) > before else "swaps"] += 1
        assert paths["swaps"], pres.name
        # only a rule with a correction can stop a swap
        corrections = any(corr for _, corr in pres._rules.values())
        assert bool(paths["one-block pair"]) == corrections, pres.name


def test_long_block_products_have_two_terms():
    # b^n c^n and alpha delta b^(n-1) c^(n-1), at either sign of n; checked
    # against multiplying the last letter b in by itself
    for n in (512, -300):
        s = 1 if n > 0 else -1
        got = DUAL.gen("c", n) * DUAL.gen("b", n)
        assert len(got.terms) == 2
        assert got == (DUAL.gen("c", n) * DUAL.gen("b", n - s)) * DUAL.gen("b", s)


def test_q_commuting_swap_fills_no_one_block_pair(monkeypatch):
    monkeypatch.setattr(DUAL, "_pair_table", {})
    x = DUAL.normal_form([("b", 50), ("c", 50)])
    y = DUAL.normal_form([("alpha", 1), ("delta", 1)])
    got = x * y
    # alpha and delta each pass b^50 and c^50 at q per letter
    assert got == q_power(200) * DUAL.normal_form(
        [("alpha", 1), ("delta", 1), ("b", 50), ("c", 50)])
    # the element-level pair only
    assert set(DUAL._pair_table) == {(x.terms[0][0], y.terms[0][0])}


def test_block_product_needs_no_deep_recursion():
    # exponents far past the recursion limit in both factors of dualxdual;
    # checked against multiplying y in one letter at a time
    code = (
        "import sys\n"
        "from qdual import cli\n"
        "p = cli._algebra_by_name('dualxdual')\n"
        "w1 = [('b', -300), ('c', 300), ('alpha2', 1), ('b2', 300), ('c2', -300)]\n"
        "w2 = [('b', 300), ('c', -300), ('delta2', 1), ('b2', -300), ('c2', 300)]\n"
        "x, y = p.normal_form(w1), p.normal_form(w2)\n"
        "limit = sys.getrecursionlimit()\n"
        "sys.setrecursionlimit(200)\n"
        "got = x * y\n"
        "sys.setrecursionlimit(limit)\n"
        "want = x\n"
        "for g, e in w2:\n"
        "    for _ in range(abs(e)):\n"
        "        want = want * p.gen(g, 1 if e > 0 else -1)\n"
        "assert len(got.terms) == 2 and got == want, got\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
    for pres in (DUAL, GL, PLANE, DPLANE):
        for _ in range(80):
            x = random_element(pres, rng)
            rebuilt = pres.zero()
            for mono, coeff in x.terms:
                rebuilt = rebuilt + pres.normal_form(mono, coeff)
            assert rebuilt == x


def test_confluence_fuzz():
    """Seeded random reduction orders all reach the deterministic answer."""
    rng = random.Random(616)
    presentations = (DUAL, GL, PLANE, DPLANE)
    for i in range(504):
        pres = presentations[i % len(presentations)]
        word = random_word(pres, rng, 8)
        expected = pres.normal_form(word)
        for seed in range(5):
            assert pres.brute_force_nf(word, seed) == expected


# -- whole-word rewriting -----------------------------------------------------

def _eager_reduce(pres, items, *, rng=None, prune=True):
    # whole-word rewriting as a plain reference: every rule application
    # multiplies its word's coefficient at once, and with prune off a word
    # that repeats an odd letter is rewritten until it sorts to zero
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
            # sorted: a repeated odd letter is an odd square
            if not algebra._has_repeated_odd(pres, word):
                m = algebra._word_blocks(word)
                c0 = acc.get(m)
                acc[m] = coeff if c0 is None else c0 + coeff
            continue
        t = redexes[0] if rng is None else rng.choice(redexes)
        lam, corr = pres._rules[word[t] + word[t + 1]]
        head, tail = word[:t], word[t + 2:]
        pending.append((coeff * lam, head + (word[t + 1], word[t]) + tail))
        for mu, u in corr:
            pending.append((coeff * mu, head + u + tail))
    return acc


class _LoggedRules(dict):
    # a presentation's rule table that logs each lookup by key
    def __init__(self, pres, log):
        super().__init__(pres._rules)
        self.name, self.log = pres.name, log

    def __getitem__(self, key):
        self.log.append((self.name, key))
        return super().__getitem__(key)


def _log_rules(monkeypatch, presentations):
    # every rule application, in order, across the given presentations
    log = []
    for pres in presentations:
        monkeypatch.setattr(pres, "_rules", _LoggedRules(pres, log))
    return log


def _structure(acc):
    # a {monomial: coefficient} map down to its tuples and coefficient types
    return [
        (m, type(c), c.num, c.den, [type(k) for _, k in c.num + c.den])
        for m, c in acc.items()
    ]


def test_reduce_matches_eager_reference_fuzz(monkeypatch):
    # rule for rule, in leftmost and in seeded order
    algebras = _pair_table_algebras()
    log = _log_rules(monkeypatch, algebras)
    rng = random.Random(50321)
    scales = (ONE, scalar(0), scalar(-1)) + _SCALES
    for pres in algebras:
        for _ in range(30):
            items = [
                (rng.choice(scales), pres.letters(random_word(pres, rng, 6)))
                for _ in range(rng.randrange(1, 4))
            ]
            for seed in (None, rng.randrange(2**32)):
                runs = []
                for reduce in (_eager_reduce, algebra._reduce):
                    log.clear()
                    draws = None if seed is None else random.Random(seed)
                    got = reduce(pres, items, rng=draws)
                    runs.append((_structure(got), list(log)))
                assert runs[0] == runs[1]


def test_dropping_words_that_repeat_an_odd_letter_is_sound_fuzz():
    # every presentation without inverse letters, where the unpruned
    # reference terminates; gl's d*a rule has an odd correction
    rng = random.Random(31337)
    for pres in (GL, PLANE, DPLANE, tensor(GL, PLANE)):
        odd = [i for i, g in enumerate(pres.generators) if g.parity == ODD]
        for k in range(40):
            word = random_word(pres, rng, 5)
            if k % 2:
                # an odd letter twice, at random places
                for _ in range(2):
                    word.insert(rng.randrange(len(word) + 1), (rng.choice(odd), 1))
            items = [(ONE, pres.letters(word))]
            want = pres._element(_eager_reduce(pres, items, prune=False))
            assert pres.brute_force_nf(word, rng.randrange(2**32)) == want


def test_oracle_drops_a_word_that_repeats_an_odd_letter(monkeypatch):
    # C16's costliest word at fuzz seed 6 repeats the odd letter beta, so it
    # is zero before any rule is applied
    word = [(3, 2), (3, 1), (2, 2), (2, 2), (0, 1), (0, 1), (2, 2)]
    log = _log_rules(monkeypatch, [GL])
    for seed in (0, 1, 2, 3):
        assert GL.brute_force_nf(word, seed).is_zero
        assert log == []


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
    two = tensor(DUAL, rename(DUAL, "2"))
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


def test_generator_spec_value_semantics():
    spec = GeneratorSpec("b", EVEN, invertible=True)
    assert repr(spec) == "GeneratorSpec(name='b', parity=0, invertible=True)"
    assert repr(GeneratorSpec(name="xi", parity=ODD)) == (
        "GeneratorSpec(name='xi', parity=1, invertible=False)")
    assert spec == GeneratorSpec("b", EVEN, True)
    assert hash(spec) == hash(GeneratorSpec("b", EVEN, True))
    assert spec != GeneratorSpec("b", EVEN) and spec != GeneratorSpec("c", EVEN, True)
    for attr in ("name", "parity", "invertible", "extra"):
        with pytest.raises(AttributeError):
            setattr(spec, attr, None)
    for args, message in (
        (("z", 2), "bad parity for 'z'"),
        (("z", ODD, True), "odd generator 'z' cannot be invertible"),
        (("2z", EVEN), "generator name '2z' is not an identifier"),
        (("q", EVEN), "'q' is the scalar indeterminate, not a valid generator name"),
    ):
        with pytest.raises(PresentationError) as info:
            GeneratorSpec(*args)
        assert str(info.value) == message
    with pytest.raises(PresentationError):
        spec._replace(parity=ODD)


def test_generator_q_is_rejected_on_every_route():
    # a generator named q would render as the indeterminate, so its text
    # could not round-trip; the API refuses it as the descriptor loader does
    with pytest.raises(PresentationError) as info:
        Presentation("x", [GeneratorSpec("q", EVEN)], {})
    assert "'q' is the scalar indeterminate" in str(info.value)
    with pytest.raises(PresentationError) as info:
        GeneratorSpec("x", EVEN)._replace(name="q")
    assert "'q' is the scalar indeterminate" in str(info.value)


def test_rejects_duplicate_generator_names():
    gens = _gens(("u", EVEN, False), ("u", ODD, False))
    with pytest.raises(PresentationError):
        Presentation("bad", gens, {(1, 1, 0, 1): (ONE, ())})


def test_rejects_missing_rule():
    gens = _gens(("u", EVEN, False), ("v", EVEN, False))
    with pytest.raises(PresentationError):
        Presentation("bad", gens, {})


@pytest.mark.parametrize("key, corr, message", [
    ((5, 1, 0, 1), (), "rule references unknown generator"),
    ((1, -1, 0, 1), (), "hand-written rules must relate plain letters; "
     "inverse-letter rules are derived, not authored"),
    ((1, 1, 0, 1), ((ONE - ONE, ()),),
     "zero or non-scalar correction coefficient"),
    ((1, 1, 0, 1), ((2, ()),), "zero or non-scalar correction coefficient"),
    ((1, 1, 0, 1), ((ONE, ((7, 1),)),),
     "correction references unknown generator"),
    ((1, 1, 0, 1), ((ONE, ((0, 2),)),), "bad letter sign in correction"),
    ((1, 1, 0, 1), ((ONE, ((0, -1),)),), "correction inverts non-invertible 'u'"),
])
def test_rejects_malformed_rule(key, corr, message):
    gens = _gens(("u", EVEN, False), ("v", EVEN, True))
    with pytest.raises(PresentationError) as info:
        Presentation("bad", gens, {key: (Q, corr)})
    assert str(info.value) == message


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


def test_normal_form_expands_no_letters(monkeypatch):
    def refuse(self, word):
        raise AssertionError("normal_form expanded a word into letters")

    monkeypatch.setattr(Presentation, "letters", refuse)
    assert str(DUAL.gen("c", 10**9)) == "c^1000000000"
    assert str(DUAL.gen("b", -10**9)) == "b^-1000000000"
    # adjacent runs of one generator merge; an odd letter twice is zero
    assert str(DUAL.normal_form([("c", 3), ("b", 0), ("c", -1)])) == "c^2"
    assert DUAL.normal_form([("alpha", 1), ("b", 2), ("alpha", 1)]).is_zero
    assert DUAL.gen("delta", 2).is_zero
    # every pair is checked, also behind a word that is zero
    with pytest.raises(NonInvertiblePowerError):
        DUAL.normal_form([("alpha", 2), ("delta", -1)])


def test_letters_validation():
    with pytest.raises(AlgebraError):
        DUAL.normal_form([("nosuch", 1)])
    with pytest.raises(AlgebraError):
        DUAL.normal_form([("b", "2")])
    assert DUAL.normal_form([("b", 0)]) == DUAL.one()

"""The expression parser and its round trip through the printer."""

import random

import pytest

from qdual import algebra, parsing
from qdual.algebra import render_element
from qdual.parsing import ParseError, parse_element, parse_raw_terms
from qdual.presentations import (
    dual_algebra,
    dual_superplane,
    gl_algebra,
    rename,
    superplane,
    tensor,
)
from qdual.qfield import Q, q_power

from helpers import random_element

DUAL = dual_algebra()
GL = gl_algebra()


def test_parse_basic_expressions():
    assert parse_element("c*b", DUAL) == DUAL.gen("c") * DUAL.gen("b")
    assert parse_element("c*b - q*delta*alpha", DUAL) == (
        DUAL.gen("c") * DUAL.gen("b")
        - Q * (DUAL.gen("delta") * DUAL.gen("alpha"))
    )
    assert parse_element("q^-1 * b^2", DUAL) == q_power(-1) * DUAL.gen("b", 2)
    assert parse_element("3", DUAL) == DUAL.scalar(3)
    assert parse_element("1/2 * b", DUAL) == DUAL.normal_form(
        [("b", 1)], q_power(0) / 2
    )


def test_parse_unary_minus_and_parens():
    assert parse_element("-alpha*delta + b*c", DUAL) == (
        DUAL.gen("b") * DUAL.gen("c")
        - DUAL.gen("alpha") * DUAL.gen("delta")
    )
    assert parse_element("-(b - c)", DUAL) == DUAL.gen("c") - DUAL.gen("b")
    assert parse_element("(q^2 - 1)/(q)*alpha*delta", DUAL) == (
        (Q * Q - q_power(0)) / Q
    ) * (DUAL.gen("alpha") * DUAL.gen("delta"))


def test_parse_inverse_letters():
    got = parse_element("b*c^-1 - alpha*c^-1*delta*c^-1", DUAL)
    assert render_element(got) == "b*c^-1 - (1)/(q)*alpha*delta*c^-2"
    # a whole parenthesized monomial can be inverted letterwise
    assert parse_element("(q*b*c)^-1", DUAL) == q_power(-1) * (
        DUAL.gen("c", -1) * DUAL.gen("b", -1)
    )


def test_parse_scalar_division():
    assert parse_element("b/2", DUAL) == parse_element("1/2*b", DUAL)
    assert parse_element("b/(q - q^-1)", DUAL) == (
        (Q - q_power(-1)).inv() * DUAL.gen("b")
    )


@pytest.mark.parametrize("text, message, position", [
    ("c*(", "unexpected end of input", 3),
    ("", "unexpected end of input", 0),
    ("z*b", "unknown generator 'z'", 0),
    ("q^x", "exponent must be an integer", 2),
    ("b^", "exponent must be an integer", 2),
    ("b @ c", "unexpected character '@'", 2),
    ("1.5*b", "unexpected character '.'", 1),
    ("b c", "unexpected 'c'", 2),
    ("b/c", "divisor must be a scalar expression", 1),
    ("b/0", "division by zero", 1),
    ("0^-1", "cannot invert zero", 1),
    ("(alpha + delta)^-1", "cannot invert a sum of monomials", 15),
    ("alpha^-1", "negative power of a non-invertible generator", 5),
    ("b^513", "exponent outside -512..512", 2),
    ("b^-99999999999999999999", "exponent outside -512..512", 3),
    pytest.param("9" * 4301 + "*b", "integer literal longer than 4300 digits",
                 0, id="long-literal"),
    pytest.param("b^" + "1" * 4301, "integer literal longer than 4300 digits",
                 2, id="long-exponent-literal"),
    ("((b^512)^512)^16", "a term longer than 65536 letters", 8),
])
def test_parse_errors(text, message, position, monkeypatch):
    monkeypatch.setattr(DUAL, "normal_form", None)  # any algebra would fail
    with pytest.raises(ParseError) as err:
        parse_element(text, DUAL)
    assert message in str(err.value)
    assert err.value.position == position


def test_deep_nesting_is_rejected_before_any_algebra(monkeypatch):
    # 100 levels parse; the 101st opening parenthesis is refused, well
    # before the recursive descent could exhaust the interpreter's stack
    assert parse_element("(" * 100 + "b" + ")" * 100, DUAL) == DUAL.gen("b")
    monkeypatch.setattr(DUAL, "normal_form", None)  # any algebra would fail
    for depth in (101, 2000):
        with pytest.raises(ParseError) as err:
            parse_element("(" * depth + "b" + ")" * depth, DUAL)
        assert "parentheses nested more than 100 deep" in str(err.value)
        assert err.value.position == 100
    with pytest.raises(ParseError) as err:
        parse_raw_terms("(" * 2000 + "1" + ")" * 2000, {})
    assert err.value.position == 100


def test_each_call_parses_once(monkeypatch):
    passes = []
    parse = parsing._Parser.parse
    monkeypatch.setattr(parsing._Parser, "parse",
                        lambda self: passes.append(1) or parse(self))
    assert parse_element("(b + c)^3/(q + 1) - (c*b)^-2", DUAL) == (
        (DUAL.gen("b") + DUAL.gen("c")) ** 3 * (Q + 1).inv()
        - (DUAL.gen("b", -1) * DUAL.gen("c", -1)) ** 2)
    assert len(passes) == 1
    parse_raw_terms("(b + c)^3/(q + 1)", {"b": (0, True), "c": (1, True)})
    assert len(passes) == 2


def test_raw_terms_fold_scalars_and_are_capped(monkeypatch):
    bc = {"b": (0, True), "c": (1, True)}
    # a scalar factor is one raw term, not 2^16 of them
    assert parse_raw_terms("(q + 1)^16*b", bc) == [((Q + 1) ** 16, ((0, 1),))]
    assert len(parse_raw_terms("(b + c)^12", bc)) == 4096
    monkeypatch.setattr(parsing, "_run", None)  # nothing may be built
    for text, position in (("(b + c)^12*b + c", 13), ("(b + c)^30", 7)):
        with pytest.raises(ParseError) as err:
            parse_raw_terms(text, bc)
        assert "expands to more than 4096 raw terms" in str(err.value)
        assert err.value.position == position


def test_raw_terms_total_letters_are_capped(monkeypatch):
    bc = {"b": (0, True), "c": (1, True)}
    # 4096 words of 12 letters, under the cap of 65,536
    assert sum(len(w) for _, w in parse_raw_terms("(b + c)^12", bc)) == 49152
    monkeypatch.setattr(parsing, "_MAX_LETTERS", 12)
    # at the cap: bcbc + bcc + cbc + cc
    assert sum(len(w) for _, w in parse_raw_terms("(b*c + c)^2", bc)) == 12
    # an element is normalized as it is built, so its text has no such cap
    assert parse_element("(b*c + c)^3", DUAL) == (
        DUAL.gen("b") * DUAL.gen("c") + DUAL.gen("c")) ** 3
    monkeypatch.setattr(parsing, "_run", None)  # nothing may be built
    for text, position in (("(b*c + c)^2 + b", 12), ("(b*c + c)^2*b", 11),
                           ("(b*c + c)^3", 9), ("(b + c)^11", 7)):
        with pytest.raises(ParseError) as err:
            parse_raw_terms(text, bc)
        assert "expands to more than 12 letters" in str(err.value)
        assert err.value.position == position


def test_term_letters_are_capped_before_the_word_is_built(monkeypatch):
    bc = {"b": (0, True), "c": (1, True)}
    monkeypatch.setattr(parsing, "_MAX_LETTERS", 8)
    built = []
    join, repeat = parsing._join, parsing._repeat
    monkeypatch.setattr(parsing, "_join", lambda s, t: built.append(
        len(s[1]) + len(t[1])) or join(s, t))
    monkeypatch.setattr(parsing, "_repeat", lambda t, k: built.append(
        len(t[1]) * k) or repeat(t, k))
    # at the cap
    assert parse_element("(b^2)^2*b^4", DUAL) == DUAL.gen("b", 8)
    assert len(parse_raw_terms("(b*c)^-4", bc)[0][1]) == 8
    monkeypatch.setattr(parsing, "_run", None)  # nothing may be built
    for text, position in (("(b^2)^2*b^5", 7), ("(b*c)^-5", 5),
                           ("((b^3)^3)^0", 6)):
        for parse in (lambda t: parse_element(t, DUAL),
                      lambda t: parse_raw_terms(t, bc)):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert "a term longer than 8 letters" in str(err.value)
            assert err.value.position == position
    assert max(built) == 8


def test_parse_error_in_gl_for_undeclared_inverse():
    with pytest.raises(ParseError) as err:
        parse_element("a^-1", GL)
    assert "non-invertible" in str(err.value)


def test_round_trip_fuzz():
    """render -> parse is the identity on ≥200 random normal forms."""
    rng = random.Random(140)
    presentations = (
        DUAL,
        GL,
        superplane(),
        dual_superplane(),
        tensor(DUAL, rename(DUAL, "2")),
    )
    done = 0
    while done < 210:
        pres = presentations[done % len(presentations)]
        x = random_element(pres, rng)
        text = render_element(x)
        assert parse_element(text, pres) == x
        done += 1


def _random_expr(rng, names, depth):
    """Random expression text: sums, products, powers of both signs and
    scalar division, small enough to expand into raw words."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names + ["q", "2", "3", "0"])
    a = _random_expr(rng, names, depth - 1)
    kind = rng.randrange(6)
    if kind == 0:
        b = _random_expr(rng, names, depth - 1)
        return f"({a} {rng.choice('+-')} {b})"
    if kind == 1:
        return f"{a}*{_random_expr(rng, names, depth - 1)}"
    if kind == 2:
        return f"({a})^{rng.randrange(4)}"
    if kind == 3:
        return f"({a})^-{rng.randrange(1, 3)}"
    if kind == 4:
        return f"{a}/{rng.choice(['2', '(q + 1)', 'q^-1', '(q - q)', 'b'])}"
    return f"-{a}"


def _raw_oracle(text, pres):
    # the raw expansion, each word rewritten whole: never reads the table
    resolver = {
        g.name: (i, g.invertible) for i, g in enumerate(pres.generators)
    }
    terms = parse_raw_terms(text, resolver)
    return pres._element(algebra._reduce(pres, terms))


def test_element_backend_matches_raw_expansion_fuzz():
    rng = random.Random(20260)
    cases = (
        (DUAL, ["b", "c", "alpha", "delta", "(c*b)", "(b*c^-1)"]),
        (GL, ["a", "d", "beta", "gamma"]),
        (tensor(DUAL, superplane()), ["b", "c", "alpha", "x", "xi"]),
    )
    outcomes = {"value": 0, "error": 0}
    for pres, names in cases:
        for _ in range(150):
            text = _random_expr(rng, names, 3)
            try:
                want = _raw_oracle(text, pres)
            except ParseError as err:
                with pytest.raises(ParseError) as got:
                    parse_element(text, pres)
                assert (str(got.value), got.value.position) == (
                    str(err), err.position)
                outcomes["error"] += 1
                continue
            assert parse_element(text, pres) == want, text
            outcomes["value"] += 1
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("text, message, position", [
    ("b/(b*b^-1)", "divisor must be a scalar expression", 1),
    ("(b - b)^-1", "cannot invert a sum of monomials", 7),
    ("(0*b)^-1", "cannot invert zero", 5),
    ("(b+c)^12 +", "unexpected end of input", 10),
    # a scalar factor is one raw term, but the shape counts its summands
    ("((q + 1)*b)^-1", "cannot invert a sum of monomials", 11),
])
def test_errors_are_decided_on_the_raw_shape(text, message, position,
                                             monkeypatch):
    monkeypatch.setattr(DUAL, "normal_form", None)  # any algebra would fail
    with pytest.raises(ParseError) as err:
        parse_element(text, DUAL)
    assert message in str(err.value)
    assert err.value.position == position


def test_negative_power_inverts_the_raw_word():
    # c*b has two normal-form terms, but its raw expansion is one word
    got = parse_element("(c*b)^-1", DUAL)
    assert got == DUAL.gen("b", -1) * DUAL.gen("c", -1)
    assert got * parse_element("c*b", DUAL) == DUAL.one()
    # a zero exponent is no inverse, whatever its sign
    assert parse_element("alpha^-0 + (b + c)^-0 + 0^-0", DUAL) == DUAL.scalar(3)

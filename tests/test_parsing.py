"""The expression parser and its round trip through the printer."""

import random

import pytest

from qdual import algebra
from qdual.algebra import render_element
from qdual.parsing import ParseError, parse_element, parse_raw_terms
from qdual.presentations import (
    derive_inverse_rules,
    dual_algebra,
    dual_superplane,
    gl_algebra,
    rename,
    superplane,
    tensor,
)
from qdual.qfield import Q, q_power

from helpers import random_element

DDUAL = derive_inverse_rules(dual_algebra())
GL = gl_algebra()


def test_parse_basic_expressions():
    assert parse_element("c*b", DDUAL) == DDUAL.gen("c") * DDUAL.gen("b")
    assert parse_element("c*b - q*delta*alpha", DDUAL) == (
        DDUAL.gen("c") * DDUAL.gen("b")
        - Q * (DDUAL.gen("delta") * DDUAL.gen("alpha"))
    )
    assert parse_element("q^-1 * b^2", DDUAL) == q_power(-1) * DDUAL.gen("b", 2)
    assert parse_element("3", DDUAL) == DDUAL.scalar(3)
    assert parse_element("1/2 * b", DDUAL) == DDUAL.normal_form(
        [("b", 1)], q_power(0) / 2
    )


def test_parse_unary_minus_and_parens():
    assert parse_element("-alpha*delta + b*c", DDUAL) == (
        DDUAL.gen("b") * DDUAL.gen("c")
        - DDUAL.gen("alpha") * DDUAL.gen("delta")
    )
    assert parse_element("-(b - c)", DDUAL) == DDUAL.gen("c") - DDUAL.gen("b")
    assert parse_element("(q^2 - 1)/(q)*alpha*delta", DDUAL) == (
        (Q * Q - q_power(0)) / Q
    ) * (DDUAL.gen("alpha") * DDUAL.gen("delta"))


def test_parse_inverse_letters():
    got = parse_element("b*c^-1 - alpha*c^-1*delta*c^-1", DDUAL)
    assert render_element(got) == "b*c^-1 - (1)/(q)*alpha*delta*c^-2"
    # a whole parenthesized monomial can be inverted letterwise
    assert parse_element("(q*b*c)^-1", DDUAL) == q_power(-1) * (
        DDUAL.gen("c", -1) * DDUAL.gen("b", -1)
    )


def test_parse_scalar_division():
    assert parse_element("b/2", DDUAL) == parse_element("1/2*b", DDUAL)
    assert parse_element("b/(q - q^-1)", DDUAL) == (
        (Q - q_power(-1)).inv() * DDUAL.gen("b")
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
])
def test_parse_errors(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_element(text, DDUAL)
    assert message in str(err.value)
    assert err.value.position == position


def test_parse_error_in_gl_for_undeclared_inverse():
    with pytest.raises(ParseError) as err:
        parse_element("a^-1", GL)
    assert "non-invertible" in str(err.value)


def test_round_trip_fuzz():
    """render -> parse is the identity on ≥200 random normal forms."""
    rng = random.Random(140)
    presentations = (
        DDUAL,
        GL,
        superplane(),
        dual_superplane(),
        tensor(DDUAL, rename(DDUAL, "2")),
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
        (DDUAL, ["b", "c", "alpha", "delta", "(c*b)", "(b*c^-1)"]),
        (GL, ["a", "d", "beta", "gamma"]),
        (tensor(DDUAL, superplane()), ["b", "c", "alpha", "x", "xi"]),
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
])
def test_errors_are_decided_on_the_raw_shape(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_element(text, DDUAL)
    assert message in str(err.value)
    assert err.value.position == position


def test_negative_power_inverts_the_raw_word():
    # c*b has two normal-form terms, but its raw expansion is one word
    got = parse_element("(c*b)^-1", DDUAL)
    assert got == DDUAL.gen("b", -1) * DDUAL.gen("c", -1)
    assert got * parse_element("c*b", DDUAL) == DDUAL.one()

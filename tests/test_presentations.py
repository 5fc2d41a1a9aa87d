"""Builtin presentations and the text descriptor format."""

import pytest

from qdual import cli
from qdual.algebra import EVEN, ODD, PresentationError, render_element
from qdual.presentations import (
    derive_inverse_rules,
    dual_algebra,
    dual_superplane,
    gl_algebra,
    load_presentation,
    load_presentation_file,
    rename,
    superplane,
    tensor,
)
from qdual.qfield import ONE, Q, q_power


def test_builtin_shapes():
    d = dual_algebra()
    assert [g.name for g in d.generators] == ["alpha", "delta", "b", "c"]
    assert [g.parity for g in d.generators] == [ODD, ODD, EVEN, EVEN]
    assert [g.invertible for g in d.generators] == [False, False, True, True]
    g = gl_algebra()
    assert [g.name for g in g.generators] == ["beta", "gamma", "a", "d"]
    assert [s.parity for s in g.generators] == [ODD, ODD, EVEN, EVEN]
    assert [g.name for g in superplane().generators] == ["x", "xi"]
    assert [g.name for g in dual_superplane().generators] == ["eta", "y"]


def test_builtins_are_cached():
    assert dual_algebra() is dual_algebra()
    assert gl_algebra() is gl_algebra()
    d = derive_inverse_rules(dual_algebra())
    assert derive_inverse_rules(dual_algebra()) is d
    assert rename(d, "2") is rename(d, "2")
    assert rename(d, "2") is not rename(d, "3")
    t = tensor(gl_algebra(), superplane())
    assert tensor(gl_algebra(), superplane()) is t
    assert tensor(gl_algebra(), superplane(), name="glxplane") is t
    assert tensor(gl_algebra(), superplane(), name="gp") is not t
    pair = tensor(d, rename(d, "2"), name="dualxdual")
    assert tensor(d, rename(d, "2"), name="dualxdual") is pair


# the dual entry algebra as the README quotes it
DUAL_TEXT = """
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
"""


def test_builtins_are_descriptor_loads():
    assert load_presentation(DUAL_TEXT, name="dual") is dual_algebra()


def test_unit_coefficients_are_the_one_singleton():
    # the engine skips multiplications by `is ONE`; a unit coefficient that
    # is a fresh object (parsed, or from lam.inv()) makes it do them all
    algebras = [build() for build in cli._BUILTIN_ALGEBRAS.values()]
    algebras.append(derive_inverse_rules(load_presentation(DUAL_TEXT, "copy")))
    units = [
        (pres.name, c)
        for pres in algebras
        for lam, corr in pres._rules.values()
        for c in (lam, *(mu for mu, _ in corr))
        if c == ONE
    ]
    assert units
    assert [name for name, c in units if c is not ONE] == []


def test_derive_inverse_rules_is_idempotent():
    d = derive_inverse_rules(dual_algebra())
    assert d.derived
    assert derive_inverse_rules(d) is d
    assert not dual_algebra().derived


def test_tensor_default_name():
    t = tensor(gl_algebra(), superplane())
    assert t.name == "glxplane"
    assert [g.name for g in t.generators] == [
        "beta", "gamma", "a", "d", "x", "xi",
    ]


DESCRIPTOR = """
# a two-generator quantum plane with an invertible even coordinate
generator u even invertible
generator theta odd

rule theta*u = q^2 * u*theta   # exchange with a scalar only
"""


def test_descriptor_round_trip():
    pres = load_presentation(DESCRIPTOR, name="twist")
    assert pres.name == "twist"
    assert [g.name for g in pres.generators] == ["u", "theta"]
    got = pres.normal_form([("theta", 1), ("u", 1)])
    assert got == pres.normal_form([("u", 1), ("theta", 1)], Q * Q)
    derived = derive_inverse_rules(pres)
    th = derived.gen("theta")
    ui = derived.gen("u", -1)
    assert th * ui == q_power(-2) * (ui * th)


def test_descriptor_with_correction_term():
    text = """
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
    """
    pres = load_presentation(text)
    got = pres.normal_form([("c", 1), ("b", 1)])
    assert render_element(got) == "b*c + (q^2 - 1)/(q)*alpha*delta"


def test_descriptor_file(tmp_path):
    path = tmp_path / "twist.txt"
    path.write_text(DESCRIPTOR, encoding="utf-8")
    pres = load_presentation_file(path)
    assert [g.name for g in pres.generators] == ["u", "theta"]


def test_descriptor_loads_are_interned():
    pres = load_presentation(DESCRIPTOR, name="twist")
    derived = derive_inverse_rules(pres)
    size = derive_inverse_rules.cache_info().currsize
    for _ in range(2000):
        again = load_presentation(DESCRIPTOR, name="twist")
        assert again is pres
        assert derive_inverse_rules(again) is derived
    assert derive_inverse_rules.cache_info().currsize == size
    # the name and the rules are part of the structure
    assert load_presentation(DESCRIPTOR, name="other") is not pres
    steeper = DESCRIPTOR.replace("q^2", "q^3")
    assert load_presentation(steeper, name="twist") is not pres


# u*theta = theta*u + phi drops theta: (theta*u)*theta would be 0 by the
# repeated-odd shortcut, but theta*(u*theta) = theta*phi
ODD_LETTER_DROPPED = """
generator theta odd
generator phi odd
generator u even
rule phi*theta = -theta*phi
rule u*theta = theta*u + phi
rule u*phi = phi*u
"""


@pytest.mark.parametrize("text, fragment", [
    ("generator q even\n", "'q' is the scalar indeterminate"),
    ("generator u even\ngenerator v even\nrule u*v = q*v*u\nfoo bar\n",
     "unknown directive"),
    ("generator u even\ngenerator v even\nrule v*u q*u*v\n", "rule needs '='"),
    ("generator u even maybe\n", "unknown flag"),
    ("generator u sideways\n", "expected 'generator"),
    ("generator theta odd invertible\n", "cannot be invertible"),
    ("rule v*u = q*u*v\n", "declares no generators"),
    ("generator u even\ngenerator v even\nrule w*u = q*u*w\n",
     "known generators"),
    ("generator u even\ngenerator v even\nrule v*u = q*u*u\n",
     "nonzero coefficient"),
    ("generator u even\ngenerator v even\nrule v*u = 0*u*v\n",
     "nonzero coefficient"),
    ("generator u even\ngenerator v even\n"
     "rule v*u = q*u*v\nrule v*u = u*v\n", "duplicate rule"),
    ("generator u even\ngenerator v even\nrule v*u = q*(u*v\n", "line 3"),
    ("generator u even\ngenerator v even\n", "missing exchange rule"),
    ("generator u even\ngenerator u odd\nrule u*u = q*u*u\n", "duplicate"),
    (ODD_LETTER_DROPPED,
     "correction in rule (u, theta) drops the odd letter 'theta'"),
])
def test_descriptor_rejections(text, fragment):
    with pytest.raises(PresentationError) as err:
        load_presentation(text)
    assert fragment in str(err.value)


def test_builtin_corrections_keep_the_odd_letters_of_their_pair():
    # built-in and derived rule tables skip validation; they must still obey
    # the rule that makes a repeated odd letter zero
    d = derive_inverse_rules(dual_algebra())
    for pres in (dual_algebra(), d, gl_algebra(), superplane(),
                 dual_superplane(), tensor(gl_algebra(), superplane()),
                 tensor(d, superplane()),
                 tensor(d, rename(d, "2"), name="dualxdual")):
        for (gj, _, gi, _), (_, corr) in pres._rules.items():
            odd = {g for g in (gi, gj) if pres.generators[g].parity == ODD}
            for _, word in corr:
                assert odd <= {g for g, _ in word}, (pres.name, gj, gi, word)

"""Builtin presentations and the text descriptor format."""

import copy
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qdual import cli, presentations
from qdual.algebra import (
    EVEN,
    ODD,
    Presentation,
    PresentationError,
    render_element,
)
from qdual.parsing import parse_element
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
    d = dual_algebra()
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


# dual (x) plane spelled out: the factors' rules, then x and xi commuting
# with the dual letters up to the Koszul sign
DUALXPLANE_TEXT = DUAL_TEXT + """
generator x even
generator xi odd
rule xi*x = q^-1*x*xi
rule x*alpha = alpha*x
rule x*delta = delta*x
rule x*b = b*x
rule x*c = c*x
rule xi*alpha = -alpha*xi
rule xi*delta = -delta*xi
rule xi*b = b*xi
rule xi*c = c*xi
"""


def test_builtins_are_descriptor_loads():
    assert load_presentation(DUAL_TEXT, name="dual") is dual_algebra()


def test_tensor_and_rename_are_descriptor_loads():
    # every build route ends at one structural intern
    dxp = load_presentation(DUALXPLANE_TEXT, name="dualxplane")
    assert tensor(dual_algebra(), superplane()) is dxp
    dual2 = re.sub(r"\b(alpha|delta|b|c)\b", r"\g<1>2", DUAL_TEXT)
    assert "rule c2*b2 = b2*c2 - (q - q^-1)*delta2*alpha2" in dual2
    assert rename(dual_algebra(), "2") is load_presentation(dual2, name="dual2")


def test_rule_order_does_not_split_the_intern():
    lines = DUALXPLANE_TEXT.strip().splitlines()
    shuffled = [ln for ln in lines if ln.startswith("generator")]
    shuffled += reversed([ln for ln in lines if ln.startswith("rule")])
    again = load_presentation("\n".join(shuffled), name="dualxplane")
    assert again is load_presentation(DUALXPLANE_TEXT, name="dualxplane")
    assert again is tensor(dual_algebra(), superplane())


def test_tensor_and_rename_results_are_validated(monkeypatch):
    seen = []
    validate = Presentation._validate

    def counted(self):
        seen.append(self.name)
        validate(self)

    monkeypatch.setattr(Presentation, "_validate", counted)
    tensor(superplane(), dual_superplane(), name="validated")
    rename(dual_superplane(), "_validated")
    assert seen == ["validated", "dualplane_validated"]


def test_inverse_letter_cross_rules_are_the_koszul_sign():
    # the cross rules are authored for plain letters only; the ones for
    # inverse letters are derived, and each is the plain rule's sign again
    d = dual_algebra()
    off = len(d.generators)
    signs = set()
    for pres in (tensor(d, superplane()),
                 tensor(d, rename(d, "2"), name="dualxdual")):
        gens = pres.generators
        for j in range(off, len(gens)):
            for i in range(off):
                eps = -ONE if gens[j].parity == gens[i].parity == ODD else ONE
                for sj in (1, -1) if gens[j].invertible else (1,):
                    for si in (1, -1) if gens[i].invertible else (1,):
                        assert pres._rules[(j, sj, i, si)] == (eps, ())
                        signs.add((sj, si))
    assert signs == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_unit_coefficients_are_the_one_singleton(monkeypatch):
    # QRational.__mul__ skips a product with the ONE object; a unit
    # coefficient that is a fresh object (parsed, or from lam.inv()) makes
    # every product with it do the work
    algebras = [build() for build in cli._BUILTIN_ALGEBRAS.values()]
    algebras.append(load_presentation(DUAL_TEXT, "copy"))
    # v*u = q^-1*u*v - q^-1 implies single-inverse rules whose correction
    # coefficient -(lam^-1 * mu) is a unit computed by a product
    algebras.append(load_presentation(
        "generator u even invertible\ngenerator v even invertible\n"
        "rule v*u = q^-1*u*v - q^-1\n", "units"))
    units = [
        (pres.name, key, c)
        for pres in algebras
        for key, (lam, corr) in pres._rules.items()
        for c in (lam, *(mu for mu, _ in corr))
        if c == ONE
    ]
    # the rules implied inside Presentation.__init__ have unit coefficients too
    assert any(-1 in key[1::2] for _, key, _ in units)
    assert [(name, key) for name, key, c in units if c is not ONE] == []
    # the rows a cold suite fills: a product with ONE hands back the other
    # operand itself, so the units of the rules stay ONE through the table
    from qdual.checks import run_suite
    tables = (dual_algebra(), gl_algebra())
    for pres in tables:
        for cache in ("_pair_table", "_keys"):
            monkeypatch.setattr(pres, cache, {})
    run_suite(6)
    for pres in tables:
        units = [k for rows in pres._pair_table.values() for _, k in rows
                 if k == ONE]
        assert units and all(k is ONE for k in units), pres.name


def test_derive_inverse_rules_is_idempotent():
    # every presentation is built with its inverse-letter rules, so the
    # old derive step hands back its argument
    algebras = [build() for build in cli._BUILTIN_ALGEBRAS.values()]
    algebras.append(load_presentation(DESCRIPTOR, name="twist"))
    for pres in algebras:
        assert derive_inverse_rules(pres) is pres
    assert dual_algebra() is derive_inverse_rules(dual_algebra())
    assert not hasattr(dual_algebra(), "derived")
    # elements of the two spellings mix
    got = dual_algebra().gen("b") * derive_inverse_rules(dual_algebra()).gen("c")
    assert render_element(got) == "b*c"
    # the CLI's dualxplane is the tensor product of the public builders
    assert tensor(dual_algebra(), superplane()) is (
        cli._BUILTIN_ALGEBRAS["dualxplane"]()
    )


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
    # a loaded descriptor inverts u with no further call
    th = pres.gen("theta")
    ui = pres.gen("u", -1)
    assert th * ui == q_power(-2) * (ui * th)
    assert render_element(parse_element("theta*u^-1", pres)) == (
        "(1)/(q^2)*u^-1*theta"
    )


def _round_trips(obj):
    return copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))


def test_copies_and_pickles_are_the_interned_object():
    loaded = load_presentation(
        "generator u even invertible\ngenerator v odd\nrule v*u = q^2*u*v",
        name="copied",
    )
    for pres in (dual_algebra(), loaded, tensor(dual_algebra(), superplane()),
                 rename(dual_algebra(), "2"), rename(loaded, "_r")):
        for other in _round_trips(pres):
            assert other is pres
    d = dual_algebra()
    b, c = parse_element("b", d), parse_element("c", d)
    assert [k is ONE for _, k in (c * b).terms] == [True, False]
    for other in _round_trips(c * b):
        # elements equal the original and multiply with its algebra's
        assert other == c * b and other.pres is d
        # and a unit coefficient is still the ONE object
        assert [k is ONE for _, k in other.terms] == [True, False]
        assert other * b == c * b * b and b * other == b * c * b
    x = parse_element("v*u^-1", loaded)
    for other in _round_trips(x):
        assert other == x and other * x == x * x


def test_a_pickle_loads_in_a_fresh_process():
    # the intern rebuilds the presentation there, and a later built-in call
    # returns the same object; a unit coefficient loads as that process's ONE
    d = dual_algebra()
    data = pickle.dumps((d, parse_element("c*b", d)))
    code = (
        "import pickle, sys\n"
        "from qdual import ONE, dual_algebra, parse_element\n"
        "d, e = pickle.loads(sys.stdin.buffer.read())\n"
        "assert d is dual_algebra() and e == parse_element('c*b', d)\n"
        "assert [k is ONE for _, k in e.terms] == [True, False]\n"
        "print(e)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], input=data, env=env,
                          capture_output=True, timeout=60, check=True)
    assert proc.stdout.decode().strip() == str(parse_element("c*b", d))


def test_repr():
    assert repr(dual_algebra()) == "<Presentation 'dual', 4 generators>"
    assert repr(tensor(dual_algebra(), superplane())) == (
        "<Presentation 'dualxplane', 6 generators>")


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


def test_descriptor_scalar_power_is_one_raw_term(monkeypatch):
    # a scalar factor is one raw term: (q+1)^16 is not 2^16 of them
    sizes = []
    parse = presentations.parse_raw_terms

    def counted(*args):
        terms = parse(*args)
        sizes.append(len(terms))
        return terms

    monkeypatch.setattr(presentations, "parse_raw_terms", counted)
    head = "generator b even invertible\ngenerator c even invertible\n"
    pres = load_presentation(head + "rule c*b = (q+1)^16*b*c\n")
    assert sizes == [1]
    binomial = " + ".join(f"{math.comb(16, i)}*q^{i}" for i in range(17))
    assert pres is load_presentation(head + f"rule c*b = ({binomial})*b*c\n")


def test_descriptor_file(tmp_path):
    path = tmp_path / "twist.txt"
    path.write_text(DESCRIPTOR, encoding="utf-8")
    pres = load_presentation_file(path)
    assert [g.name for g in pres.generators] == ["u", "theta"]


def test_descriptor_loads_are_interned():
    pres = load_presentation(DESCRIPTOR, name="twist")
    ui = pres.gen("u", -1)
    for _ in range(2000):
        again = load_presentation(DESCRIPTOR, name="twist")
        assert again is pres
        # elements of separate loads mix, inverse letters included
        assert again.gen("theta") * ui == pres.gen("theta") * ui
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
    ("generator b even invertible extra\n", "line 1: too many fields"),
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
    ("generator u even\ngenerator v even\nrule v*u = u*v + (u+v)^18\n",
     "line 3: expands to more than 4096 raw terms (at position 11)"),
    ("generator u even\ngenerator v even\nrule v*u = u*v + ((u^512)^64 + v)^11\n",
     "line 3: expands to more than 65536 letters (at position 22)"),
    pytest.param(
        "generator u even\ngenerator v even\nrule v*u = " + "9" * 4301 + "*u*v",
        "line 3: integer literal longer than 4300 digits (at position 0)",
        id="long-literal"),
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
    # the implied inverse-letter rules skip validation; they must still
    # obey the rule that makes a repeated odd letter zero
    d = dual_algebra()
    for pres in (d, gl_algebra(), superplane(),
                 dual_superplane(), tensor(gl_algebra(), superplane()),
                 tensor(d, superplane()),
                 tensor(d, rename(d, "2"), name="dualxdual")):
        for (gj, _, gi, _), (_, corr) in pres._rules.items():
            odd = {g for g in (gi, gj) if pres.generators[g].parity == ODD}
            for _, word in corr:
                assert odd <= {g for g, _ in word}, (pres.name, gj, gi, word)

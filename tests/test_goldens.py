"""Golden files for rendered elements and for the witnesses of failing checks.

``tests/data/render_golden.jsonl`` holds one ``[label, ascii, unicode,
latex]`` line per element of a fixed set: the entries of M^1..M^6, of the
left inverse and the superdeterminant, elements with Fraction and non-monic
coefficients, and elements of the tensor algebras (second-factor names
render with a prime).  ``tests/data/witness_golden.jsonl`` holds one
``[fault, check_id, status, witness]`` line per report that is not a pass
when ``run_suite(3)`` runs under one of the faults injected below.

Both files pin bytes that no other test pins.  Re-record them only on
purpose, with ``PYTHONPATH=src python tests/test_goldens.py``.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qdual import checks
from qdual import supermatrix as sm
from qdual.algebra import render_element
from qdual.parsing import parse_element
from qdual.presentations import (
    dual_algebra,
    dual_superplane,
    gl_algebra,
    rename,
    superplane,
    tensor,
)
from qdual.qfield import Q

from helpers import scaled_by_q

DATA = Path(__file__).parent / "data"
RENDER_GOLDEN = DATA / "render_golden.jsonl"
WITNESS_GOLDEN = DATA / "witness_golden.jsonl"
SLOTS = ("e11", "e12", "e21", "e22")
STYLES = ("ascii", "unicode", "latex")

_EXPRESSIONS = {
    "dual": (
        "0",
        "7",
        "-1",
        "q^2 + 1",
        "-(q + 1)",
        "-(q^3 - 2*q)/(5*q^2 + 1)",
        "(1/2)*b*c^-2 - (3/7)*alpha*delta + q^2 + 1",
        "(2*q^2 + 3)/(3*q + 1)*alpha*b - (q + 1)/(2*q^2 + 5)",
        "3*q^2*b^2 - 5*q^-1*c^-3*delta",
        "(1/2)*q*alpha - 2*q",
        "-(3/2)*b^-1*c + (q - 1/3)*alpha*delta*b",
    ),
    "gl": ("d*a", "(a + beta)^3", "(2/3)*gamma*d^2 - q*a"),
    "plane": ("xi*x", "x^3*xi - (q^2 + 1)/(2*q)"),
    "dualplane": ("y*eta", "-eta*y^2"),
    "glxplane": ("x*xi*a + beta*xi", "(d + gamma)*(x + xi)"),
    "dualxplane": ("(alpha + xi)*(b + x)", "c^-1*x - q*delta*xi"),
    "dualxdual": (
        "alpha2*alpha*b2^-1 + delta2*c2",
        "(b + b2)^2 - (1/2)*alpha2*delta2*c",
    ),
}


def _algebras():
    dual = dual_algebra()
    return {
        "dual": dual,
        "gl": gl_algebra(),
        "plane": superplane(),
        "dualplane": dual_superplane(),
        "glxplane": tensor(gl_algebra(), superplane()),
        "dualxplane": tensor(dual, superplane()),
        "dualxdual": tensor(dual, rename(dual, "2"), name="dualxdual"),
    }


def render_cases():
    """(label, element) pairs of the render golden, in file order."""
    algebras = _algebras()
    dual = algebras["dual"]
    m = sm.dual_generator_matrix(dual)
    cases = []
    for k in range(1, 7):
        cases += [(f"M^{k}.{s}", x) for s, x in zip(SLOTS, sm.power(m, k).entries)]
    cases += [
        (f"left_inverse.{s}", x)
        for s, x in zip(SLOTS, sm.left_inverse(m).entries)
    ]
    cases.append(("sdet", sm.sdet(m)))
    for c in (Fraction(1, 2), Fraction(-3, 7), (2 * Q * Q + 3) / (3 * Q + 1)):
        cases.append((f"scalar {c}", dual.scalar(c)))
    pair = algebras["dualxdual"]
    prod = sm.matmul(
        sm.dual_generator_matrix(pair), sm.dual_generator_matrix(pair, "2")
    )
    cases += [(f"M@M2.{s}", x) for s, x in zip(SLOTS, prod.entries)]
    for name, exprs in _EXPRESSIONS.items():
        cases += [(f"{name}: {e}", parse_element(e, algebras[name])) for e in exprs]
    return cases


def render_lines():
    return [
        json.dumps(
            [label] + [render_element(x, style) for style in STYLES],
            ensure_ascii=False,
        )
        for label, x in render_cases()
    ]


def _swapped_targets(transform_plane):
    swap = {"plane": "dual_plane", "dual_plane": "plane"}

    def wrong(mat, coords, target, p):
        return transform_plane(mat, coords, swap[target], p)

    return wrong


FAULTS = {
    "_QINV = q": lambda mp: mp.setattr(checks, "_QINV", Q),
    # C08 reads its closed forms from the sweep, not from closed_form_odd
    "closed_form_odd times q": lambda mp: mp.setattr(
        sm, "odd_closed_forms", scaled_by_q(sm.odd_closed_forms)
    ),
    "q_power shifted by one": lambda mp: mp.setattr(
        checks, "q_power", lambda k, f=checks.q_power: f(k + 1)
    ),
    "transform_plane targets swapped": lambda mp: mp.setattr(
        sm, "transform_plane", _swapped_targets(sm.transform_plane)
    ),
}


def witness_lines():
    lines = []
    for fault, inject in FAULTS.items():
        with pytest.MonkeyPatch.context() as mp:
            inject(mp)
            reports = checks.run_suite(3)
        lines += [
            json.dumps([fault, r.check_id, r.status, r.witness], ensure_ascii=False)
            for r in reports
            if r.status != "pass"
        ]
    return lines


def _golden(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_render_golden():
    assert render_lines() == _golden(RENDER_GOLDEN)


def test_latex_keeps_the_parentheses_of_a_subtracted_constant_sum():
    # a sign or a neighbouring term must not change what the sum means
    dual = _algebras()["dual"]
    for expr, latex in (
        ("b - q - 1", "b - (q + 1)"),
        ("(q+1)*b - (q+1)", "(q + 1) b - (q + 1)"),
        ("-(q + 1)", "-(q + 1)"),
    ):
        assert render_element(parse_element(expr, dual), "latex") == latex


def test_witness_golden():
    lines = witness_lines()
    assert lines == _golden(WITNESS_GOLDEN)
    failing = {
        (fault, cid)
        for fault, cid, status, _ in map(json.loads, lines)
        if status == "fail"
    }
    for fault, ids in (
        ("_QINV = q", ("C01",)),
        ("closed_form_odd times q", ("C08",)),
        ("q_power shifted by one", ("C10", "C11", "C13")),
        ("transform_plane targets swapped", ("C14", "C15")),
    ):
        assert {(fault, cid) for cid in ids} <= failing


if __name__ == "__main__":
    for path, lines in (
        (RENDER_GOLDEN, render_lines()),
        (WITNESS_GOLDEN, witness_lines()),
    ):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        print(f"wrote {len(lines)} lines to {path}", file=sys.stderr)

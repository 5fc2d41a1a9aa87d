"""Acceptance gate: nine go/no-go criteria, one printed verdict line each.

Every criterion is exact — residuals must be identically zero, with no
tolerances anywhere.  Run with ``pytest -s tests/test_acceptance.py`` to see
the verdict lines inline (they are printed outside the capture machinery, so
they also appear in a plain ``pytest`` run).
"""

import contextlib
import io
import random
import time
from fractions import Fraction

from qdual import cli
from qdual.checks import run_suite
from qdual.parsing import parse_element
from qdual.presentations import (
    dual_algebra,
    dual_superplane,
    gl_algebra,
    superplane,
)
from qdual.qfield import ONE, Q, q_power, qnum, scalar

from helpers import random_element, random_word

DUAL = dual_algebra()
ALGEBRAS = (DUAL, gl_algebra(), superplane(), dual_superplane())


def _report(capsys, num, ok, label):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num} {verdict}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def _statuses(max_n, ids):
    return {r.check_id: r for r in run_suite(max_n=max_n, selection=ids)}


def _cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_criterion_1_powers_match_closed_forms(capsys):
    t0 = time.perf_counter()
    by_id = _statuses(6, ["C08", "C09"])
    elapsed = time.perf_counter() - t0
    ok = (
        by_id["C08"].status == "pass"
        and by_id["C09"].status == "pass"
        and elapsed < 10.0
    )
    _report(
        capsys, 1, ok,
        "matrix powers 1..12 equal both closed-form families entrywise "
        f"({elapsed:.2f}s for the sweep)",
    )


def test_criterion_2_pattern_inheritance_and_bracket_audit(capsys):
    by_id = _statuses(6, ["C10", "C11", "C17"])
    c17 = by_id["C17"]
    ok = (
        by_id["C10"].status == "pass"
        and by_id["C11"].status == "pass"
        and c17.status == "anomaly"
        and c17.parameters.get("ordering") in ("DA", "AD")
        and "ordering" in c17.witness
        and "=" in c17.witness
    )
    _report(
        capsys, 2, ok,
        "odd/even powers inherit their exchange patterns at the shifted "
        f"parameter; bracket audit reports one consistent ordering "
        f"({c17.parameters.get('ordering')}) with a rendered witness",
    )


def test_criterion_3_inverse_block(capsys):
    by_id = _statuses(6, ["C03", "C04", "C05", "C06", "C07"])
    ok = all(r.status == "pass" for r in by_id.values())
    _report(
        capsys, 3, ok,
        "the left inverse is two-sided, factors diagonally, matches the "
        "triangular decomposition, and both superdeterminant forms are "
        "central",
    )


def test_criterion_4_axioms_and_derived_inverse_identities(capsys):
    by_id = _statuses(6, ["C01", "C02"])
    ok = all(r.status == "pass" for r in by_id.values())
    _report(
        capsys, 4, ok,
        "generator exchange relations hold by construction and every "
        "inverse-letter identity is a derived theorem with zero residual",
    )


def test_criterion_5_structural_claims(capsys):
    by_id = _statuses(6, ["C12", "C13"])
    ok = all(r.status == "pass" for r in by_id.values())
    _report(
        capsys, 5, ok,
        "a product of two dual matrices is gl-type (and not dual-type); "
        "gl-matrix powers keep the gl pattern for n = 2, 3, 4",
    )


def test_criterion_6_covariance(capsys):
    by_id = _statuses(6, ["C14", "C15"])
    ok = all(r.status == "pass" for r in by_id.values())
    _report(
        capsys, 6, ok,
        "gl matrices preserve both coordinate planes and dual matrices "
        "swap them, under the standard sign convention",
    )


def _associativity_holds(rng):
    for pres in ALGEBRAS:
        for _ in range(300):
            x = random_element(pres, rng, n_words=2, max_len=3)
            y = random_element(pres, rng, n_words=2, max_len=3)
            z = random_element(pres, rng, n_words=2, max_len=3)
            if (x * y) * z != x * (y * z):
                return False
    return True


def _confluence_holds(rng):
    count = 0
    while count < 500:
        pres = ALGEBRAS[count % len(ALGEBRAS)]
        word = random_word(pres, rng, 8)
        expected = pres.normal_form(word)
        for seed in range(5):
            if pres.brute_force_nf(word, seed) != expected:
                return False
        count += 1
    return True


def _idempotence_holds(rng):
    for pres in ALGEBRAS:
        for _ in range(50):
            x = random_element(pres, rng)
            rebuilt = pres.zero()
            for mono, coeff in x.terms:
                rebuilt = rebuilt + pres.normal_form(mono, coeff)
            if rebuilt != x:
                return False
    return True


def _grading_holds(rng):
    for pres in ALGEBRAS:
        for _ in range(50):
            x = pres.normal_form(random_word(pres, rng, 5))
            y = pres.normal_form(random_word(pres, rng, 5))
            p, r = x.parity(), y.parity()
            if p is None or r is None:
                continue
            xy = x * y
            if xy and xy.parity() != (p + r) % 2:
                return False
    return True


def test_criterion_7_engine_soundness(capsys):
    rng = random.Random(60301)
    ok = (
        _associativity_holds(rng)
        and _confluence_holds(rng)
        and _idempotence_holds(rng)
        and _grading_holds(rng)
    )
    _report(
        capsys, 7, ok,
        "associativity (300 triples x 4 algebras), confluence (500 words "
        "x 5 seeds), idempotence, and parity grading fuzz all clean",
    )


def test_criterion_8_field_soundness(capsys):
    rng = random.Random(80801)
    points = (Fraction(3, 2), Fraction(2))
    pool = [
        (ONE, (Fraction(1), Fraction(1))),
        (Q, points),
        (Q + ONE, tuple(v + 1 for v in points)),
        (scalar(Fraction(-5, 4)), (Fraction(-5, 4), Fraction(-5, 4))),
    ]
    ok = True
    trees = 0
    while ok and trees < 500:
        (fa, va), (fb, vb) = rng.choice(pool), rng.choice(pool)
        op = rng.choice(("add", "sub", "mul", "div"))
        if op == "add":
            f, v = fa + fb, tuple(x + y for x, y in zip(va, vb))
        elif op == "sub":
            f, v = fa - fb, tuple(x - y for x, y in zip(va, vb))
        elif op == "mul":
            f, v = fa * fb, tuple(x * y for x, y in zip(va, vb))
        else:
            if fb.is_zero or any(y == 0 for y in vb):
                continue
            f, v = fa / fb, tuple(x / y for x, y in zip(va, vb))
        ok = all(
            f.eval_at(point) == expected
            for point, expected in zip(points, v)
        )
        trees += 1
        if len(pool) < 80:
            pool.append((f, v))
    for k in (1, 2, 3):
        for n in range(1, 13):
            ok = ok and qnum(n, k) == ONE + q_power(2 * k) * qnum(n - 1, k)
    _report(
        capsys, 8, ok,
        "exact evaluation at q = 3/2 and q = 2 agrees on 500 random "
        "expression trees; the q-number recurrence holds through n = 12",
    )


def test_criterion_9_cli_round_trip_and_stable_verify(capsys):
    rng = random.Random(90901)
    named = (
        ("dual", DUAL),
        ("gl", gl_algebra()),
        ("plane", superplane()),
        ("dualplane", dual_superplane()),
    )
    ok = True
    done = 0
    while ok and done < 200:
        name, pres = named[done % len(named)]
        x = random_element(pres, rng)
        code, out = _cli("nf", "--algebra", name, "--", str(x))
        ok = code == 0 and parse_element(out.strip(), pres) == x
        done += 1
    code1, out1 = _cli("verify", "--max-n", "6", "--format", "machine")
    code2, out2 = _cli("verify", "--max-n", "6", "--format", "machine")
    ok = (
        ok
        and code1 == 0
        and code2 == 0
        and out1 == out2
        and out1.count("\n") == 17
    )
    _report(
        capsys, 9, ok,
        "print/parse round trip on 200 random elements through the CLI; "
        "verify --max-n 6 exits 0 with byte-stable machine output",
    )

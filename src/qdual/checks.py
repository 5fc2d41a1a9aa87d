"""Named, enumerable verification suite over the whole calculus.

Every identity the package implements is bound to a check with a stable id
(C01..C17).  A run executes the registered checks in id order and returns
:class:`CheckReport` records; nothing raises on a failed identity — failures
are data, rendered with a witness residual.

Check C17 is special: it documents which ordering of the bracket relation's
right-hand side actually holds for odd powers (the D*A ordering), since the
two candidate orderings differ by a sign.  It always reports status
"anomaly" with a witness, by design.

All arithmetic is exact, so a "pass" means the residual is the zero element,
never a small number.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass

from . import supermatrix as sm
from .algebra import invert_quasi_unit, render_element
from .presentations import (
    derive_inverse_rules,
    dual_algebra,
    dual_superplane,
    gl_algebra,
    rename,
    superplane,
    tensor,
)
from .qfield import Q, q_power

DEFAULT_SEED = 1729
DEFAULT_MAX_N = 6

_QINV = q_power(-1)
_BRACKET = Q - _QINV  # q - q^-1


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: id, human reference, parameters, status."""

    check_id: str
    paper_ref: str
    parameters: dict
    status: str  # "pass" | "fail" | "anomaly"
    witness: str = ""
    elapsed: float = 0.0

    def __post_init__(self):
        if self.status not in ("pass", "fail", "anomaly"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "fail" and not self.witness:
            raise ValueError("failing check must carry a witness")


def _dual():
    return derive_inverse_rules(dual_algebra())


class _Context:
    """Generator matrices and their powers, shared by the checks of one run."""

    def __init__(self, max_n, seed):
        self.max_n = max_n
        self.seed = seed
        self.mat = sm.dual_generator_matrix(_dual())
        self.gl_mat = sm.gl_generator_matrix(gl_algebra())
        self._powers = {}
        self._patterns = {}

    def power(self, m, k):
        """m^k for m one of the generator matrices, from cached lower powers."""
        powers = self._powers.setdefault(m, [m])  # powers[i] is m^(i + 1)
        while len(powers) < k:
            powers.append(sm.matmul(powers[-1], m))
        return powers[k - 1]

    def dual_pattern(self, n):
        """check_dual_pattern of M^(2n-1) at q^(2n-1), shared by C10 and C17."""
        if n not in self._patterns:
            self._patterns[n] = sm.check_dual_pattern(
                self.power(self.mat, 2 * n - 1), q_power(2 * n - 1)
            )
        return self._patterns[n]


def _entry_residuals(label, got, want):
    """(label.slot, residual) pairs for the four entries of got - want."""
    return [
        (f"{label}.{slot}", x - y)
        for slot, x, y in zip(
            ("e11", "e12", "e21", "e22"), got.entries, want.entries
        )
    ]


def _residual_check(pairs):
    """pairs: (name, residual Element).  Returns (status, witness)."""
    bad = [(name, r) for name, r in pairs if not r.is_zero]
    if not bad:
        return "pass", ""
    name, r = bad[0]
    more = f" (+{len(bad) - 1} more)" if len(bad) > 1 else ""
    return "fail", f"{name}: residual {render_element(r)}{more}"


def _outcome_check(outcomes):
    """outcomes: (label, CheckOutcome).  Returns (status, witness).

    Uses each outcome's own ``ok`` verdict: a dual-pattern outcome probes
    the bracket relation under both orderings and one probe is expected to
    fail, which ``ok`` already accounts for.
    """
    for label, out in outcomes:
        if out.ok:
            continue
        rel = out.failures()[0]
        return (
            "fail",
            f"{label}: {rel.name}: residual {render_element(rel.residual)}",
        )
    return "pass", ""


# --- the individual checks -------------------------------------------------


def _c01_dual_axioms(ctx):
    p = dual_algebra()
    al, de, b, c = (p.gen(x) for x in ("alpha", "delta", "b", "c"))
    pairs = [
        ("alpha*b = q^-1*b*alpha", al * b - _QINV * (b * al)),
        ("alpha*c = q^-1*c*alpha", al * c - _QINV * (c * al)),
        ("delta*b = q^-1*b*delta", de * b - _QINV * (b * de)),
        ("delta*c = q^-1*c*delta", de * c - _QINV * (c * de)),
        ("alpha*delta + delta*alpha = 0", al * de + de * al),
        ("alpha^2 = 0", al * al),
        ("delta^2 = 0", de * de),
        (
            "b*c - c*b = (q - q^-1)*delta*alpha",
            b * c - c * b - _BRACKET * (de * al),
        ),
    ]
    status, witness = _residual_check(pairs)
    return status, {}, witness


def _c02_inverse_relations(ctx):
    p = _dual()
    al, de, b, c = (p.gen(x) for x in ("alpha", "delta", "b", "c"))
    bi, ci = p.gen("b", -1), p.gen("c", -1)
    pairs = [
        ("alpha*b^-1 = q*b^-1*alpha", al * bi - Q * (bi * al)),
        ("alpha*c^-1 = q*c^-1*alpha", al * ci - Q * (ci * al)),
        ("delta*b^-1 = q*b^-1*delta", de * bi - Q * (bi * de)),
        ("delta*c^-1 = q*c^-1*delta", de * ci - Q * (ci * de)),
        # The proportionality constant follows from conjugating the b/c
        # exchange rule by c^-1; note the c^-1 letters both sit left of
        # delta.
        (
            "b*c^-1 - c^-1*b = (q - q^-1)*alpha*c^-1*c^-1*delta",
            (b * ci - ci * b) - _BRACKET * (al * ci * ci * de),
        ),
    ]
    status, witness = _residual_check(pairs)
    return status, {}, witness


def _c03_delta_commutation(ctx):
    p = _dual()
    al, de = p.gen("alpha"), p.gen("delta")
    b, c = p.gen("b"), p.gen("c")
    d1, d2 = sm.delta1(ctx.mat), sm.delta2(ctx.mat)
    q2 = Q * Q
    pairs = [
        ("delta1*b = b*delta1", d1 * b - b * d1),
        ("delta2*c = c*delta2", d2 * c - c * d2),
        ("delta1*alpha = q^2*alpha*delta1", d1 * al - q2 * (al * d1)),
        ("delta1*delta = q^2*delta*delta1", d1 * de - q2 * (de * d1)),
        ("delta2*alpha = q^2*alpha*delta2", d2 * al - q2 * (al * d2)),
        ("delta2*delta = q^2*delta*delta2", d2 * de - q2 * (de * d2)),
    ]
    status, witness = _residual_check(pairs)
    return status, {}, witness


def _c04_sdet_forms(ctx):
    p = _dual()
    al, de = p.gen("alpha"), p.gen("delta")
    b, c = p.gen("b"), p.gen("c")
    bi, ci = p.gen("b", -1), p.gen("c", -1)
    d1i = invert_quasi_unit(sm.delta1(ctx.mat))
    d2i = invert_quasi_unit(sm.delta2(ctx.mat))
    pairs = [
        (
            "b^2*delta1^-1 = b*c^-1 - alpha*c^-1*delta*c^-1",
            b * b * d1i - (b * ci - al * ci * de * ci),
        ),
        (
            "c^2*delta2^-1 = c*b^-1 - delta*b^-1*alpha*b^-1",
            c * c * d2i - (c * bi - de * bi * al * bi),
        ),
    ]
    status, witness = _residual_check(pairs)
    return status, {}, witness


def _c05_sdet_central(ctx):
    p = _dual()
    s1 = sm.sdet(ctx.mat)
    s2 = p.gen("c") * p.gen("c") * invert_quasi_unit(sm.delta2(ctx.mat))
    pairs = []
    for label, s in (("b^2*delta1^-1", s1), ("c^2*delta2^-1", s2)):
        for name in ("alpha", "delta", "b", "c"):
            g = p.gen(name)
            pairs.append((f"{label} commutes with {name}", s * g - g * s))
    status, witness = _residual_check(pairs)
    return status, {}, witness


def _c06_left_inverse(ctx):
    p = _dual()
    m = ctx.mat
    left = sm.left_inverse(m)
    ident = sm.identity(p)
    al, de = p.gen("alpha"), p.gen("delta")
    b, c = p.gen("b"), p.gen("c")
    bi, ci = p.gen("b", -1), p.gen("c", -1)
    d1i = invert_quasi_unit(sm.delta1(m))
    d2i = invert_quasi_unit(sm.delta2(m))
    factor_left = sm.SuperMatrix(
        -(ci * de * ci), bi, ci, -(bi * al * bi)
    )
    factor_right = sm.SuperMatrix(
        c * c * d2i, p.zero(), p.zero(), b * b * d1i
    )
    pairs = []
    for label, got, want in (
        ("left_inverse(M)@M", sm.matmul(left, m), ident),
        ("M@left_inverse(M)", sm.matmul(m, left), ident),
        ("factored form", sm.matmul(factor_left, factor_right), left),
    ):
        pairs += _entry_residuals(label, got, want)
    status, witness = _residual_check(pairs)
    return status, {}, witness


def _c07_decomposition(ctx):
    m = ctx.mat
    first, second = sm.decomposition_factors(m)
    recon = sm.matmul(first, second)
    via = sm.inverse_via_decomposition(m)
    left = sm.left_inverse(m)
    pairs = []
    for label, got, want in (
        ("factor product", recon, m),
        ("inverse_via_decomposition", via, left),
    ):
        pairs += _entry_residuals(label, got, want)
    status, witness = _residual_check(pairs)
    return status, {}, witness


def _power_sweep(ctx, closed_form, offset):
    """C08/C09: M^(2n - offset) against its closed form for n = 1..max_n."""
    pairs = []
    for n in range(1, ctx.max_n + 1):
        want = closed_form(_dual(), n)
        got = ctx.power(ctx.mat, 2 * n - offset)
        pairs += _entry_residuals(f"n={n}", got, want)
    status, witness = _residual_check(pairs)
    return status, {"max_n": ctx.max_n}, witness


def _c08_odd_powers(ctx):
    return _power_sweep(ctx, sm.closed_form_odd, 1)


def _c09_even_powers(ctx):
    return _power_sweep(ctx, sm.closed_form_even, 0)


def _c10_odd_power_pattern(ctx):
    outcomes = [(f"n={n}", ctx.dual_pattern(n)) for n in range(1, ctx.max_n + 1)]
    status, witness = _outcome_check(outcomes)
    return status, {"max_n": ctx.max_n}, witness


def _c11_even_power_pattern(ctx):
    outcomes = [
        (
            f"n={n}",
            sm.check_gl_pattern(ctx.power(ctx.mat, 2 * n), q_power(2 * n)),
        )
        for n in range(1, ctx.max_n + 1)
    ]
    status, witness = _outcome_check(outcomes)
    return status, {"max_n": ctx.max_n}, witness


def _c12_product_of_duals(ctx):
    pair = tensor(_dual(), rename(_dual(), "2"), name="dualxdual")
    m1 = sm.dual_generator_matrix(pair)
    m2 = sm.dual_generator_matrix(pair, suffix="2")
    prod = sm.matmul(m1, m2)
    gl_out = sm.check_gl_pattern(prod, Q)
    dual_out = sm.check_dual_pattern(prod, Q)
    if not gl_out.ok:
        rel = gl_out.failures()[0]
        return (
            "fail",
            {},
            f"product should satisfy the gl pattern at q: {rel.name}: "
            f"residual {render_element(rel.residual)}",
        )
    if dual_out.ok:
        return (
            "fail",
            {},
            "product unexpectedly satisfies the dual pattern at q",
        )
    return "pass", {}, ""


def _c13_gl_power_parameter(ctx):
    outcomes = [
        (f"n={n}", sm.check_gl_pattern(ctx.power(ctx.gl_mat, n), q_power(n)))
        for n in (2, 3, 4)
    ]
    status, witness = _outcome_check(outcomes)
    return status, {"n": [2, 3, 4]}, witness


def _covariance(entries, generator_matrix, targets):
    """C14/C15: transform the plane's (x, xi) and the dual plane's (eta, y).

    ``targets`` gives (label, target relations) for the two planes in that
    order; each plane is tensored with the entry algebra.
    """
    outcomes = []
    for plane, coords, (label, target) in zip(
        (superplane(), dual_superplane()), (("x", "xi"), ("eta", "y")), targets
    ):
        t = tensor(entries, plane)
        mat = generator_matrix(t)
        v = tuple(t.gen(name) for name in coords)
        outcomes.append((label, sm.transform_plane(mat, v, target, Q)))
    status, witness = _outcome_check(outcomes)
    return status, {}, witness


def _c14_covariance_gl(ctx):
    return _covariance(
        gl_algebra(),
        sm.gl_generator_matrix,
        (("plane coordinates", "plane"), ("dual-plane coordinates", "dual_plane")),
    )


def _c15_covariance_dual(ctx):
    return _covariance(
        _dual(),
        sm.dual_generator_matrix,
        (
            ("plane coordinates -> dual-plane relations", "dual_plane"),
            ("dual-plane coordinates -> plane relations", "plane"),
        ),
    )


def _random_word(pres, rng, max_len=8):
    """A random well-formed (generator, exponent) word for ``pres``.

    Odd generators only ever get exponent 1 (higher powers are zero anyway
    and negative ones are illegal); invertible generators range over small
    exponents of both signs.
    """
    word = []
    for _ in range(rng.randrange(max_len + 1)):
        g = rng.randrange(len(pres.generators))
        spec = pres.generators[g]
        if spec.parity:
            e = 1
        elif spec.invertible:
            e = rng.choice((-2, -1, 1, 2))
        else:
            e = rng.choice((1, 2))
        word.append((g, e))
    return word


def _c16_confluence(ctx):
    words_per_algebra = 12
    brute_seeds = 2
    rng = random.Random(ctx.seed)
    algebras = [_dual(), gl_algebra(), superplane(), dual_superplane()]
    for pres in algebras:
        for k in range(words_per_algebra):
            word = _random_word(pres, rng)
            want = pres.normal_form(word)
            for _ in range(brute_seeds):
                got = pres.brute_force_nf(word, seed=rng.randrange(2**32))
                if got != want:
                    return (
                        "fail",
                        {"algebra": pres.name, "word": word},
                        f"word {word!r} in {pres.name!r}: deterministic "
                        f"{render_element(want)} vs randomized "
                        f"{render_element(got)}",
                    )
    params = {
        "algebras": [p.name for p in algebras],
        "words_per_algebra": words_per_algebra,
        "orders_per_word": brute_seeds,
        "seed": ctx.seed,
    }
    return "pass", params, ""


def _c17_sign_audit(ctx):
    orderings = {
        ctx.dual_pattern(n).bracket_ordering for n in range(1, ctx.max_n + 1)
    }
    if len(orderings) != 1 or "neither" in orderings:
        return (
            "fail",
            {"max_n": ctx.max_n},
            f"inconsistent bracket orderings across n: {sorted(orderings)}",
        )
    ordering = orderings.pop()
    m = ctx.mat
    bracket = m.e12 * m.e21 - m.e21 * m.e12
    witness = (
        f"bracket relation holds with the {ordering} ordering for every "
        f"n in 1..{ctx.max_n}; at n=1: B*C - C*B = "
        f"{render_element(bracket)} = (q - q^-1)*D*A"
    )
    return "anomaly", {"max_n": ctx.max_n, "ordering": ordering}, witness


_CHECKS = (
    ("C01", "dual generator exchange relations", _c01_dual_axioms),
    ("C02", "derived inverse-letter exchange identities", _c02_inverse_relations),
    ("C03", "determinant-combination commutation relations", _c03_delta_commutation),
    ("C04", "determinant-combination inverse closed forms", _c04_sdet_forms),
    ("C05", "centrality of both superdeterminant forms", _c05_sdet_central),
    ("C06", "left inverse is two-sided and factors diagonally", _c06_left_inverse),
    ("C07", "triangular decomposition reconstitutes and inverts", _c07_decomposition),
    ("C08", "odd powers match their closed forms", _c08_odd_powers),
    ("C09", "even powers match their closed forms", _c09_even_powers),
    ("C10", "odd powers satisfy the dual pattern at q^(2n-1)", _c10_odd_power_pattern),
    ("C11", "even powers satisfy the gl pattern at q^(2n)", _c11_even_power_pattern),
    ("C12", "product of two duals is gl-type, not dual-type", _c12_product_of_duals),
    ("C13", "gl-matrix powers satisfy the gl pattern at q^n", _c13_gl_power_parameter),
    ("C14", "gl matrix preserves both coordinate relation sets", _c14_covariance_gl),
    ("C15", "dual matrix swaps the two coordinate relation sets", _c15_covariance_dual),
    ("C16", "deterministic and randomized rewriting agree", _c16_confluence),
    ("C17", "bracket-ordering audit for odd powers", _c17_sign_audit),
)

CHECK_IDS = tuple(cid for cid, _, _ in _CHECKS)


def run_suite(max_n=DEFAULT_MAX_N, selection=None, seed=DEFAULT_SEED):
    """Run the registered checks and return reports sorted by check id.

    ``selection`` restricts to the given check ids; unknown ids raise
    ValueError, as does max_n < 1.  Deterministic for fixed (max_n, seed).
    """
    if not isinstance(max_n, int) or max_n < 1:
        raise ValueError("max_n must be an integer >= 1")
    if selection is not None:
        unknown = sorted(set(selection) - set(CHECK_IDS))
        if unknown:
            raise ValueError(f"unknown check ids: {', '.join(unknown)}")
        if not selection:
            raise ValueError("selection must name at least one check")
        wanted = set(selection)
    else:
        wanted = None
    ctx = _Context(max_n, seed)
    reports = []
    for cid, ref, fn in _CHECKS:
        if wanted is not None and cid not in wanted:
            continue
        t0 = time.perf_counter()
        status, params, witness = fn(ctx)
        elapsed = time.perf_counter() - t0
        reports.append(
            CheckReport(cid, ref, params, status, witness, elapsed)
        )
    reports.sort(key=lambda r: r.check_id)
    return reports


def machine_lines(reports):
    """Line-delimited machine format, byte-stable for a fixed (max_n, seed).

    Field order is fixed: check_id, paper_ref, params, status, witness,
    elapsed_ms.  elapsed_ms is always 0 so that identical runs produce
    identical bytes; wall-clock timings belong to the text format.
    """
    lines = []
    for r in reports:
        lines.append(
            json.dumps(
                {
                    "check_id": r.check_id,
                    "paper_ref": r.paper_ref,
                    "params": r.parameters,
                    "status": r.status,
                    "witness": r.witness,
                    "elapsed_ms": 0,
                },
                separators=(", ", ": "),
            )
        )
    return lines


def text_lines(reports):
    """Human-readable report lines plus a summary line."""
    lines = []
    counts = {"pass": 0, "fail": 0, "anomaly": 0}
    for r in reports:
        counts[r.status] += 1
        params = ""
        if r.parameters:
            inner = ", ".join(f"{k}={v}" for k, v in r.parameters.items())
            params = f" [{inner}]"
        lines.append(
            f"{r.check_id} {r.status:7s} {r.paper_ref}{params} "
            f"({r.elapsed * 1000.0:.1f} ms)"
        )
        if r.witness:
            lines.append(f"    {r.witness}")
    lines.append(
        f"{len(reports)} checks: {counts['pass']} pass, "
        f"{counts['fail']} fail, {counts['anomaly']} anomaly"
    )
    return lines


def has_failure(reports):
    return any(r.status == "fail" for r in reports)

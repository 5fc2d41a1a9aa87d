"""Shared helpers: random-object builders for the fuzz tests, a counter of
element products, and a faulty closed-form sweep.

The builders take an explicit ``random.Random`` so each test controls its
own seed; nothing here touches global randomness.
"""

from fractions import Fraction

from qdual import supermatrix as sm
from qdual.algebra import Element
from qdual.checks import _random_word as random_word
from qdual.qfield import ONE, Q, q_power, scalar

COEFFS = (
    scalar(1),
    scalar(-1),
    scalar(2),
    scalar(Fraction(1, 2)),
    scalar(Fraction(-3, 2)),
    Q,
    q_power(-1),
    Q + ONE,
    Q * Q - ONE,
    (Q * Q + ONE) / Q,
)


def random_coeff(rng):
    return rng.choice(COEFFS)


def random_element(pres, rng, n_words=3, max_len=5):
    """A random normal-form element: a short sum of random words."""
    acc = pres.zero()
    for _ in range(rng.randrange(1, n_words + 1)):
        acc = acc + pres.normal_form(
            random_word(pres, rng, max_len), random_coeff(rng)
        )
    return acc


def count_products(monkeypatch, run):
    """The Element x Element products that ``run()`` makes.

    Products by a scalar are not counted.  The count does not depend on
    what the presentations' tables already hold.
    """
    count = 0
    mul = Element.__mul__

    def counted(self, other):
        nonlocal count
        if isinstance(other, Element):
            count += 1
        return mul(self, other)

    monkeypatch.setattr(Element, "__mul__", counted)
    run()
    monkeypatch.setattr(Element, "__mul__", mul)
    return count


def scaled_by_q(closed_forms):
    """A sweep of closed forms, each entry off by a factor of q."""

    def wrong(pres, max_n):
        for mat in closed_forms(pres, max_n):
            yield sm.SuperMatrix(*(Q * x for x in mat.entries))

    return wrong

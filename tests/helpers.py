"""Shared random-object builders for the fuzz tests.

Everything takes an explicit ``random.Random`` so each test controls its
own seed; nothing here touches global randomness.
"""

from fractions import Fraction

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

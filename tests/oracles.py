"""Reference computations the tests check the package against.

Everything here works with ordinary power-series coefficients (plain
c_n, with f = sum c_n t^n) or classical recurrences, not the derivative
representation the package uses internally, so agreement between the two
is a genuine cross-check rather than the same code run twice. The frozen
tables at the bottom were produced by these routines and verified against
each other before being pinned.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial


def bernoulli_recurrence(n_max: int) -> list[Fraction]:
    """B_0..B_n_max from sum_{k<=n} C(n+1,k) B_k = 0."""
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += comb(n + 1, k) * values[k]
        values.append(-acc / (n + 1))
    return values


def bernoulli_by_tangent(n_max: int) -> list[Fraction]:
    """B_0..B_n_max from the tangent numbers T_1..T_K, K = n_max // 2, by
    algorithm TangentNumbers of Brent & Harvey (arXiv:1108.0286), which
    runs in Python ints; then B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
    Its products share no algebra with the package's kernel, Seidel's
    triangle, which only adds."""
    half = n_max // 2
    t = [0, 1] + [0] * (half - 1)
    for k in range(2, half + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    values = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, half + 1):
        four_k = 4**k
        b = Fraction(2 * k * t[k], four_k * (four_k - 1))
        values += [b if k % 2 else -b, Fraction(0)]
    return values[: n_max + 1]


def ordinary_mul(c: list[Fraction], d: list[Fraction]) -> list[Fraction]:
    """Cauchy product of ordinary coefficient lists, same truncation."""
    n_max = len(c) - 1
    return [
        sum((c[k] * d[n - k] for k in range(n + 1)), Fraction(0))
        for n in range(n_max + 1)
    ]


def ordinary_reciprocal(c: list[Fraction]) -> list[Fraction]:
    """Reciprocal of an ordinary coefficient list with c_0 != 0."""
    inv0 = 1 / c[0]
    out = [inv0]
    for n in range(1, len(c)):
        acc = sum((c[k] * out[n - k] for k in range(1, n + 1)), Fraction(0))
        out.append(-inv0 * acc)
    return out


def diffs_from_ordinary(c: list[Fraction]) -> list[Fraction]:
    """Convert ordinary coefficients to derivative values a_n = n! * c_n."""
    return [factorial(n) * cn for n, cn in enumerate(c)]


def ordinary_from_diffs(a: list[Fraction]) -> list[Fraction]:
    return [an / factorial(n) for n, an in enumerate(a)]


def genocchi_by_ordinary(n_max: int) -> list[Fraction]:
    """Derivative values of 2t/(e^t + 1), entirely in ordinary coefficients."""
    denom = [Fraction(2)] + [Fraction(1, factorial(n)) for n in range(1, n_max + 1)]
    numer = [Fraction(0)] * (n_max + 1)
    if n_max >= 1:
        numer[1] = Fraction(2)
    return diffs_from_ordinary(ordinary_mul(numer, ordinary_reciprocal(denom)))


def gen_genocchi_by_ordinary(a: int, n_max: int) -> list[Fraction]:
    """Derivative values of a*t/(1 + e^t + ... + e^{(a-1)t}), ordinary route."""
    denom = [Fraction(a)]
    for n in range(1, n_max + 1):
        denom.append(Fraction(sum(k**n for k in range(1, a)), factorial(n)))
    numer = [Fraction(0)] * (n_max + 1)
    if n_max >= 1:
        numer[1] = Fraction(a)
    return diffs_from_ordinary(ordinary_mul(numer, ordinary_reciprocal(denom)))


def scale_arg(c: list[Fraction], s) -> list[Fraction]:
    """Coefficients of t -> f(s*t): coefficient n picks up a factor s^n, in
    either basis."""
    s = Fraction(s)
    return [s**n * Fraction(cn) for n, cn in enumerate(c)]


def bernoulli_sum(n: int, a: int, b: list[Fraction]) -> Fraction:
    """sum_{k<n} C(n,k) b_k a^k in plain Fractions, for any values b_k."""
    return sum((comb(n, k) * b[k] * a**k for k in range(n)), Fraction(0))


def congruent_by_fractions(x, y, m: int) -> bool:
    """x = y (mod m) over Q, decided on the numerator of Fraction(x) - Fraction(y)."""
    return (Fraction(x) - Fraction(y)).numerator % m == 0


def trial_factor(n: int) -> list[tuple[int, int]]:
    """Naive factorization by trial division over all integers."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def valuation(x, p: int) -> int:
    """nu_p(x) for a rational x != 0: the exponent of p in its numerator
    minus the exponent in its denominator, counted by repeated division."""
    x, v = Fraction(x), 0
    while x.numerator % p == 0:
        x, v = x / p, v + 1
    while x.denominator % p == 0:
        x, v = x * p, v - 1
    return v


def primes_by_trial(bound: int) -> list[int]:
    """All primes <= bound, as the n whose naive factorization is n itself."""
    return [n for n in range(2, bound + 1) if trial_factor(n) == [(n, 1)]]


def scaled_reciprocal_by_ordinary(a: list[int]) -> list[Fraction]:
    """Derivative values of a_0 / f(a_0 t) for f with derivative values a,
    by the ordinary reciprocal of the scaled series."""
    a0 = a[0]
    reciprocal = ordinary_reciprocal(ordinary_from_diffs(scale_arg(a, a0)))
    return [a0 * c for c in diffs_from_ordinary(reciprocal)]


def coeffwise_add(c: list[Fraction], d: list[Fraction]) -> list[Fraction]:
    """Sum of two coefficient lists of the same length, in either basis."""
    return [x + y for x, y in zip(c, d, strict=True)]


def is_idc(f) -> bool:
    """Whether every differential coefficient of the series f is an integer."""
    return all(c.denominator == 1 for c in f.coeffs)


def prop1_trial_by_randint(trial: int, order: int) -> list[int]:
    """The derivative values of prop1's trial series, drawn by
    random.Random(trial).randint: a_0 in [1, 5], then `order` values in
    [-9, 9]."""
    rng = random.Random(trial)
    return [rng.randint(1, 5), *(rng.randint(-9, 9) for _ in range(order))]


# Frozen values. Bernoulli and classical Genocchi entries agree with the
# well-known tables (for instance B_12 = -691/2730); the generalized columns
# were computed by gen_genocchi_by_ordinary and independently reproduced by
# the Bernoulli-sum identity before being pinned here.

BERNOULLI_FROZEN = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    3: Fraction(0),
    4: Fraction(-1, 30),
    5: Fraction(0),
    6: Fraction(1, 42),
    7: Fraction(0),
    8: Fraction(-1, 30),
    9: Fraction(0),
    10: Fraction(5, 66),
    11: Fraction(0),
    12: Fraction(-691, 2730),
    13: Fraction(0),
    14: Fraction(7, 6),
}

GENOCCHI_FROZEN = [0, 1, -1, 0, 1, 0, -3, 0, 17, 0, -155, 0, 2073, 0, -38227]

GEN_GENOCCHI_FROZEN = {
    2: [0, 1, -1, 0, 1, 0, -3, 0, 17],
    3: [0, 1, -2, 1, 4, -5, -26, 49, 328],
    4: [0, 1, -3, 3, 9, -25, -99, 427, 2193],
    5: [0, 1, -4, 6, 16, -74, -264, 1946, 9056],
    6: [0, 1, -5, 10, 25, -170, -575, 6370, 28225],
}

# derivative values of 2/(e^{2t} + 1): the scaled reciprocal of e^t + 1
SCALED_RECIPROCAL_FROZEN = [1, -1, 0, 2, 0, -16, 0, 272, 0]

# derivative values of 2/(e^t + 1), that is 2t/(e^t + 1) divided by t, to order 6
GENOCCHI_SHIFTED_FROZEN = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 4),
    Fraction(0),
    Fraction(-1, 2),
    Fraction(0),
]

FACTORIZE_FROZEN = {
    1: [],
    12: [(2, 2), (3, 1)],
    97: [(97, 1)],
    360: [(2, 3), (3, 2), (5, 1)],
    2730: [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1)],
    999983: [(999983, 1)],
}

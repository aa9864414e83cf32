"""Bernoulli numbers, Genocchi numbers, and their generalization to an
integer base a >= 2, each computable by two independent routes.

The Bernoulli numbers come from one integer kernel, Seidel's triangle of
Genocchi numbers, and every table is checked against the base-2 Genocchi
column of the series route through G_n = 2 (1 - 2^n) B_n; the disk cache
re-derives its entries from the same kernel.

Conventions, fixed by the generating functions used here:

  t / (e^t - 1)                      B_n   (so B_1 = -1/2)
  2t / (e^t + 1)                     G_n   (so G_1 = +1)
  a*t / (1 + e^t + ... + e^{(a-1)t}) G_{n,a}

G_{n,2} = G_n, and G_{0,a} = 0 for every a because of the factor t in the
numerator. The second route expresses G_{n,a} as the Bernoulli sum
sum_{k<n} C(n,k) B_k a^k. A whole column of it is one binomial transform:
with u_k = B_k a^k, sum_{k<=n} C(n,k) u_k is the first entry of the n-th
row of pairwise sums of u, and G_{n,a} is that entry less u_n. The column
must agree exactly with the series route; that equivalence is one of the
verified properties, not assumed. Both routes hold an integral value as an
int and any other as a Fraction: the series route's column is the list of
the product's int coefficients, and the Bernoulli tables are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import add

from .exact import ConsistencyError, is_prime
from .series import EgfSeries, exp_sum_series, series_mul, series_reciprocal


@dataclass(frozen=True)
class BernoulliTable:
    """Bernoulli numbers B_0..B_max_index. Construction checks the anchor
    values B_0 = 1 and B_1 = -1/2 and that odd indices >= 3 vanish."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        values = self.values
        if type(values) is not tuple or not all(type(v) is Fraction for v in values):
            values = tuple(values)
            if bad := [v for v in values if not isinstance(v, (int, Fraction))]:
                raise ValueError(f"a Bernoulli number must be an int or a Fraction, got {bad[0]!r}")
            object.__setattr__(self, "values", tuple(map(Fraction, values)))
        if not self.values:
            raise ValueError("a Bernoulli table needs at least B_0")
        if self.values[0] != 1:
            raise ValueError(f"B_0 must be 1, got {self.values[0]}")
        if len(self.values) > 1 and self.values[1] != Fraction(-1, 2):
            raise ValueError(f"B_1 must be -1/2, got {self.values[1]}")
        for n in range(3, len(self.values), 2):
            if self.values[n] != 0:
                raise ValueError(f"B_{n} must vanish, got {self.values[n]}")

    @property
    def max_index(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]


def _seidel_bernoulli(max_index: int) -> list[Fraction]:
    """B_0..B_max_index from Seidel's triangle (Seidel 1877; Dumont 1974):
    each row holds the prefix sums of the previous row read backwards, with a
    leading 0 on odd rows; row 2k - 2 ends in |G_2k| = 2 (4^k - 1) |B_2k|.
    Each B_2k is built once, signed on its numerator, and the triangle stops
    at the row that ends in the last |G_2k| the table needs."""
    values = [Fraction(1), Fraction(-1, 2), *[Fraction(0)] * (max_index - 1)][: max_index + 1]
    row, d = [1], 6  # row n - 2, which ends in |G_n|, and d = 2 (2^n - 1)
    for n in range(2, max_index + 1, 2):
        if n > 2:  # two rows on, to row n - 2
            row = list(accumulate(reversed(list(accumulate(reversed(row), initial=0)))))
            d = 4 * d + 6
        values[n] = Fraction(row[-1] if n % 4 == 2 else -row[-1], d)
    return values


def bernoulli_table(max_index: int) -> BernoulliTable:
    """B_0..B_max_index from Seidel's triangle, each B_n (n >= 1)
    cross-checked against the base-2 Genocchi column through
    G_n = 2 (1 - 2^n) B_n before being returned. That column inverts
    1 + e^t in integers and shares no algebra with the triangle's sums."""
    if max_index < 0:
        raise ValueError(f"max_index must be nonnegative, got {max_index}")
    values = _seidel_bernoulli(max_index)
    column = genocchi_table(max_index)
    for n in range(1, max_index + 1):
        b = values[n]
        if column[n] * b.denominator != 2 * (1 - 2**n) * b.numerator:
            raise ConsistencyError(
                f"B_{n} = {b} from Seidel's triangle disagrees with "
                f"G_{n} = {column[n]} from the base-2 series column"
            )
    return BernoulliTable(tuple(values))


def genocchi_table(n_max: int) -> list[int]:
    """G_0..G_n_max from 2t / (e^t + 1), the base-2 generalized column."""
    return gen_genocchi_table(2, n_max)


def gen_genocchi_table(a: int, n_max: int) -> list[int]:
    """G_{0,a}..G_{n_max,a} from a*t / (1 + e^t + ... + e^{(a-1)t}), truncated
    at order n_max, since coefficient n depends only on the first n + 1 terms.
    Coefficient n of a*t*r is a*n*r_{n-1}, so the reciprocal r is taken to
    order n_max - 1 and padded with a 0 it never reads. The series hold each
    integral coefficient as an int, so the product's coefficients are the
    column itself; one that is not an int aborts: integrality is a
    structural fact here, not an input condition."""
    if a < 2:
        raise ValueError(f"base must satisfy a >= 2, got {a}")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    recip = series_reciprocal(exp_sum_series(a, max(n_max - 1, 0)))
    numer = [0] * (n_max + 1)
    if n_max >= 1:
        numer[1] = a
    prod = series_mul(EgfSeries(tuple(numer)), EgfSeries((*recip.coeffs, 0)[: n_max + 1]))
    for n, c in enumerate(prod.coeffs):
        if type(c) is not int:
            raise ConsistencyError(
                f"generalized Genocchi (a={a}) came out non-integral at index {n}: {c}"
            )
    return list(prod.coeffs)


def gen_genocchi_bernoulli(a: int, n_max: int, table: BernoulliTable) -> list[int | Fraction]:
    """G_{0,a}..G_{n_max,a} by the Bernoulli-sum route over B_0..B_{n_max-1}.

    With D the lcm of their denominators and u_k = (B_k D) a^k, an integer,
    D G_{n,a} = sum_{k<=n} C(n,k) u_k - u_n. Row n of repeated pairwise sums
    of u starts with that binomial-transform sum, so the column costs
    additions only; u_{n_max}, which enters row n_max once and is taken away
    again, is padded with 0. An entry that D does not divide stays a
    Fraction: its integrality is part of what gets verified against the
    series route."""
    if a < 2:
        raise ValueError(f"base must satisfy a >= 2, got {a}")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if table.max_index < n_max - 1:
        raise ValueError(
            f"Bernoulli table covers indices up to {table.max_index}, need {n_max - 1}"
        )
    values = table.values[:n_max]
    d = lcm(*(v.denominator for v in values))
    u = [v.numerator * (d // v.denominator) * a**k for k, v in enumerate(values)] + [0]
    column, row = [], u
    for u_n in u:
        q, r = divmod(row[0] - u_n, d)
        column.append(Fraction(row[0] - u_n, d) if r else q)
        row = list(map(add, row, row[1:]))
    return column


def von_staudt_clausen_sum(n: int, table: BernoulliTable) -> Fraction:
    """B_n + sum of 1/p over primes p with (p-1) dividing n, for even n >= 2,
    added over the lcm of the denominators and built as one Fraction. The
    sum is an integer, so nu_p(B_n) >= -1 at every prime; callers check it."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"the correction sum is defined for even n >= 2, got {n}")
    if table.max_index < n:
        raise ValueError(
            f"Bernoulli table covers indices up to {table.max_index}, need {n}"
        )
    b = table.values[n]
    primes = [d + 1 for d in range(1, n + 1) if n % d == 0 and is_prime(d + 1)]
    den = lcm(b.denominator, *primes)
    return Fraction(b.numerator * (den // b.denominator) + sum(den // p for p in primes), den)

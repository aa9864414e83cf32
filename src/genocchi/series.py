"""Truncated power series in exponential form.

A series is stored by its differential coefficients a_0..a_N, meaning
f(t) = sum a_n t^n / n!, so a_n is the n-th derivative of f at 0. In this
basis the product of two series is the binomial convolution
(f*g)_n = sum_k C(n,k) f_k g_{n-k}, and a series whose differential
coefficients are all integers is called an IDC series. IDC series are
closed under addition, multiplication, and argument scaling by an
integer; they are not closed under reciprocal, but a_0 / f(a_0 t) is
again IDC whenever f is.

A coefficient is held as an int when it is an integer and as a Fraction in
lowest terms otherwise, so the column path's integral series stay in ints.

series_reciprocal serves the column path alone. It takes int
coefficients a_0..a_N and runs one back-substitution in Python ints: with
c = a_0, r_0 = 1 / c and r_n = -(1/c) sum_{m<n} C(n,m) a_{n-m} r_m, summed
over the nonzero r_m alone, since the base-2 column's r is zero at every
even n >= 2 (the power sums have no zero a_k). Each r_n is carried as
p_n / c^e_n with an integer p_n and e_n as small as the recurrence
allows: the sum runs over p_m c^(top - e_m), every r_m over one power
c^top, and c is divided out while it divides. top is raised only when
some e_n exceeds it, which is rare: for the power sums behind the
Genocchi columns the largest e_n is 6 at (a, N) = (20, 1000) and 10 at
(2, 1000), where a denominator c^(n+1) would put about n log2(c) more
bits into every operand. Its binomials come one row at a time from
_pascal_rows, which sums only the first half of row n from row n - 1 and
mirrors it, as C(n, m) = C(n, n - m): n // 2 additions where n would do.
A zero sum is r_n = 0 with e_n = 0 at once, not divided by c top + 1
times; at base 2 that is every even n >= 2. When every a_k after a_0 is 1,
as the power sums of 1 + e^t are at base 2, a term is C(n,m) r_m: the
factor a_{n-m} = 1 is not multiplied in, which is checked once per call.

idc_reciprocal_scaled takes the integer derivative values a_0..a_N of an
IDC series f and runs its own recurrence, s_0 = 1 and
s_n = -sum_{k=1..n} C(n,k) a_k c^(k-1) s_{n-k} with c = a_0, in which
nothing is divided: coefficient n of a_0 / f(a_0 t) is s_n, and that
recurrence over the integers is the proof that a_0 / f(a_0 t) is IDC. It
takes and returns ints only, with no Fraction on either side. Its binomials
come from one Pascal triangle shared by every call of the same order, as
prop1's trials are: the rows C(n, 0..n) for n = 0..N from _pascal_rows,
(N+1)(N+2)/2 ints, kept for the most recent order only.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, mul


@dataclass(frozen=True)
class EgfSeries:
    """Differential coefficients a_0..a_N of a series truncated at order N,
    each integral one an int and each other one a lowest-terms Fraction.
    Any other value, a float or a str included, raises ValueError."""

    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self):
        coeffs = self.coeffs
        if type(coeffs) is not tuple or not all(
            type(c) is int or type(c) is Fraction and c.denominator != 1 for c in coeffs
        ):
            coeffs = tuple(coeffs)
            if bad := [c for c in coeffs if not isinstance(c, (int, Fraction))]:
                raise ValueError(f"a series coefficient must be an int or a Fraction, got {bad[0]!r}")
            coeffs = tuple(c.numerator if c.denominator == 1 else c for c in map(Fraction, coeffs))
            object.__setattr__(self, "coeffs", coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least its order-0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int | Fraction:
        return self.coeffs[n]


def series_mul(f: EgfSeries, g: EgfSeries) -> EgfSeries:
    """Binomial convolution: out_n = sum_k C(n,k) f_k g_{n-k}, summed over
    the nonzero f_k only, so a product with a monomial is O(N). Each term is
    C(n,k) p_k p / (q_k q) for f_k = p_k/q_k and g_{n-k} = p/q: an int where
    the division is exact, else one Fraction, normalised once."""
    if f.order != g.order:
        raise ValueError(
            f"series_mul needs equal truncation orders, got {f.order} and {g.order}"
        )
    terms = [(k, f_k.numerator, f_k.denominator) for k, f_k in enumerate(f.coeffs) if f_k]
    g_coeffs = g.coeffs
    out = []
    for n in range(f.order + 1):
        acc = None  # the first term starts the sum: adding it to 0 costs a Fraction more
        for k, p_k, q_k in terms:
            if k > n:
                break
            g_m = g_coeffs[n - k]
            num, den = comb(n, k) * p_k * g_m.numerator, q_k * g_m.denominator
            term, rem = divmod(num, den)
            if rem:
                term = Fraction(num, den)
            acc = term if acc is None else acc + term
        out.append(0 if acc is None else acc)
    return EgfSeries(tuple(out))


def _pascal_rows(order: int) -> Iterator[list[int]]:
    """The rows C(n, 0..n) for n = 0..order, each a new list. Row n sums
    only its first half, C(n, 0..n // 2), from row n - 1, and mirrors it for
    the rest, as C(n, m) = C(n, n - m): n // 2 additions where n would do."""
    row = [1]
    yield row
    for n in range(1, order + 1):
        k = n // 2
        row = [1, *map(add, row, row[1 : k + 1])]
        row += row[k - 1 + n % 2 :: -1]
        yield row


def _back_substitute(a: list[int]) -> tuple[list[int], list[int]]:
    """The reciprocal r of the series a, for c = a_0 != 0, as integers
    p_n and exponents e_n with r_n = p_n / c^e_n, summed over the nonzero
    r_m only, so the base-2 column skips its zero half (module docstring).
    Each e_n is as small as the recurrence allows: c | p_n only if e_n = 0."""
    c = a[0]
    unit = a[1:].count(1) == len(a) - 1  # a_k = 1 for every k >= 1
    p, e = [], [0] * len(a)
    scaled = []  # (m, p_m c^(top - e_m)): every nonzero r_m so far over c^top
    top = 0
    for n, row in enumerate(_pascal_rows(len(a) - 1)):
        acc = 0 if n else 1  # r_0 = 1 / c
        if unit:
            for m, x in scaled:
                acc -= row[m] * x
        else:
            for m, x in scaled:
                acc -= row[m] * a[n - m] * x
        # r_n = acc / c^(top + 1), and r_n = 0 needs no power of c
        e_n = top + 1 if acc else 0
        while e_n:
            q, rem = divmod(acc, c)
            if rem:
                break
            acc, e_n = q, e_n - 1
        if e_n > top:
            step = c ** (e_n - top)
            scaled = [(m, x * step) for m, x in scaled]
            top = e_n
        p.append(acc)
        e[n] = e_n
        if acc:
            scaled.append((n, acc * c ** (top - e_n) if top > e_n else acc))
    return p, e


def series_reciprocal(f: EgfSeries) -> EgfSeries:
    """The series r with f*r = 1 up to the truncation order, by triangular
    back-substitution in integers: r_n = p_n / c^e_n with c = f_0 (see the
    module docstring), which is p_n itself where e_n = 0 and otherwise not an
    integer, as c does not divide p_n. Requires int coefficients and a
    nonzero constant term."""
    a = list(f.coeffs)
    if not all(type(a_k) is int for a_k in a):
        raise ValueError("series_reciprocal needs int coefficients")
    c = a[0]
    if c == 0:
        raise ValueError("series_reciprocal needs a nonzero constant term")
    p, e = _back_substitute(a)
    return EgfSeries(tuple(Fraction(p_n, c**e_n) if e_n else p_n for p_n, e_n in zip(p, e)))


def exp_sum_series(a: int, order: int) -> EgfSeries:
    """The series of 1 + e^t + e^{2t} + ... + e^{(a-1)t} for a >= 2; its
    differential coefficients are the power sums d_n = sum_{k<a} k^n with
    d_0 = a, as ints."""
    if a < 2:
        raise ValueError(f"exp_sum_series needs a >= 2, got {a}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    bases = range(1, a)
    powers = [1] * (a - 1)  # k^n for k = 1..a-1, kept from one order to the next
    coeffs = [a]
    for _ in range(order):
        powers = list(map(mul, powers, bases))
        coeffs.append(sum(powers))
    return EgfSeries(tuple(coeffs))


@lru_cache(maxsize=1)
def _pascal(order: int) -> tuple[tuple[int, ...], ...]:
    """The rows C(n, 0..n) for n = 0..order, as tuples, so that the callers
    that share them cannot change them."""
    return tuple(map(tuple, _pascal_rows(order)))


def idc_reciprocal_scaled(coeffs: list[int]) -> list[int]:
    """The integers s_0..s_N of a_0 / f(a_0 t), for the IDC series f with
    derivative values a_0..a_N and a_0 != 0: s_0 = 1 and
    s_n = -sum_{k=1..n} C(n,k) a_k a_0^(k-1) s_{n-k} (see the module
    docstring). C(n,k) is read from the shared triangle of order N, which
    holds (N+1)(N+2)/2 ints for the most recent order only; the returned
    list is new on every call."""
    if not all(type(a_k) is int for a_k in coeffs):
        raise ValueError("idc_reciprocal_scaled needs int coefficients")
    if not coeffs or coeffs[0] == 0:
        raise ValueError("idc_reciprocal_scaled needs a nonzero constant term")
    c = coeffs[0]
    rows = _pascal(len(coeffs) - 1)
    terms = []  # (k, -a_k c^(k-1)) for the nonzero a_k, 1 <= k <= n
    power = 1  # c^(n-1)
    s = [1]
    for n, a_n in enumerate(coeffs[1:], 1):
        if a_n:
            terms.append((n, -a_n * power))
        power *= c
        row = rows[n]
        acc = 0
        for k, w in terms:
            acc += row[k] * w * s[n - k]
        s.append(acc)
    return s

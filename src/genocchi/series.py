"""Truncated power series in exponential form.

A series is stored by its differential coefficients a_0..a_N, meaning
f(t) = sum a_n t^n / n!, so a_n is the n-th derivative of f at 0. In this
basis the product of two series is the binomial convolution
(f*g)_n = sum_k C(n,k) f_k g_{n-k}, and a series whose differential
coefficients are all integers is called an IDC series. IDC series are
closed under addition, multiplication, and argument scaling by an
integer; they are not closed under reciprocal, but a_0 / f(a_0 t) is
again IDC whenever f is.

series_reciprocal and idc_reciprocal_scaled share one clearing of
denominators and one back-substitution in Python ints. With d the lcm of
the denominators, a_k = d*f_k and c = a_0 = d*f_0, the reciprocal of f is
r_n = s_n / c^(n+1) for the integers s_0 = d and
s_n = -sum_{k=1..n} C(n,k) a_k c^(k-1) s_{n-k}. Coefficient n of
f_0 / f(f_0 t) is f_0^(n+1) r_n = s_n / d^(n+1), so for IDC f, where d = 1,
it is the integer s_n itself: that recurrence over the integers is the
proof that f_0 / f(f_0 t) is IDC. Every series this package inverts is
IDC, so d is 1 there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import add, mul


@dataclass(frozen=True)
class EgfSeries:
    """Differential coefficients a_0..a_N of a series truncated at order N."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series needs at least its order-0 coefficient")
        coeffs = self.coeffs
        if type(coeffs) is not tuple or not all(type(c) is Fraction for c in coeffs):
            object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]


def series_mul(f: EgfSeries, g: EgfSeries) -> EgfSeries:
    """Binomial convolution: out_n = sum_k C(n,k) f_k g_{n-k}, summed over
    the nonzero f_k only, so a product with a monomial is O(N). Each term is
    one Fraction C(n,k) p_k p / (q_k q) for f_k = p_k/q_k and g_{n-k} = p/q,
    normalised once."""
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
            term = Fraction(comb(n, k) * p_k * g_m.numerator, q_k * g_m.denominator)
            acc = term if acc is None else acc + term
        out.append(Fraction(0) if acc is None else acc)
    return EgfSeries(tuple(out))


def _back_substitute(a: list[int], s0: int) -> list[int]:
    """The integers s_0 = s0, s_n = -sum_{k=1..n} C(n,k) (a_k c^(k-1)) s_{n-k}
    for c = a_0 != 0; then r_n = s_n / c^(n+1) is the reciprocal of the
    series a / s0 (see the module docstring)."""
    c = a[0]
    terms = []  # (k, a_k c^(k-1)) for the nonzero a_k, k >= 1
    power = 1
    for k in range(1, len(a)):
        if a[k]:
            terms.append((k, a[k] * power))
        power *= c
    s = [s0]
    row = [1]  # C(n, 0..n), one Pascal row per n
    for n in range(1, len(a)):
        row = [1, *map(add, row[1:], row), 1]
        acc = 0
        for k, w in terms:
            if k > n:
                break
            acc += row[k] * w * s[n - k]
        s.append(-acc)
    return s


def _cleared(f: EgfSeries) -> tuple[list[int], int]:
    """The integer numerators a_k = d f_k and the common denominator d, the
    lcm of the denominators of f."""
    d = lcm(*(f_k.denominator for f_k in f.coeffs))
    return [f_k.numerator * (d // f_k.denominator) for f_k in f.coeffs], d


def series_reciprocal(f: EgfSeries) -> EgfSeries:
    """The series r with f*r = 1 up to the truncation order, by triangular
    back-substitution in integers: r_n = s_n / c^(n+1) with c = d f_0 (see
    the module docstring). Requires a nonzero constant term."""
    if f.coeffs[0] == 0:
        raise ValueError("series_reciprocal needs a nonzero constant term")
    a, d = _cleared(f)
    out = []
    denom = 1
    for s_n in _back_substitute(a, d):
        denom *= a[0]
        out.append(Fraction(s_n, denom))
    return EgfSeries(tuple(out))


def exp_sum_series(a: int, order: int) -> EgfSeries:
    """The series of 1 + e^t + e^{2t} + ... + e^{(a-1)t} for a >= 2; its
    differential coefficients are the power sums d_n = sum_{k<a} k^n with
    d_0 = a."""
    if a < 2:
        raise ValueError(f"exp_sum_series needs a >= 2, got {a}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    bases = range(1, a)
    powers = [1] * (a - 1)  # k^n for k = 1..a-1, kept from one order to the next
    coeffs = [Fraction(a)]
    for _ in range(order):
        powers = list(map(mul, powers, bases))
        coeffs.append(Fraction(sum(powers)))
    return EgfSeries(tuple(coeffs))


def idc_reciprocal_scaled(f: EgfSeries) -> EgfSeries:
    """The series of a_0 / f(a_0 t) where a_0 = f(0) != 0: coefficient n is
    s_n / d^(n+1) (see the module docstring). When f is IDC, d = 1 and
    s_n = -sum_{k=1..n} C(n,k) f_k a_0^(k-1) s_{n-k} is a recurrence over
    the integers, so the result is IDC as well."""
    if f.coeffs[0] == 0:
        raise ValueError("idc_reciprocal_scaled needs a nonzero constant term")
    a, d = _cleared(f)
    out = []
    denom = 1
    for s_n in _back_substitute(a, d):
        denom *= d
        out.append(Fraction(s_n, denom))
    return EgfSeries(tuple(out))

"""Exponential-form series arithmetic and the IDC closure property."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from genocchi.series import (
    EgfSeries,
    _back_substitute,
    _pascal_rows,
    exp_sum_series,
    idc_reciprocal_scaled,
    series_mul,
    series_reciprocal,
)
from genocchi.special import bernoulli_table, gen_genocchi_bernoulli
from oracles import (
    GENOCCHI_FROZEN,
    GENOCCHI_SHIFTED_FROZEN,
    SCALED_RECIPROCAL_FROZEN,
    coeffwise_add,
    diffs_from_ordinary,
    is_idc,
    ordinary_from_diffs,
    ordinary_mul,
    ordinary_reciprocal,
    scale_arg,
    scaled_reciprocal_by_ordinary,
)


def exp_series(order):
    """e^t: every derivative is 1."""
    return EgfSeries((Fraction(1),) * (order + 1))


def one_series(order):
    return EgfSeries((Fraction(1),) + (Fraction(0),) * order)


def sin_series(order):
    pattern = [0, 1, 0, -1]
    return EgfSeries(tuple(Fraction(pattern[n % 4]) for n in range(order + 1)))


def cos_series(order):
    pattern = [1, 0, -1, 0]
    return EgfSeries(tuple(Fraction(pattern[n % 4]) for n in range(order + 1)))


def log1p_series(order):
    # ln(1+t) = sum (-1)^(m+1) t^m / m, so derivative m is (-1)^(m+1) (m-1)!
    coeffs = [Fraction(0)]
    for m in range(1, order + 1):
        coeffs.append(Fraction((-1) ** (m + 1) * factorial(m - 1)))
    return EgfSeries(tuple(coeffs))


def reciprocal_by_ordinary(f):
    """The reciprocal of f by the ordinary-coefficient oracle."""
    return diffs_from_ordinary(
        ordinary_reciprocal(ordinary_from_diffs(list(map(Fraction, f.coeffs))))
    )


# c - 1 + e^t, the series [c] + [1] * N, for these c and N = 0..60: every
# a_k after a_0 is 1, as in the base-2 column, so the kernel drops a_{n-m}
UNIT_TAIL_CONSTANTS = (*range(-12, 0), *range(1, 13))


def unit_tail(c, order):
    return EgfSeries((c,) + (1,) * order)


def random_idc(rng, order, lo=-9, hi=9, constant_range=(1, 5)):
    coeffs = [Fraction(rng.randint(*constant_range))]
    coeffs += [Fraction(rng.randint(lo, hi)) for _ in range(order)]
    return EgfSeries(tuple(coeffs))


def genocchi_egf(order):
    """2t/(e^t + 1) built from the frozen classical values."""
    return EgfSeries(tuple(Fraction(g) for g in GENOCCHI_FROZEN[: order + 1]))


class TestEgfSeries:
    def test_coerces_and_freezes(self):
        # an integral coefficient is held as an int, any other as a
        # Fraction in lowest terms, whatever normal form it came in
        f = EgfSeries([1, -2, Fraction(1, 3)])
        assert f.order == 2
        assert f[2] == Fraction(1, 3)
        assert type(f.coeffs) is tuple
        assert [type(c) for c in f.coeffs] == [int, int, Fraction]
        f = EgfSeries((Fraction(4, 2), Fraction(3, 2)))
        assert f.coeffs == (2, Fraction(3, 2))
        assert [type(c) for c in f.coeffs] == [int, Fraction]
        g = EgfSeries((Fraction(-6, 3), 5, Fraction(6, 4), True))
        assert g.coeffs == (-2, 5, Fraction(3, 2), 1)
        assert [type(c) for c in g.coeffs] == [int, int, Fraction, int]

    @pytest.mark.parametrize("inexact", [0.5, "1/2"])
    def test_rejects_inexact_coefficients(self, inexact):
        # a float would enter as its binary expansion, a string as a parse
        with pytest.raises(ValueError, match="int or a Fraction, got"):
            EgfSeries((1, inexact))
        with pytest.raises(ValueError, match="int or a Fraction, got"):
            EgfSeries([Fraction(1, 3), 2, inexact])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EgfSeries(())

    def test_rejects_empty_iterator(self):
        # the emptiness test runs on the converted tuple, not on the iterator
        with pytest.raises(ValueError, match="order-0 coefficient"):
            EgfSeries(c for c in [])

    def test_value_equality(self):
        assert EgfSeries((1, 2)) == EgfSeries((Fraction(1), Fraction(2)))


class TestAddMul:
    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order"):
            series_mul(EgfSeries((1, 2)), EgfSeries((1, 2, 3)))

    def test_exp_squared_is_exp_of_2t(self):
        sq = series_mul(exp_series(10), exp_series(10))
        assert sq == EgfSeries(tuple(Fraction(2**n) for n in range(11)))

    def test_mul_identity(self):
        f = EgfSeries((3, -1, Fraction(7, 2), 0, 5))
        assert series_mul(f, one_series(4)) == f

    def test_mul_matches_ordinary_coefficient_product(self):
        # the binomial convolution must agree with the plain Cauchy product
        # after changing representation
        rng = random.Random(7)
        pairs = [
            (random_idc(rng, 12), random_idc(rng, 12, constant_range=(-5, 5)))
            for _ in range(50)
        ]
        # sparse f: the monomial a*t, and interior zeros
        g = EgfSeries(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(13)))
        pairs += [
            (EgfSeries((0, 7) + (0,) * 11), g),
            (EgfSeries((0, 0, -3, 0, 0, 0, 5, 0, 0, 0, 0, 0, 2)), g),
            (EgfSeries((4,) + (0,) * 12), g),
        ]

        # sparse pairs with rational f_k and zeros in g: each term's
        # numerator and denominator meet in one normalisation
        def sparse_rational(zero_share):
            return EgfSeries(tuple(
                Fraction(0) if rng.random() < zero_share
                else Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                for _ in range(13)
            ))

        pairs += [(sparse_rational(0.7), sparse_rational(0.3)) for _ in range(40)]
        assert sum(any(c.denominator != 1 for c in f.coeffs) for f, _ in pairs) >= 35
        for f, g in pairs:
            via_binomial = series_mul(f, g).coeffs
            via_ordinary = diffs_from_ordinary(
                ordinary_mul(
                    ordinary_from_diffs(list(map(Fraction, f.coeffs))),
                    ordinary_from_diffs(list(map(Fraction, g.coeffs))),
                )
            )
            assert list(via_binomial) == via_ordinary

    def test_products_hold_integral_values_as_ints(self):
        # exact terms stay ints; a sum of two halves comes back as an int
        sq = series_mul(exp_series(10), exp_series(10))
        assert all(type(c) is int for c in sq.coeffs)
        half = EgfSeries((Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)))
        prod = series_mul(half, EgfSeries((1, 1, 1)))
        assert prod.coeffs == (Fraction(1, 2), 1, Fraction(11, 6))
        assert [type(c) for c in prod.coeffs] == [Fraction, int, Fraction]
        assert series_mul(half, EgfSeries((2, 0, 6))).coeffs == (1, 1, Fraction(11, 3))

    @given(st.lists(st.integers(-9, 9), min_size=3, max_size=8),
           st.lists(st.integers(-9, 9), min_size=3, max_size=8))
    def test_mul_commutes(self, xs, ys):
        n = min(len(xs), len(ys))
        f, g = EgfSeries(tuple(xs[:n])), EgfSeries(tuple(ys[:n]))
        assert series_mul(f, g) == series_mul(g, f)

    def test_pointwise_sums_of_idc_stay_idc(self):
        f = sin_series(12)
        g = cos_series(12)
        assert is_idc(EgfSeries(tuple(coeffwise_add(f.coeffs, g.coeffs))))
        assert is_idc(series_mul(f, g))


class TestReciprocal:
    def test_exp_reciprocal(self):
        rec = series_reciprocal(exp_series(9))
        assert rec == EgfSeries(tuple(Fraction((-1) ** n) for n in range(10)))

    def test_rejects_zero_constant(self):
        with pytest.raises(ValueError, match="constant"):
            series_reciprocal(EgfSeries((0, 1, 1)))

    def test_rejects_non_int_coefficients(self):
        with pytest.raises(ValueError, match="int coefficients"):
            series_reciprocal(EgfSeries((Fraction(1, 2), 1, 0)))

    def test_integral_entries_are_ints(self):
        # r_n is p_n itself where e_n = 0, and never an integer otherwise
        assert all(type(c) is int for c in series_reciprocal(exp_series(9)).coeffs)
        for a in (2, 3, 6, 12):
            r = series_reciprocal(exp_sum_series(a, 40)).coeffs
            assert all(type(c) is int or c.denominator != 1 for c in r), a

    def test_roundtrip_on_random_series(self):
        rng = random.Random(11)
        for _ in range(100):
            f = random_idc(rng, 16)
            assert series_mul(f, series_reciprocal(f)) == one_series(16)

    def test_matches_ordinary_coefficient_reciprocal(self):
        rng = random.Random(13)
        inputs = [random_idc(rng, 10) for _ in range(30)]
        inputs += [random_idc(rng, 10, constant_range=(-7, -1)) for _ in range(10)]
        inputs += [random_idc(rng, 10, constant_range=(c, c)) for c in (1, -1) for _ in range(5)]
        inputs += [
            EgfSeries((3, 0, 0, 5, 0, 0, 0, -2, 0, 0, 0)),
            EgfSeries((-2, 1) + (0,) * 9),
            # inputs whose numerators p_n take c out more than once, or
            # need the common power of c raised
            exp_sum_series(2, 30),  # r_n = 0 at every even n >= 2
            # an even series at c = 2: r_n = 0 at every odd n, and e_n
            # reaches 3 while zero r_n are held back from the sums
            EgfSeries((2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)),
            # top is raised at n = 1, 3, 7, 15, 31, 63 and 127
            exp_sum_series(2, 130),
            exp_sum_series(6, 40),
            # c = -2 with a_k = (-2)^(k+1) b_k, so r_n = (-2)^(n-1) times an integer
            EgfSeries(tuple((-2) ** (k + 1) * b for k, b in enumerate(
                [1, 3, -1, 0, 2, -5, 4, 1, 0, -3, 2]))),
        ]
        # orders 0..3 read the Pascal rows n = 1, 2 and 3, whose mirrored
        # halves are the shortest
        inputs += [
            EgfSeries((c, *(rng.randint(-9, 9) for _ in range(order))))
            for c in (1, -1, 2, 6) for order in range(4) for _ in range(5)
        ]
        for f in inputs:
            assert list(series_reciprocal(f).coeffs) == reciprocal_by_ordinary(f)
        # coefficient n of a reciprocal reads a_0..a_n alone, so one oracle
        # run at order 60 holds every shorter truncation
        for c in UNIT_TAIL_CONSTANTS:
            whole = reciprocal_by_ordinary(unit_tail(c, 60))
            for order in range(61):
                r = series_reciprocal(unit_tail(c, order))
                assert list(r.coeffs) == whole[: order + 1], (c, order)

    def test_power_sum_reciprocal_matches_bernoulli_sum(self):
        # r = 1/(1 + e^t + ... + e^{(a-1)t}) has r_n = G_{n+1,a} / (a (n+1)),
        # and the Bernoulli-sum route reaches G_{n+1,a} without any series
        order = 80
        table = bernoulli_table(order + 1)
        for a in range(2, 13):
            r = series_reciprocal(exp_sum_series(a, order))
            by_sum = gen_genocchi_bernoulli(a, order + 1, table)
            for n in range(order + 1):
                assert r[n] * a * (n + 1) == by_sum[n + 1], (a, n)

    def test_kernel_keeps_each_exponent_least(self):
        # values alone cannot tell r_n = p_n / c^e_n from an unreduced
        # p_n c / c^(e_n + 1), so the kernel's own output is pinned: c divides
        # no p_n that still carries a power of c
        for a, order in ((2, 60), (6, 60), (12, 60), (20, 60)):
            p, e = _back_substitute(list(exp_sum_series(a, order).coeffs))
            assert all(e_n == 0 or p_n % a for p_n, e_n in zip(p, e)), a
            assert max(e) <= 6, a
        # a unit c = +-1 divides every entry exactly: no power of c is left
        units = [
            exp_series(40),
            EgfSeries((-1, 4, 0, -3, 7, 1, -2, 0, 5)),
        ]
        for f in units:
            assert f[0] in (1, -1)
            assert _back_substitute(list(f.coeffs))[1] == [0] * len(f.coeffs)
        for c in UNIT_TAIL_CONSTANTS:
            for order in range(61):
                p, e = _back_substitute(list(unit_tail(c, order).coeffs))
                assert all(e_n == 0 or p_n % c for p_n, e_n in zip(p, e)), (c, order)
                if c in (1, -1):
                    assert e == [0] * (order + 1), (c, order)


class TestPascalRows:
    def test_rows_are_binomials(self):
        for order in range(81):
            rows = list(_pascal_rows(order))
            assert rows == [[comb(n, m) for m in range(n + 1)] for n in range(order + 1)], order

    def test_yielded_rows_do_not_change(self):
        kept, copies = [], []
        for row in _pascal_rows(40):
            kept.append(row)
            copies.append(list(row))
        assert kept == copies
        assert len({id(row) for row in kept}) == len(kept)


class TestScaleArg:
    """The oracle scaling t -> c*t, the reference for idc_reciprocal_scaled."""

    def test_powers_of_scale(self):
        assert scale_arg([5, 1, 1, 1], 3) == [5, 3, 9, 27]

    def test_scale_by_one_and_zero(self):
        c = [2, -7, 4]
        assert scale_arg(c, 1) == c
        assert scale_arg(c, 0) == [2, 0, 0]

    def test_rational_scale_roundtrip(self):
        rng = random.Random(17)
        for _ in range(50):
            f = list(random_idc(rng, 10).coeffs)
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert scale_arg(scale_arg(f, c), 1 / c) == f

    def test_composes_multiplicatively(self):
        c = [1, 2, 3, 4]
        assert scale_arg(scale_arg(c, 2), 3) == scale_arg(c, 6)


class TestExpSum:
    def test_base_two_is_exp_plus_one(self):
        assert exp_sum_series(2, 6) == EgfSeries((2, 1, 1, 1, 1, 1, 1))

    def test_power_sums(self):
        f = exp_sum_series(3, 4)
        assert f == EgfSeries((3, 3, 5, 9, 17))  # 1 + 2^n for n >= 1
        assert exp_sum_series(5, 3)[3] == 1 + 8 + 27 + 64
        for a in range(2, 26):
            for order in (1, 2, 7, 60):
                sums = [sum(k**n for k in range(a)) for n in range(order + 1)]
                f = exp_sum_series(a, order)
                assert f == EgfSeries(tuple(sums)), (a, order)
                assert all(type(d) is int for d in f.coeffs), (a, order)

    def test_order_zero(self):
        assert exp_sum_series(4, 0) == EgfSeries((4,))

    def test_rejects_small_base_and_negative_order(self):
        with pytest.raises(ValueError):
            exp_sum_series(1, 5)
        with pytest.raises(ValueError):
            exp_sum_series(3, -1)


class TestIdc:
    def test_classic_fixtures(self):
        assert is_idc(exp_series(10))
        assert is_idc(sin_series(10))
        assert is_idc(cos_series(10))
        assert is_idc(log1p_series(10))
        assert is_idc(genocchi_egf(10))
        assert not is_idc(EgfSeries(tuple(Fraction(1, n + 1) for n in range(8))))
        assert not is_idc(EgfSeries(tuple(GENOCCHI_SHIFTED_FROZEN)))

    def test_sin_sq_plus_cos_sq(self):
        s, c = sin_series(12), cos_series(12)
        total = coeffwise_add(series_mul(s, s).coeffs, series_mul(c, c).coeffs)
        assert EgfSeries(tuple(total)) == one_series(12)

    def test_exp_times_its_reciprocal_fixture(self):
        rec = series_reciprocal(exp_series(12))
        assert is_idc(rec)  # e^{-t} happens to stay integral
        assert series_mul(exp_series(12), rec) == one_series(12)


class TestIdcReciprocalScaled:
    def test_frozen_example(self):
        # a_0/f(a_0 t) for f = e^t + 1 is 2/(e^{2t} + 1)
        assert idc_reciprocal_scaled([2] + [1] * 8) == SCALED_RECIPROCAL_FROZEN

    def test_closure_on_random_idc_series(self):
        rng = random.Random(23)
        for _ in range(25):
            f = [int(c) for c in random_idc(rng, 30).coeffs]
            result = idc_reciprocal_scaled(f)
            assert all(type(s) is int for s in result)
            assert result == scaled_reciprocal_by_ordinary(f)

    def test_orders_change_between_calls(self):
        # the binomials are shared between calls of one order: a change of
        # order, or a caller that edits its result, must not leak into the
        # next call
        rng = random.Random(31)
        for order in (30, 5, 45, 0, 30):
            f = [int(c) for c in random_idc(rng, order).coeffs]
            assert idc_reciprocal_scaled(f) == scaled_reciprocal_by_ordinary(f), order
        result = idc_reciprocal_scaled(f)
        result[3] += 1
        assert idc_reciprocal_scaled(f) == scaled_reciprocal_by_ordinary(f)

    def test_plain_reciprocal_is_not_closed(self):
        # the scaling is doing real work: without it the reciprocal of an
        # IDC series usually leaves the integers
        f = exp_sum_series(2, 8)
        assert not is_idc(series_reciprocal(f))

    def test_fixed_inputs_match_ordinary_route(self):
        # pin the values of the division-free reading, not only their
        # integrality
        for f in ([-3, 2, -7, 0, 5, 1, -4], [1, -5, 3, 8, -2, 0, 9]):
            assert idc_reciprocal_scaled(f) == scaled_reciprocal_by_ordinary(f)

    def test_rejects_zero_constant(self):
        for f in ([0, 1], []):
            with pytest.raises(ValueError, match="nonzero constant term"):
                idc_reciprocal_scaled(f)

    def test_rejects_non_int_coefficients(self):
        # Fraction(1) is integral but not an int: rational input is not taken
        for f in ([1, Fraction(1, 2)], [Fraction(1), 2], [2, 1.0], [True, 1]):
            with pytest.raises(ValueError, match="int coefficients"):
                idc_reciprocal_scaled(f)

    def test_negative_constant_terms_allowed(self):
        rng = random.Random(29)
        for _ in range(25):
            f = [rng.choice([-5, -3, -2, -1, 1, 2, 3, 5])]
            f += [rng.randint(-9, 9) for _ in range(20)]
            result = idc_reciprocal_scaled(f)
            assert all(type(s) is int for s in result)
            assert result == scaled_reciprocal_by_ordinary(f)

"""Rational normalization, factorization, valuations, and congruences."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from genocchi.exact import (
    INFINITY,
    congruent_mod,
    coprime_part,
    den,
    factorize,
    is_prime,
    num,
    padic_valuation,
)
from oracles import FACTORIZE_FROZEN, primes_by_trial, trial_factor

SMALL_PRIMES = primes_by_trial(100)


class TestNumDen:
    def test_examples(self):
        assert (num(Fraction(6, 4)), den(Fraction(6, 4))) == (3, 2)
        assert (num(Fraction(-6, 4)), den(Fraction(-6, 4))) == (-3, 2)
        assert (num(Fraction(5)), den(Fraction(5))) == (5, 1)
        assert (num(0), den(0)) == (0, 1)

    def test_sign_lives_in_numerator(self):
        x = Fraction(3, -7)
        assert num(x) == -3 and den(x) == 7

    def test_den_is_smallest_positive_multiplier(self):
        for x in [Fraction(3, 8), Fraction(-5, 12), Fraction(7), Fraction(0), Fraction(22, 6)]:
            d = den(x)
            assert (d * x).denominator == 1
            for smaller in range(1, d):
                assert (smaller * x).denominator != 1

    @given(
        st.integers(-1000, 1000),
        st.integers(1, 1000),
        st.integers(1, 60),
    )
    def test_normalization_idempotent(self, p, q, k):
        assert Fraction(k * p, k * q) == Fraction(p, q)
        assert gcd(num(Fraction(p, q)), den(Fraction(p, q))) == 1


class TestFactorize:
    def test_frozen(self):
        for n, expected in FACTORIZE_FROZEN.items():
            assert factorize(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-12)

    def test_rejects_uncertifiable_remainder(self):
        # a semiprime with both factors past the bound cannot be finished
        with pytest.raises(ValueError, match="trial division bound"):
            factorize(1000003 * 1000033)

    def test_square_of_bound_is_still_factorable(self):
        assert factorize(10**12) == [(2, 12), (5, 12)]

    def test_large_smooth_numbers_factor_fully(self):
        # size alone is no obstacle when every prime factor is small
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
        n = 1
        for p in primes:
            n *= p
        assert n > 10**12
        assert factorize(n) == [(p, 1) for p in primes]
        assert factorize(2**50 * 3**30) == [(2, 50), (3, 30)]

    def test_prime_cofactor_past_the_bound_is_certified(self):
        # 99990001 is a prime above the bound, certified as it is below bound**2
        n = 73 * 137 * 99990001
        assert factorize(n) == [(73, 1), (137, 1), (99990001, 1)]
        # past bound**2 a part with no divisor up to the bound is still prime
        # while it is below the square of the next trial divisor
        assert factorize(10**12 + 39) == [(10**12 + 39, 1)]

    def test_agrees_with_naive_trial_division(self):
        for n in range(1, 2000):
            assert factorize(n) == trial_factor(n)
        # primes either side of the bound, and their product
        for n in (999983, 1000003, 999983 * 1000003):
            assert factorize(n) == trial_factor(n)

    @given(st.integers(1, 10**6))
    def test_reconstructs_and_orders(self, n):
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert e >= 1 and is_prime(p)
            prod *= p**e
        assert prod == n
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})

    def test_is_prime_matches_sieve(self):
        prime_set = set(primes_by_trial(2000))
        for n in range(-3, 2000):
            assert is_prime(n) == (n in prime_set)
        # past bound**2, a small factor still decides
        assert is_prime(2**50) is False


class TestPadicValuation:
    def test_examples(self):
        assert padic_valuation(Fraction(-691, 2730), 2) == -1
        assert padic_valuation(Fraction(-691, 2730), 13) == -1
        assert padic_valuation(Fraction(-691, 2730), 691) == 1
        assert padic_valuation(Fraction(-691, 2730), 11) == 0
        assert padic_valuation(2730, 13) == 1
        assert padic_valuation(Fraction(9, 4), 3) == 2
        assert padic_valuation(Fraction(9, 4), 2) == -2
        assert padic_valuation(1, 5) == 0

    def test_zero_maps_to_infinity(self):
        assert padic_valuation(0, 7) is INFINITY
        assert padic_valuation(Fraction(0), 2) is INFINITY

    def test_rejects_nonprime(self):
        for bad in (1, 4, 6, -3, 0):
            with pytest.raises(ValueError):
                padic_valuation(Fraction(1, 2), bad)

    @given(
        st.fractions(min_value=-100, max_value=100),
        st.fractions(min_value=-100, max_value=100),
        st.sampled_from(SMALL_PRIMES),
    )
    def test_product_and_min_rules(self, x, y, p):
        if x != 0 and y != 0:
            assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)
            lower = min(padic_valuation(x, p), padic_valuation(y, p))
            assert padic_valuation(x + y, p) >= lower


class TestInfinity:
    def test_ordering_against_integers(self):
        assert INFINITY > 10**9
        assert INFINITY >= -1
        assert not INFINITY < 5
        assert not INFINITY <= 5
        assert 5 < INFINITY
        assert -1 <= INFINITY
        assert not 5 >= INFINITY

    def test_self_comparison(self):
        assert INFINITY == INFINITY
        assert INFINITY >= INFINITY
        assert not INFINITY > INFINITY
        assert INFINITY != 5

    def test_no_arithmetic(self):
        for op in (lambda: INFINITY + 1, lambda: 1 + INFINITY,
                   lambda: INFINITY * 2, lambda: INFINITY - INFINITY):
            with pytest.raises(TypeError):
                op()

    def test_repr(self):
        assert repr(INFINITY) == "INFINITY"


class TestCoprimePart:
    def test_examples(self):
        assert coprime_part(60, 6) == 5
        assert coprime_part(12, 2) == 3
        assert coprime_part(8, 2) == 1
        assert coprime_part(200, 20) == 1
        assert coprime_part(45, 4) == 45
        assert coprime_part(1, 99) == 1

    def test_a_one_keeps_everything(self):
        for n in (1, 7, 360, 499):
            assert coprime_part(n, 1) == n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            coprime_part(0, 3)
        with pytest.raises(ValueError):
            coprime_part(3, 0)

    def test_characterization_on_grid(self):
        # coprime_part(n, a) divides n, is coprime with a, and the cofactor
        # carries only primes of a
        for n in range(1, 501):
            n_primes = {p for p, _ in factorize(n)}
            for a in range(1, 501):
                part = coprime_part(n, a)
                assert n % part == 0
                assert gcd(part, a) == 1
                cofactor = n // part
                assert all(a % p == 0 for p, _ in factorize(cofactor))
                assert {p for p, _ in factorize(part)} <= n_primes


class TestCongruence:
    def test_integer_examples(self):
        assert congruent_mod(10, 1, 3).holds
        assert not congruent_mod(10, 2, 3).holds
        assert congruent_mod(-5, 7, 12).holds

    def test_rational_examples(self):
        assert congruent_mod(Fraction(1, 3), Fraction(10, 3), 3).holds
        assert not congruent_mod(Fraction(1, 2), Fraction(3, 2), 3).holds
        assert congruent_mod(Fraction(7, 2), Fraction(1, 2), 3).holds

    def test_witness_structure(self):
        j = congruent_mod(Fraction(1, 3), Fraction(10, 3), 12)
        assert not j.holds
        assert j.modulus == 12
        assert j.witness == ((2, 0, 2), (3, 1, 1))

    def test_witness_on_zero_difference(self):
        j = congruent_mod(Fraction(5, 7), Fraction(5, 7), 6)
        assert j.holds
        assert j.witness == ((2, INFINITY, 1), (3, INFINITY, 1))

    def test_modulus_one_always_holds(self):
        j = congruent_mod(Fraction(22, 7), Fraction(-3, 5), 1)
        assert j.holds and j.witness == ()

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            congruent_mod(1, 2, 0)
        with pytest.raises(ValueError):
            congruent_mod(1, 2, -3)

    def test_criteria_agree_on_random_triples(self):
        # the valuation criterion is recomputed inside congruent_mod and a
        # disagreement with the numerator criterion raises, so a clean pass
        # over many random triples is the agreement check
        rng = random.Random(20260816)
        for _ in range(10_000):
            x = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
            y = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
            m = rng.randint(1, 400)
            j = congruent_mod(x, y, m)
            assert j.holds == ((x - y).numerator % m == 0)

    @given(
        st.fractions(min_value=-50, max_value=50),
        st.fractions(min_value=-50, max_value=50),
        st.integers(-20, 20),
        st.integers(-20, 20),
        st.integers(1, 200),
    )
    def test_congruences_add(self, x, u, j1, j2, m):
        y = x + m * j1
        v = u + m * j2
        assert congruent_mod(x, y, m).holds
        assert congruent_mod(u, v, m).holds
        assert congruent_mod(x + u, y + v, m).holds

    @given(
        st.fractions(min_value=-50, max_value=50),
        st.integers(-20, 20),
        st.integers(-30, 30),
        st.integers(1, 200),
    )
    def test_congruences_scale_by_integers(self, x, j, c, m):
        y = x + m * j
        assert congruent_mod(c * x, c * y, m).holds

    def test_congruences_do_not_multiply(self):
        # frozen counterexample: both sides are congruent mod 3, their
        # squares are not, so multiplication of congruences is not available
        x, y, m = Fraction(1, 3), Fraction(10, 3), 3
        assert congruent_mod(x, y, m).holds
        assert num(x * x - y * y) == -11
        assert not congruent_mod(x * x, y * y, m).holds

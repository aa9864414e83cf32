"""Factorization, coprime parts, and congruences over Z."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from genocchi.exact import (
    congruent_mod,
    coprime_part,
    factorize,
    is_prime,
)
from oracles import (
    FACTORIZE_FROZEN,
    congruent_by_fractions,
    primes_by_trial,
    trial_factor,
    valuation,
)


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

    def test_matches_trial_factor_oracle(self):
        # the product of n's prime powers whose prime does not divide a
        for n in range(1, 1001):
            fac = trial_factor(n)
            for a in range(1, 61):
                expected = 1
                for p, e in fac:
                    if a % p:
                        expected *= p**e
                assert coprime_part(n, a) == expected, (n, a)

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
        assert congruent_mod(10, 1, 3)
        assert not congruent_mod(10, 2, 3)
        assert congruent_mod(-5, 7, 12)
        # the difference -3 has nu_3 = 1 but nu_2 = 0 < nu_2(12) = 2
        assert congruent_mod(1, 4, 3)
        assert not congruent_mod(1, 4, 12)

    def test_modulus_one_always_holds(self):
        assert congruent_mod(22, -3, 1) is True

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            congruent_mod(1, 2, 0)
        with pytest.raises(ValueError):
            congruent_mod(1, 2, -3)

    def test_rejects_non_int_operands(self):
        # a Fraction, integral or not, never takes the Z meaning
        for x, y in (
            (Fraction(1, 3), Fraction(10, 3)),
            (1, Fraction(1, 2)),
            (Fraction(10), 1),
        ):
            with pytest.raises(ValueError, match="int operands"):
                congruent_mod(x, y, 3)

    def test_criteria_agree_on_random_triples(self):
        # the test on x - y against the valuation definition, nu_p(x - y)
        # >= nu_p(m) at every prime p of m where x = y always holds, and
        # against the oracle's numerator test
        rng = random.Random(20260816)
        for bound in (999, 10**30):
            for _ in range(5_000):
                x = rng.randint(-bound, bound)
                y = rng.randint(-bound, bound)
                m = rng.randint(1, 400)
                by_valuation = x == y or all(
                    valuation(x - y, p) >= e for p, e in trial_factor(m)
                )
                assert congruent_mod(x, y, m) is by_valuation
                assert congruent_mod(x, y, m) is congruent_by_fractions(x, y, m)

    @given(
        st.integers(-10**30, 10**30),
        st.integers(-10**30, 10**30),
        st.integers(-20, 20),
        st.integers(-20, 20),
        st.integers(1, 200),
    )
    def test_congruences_add(self, x, u, j1, j2, m):
        y = x + m * j1
        v = u + m * j2
        assert congruent_mod(x, y, m)
        assert congruent_mod(u, v, m)
        assert congruent_mod(x + u, y + v, m)

    @given(
        st.integers(-10**30, 10**30),
        st.integers(-20, 20),
        st.integers(-30, 30),
        st.integers(1, 200),
    )
    def test_congruences_scale_by_integers(self, x, j, c, m):
        y = x + m * j
        assert congruent_mod(c * x, c * y, m)

    @given(
        st.integers(-10**30, 10**30),
        st.integers(-10**30, 10**30),
        st.integers(-20, 20),
        st.integers(-20, 20),
        st.integers(1, 200),
    )
    def test_congruences_multiply(self, x, u, j1, j2, m):
        # over Z products of congruences are congruent; the int form of
        # 1/3 = 10/3 (mod 3), whose squares were not, is 1 = 10 and 1 = 100
        assert congruent_mod(1, 10, 3) and congruent_mod(1, 100, 3)
        y = x + m * j1
        v = u + m * j2
        assert congruent_mod(x * u, y * v, m)

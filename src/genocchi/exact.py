"""Exact integer primitives: factorization, coprime parts, and
congruences over Z.

Factorization is trial division with nothing precomputed, and primality is
read from it. A part left after trial division by every d with d*d <= it
is certified prime. Trial division stops at TRIAL_DIVISION_BOUND = 10^6, so
an input is rejected with ValueError, never mis-factored, when the part
left of it is at least (10^6 + 1)^2 and has no divisor up to the bound.
"""

from __future__ import annotations

from math import gcd

TRIAL_DIVISION_BOUND = 10**6


class ConsistencyError(AssertionError):
    """An internal cross-check failed; this signals an implementation bug,
    never bad user input."""


def is_prime(n: int) -> bool:
    """Whether n is prime: n >= 2 and n is its own factorization. The answer
    is certified as factorize's is, and raises ValueError where it does."""
    return n >= 2 and factorize(n) == [(n, 1)]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs with primes
    strictly increasing. The empty list is the factorization of 1.

    Trial division by 2 and the odd d while d*d <= rest, the part of n left.
    When the loop ends, rest has no divisor below d and d*d > rest, so rest
    is 1 or prime. If d passes TRIAL_DIVISION_BOUND first, rest cannot be
    certified prime and the input is rejected, never mis-factored.
    """
    if n < 1:
        raise ValueError(f"factorize needs a positive integer, got {n}")
    out: list[tuple[int, int]] = []
    rest = n
    d = 2
    while d * d <= rest:
        if d > TRIAL_DIVISION_BOUND:
            raise ValueError(
                f"unfactored part {rest} of {n} has no divisor up to the trial "
                f"division bound {TRIAL_DIVISION_BOUND} and cannot be certified prime"
            )
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return out


def coprime_part(n: int, a: int) -> int:
    """Greatest positive divisor of n that is coprime with a; for a = 2 this
    is the odd part of n."""
    if n < 1 or a < 1:
        raise ValueError(f"coprime_part needs positive integers, got n={n}, a={a}")
    # each pass divides out gcd(n, a), which has every prime of a left in n
    while (g := gcd(n, a)) > 1:
        n //= g
    return n


def congruent_mod(x: int, y: int, m: int) -> bool:
    """Decide x = y (mod m) for two ints: whether m divides x - y. Any other
    operand, a Fraction included, raises ValueError."""
    if type(x) is not int or type(y) is not int:
        raise ValueError("congruent_mod needs int operands")
    if m < 1:
        raise ValueError(f"modulus must be a positive integer, got {m}")
    return (x - y) % m == 0

"""Exact arithmetic primitives: normalized rationals, factorization,
p-adic valuations, coprime parts, and congruences extended to Q.

A rational x is always kept in lowest terms with a positive denominator,
so den(x) is the smallest positive integer d with d*x an integer and
num(x) = d*x carries the sign. On top of that convention the congruence
x = y (mod m) extends from Z to Q: it holds iff m divides num(x - y),
equivalently iff nu_p(x - y) >= nu_p(m) for every prime p dividing m.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt

DEFAULT_SIEVE_BOUND = 10**6


class ConsistencyError(AssertionError):
    """An internal cross-check failed; this signals an implementation bug,
    never bad user input."""


def num(x) -> int:
    """Numerator of x in lowest terms; the sign lives here."""
    return Fraction(x).numerator


def den(x) -> int:
    """Smallest positive integer d with d*x an integer."""
    return Fraction(x).denominator


class _InfiniteValuation:
    """The valuation of zero. Compares greater than every finite valuation
    and deliberately supports no arithmetic, so it can never be mistaken
    for a large integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash(type(self))

    def __gt__(self, other):
        if isinstance(other, int) or other is self:
            return other is not self
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, int) or other is self:
            return True
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, int) or other is self:
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, int) or other is self:
            return other is self
        return NotImplemented


INFINITY = _InfiniteValuation()

Valuation = int | _InfiniteValuation


@cache
def _sieve() -> tuple[list[int], frozenset[int]]:
    """The primes up to DEFAULT_SIEVE_BOUND, by a sieve of Eratosthenes."""
    bound = DEFAULT_SIEVE_BOUND
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * len(range(start, bound + 1, p))
    primes = [i for i, f in enumerate(flags) if f]
    return primes, frozenset(primes)


def is_prime(n: int) -> bool:
    """Primality by trial division against the sieve; exact for n up to the
    square of DEFAULT_SIEVE_BOUND."""
    if n < 2:
        return False
    primes, prime_set = _sieve()
    if n <= DEFAULT_SIEVE_BOUND:
        return n in prime_set
    if n > DEFAULT_SIEVE_BOUND**2:
        raise ValueError(
            f"cannot decide primality of {n}: exceeds the square of the sieve "
            f"bound {DEFAULT_SIEVE_BOUND}"
        )
    root = isqrt(n)
    for p in primes[: bisect.bisect_right(primes, root)]:
        if n % p == 0:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs with primes
    strictly increasing. The empty list is the factorization of 1.

    Trial division against a precomputed sieve. The input itself may be
    arbitrarily large as long as it is smooth enough: only when the part
    left after dividing out every sieve prime exceeds the square of
    DEFAULT_SIEVE_BOUND (so its primality cannot be certified) is the input
    rejected, never silently mis-factored.
    """
    if n < 1:
        raise ValueError(f"factorize needs a positive integer, got {n}")
    out: list[tuple[int, int]] = []
    rest = n
    for p in _sieve()[0]:
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
    if rest > 1:
        if rest > DEFAULT_SIEVE_BOUND**2:
            raise ValueError(
                f"unfactored part {rest} of {n} exceeds the square of the "
                f"sieve bound {DEFAULT_SIEVE_BOUND}"
            )
        # rest has no prime factor <= the bound >= sqrt(rest), so rest is prime
        out.append((rest, 1))
    return out


def _multiplicity(n: int, p: int) -> int:
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def padic_valuation(x, p: int):
    """nu_p(x) for a rational x: the exponent of p in num(x) minus the
    exponent in den(x). Returns INFINITY for x = 0."""
    if not is_prime(p):
        raise ValueError(f"padic_valuation needs a prime, got {p}")
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return _multiplicity(x.numerator, p) - _multiplicity(x.denominator, p)


def coprime_part(n: int, a: int) -> int:
    """Greatest positive divisor of n that is coprime with a; for a = 2 this
    is the odd part of n."""
    if n < 1 or a < 1:
        raise ValueError(f"coprime_part needs positive integers, got n={n}, a={a}")
    out = 1
    for p, e in factorize(n):
        if a % p != 0:
            out *= p**e
    return out


@dataclass(frozen=True)
class CongruenceJudgment:
    """Outcome of a congruence test over Q. The witness lists, for each prime
    p dividing the modulus, the pair of valuations nu_p(difference) and
    nu_p(modulus); the congruence holds iff the former is >= the latter at
    every listed prime."""

    holds: bool
    modulus: int
    witness: tuple[tuple[int, Valuation, int], ...]


def congruent_mod(x, y, m: int) -> CongruenceJudgment:
    """Decide x = y (mod m) over Q: whether m divides num(x - y).

    Both characterizations (numerator divisibility and the per-prime
    valuation comparison) are evaluated and must agree.
    """
    if m < 1:
        raise ValueError(f"modulus must be a positive integer, got {m}")
    diff = Fraction(x) - Fraction(y)
    by_numerator = diff.numerator % m == 0
    witness = []
    by_valuation = True
    for p, e in factorize(m):
        v = padic_valuation(diff, p)
        witness.append((p, v, e))
        if not v >= e:
            by_valuation = False
    if by_numerator != by_valuation:
        raise ConsistencyError(
            f"congruence criteria disagree for x={x}, y={y}, m={m}: "
            f"numerator says {by_numerator}, valuations say {by_valuation}"
        )
    return CongruenceJudgment(holds=by_numerator, modulus=m, witness=tuple(witness))

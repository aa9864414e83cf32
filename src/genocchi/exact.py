"""Exact arithmetic primitives: normalized rationals, factorization,
p-adic valuations, coprime parts, and congruences extended to Q.

A rational x is always kept in lowest terms with a positive denominator,
so den(x) is the smallest positive integer d with d*x an integer and
num(x) = d*x carries the sign. On top of that convention the congruence
x = y (mod m) extends from Z to Q: it holds iff m divides num(x - y),
equivalently iff nu_p(x - y) >= nu_p(m) for every prime p dividing m.

Factorization is trial division with nothing precomputed, and primality is
read from it. A part left after trial division by every d with d*d <= it
is certified prime. Trial division stops at TRIAL_DIVISION_BOUND = 10^6, so
an input is rejected with ValueError, never mis-factored, when the part
left of it is at least (10^6 + 1)^2 and has no divisor up to the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

TRIAL_DIVISION_BOUND = 10**6


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
            e = _multiplicity(rest, d)
            rest //= d**e
            out.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
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
    return _valuation(Fraction(x), p)


def _valuation(x: Fraction, p: int) -> Valuation:
    """nu_p(x) for a p the caller has already certified prime."""
    if x == 0:  # _multiplicity(0, p) would never return
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
        v = _valuation(diff, p)  # p comes from factorize, so it is prime
        witness.append((p, v, e))
        if not v >= e:
            by_valuation = False
    if by_numerator != by_valuation:
        raise ConsistencyError(
            f"congruence criteria disagree for x={x}, y={y}, m={m}: "
            f"numerator says {by_numerator}, valuations say {by_valuation}"
        )
    return CongruenceJudgment(holds=by_numerator, modulus=m, witness=tuple(witness))

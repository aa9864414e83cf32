"""Grid verification of arithmetic properties of the generalized Genocchi
numbers, with exact counterexample capture.

Every claim is checked with integer or rational arithmetic only; a grid
run either reports zero failures or pins each failing point with the
observed and expected values; a point is a one-point grid. A mutation mode
perturbs a single table value on purpose, so the harness can demonstrate
that it is capable of rejecting a false statement.
"""

from __future__ import annotations

import os
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from math import gcd
from time import perf_counter

from .exact import congruent_mod, coprime_part
from .series import idc_reciprocal_scaled
from .special import (
    BernoulliTable,
    bernoulli_table,
    gen_genocchi_bernoulli,
    gen_genocchi_table,
    genocchi_table,
    von_staudt_clausen_sum,
)

PROP1_ORDER = 30  # the order of every prop1_idc trial series
PROP1_COEFF_RANGE = (-9, 9)
PROP1_CONSTANT_RANGE = (1, 5)


class TheoremId(Enum):
    """The verifiable statements. Values double as CLI tokens."""

    LEMMA_N_DIV = "lemma_n_div"
    THEOREM1 = "theorem1"
    THEOREM2 = "theorem2"
    COROLLARY2 = "corollary2"
    GCD_COROLLARY = "gcd_corollary"
    ODD_GENOCCHI = "odd_genocchi"
    VSC_INTEGRALITY = "vsc_integrality"
    PROP1_IDC = "prop1_idc"
    PROP2_EQUIV = "prop2_equiv"


@dataclass(frozen=True)
class GridFailure:
    """One failing grid point. `a` is None for statements that do not range
    over a base."""

    n: int
    a: int | None
    observed: str
    expected: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one grid run. Reports of identical runs compare equal;
    elapsed_s is excluded from the comparison."""

    theorem: TheoremId
    n_range: tuple[int, int]
    a_range: tuple[int, int] | None
    checked: int
    failures: tuple[GridFailure, ...]
    notes: tuple[str, ...] = ()
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures


def _prop1_trial_series(trial: int, order: int) -> list[int]:
    """The derivative values a_0..a_order of one random IDC series: a_0 drawn
    from PROP1_CONSTANT_RANGE and the rest from PROP1_COEFF_RANGE, each as
    `randint` draws it on CPython 3.10-3.13, lo + r with r = getrandbits(k)
    for k the bit length of the width, redrawn while r >= width."""
    # deterministic per trial: the trial index seeds the generator
    bits = random.Random(trial).getrandbits
    values = []
    for (lo, hi), count in ((PROP1_CONSTANT_RANGE, 1), (PROP1_COEFF_RANGE, order)):
        width = hi - lo + 1
        k = width.bit_length()
        for _ in range(count):
            while (r := bits(k)) >= width:
                pass
            values.append(lo + r)
    return values


# A statement's table, and the way a point fails. These reach package
# functions through module globals at call time, so rebinding a module
# attribute (as a tracer does) takes effect here too.


def _base(a: int | None) -> int:
    """The base of the column a statement reads at a; one without bases
    reads the classical column, a = 2."""
    return 2 if a is None else a


def _column(a: int, n_hi: int) -> list[int]:
    """The base-a column to n_hi, built through genocchi_table when a is 2."""
    return genocchi_table(n_hi) if a == 2 else gen_genocchi_table(a, n_hi)


def _lemma_n_div_failures(n, a, g, beside):
    r = pow(a, n - 1, n) * g % n
    if r:
        return f"a^(n-1)*G = {r} (mod {n}) with G = {g}", f"0 (mod {n})"


def _theorem1_failures(n, a, g, beside):
    pi = coprime_part(n, a)
    r = g % pi
    if r:
        return f"G = {g} = {r} (mod {pi})", f"0 (mod {pi})"


def _theorem2_failures(n, a, g, beside):
    # G - (1 - n*a/2) = x/2 with x = 2(G - 1) + n*a; in lowest terms its
    # numerator is x when x is odd and x/2 when x is even
    x = 2 * (g - 1) + n * a
    num = x if x & 1 else x >> 1
    if not congruent_mod(num, 0, a):
        return f"num(G - (1 - n*a/2)) = {num}", f"0 (mod {a})"


def _corollary2_failures(n, a, g, beside):
    # odd a: G = 1 (mod a) for all n; even a: 1 for even n, 1 + a/2 for odd n
    target = (1 + a // 2 if a % 2 == 0 and n % 2 == 1 else 1) % a
    r = g % a
    if r != target:
        return f"G = {r} (mod {a})", f"{target} (mod {a})"


def _gcd_corollary_failures(n, a, g, beside):
    d = gcd(g, a)
    if d not in (1, 2) or (d == 2) != (a % 4 == 2 and n % 2 == 1):
        return f"gcd(G, a) = {d} with G = {g}", "1, or 2 exactly when a = 2 (mod 4) and n is odd"


def _odd_genocchi_failures(n, a, g, beside):
    if g % 2 != 1:
        return f"G_{n} = {g}", "an odd integer"


def _vsc_integrality_failures(n, a, g, bern):
    s = von_staudt_clausen_sum(n, bern)
    if s.denominator != 1:
        return f"B_n + sum 1/p = {s}", "an integer"


def _prop1_idc_failures(n, a, g, beside):
    # n is the trial index
    h = idc_reciprocal_scaled(_prop1_trial_series(n, PROP1_ORDER))
    if any(h_k.denominator != 1 for h_k in h):
        return (
            f"scaled reciprocal left the integers (trial {n})",
            f"integer coefficients through order {PROP1_ORDER}",
        )


def _prop2_equiv_failures(n, a, g, by_sums):
    if by_sums[n] != g:
        return f"series route {g}, Bernoulli route {by_sums[n]}", "exact equality"


@dataclass(frozen=True)
class Statement:
    """Everything the grid runner knows about one statement.

    A statement without bases runs as a single column with a = None. When
    `table` is set, each point's value g comes from the base-a column, or
    from the classical column when a is None; otherwise g is None. A
    mutation bumps a table value, so only statements with a table take one.
    `describe(n, a, g, beside)` returns the (observed, expected) pair of a
    failing point, or None. `beside` is the one value it reads besides G:
    the Bernoulli table (vsc_integrality), the base-a column by the
    Bernoulli-sum route (prop2_equiv), or None.
    """

    describe: Callable[..., tuple[str, str] | None]
    min_n: int = 1
    even_only: bool = False
    even_base_min_n: int = 1  # smallest n checked at an even base
    over_a: bool = False
    table: bool = False
    bernoulli: bool = False  # reads a Bernoulli table

    def n_values(self, a: int | None, n_lo: int, n_hi: int) -> range:
        """The n checked at base a, within the clamped [n_lo, n_hi]."""
        if self.even_only:
            return range(n_lo + n_lo % 2, n_hi + 1, 2)
        if a is not None and a % 2 == 0:
            n_lo = max(n_lo, self.even_base_min_n)
        return range(n_lo, n_hi + 1)


STATEMENTS: dict[TheoremId, Statement] = {
    TheoremId.LEMMA_N_DIV: Statement(_lemma_n_div_failures, over_a=True, table=True),
    TheoremId.THEOREM1: Statement(_theorem1_failures, over_a=True, table=True),
    TheoremId.THEOREM2: Statement(_theorem2_failures, min_n=2, over_a=True, table=True),
    TheoremId.COROLLARY2: Statement(
        _corollary2_failures, even_base_min_n=2, over_a=True, table=True
    ),
    TheoremId.GCD_COROLLARY: Statement(_gcd_corollary_failures, min_n=2, over_a=True, table=True),
    TheoremId.ODD_GENOCCHI: Statement(_odd_genocchi_failures, min_n=2, even_only=True, table=True),
    TheoremId.VSC_INTEGRALITY: Statement(
        _vsc_integrality_failures, min_n=2, even_only=True, bernoulli=True
    ),
    TheoremId.PROP1_IDC: Statement(_prop1_idc_failures),
    TheoremId.PROP2_EQUIV: Statement(
        _prop2_equiv_failures, over_a=True, table=True, bernoulli=True
    ),
}


def _map(fn, items, *more, jobs: int):
    """map(fn, items, *more), in order: lazily in this process, so a caller
    that keeps no result holds one at a time, or on at most `jobs` worker
    processes, never more than one per item or per CPU. The only code that
    starts a process pool."""
    jobs = min(jobs, len(items), os.cpu_count() or 1)
    if jobs <= 1:
        return map(fn, items, *more)
    # imported here, not at module level, so that single-process runs do
    # not pay for it at start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, *more))


def run_grid(
    theorem: TheoremId,
    n_range: tuple[int, int],
    a_range: tuple[int, int] | None = None,
    *,
    jobs: int = 1,
    mutate: tuple[int, int] | None = None,
    bernoulli: BernoulliTable | None = None,
    columns: dict[tuple[int, int], list[int]] | None = None,
) -> VerificationReport:
    """Check one statement over an inclusive (n, a) grid.

    Ranges are adjusted to the statement's hypotheses (recorded in notes);
    an empty grid after adjustment is an error. `mutate` = (n, a) bumps that
    one table value by 1 before checking, to prove the harness can fail; a
    mutated grid with no failure at (n, a) is an error. prop1_idc notes the
    order of its trial series, always PROP1_ORDER. The columns to build,
    series columns and prop2_equiv's Bernoulli-sum columns, are built on at
    most `jobs` worker processes, never more than one per column or per CPU;
    the checks run in this process. Failures come back sorted by (n, a);
    two identical runs produce equal reports apart from elapsed_s.

    `columns` memoises columns by (a, n_max), a being 2 for the classical
    column: a column found there is not built again, and each column built
    is stored there, never in its mutated form. Runs that share one dict
    (the statements of one command) build each column once.
    """
    start = perf_counter()
    statement = STATEMENTS[theorem]
    notes: list[str] = []
    n_lo, n_hi = n_range
    if n_lo < statement.min_n:
        notes.append(f"n raised from {n_lo} to {statement.min_n} ({theorem.value} hypothesis)")
        n_lo = statement.min_n
    if statement.even_only and n_lo % 2 != 0:
        notes.append(f"{theorem.value} checks even n only")

    a_lo = a_hi = None
    bases = (None,)
    if statement.over_a:
        if a_range is None:
            raise ValueError(f"{theorem.value} needs an a-range")
        a_lo, a_hi = a_range
        if a_lo < 2:
            notes.append(f"a raised from {a_lo} to 2 (bases start at 2)")
            a_lo = 2
        if a_lo > a_hi:
            raise ValueError(f"empty a-range for {theorem.value}: {a_range}")
        bases = range(a_lo, a_hi + 1)
    elif a_range is not None:
        notes.append(f"{theorem.value} does not range over a; a-range ignored")
    if statement.even_base_min_n > statement.min_n:
        notes.append(
            f"even bases checked for n >= {statement.even_base_min_n}, "
            f"odd bases for n >= {statement.min_n}"
        )
    if not any(statement.n_values(a, n_lo, n_hi) for a in bases):
        raise ValueError(f"empty n-range for {theorem.value}: {n_range}")

    if mutate is not None:
        mn, ma = mutate
        if not statement.table:
            raise ValueError(f"mutation is not supported for {theorem.value}")
        if not statement.over_a:
            if ma != 2:
                raise ValueError(f"{theorem.value} tables are the a = 2 column; use a = 2")
        elif not (a_lo <= ma <= a_hi):
            raise ValueError(f"mutation target a = {ma} is outside [{a_lo}, {a_hi}]")
        at = ma if statement.over_a else None
        if mn not in statement.n_values(at, n_lo, n_hi):
            why = "outside the checked range"
            if statement.even_only:
                why = "not a checked even index"
            raise ValueError(f"mutation target n = {mn} is {why}")
        notes.append(f"mutation applied at (n={mn}, a={ma})")

    bern = None
    if statement.bernoulli:
        bern = bernoulli if bernoulli is not None else bernoulli_table(n_hi)

    if theorem is TheoremId.PROP1_IDC:
        notes.append(f"trial series of order {PROP1_ORDER}")

    if columns is None:
        columns = {}
    if statement.table:
        missing = [a for a in map(_base, bases) if (a, n_hi) not in columns]
        built = _map(_column, missing, repeat(n_hi), jobs=jobs)
        columns.update(((a, n_hi), column) for a, column in zip(missing, built))
    # what the describer reads beside G: prop2_equiv its base's column by the
    # Bernoulli-sum route, the other statements `bern`
    besides = repeat(bern)
    if theorem is TheoremId.PROP2_EQUIV:
        besides = _map(gen_genocchi_bernoulli, bases, repeat(n_hi), repeat(bern), jobs=jobs)
    failures: list[GridFailure] = []
    checked = 0
    for a, beside in zip(bases, besides):
        values = None
        if statement.table:
            values = columns[(_base(a), n_hi)]
            if mutate is not None and _base(a) == ma:
                values = list(values)  # the memo keeps the unmutated column
                values[mn] += 1
        n_values = statement.n_values(a, n_lo, n_hi)
        checked += len(n_values)
        for n in n_values:
            if fault := statement.describe(n, a, None if values is None else values[n], beside):
                failures.append(GridFailure(n, a, *fault))
    failures.sort(key=lambda fl: (fl.n, fl.a if fl.a is not None else 0))
    if mutate is not None and not any((f.n, f.a) == (mn, at) for f in failures):
        # a bump the statement cannot see would pass the self-test silently
        raise ValueError(
            f"mutation at (n={mn}, a={ma}) is invisible to {theorem.value}: "
            "G + 1 still satisfies it"
        )
    return VerificationReport(
        theorem=theorem,
        n_range=(n_lo, n_hi),
        a_range=(a_lo, a_hi) if statement.over_a else None,
        checked=checked,
        failures=tuple(failures),
        notes=tuple(notes),
        elapsed_s=perf_counter() - start,
    )

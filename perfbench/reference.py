"""Reference values the benchmark checks every output against.

They come from routes that share no code with the package: Bernoulli
numbers from the classical recurrence in the test oracles, generalized
Genocchi columns from the Bernoulli-sum identity over those numbers in
integer arithmetic, and verification point counts from the statements'
hypotheses as the paper gives them. All of it is computed before timing
starts.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from math import lcm
from operator import mul
from pathlib import Path


def load_oracles(root: Path):
    """Import tests/oracles.py from the checkout without touching it."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def verify_points(n_max: int, a_max: int) -> dict[str, int]:
    """Points `verify all --n-max n_max --a-max a_max` checks, per statement,
    in the order the CLI reports them. Bases run over 2..a_max."""
    bases = range(2, a_max + 1)
    per_base = len(bases)
    return {
        "lemma_n_div": n_max * per_base,
        "theorem1": n_max * per_base,
        "theorem2": (n_max - 1) * per_base,
        # odd bases from n = 1, even bases from n = 2
        "corollary2": sum(n_max if a % 2 else n_max - 1 for a in bases),
        "gcd_corollary": (n_max - 1) * per_base,
        "odd_genocchi": n_max // 2,
        "vsc_integrality": n_max // 2,
        "prop1_idc": n_max,
        "prop2_equiv": n_max * per_base,
    }


class References:
    """B_0..B_bernoulli_max, plus generalized Genocchi columns added on
    demand."""

    def __init__(self, oracles, bernoulli_max: int = 1):
        self.bernoulli: list[Fraction] = oracles.bernoulli_recurrence(bernoulli_max)
        if self.bernoulli[1] != Fraction(-1, 2):
            raise RuntimeError("reference convention broken: B_1 must be -1/2")
        self.columns: dict[int, list[int]] = {}

    def add_column(self, a: int, n_max: int) -> None:
        """G_{0,a}..G_{n_max,a} from G_{n,a} = sum_{k<n} C(n,k) B_k a^k, with
        every B_k scaled to the common denominator so the sums are exact
        integer sums."""
        if len(self.bernoulli) < n_max:
            raise ValueError(f"reference Bernoulli table is too short for n = {n_max}")
        bern = self.bernoulli[:n_max]
        common = lcm(*(b.denominator for b in bern))
        scaled = [b.numerator * (common // b.denominator) * a**k for k, b in enumerate(bern)]
        column = [0]
        row = [1]
        for n in range(1, n_max + 1):
            row = [1] + [row[k - 1] + row[k] for k in range(1, n)] + [1]
            total, rest = divmod(sum(map(mul, row, scaled[:n])), common)
            if rest:
                raise RuntimeError(f"reference G_({n},{a}) is not an integer")
            column.append(total)
        if column[1] != 1:
            raise RuntimeError("reference convention broken: G_1 must be +1")
        self.columns[a] = column

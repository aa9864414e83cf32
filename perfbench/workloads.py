"""The four workloads: how each draws distinct CLI invocations from a
seed, what it prepares before timing starts, and how it checks an output.

Every workload splits its invocations into cost classes, and a round runs
one invocation from every class in a seeded order. The benchmark only
stops at the end of a round, so every run sees the same mix of sizes and
the medians do not depend on which seed drew which sizes. No argv repeats
within a run; when a class has no unused invocation left, the schedule
ends and the run measures what it has.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from reference import References, verify_points

FORMATS = ("csv", "json")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the work it does (entries or coefficients
    emitted, or grid points checked). `a` is the base of a column, or the
    largest base of a verify grid."""

    argv: tuple[str, ...]
    n_max: int
    a: int | None
    fmt: str
    work: int
    fresh_path: Path | None = None


def _bands(lo: int, hi: int, width: int) -> list[range]:
    return [range(s, min(s + width, hi + 1)) for s in range(lo, hi + 1, width)]


class Workload:
    name = ""
    tail_percentile = 75
    trace_rounds = 1
    work_unit = ""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def prepare(self, cli_main) -> None:
        """The workload's own preparation, paid once per process."""

    def warm_up_argv(self) -> list[str]:
        raise NotImplementedError

    def classes(self) -> list[list[tuple]]:
        """Cost classes; each is a list of distinct variants."""
        raise NotImplementedError

    def make_op(self, variant: tuple, serial: int) -> Op:
        raise NotImplementedError

    def references(self, oracles) -> References:
        raise NotImplementedError

    def check(self, op: Op, out: str, refs: References) -> bool:
        raise NotImplementedError

    def rounds(self, rng):
        """Yield rounds of Ops: one unused variant per class, classes in a
        seeded order."""
        pools = [rng.sample(c, len(c)) for c in self.classes()]
        serial = 0
        for r in range(min(len(p) for p in pools)):
            ops = []
            for i in rng.sample(range(len(pools)), len(pools)):
                ops.append(self.make_op(pools[i][r], serial))
                serial += 1
            yield ops


def _parse_bernoulli(out: str, fmt: str) -> list[Fraction]:
    if fmt == "json":
        return [Fraction(int(v["num"]), int(v["den"])) for v in json.loads(out)["values"]]
    rows = out.splitlines()
    if rows[0] != "index,numerator,denominator":
        raise ValueError("unexpected CSV header")
    values = []
    for i, row in enumerate(rows[1:]):
        index, numerator, denominator = row.split(",")
        if int(index) != i:
            raise ValueError(f"row {i} carries index {index}")
        values.append(Fraction(int(numerator), int(denominator)))
    return values


def _check_bernoulli(op: Op, out: str, refs: References) -> bool:
    values = _parse_bernoulli(out, op.fmt)
    return (
        len(values) == op.n_max + 1
        and values[1] == Fraction(-1, 2)
        and values == refs.bernoulli[: op.n_max + 1]
    )


class VerifyGrid(Workload):
    """`verify all` over small grids against a warm Bernoulli cache."""

    name = "verify_grid"
    trace_rounds = 2
    work_unit = "grid points checked"
    N_LO, N_HI, A_LO, A_HI = 12, 35, 3, 10
    CLASSES = 16

    @property
    def cache_path(self) -> Path:
        return self.work_dir / "verify_cache.json"

    def prepare(self, cli_main) -> None:
        _run_quiet(cli_main, ["bernoulli", "--n-max", str(self.N_HI),
                              "--cache-path", str(self.cache_path)])

    def warm_up_argv(self) -> list[str]:
        return ["verify", "all", "--n-max", "6", "--a-max", "3", "--jobs", "1",
                "--cache-path", str(self.cache_path)]

    def classes(self):
        # grids sorted by the series terms they compute (6(A-1)N^2 for the
        # columns, 465N for the order-30 prop1 trials), so each class holds
        # grids of nearly equal cost
        grids = sorted(
            ((n, a, fmt) for n in range(self.N_LO, self.N_HI + 1)
             for a in range(self.A_LO, self.A_HI + 1) for fmt in FORMATS),
            key=lambda v: 6 * (v[1] - 1) * v[0] ** 2 + 465 * v[0],
        )
        size = len(grids) // self.CLASSES
        return [grids[i : i + size] for i in range(0, len(grids), size)]

    def make_op(self, variant, serial):
        n, a, fmt = variant
        argv = ("verify", "all", "--n-max", str(n), "--a-max", str(a), "--jobs", "1",
                "--format", fmt, "--cache-path", str(self.cache_path))
        work = sum(verify_points(n, a).values())
        return Op(argv, n, a, fmt, work)

    def references(self, oracles):
        return References(oracles)

    def check(self, op, out, refs):
        expected = verify_points(op.n_max, op.a)
        if op.fmt == "json":
            reports = [(r["theorem"], r["checked"], r["failure_count"]) for r in json.loads(out)]
        else:
            reports = [
                (row[1], int(row[6]), int(row[7]))
                for row in csv.reader(io.StringIO(out))
                if row and row[0] == "report"
            ]
        return reports == [(t, c, 0) for t, c in expected.items()]


class GenocchiColumn(Workload):
    """`genocchi --n-max N --a A --format json` over long columns."""

    name = "genocchi_column"
    trace_rounds = 2
    work_unit = "coefficients emitted"
    N_LO, N_HI, A_LO, A_HI = 120, 179, 3, 20

    def warm_up_argv(self):
        return ["genocchi", "--n-max", "8", "--a", "3", "--format", "json"]

    def classes(self):
        return [
            [(n, a) for n in ns for a in az]
            for ns in _bands(self.N_LO, self.N_HI, 10)
            for az in _bands(self.A_LO, self.A_HI, 9)
        ]

    def make_op(self, variant, serial):
        n, a = variant
        argv = ("genocchi", "--n-max", str(n), "--a", str(a), "--format", "json")
        return Op(argv, n, a, "json", n + 1)

    def references(self, oracles):
        refs = References(oracles, bernoulli_max=self.N_HI)
        for a in range(self.A_LO, self.A_HI + 1):
            refs.add_column(a, self.N_HI)
        return refs

    def check(self, op, out, refs):
        payload = json.loads(out)
        values = [int(v) for v in payload["values"]]
        return (
            payload["a"] == op.a
            and payload["n_max"] == op.n_max
            and len(values) == op.n_max + 1
            and values[1] == 1
            and values == refs.columns[op.a][: op.n_max + 1]
        )


class BernoulliCold(Workload):
    """`bernoulli --n-max N` with a cache path that does not exist yet, so
    every invocation builds the table and writes the cache."""

    name = "bernoulli_cold"
    work_unit = "Bernoulli entries emitted"
    N_LO, N_HI = 100, 259

    def warm_up_argv(self):
        return ["bernoulli", "--n-max", "8", "--cache-path",
                str(self.work_dir / "cold_warm_up.json")]

    def classes(self):
        return [[(n, fmt) for n in ns for fmt in FORMATS] for ns in _bands(self.N_LO, self.N_HI, 4)]

    def make_op(self, variant, serial):
        n, fmt = variant
        path = self.work_dir / f"cold_{serial}.json"
        argv = ("bernoulli", "--n-max", str(n), "--format", fmt, "--cache-path", str(path))
        return Op(argv, n, None, fmt, n + 1, fresh_path=path)

    def references(self, oracles):
        return References(oracles, bernoulli_max=self.N_HI)

    def check(self, op, out, refs):
        return _check_bernoulli(op, out, refs)


class BernoulliWarm(Workload):
    """`bernoulli --n-max N` served from one of several prefilled caches
    (load, validation, spot re-derivation, rendering)."""

    name = "bernoulli_warm"
    tail_percentile = 99
    trace_rounds = 30
    work_unit = "Bernoulli entries emitted"
    CACHE_MAXES = tuple(range(190, 251, 4))
    N_LO = 16

    def cache_path(self, m: int) -> Path:
        return self.work_dir / f"warm_{m}.json"

    def prepare(self, cli_main) -> None:
        # build the largest table through the CLI, then store its prefixes
        # with the package's own cache writer
        from genocchi.cache import load_bernoulli_cache, save_bernoulli_cache
        from genocchi.special import BernoulliTable

        top = self.CACHE_MAXES[-1]
        _run_quiet(cli_main, ["bernoulli", "--n-max", str(top),
                              "--cache-path", str(self.cache_path(top))])
        table = load_bernoulli_cache(self.cache_path(top))
        for m in self.CACHE_MAXES[:-1]:
            save_bernoulli_cache(self.cache_path(m), BernoulliTable(table.values[: m + 1]))

    def warm_up_argv(self):
        return ["bernoulli", "--n-max", "4", "--cache-path",
                str(self.cache_path(self.CACHE_MAXES[0]))]

    def classes(self):
        return [
            [(m, n, fmt) for n in range(self.N_LO, m + 1) for fmt in FORMATS]
            for m in self.CACHE_MAXES
        ]

    def make_op(self, variant, serial):
        m, n, fmt = variant
        argv = ("bernoulli", "--n-max", str(n), "--format", fmt,
                "--cache-path", str(self.cache_path(m)))
        return Op(argv, n, None, fmt, n + 1)

    def references(self, oracles):
        return References(oracles, bernoulli_max=self.CACHE_MAXES[-1])

    def check(self, op, out, refs):
        return _check_bernoulli(op, out, refs)


WORKLOADS = {w.name: w for w in (VerifyGrid, GenocchiColumn, BernoulliCold, BernoulliWarm)}


def _run_quiet(cli_main, argv) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {buf.getvalue()[-500:]}")

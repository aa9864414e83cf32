"""Check the frontier digests in frontier_digests.json by one route.

The file pins values far past the frozen tables: the sha256 of
",".join(map(str, column)) for the column G_{0..1000,a} at every base
a = 2..100, and of B_0..B_2000 written the same way. Tier-1 checks the
a = 2 column, and B_0..B_2000 from Seidel's triangle alone; this script
checks everything, by the route chosen:

  series     each column from the generating function (gen_genocchi_table),
             and B_n = G_n / (2 (1 - 2^n)) from the base-2 column
  transform  each column by the Bernoulli-sum route (gen_genocchi_bernoulli)
             over the table from Seidel's triangle, and B from bernoulli_table

Run from the repository root:

    PYTHONPATH=src python tests/check_frontier.py --route transform
    PYTHONPATH=src python tests/check_frontier.py --route series --emit > digests.json

It exits 0 when every digest matches and 1 otherwise, naming each
mismatch. --emit prints the digests it computes, in the file's layout,
instead of checking them; a digest is worth committing only when both
routes emit it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from genocchi.special import (
    bernoulli_table,
    gen_genocchi_bernoulli,
    gen_genocchi_table,
    genocchi_table,
)

DIGESTS = Path(__file__).with_name("frontier_digests.json")
COLUMN_N_MAX = 1000
BASES = range(2, 101)
BERNOULLI_MAX_INDEX = 2000


def digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


def bernoulli_values(route: str, max_index: int) -> list[Fraction]:
    if route == "transform":
        return list(bernoulli_table(max_index).values)
    column = genocchi_table(max_index)
    return [Fraction(1)] + [Fraction(g, 2 * (1 - 2**n)) for n, g in enumerate(column) if n]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--route", choices=("series", "transform"), required=True)
    p.add_argument("--emit", action="store_true", help="print the digests instead of checking")
    args = p.parse_args(argv)

    start = time.perf_counter()
    table = bernoulli_table(COLUMN_N_MAX - 1) if args.route == "transform" else None
    columns = {}
    for a in BASES:
        if args.route == "transform":
            column = gen_genocchi_bernoulli(a, COLUMN_N_MAX, table)
        else:
            column = gen_genocchi_table(a, COLUMN_N_MAX)
        columns[str(a)] = digest(column)
        print(f"a = {a}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    bernoulli = digest(bernoulli_values(args.route, BERNOULLI_MAX_INDEX))
    print(f"{args.route} route: {time.perf_counter() - start:.1f} s", file=sys.stderr)

    computed = {
        "column_n_max": COLUMN_N_MAX,
        "columns": columns,
        "bernoulli_max_index": BERNOULLI_MAX_INDEX,
        "bernoulli": bernoulli,
    }
    if args.emit:
        print(json.dumps(computed, indent=1))
        return 0
    pinned = json.loads(DIGESTS.read_text())
    bad = [f"a = {a}" for a in columns if columns[a] != pinned["columns"][a]]
    if bernoulli != pinned["bernoulli"]:
        bad.append(f"B_0..B_{BERNOULLI_MAX_INDEX}")
    for what in bad:
        print(f"mismatch: {what}", file=sys.stderr)
    print(f"{len(columns) + 1 - len(bad)} of {len(columns) + 1} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Check every frontier digest in frontier_digests.json.

The file pins values far past the frozen tables: the sha256 of
",".join(map(str, values)) for the column G_{0..N,a} at each base a it
lists and for B_0..B_M, with N, M and the bases read from the file
(N = 1000, a = 2..100 and M = 2000 today). Tier-1 checks the a = 2 column,
and B_0..B_M from Seidel's triangle alone; one run of this script checks
each digest by these routes:

  B_0..B_M      from Seidel's triangle (bernoulli_table), and from the
                tangent numbers (tests/oracles.py, bernoulli_by_tangent)
  each column   by the Bernoulli-sum route (gen_genocchi_bernoulli) over
                that one table
  a = 3, 20     also from the generating function (gen_genocchi_table),
                at bases whose power sums have no zero term

bernoulli_table raises ConsistencyError unless every B_n, n = 1..M,
agrees with the base-2 series column (genocchi_table) through
G_n = 2 (1 - 2^n) B_n; that cross-check is the series route's check of
B_0..B_M, so a matching digest from the table pins that route too.

Run from the repository root:

    PYTHONPATH=src python tests/check_frontier.py

Each check prints its label and the elapsed time to stderr, and
"mismatch: <label>" when its digest differs. The last line on stdout is
"k of m digests match"; the exit code is 0 when all match and 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

from genocchi.special import bernoulli_table, gen_genocchi_bernoulli, gen_genocchi_table
from oracles import bernoulli_by_tangent

DIGESTS = Path(__file__).with_name("frontier_digests.json")
SERIES_BASES = (3, 20)


def digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


def main() -> int:
    pinned = json.loads(DIGESTS.read_text())
    n_max, max_index = pinned["column_n_max"], pinned["bernoulli_max_index"]
    start = time.perf_counter()
    matched = []

    def check(label, values, expected):
        matched.append(digest(values) == expected)
        print(f"{label}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
        if not matched[-1]:
            print(f"mismatch: {label}", file=sys.stderr)

    table = bernoulli_table(max_index)
    bernoulli = pinned["bernoulli"]
    check(f"B_0..B_{max_index} from Seidel's triangle", table.values, bernoulli)
    check(f"B_0..B_{max_index} by the tangent numbers", bernoulli_by_tangent(max_index), bernoulli)
    columns = pinned["columns"]
    for a in columns:
        column = gen_genocchi_bernoulli(int(a), n_max, table)
        check(f"a = {a} by the Bernoulli-sum route", column, columns[a])
    for a in SERIES_BASES:
        check(f"a = {a} by the series route", gen_genocchi_table(a, n_max), columns[str(a)])
    print(f"{sum(matched)} of {len(matched)} digests match")
    return 0 if all(matched) else 1


if __name__ == "__main__":
    sys.exit(main())

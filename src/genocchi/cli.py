"""Command-line front end.

Three subcommands: `bernoulli` and `genocchi` emit number tables,
`verify` runs grid checks. Data goes to stdout as CSV or JSON,
diagnostics go to stderr. In JSON output every number that can grow
without bound is a decimal string, never a native number, so output
survives parsers with 53-bit integers. Exit codes: 0 success, 1 at
least one verification failure, 2 usage, configuration or cache error
(a command that reads the Bernoulli cache with no --cache-path, no
GENOCCHI_CACHE and no home directory included), a --mutate bump the
statement cannot detect, output that cannot be written (quietly when the
reader closed the pipe), or running out of memory, 3 an internal
cross-check failed or any other unexpected exception (a bug, never a
counterexample; its traceback goes to stderr).

One parser per process: `main` builds it on its first call and keeps it,
and dispatches by command name, looking `cmd_<command>` up in this module
at call time, so a command function replaced after that call still runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from pathlib import Path

from .cache import CacheError, get_or_build
from .exact import ConsistencyError
from .special import BernoulliTable, gen_genocchi_table
from .verify import STATEMENTS, TheoremId, VerificationReport, run_grid

VERIFY_CSV_COLUMNS = [
    "kind", "theorem", "n_min", "n_max", "a_min", "a_max",
    "checked", "failure_count", "elapsed_s", "notes",
    "n", "a", "observed", "expected",
]


def default_cache_path() -> Path:
    env = os.environ.get("GENOCCHI_CACHE")
    if env:
        return Path(env)
    try:  # no HOME and no passwd entry for this user
        home = Path.home()
    except RuntimeError as exc:
        raise CacheError(
            "no home directory for the Bernoulli cache; give --cache-path or set GENOCCHI_CACHE"
        ) from exc
    return home / ".cache" / "genocchi" / "bernoulli.json"


def render_bernoulli_csv(table: BernoulliTable, n_max: int) -> str:
    """The bytes csv.writer gives for these rows, joined directly: no
    integer field can need quoting."""
    values = table.values[: n_max + 1]
    rows = "".join(f"{i},{v.numerator},{v.denominator}\n" for i, v in enumerate(values))
    return "index,numerator,denominator\n" + rows


def render_bernoulli_json(table: BernoulliTable, n_max: int) -> str:
    """The bytes json.dumps(payload, indent=1) + "\\n" gives for
    {"max_index": n_max, "values": [{"num": ..., "den": ...}, ...]} with
    decimal strings, written directly as in render_genocchi_json."""
    items = ",\n".join(
        f'  {{\n   "num": "{v.numerator}",\n   "den": "{v.denominator}"\n  }}'
        for v in table.values[: n_max + 1]
    )
    return f'{{\n "max_index": {n_max},\n "values": [\n{items}\n ]\n}}\n'


def render_genocchi_csv(a: int, values: list[int]) -> str:
    """As render_bernoulli_csv: csv.writer's bytes, joined directly."""
    return "n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values))


def render_genocchi_json(a: int, values: list[int]) -> str:
    """The bytes json.dumps(payload, indent=1) + "\\n" gives for
    {"a": a, "n_max": ..., "values": [decimal strings]}, written directly:
    a decimal string needs no escaping. A column has at least G_0."""
    items = '",\n  "'.join(map(str, values))
    return f'{{\n "a": {a},\n "n_max": {len(values) - 1},\n "values": [\n  "{items}"\n ]\n}}\n'


def render_reports_csv(reports: list[VerificationReport]) -> str:
    rows = [VERIFY_CSV_COLUMNS]
    for r in reports:
        a_min = "" if r.a_range is None else str(r.a_range[0])
        a_max = "" if r.a_range is None else str(r.a_range[1])
        rows.append([
            "report", r.theorem.value, str(r.n_range[0]), str(r.n_range[1]),
            a_min, a_max, str(r.checked), str(len(r.failures)),
            str(r.elapsed_s), json.dumps(list(r.notes)),
            "", "", "", "",
        ])
        for f in r.failures:
            rows.append([
                "failure", r.theorem.value, "", "", "", "", "", "", "", "",
                str(f.n), "" if f.a is None else str(f.a), f.observed, f.expected,
            ])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def render_reports_json(reports: list[VerificationReport]) -> str:
    payload = []
    for r in reports:
        payload.append({
            "theorem": r.theorem.value,
            "n_range": list(r.n_range),
            "a_range": None if r.a_range is None else list(r.a_range),
            "checked": r.checked,
            "failure_count": len(r.failures),
            "elapsed_s": r.elapsed_s,
            "notes": list(r.notes),
            "failures": [
                {"n": f.n, "a": f.a, "observed": f.observed, "expected": f.expected}
                for f in r.failures
            ],
        })
    return json.dumps(payload, indent=1) + "\n"


def _mutate_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected N,A, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected two integers, got {text!r}") from exc


def cmd_bernoulli(args) -> int:
    if args.n_max < 0:
        raise ValueError(f"--n-max must be nonnegative, got {args.n_max}")
    cache_path = args.cache_path or default_cache_path()
    table = get_or_build(cache_path, args.n_max)
    if args.format == "csv":
        sys.stdout.write(render_bernoulli_csv(table, args.n_max))
    else:
        sys.stdout.write(render_bernoulli_json(table, args.n_max))
    return 0


def cmd_genocchi(args) -> int:
    if args.n_max < 0:
        raise ValueError(f"--n-max must be nonnegative, got {args.n_max}")
    if args.a < 2:
        raise ValueError(f"--a must be at least 2, got {args.a}")
    values = gen_genocchi_table(args.a, args.n_max)
    if args.format == "csv":
        sys.stdout.write(render_genocchi_csv(args.a, values))
    else:
        sys.stdout.write(render_genocchi_json(args.a, values))
    return 0


def cmd_verify(args) -> int:
    if args.a_max < 2:
        raise ValueError(f"--a-max must be at least 2, got {args.a_max}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.theorem == "all":
        if args.mutate is not None:
            raise ValueError("--mutate needs a single statement, not 'all'")
        theorems = list(TheoremId)
    else:
        theorems = [TheoremId(args.theorem)]
    # fail before any statement runs, not partway through `all`
    min_n = max(STATEMENTS[t].min_n for t in theorems)
    if args.n_max < min_n:
        raise ValueError(f"--n-max must be at least {min_n} for {args.theorem}, got {args.n_max}")

    bernoulli = None
    if any(STATEMENTS[t].bernoulli for t in theorems):
        cache_path = args.cache_path or default_cache_path()
        bernoulli = get_or_build(cache_path, args.n_max)

    columns = {}  # shared by the statements of this command only
    reports = []
    for theorem in theorems:
        report = run_grid(
            theorem,
            (1, args.n_max),
            (2, args.a_max),
            jobs=args.jobs,
            mutate=args.mutate,
            bernoulli=bernoulli,
            columns=columns,
        )
        reports.append(report)
        print(
            f"{theorem.value}: checked {report.checked} points, "
            f"{len(report.failures)} failures ({report.elapsed_s:.2f}s)",
            file=sys.stderr,
        )
        for f in report.failures:
            where = f"n={f.n}" if f.a is None else f"n={f.n} a={f.a}"
            print(
                f"FAIL {theorem.value} {where}: observed {f.observed}; "
                f"expected {f.expected}",
                file=sys.stderr,
            )

    if args.format == "csv":
        sys.stdout.write(render_reports_csv(reports))
    else:
        sys.stdout.write(render_reports_json(reports))
    return 1 if any(r.failures for r in reports) else 0


def build_parser() -> argparse.ArgumentParser:
    """A new parser on each call; `main` keeps the first one it builds."""
    parser = argparse.ArgumentParser(
        prog="genocchi",
        description=(
            "Exact Bernoulli and generalized Genocchi numbers, and grid "
            "verification of their divisibility and congruence properties."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bern = sub.add_parser("bernoulli", help="emit B_0..B_n as exact rationals")
    p_bern.add_argument("--n-max", type=int, required=True, help="largest index to emit")
    p_bern.add_argument("--format", choices=("csv", "json"), default="csv")

    p_gen = sub.add_parser("genocchi", help="emit G_{n,a} for n = 0..n-max")
    p_gen.add_argument("--n-max", type=int, required=True, help="largest index to emit")
    p_gen.add_argument("--a", type=int, default=2, help="base (default 2, the classical numbers)")
    p_gen.add_argument("--format", choices=("csv", "json"), default="csv")

    p_ver = sub.add_parser("verify", help="check statements over an (n, a) grid")
    p_ver.add_argument(
        "theorem",
        choices=[t.value for t in TheoremId] + ["all"],
        help="which statement to check",
    )
    p_ver.add_argument("--n-max", type=int, default=200, help="grid runs n = 1..n-max")
    p_ver.add_argument("--a-max", type=int, default=20, help="grid runs a = 2..a-max")
    p_ver.add_argument("--jobs", type=int, default=1, help="processes that build columns")
    p_ver.add_argument(
        "--mutate",
        type=_mutate_pair,
        default=None,
        metavar="N,A",
        help="self-test: bump one table value and expect a failure",
    )
    p_ver.add_argument("--format", choices=("csv", "json"), default="csv")

    # the two subcommands that read the Bernoulli cache; last, as --help lists it
    for p in (p_bern, p_ver):
        p.add_argument(
            "--cache-path",
            type=Path,
            default=None,
            help="Bernoulli cache file (default: $GENOCCHI_CACHE or "
            "~/.cache/genocchi/bernoulli.json)",
        )
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    # exact values outgrow the 4300-digit int <-> str limit (3.10.7 and later)
    # in output and cache files; the caller's limit (CVE-2020-10735) is put back
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = _parser().parse_args(argv)
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a write that fails must not pass for a result
        return code
    except SystemExit as exc:  # argparse's usage errors and --help
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:
        # a reader that stops early (`| head`) is no error to report, but
        # the output is incomplete
        return 2
    except (CacheError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; try a smaller --n-max", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash is a bug, and must not pass for a counterexample (exit 1);
        # traceback is imported here, so a normal run does not pay for it
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main())

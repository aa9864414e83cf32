"""Benchmark of the genocchi command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is verify_grid, genocchi_column,
bernoulli_cold or bernoulli_warm. Each operation is one CLI invocation,
`genocchi.cli.main(argv)`, made in this process with stdout and stderr
captured: a closed loop with one client, because a CLI caller waits for
each result before issuing the next. Operations are drawn from the seed
(see workloads.py) and every output is checked against references
computed before timing starts (see reference.py).

--trace 0 measures for S seconds, finishing the round in progress, and
reports the end-to-end metrics. Times are scaled to a reference host
speed by a calibration kernel timed around each interval (see
CALIBRATION_REFERENCE_S); the line before the result gives them unscaled.
  latency_p50_s, latency_tail_s  per operation; the tail is the workload's
                                 fixed percentile, lowered only when fewer
                                 than 10 samples lie beyond it (the line
                                 before the result names it)
  work_per_s      work items per second of operation time; the item is
                  grid points checked (verify_grid), coefficients emitted
                  (genocchi_column) or Bernoulli entries emitted (bernoulli_*)
  peak_rss_mb     peak resident memory of this process
  setup_s         median over several fresh interpreters of: start, import
                  genocchi, the workload's own preparation and one small
                  warm-up operation that pays the lazy first-call set-up
The error rate is `failed` / `attempted` in the result line.

--trace 1 runs a fixed number of rounds untraced, then as many further
rounds with every public function of every genocchi module wrapped (see
spans.py), and reports per-layer metrics: time, calls and computed counts
per layer in unscaled seconds, each module's self time, and
trace_overhead, the traced time per work item over the untraced time per
work item.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exits 2 without a result when the checkout
lacks src/genocchi or tests/oracles.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
TAIL_LADDER = (99, 95, 90, 75, 50)
MIN_BEYOND_TAIL = 10

# The effective speed of a shared host drifts by tens of percent within
# seconds and between minutes, for reasons outside this process, and the
# drift moves wall-clock medians more than the changes the benchmark must
# judge. So a fixed calibration kernel is timed right before and right
# after each timed interval, and end-to-end times are reported as seconds
# on a host where the kernel takes CALIBRATION_REFERENCE_S. Raw wall times
# are printed on the line before the result.
CALIBRATION_REFERENCE_S = 0.0006
_CALIBRATION_MODULUS = 5**4000

# spans each workload must exercise; an empty one means the wrappers
# missed a lookup site
EXPECTED_SPANS = {
    "verify_grid": (
        "series.series_reciprocal", "series.series_mul", "series.idc_reciprocal_scaled",
        "special.gen_genocchi_table", "special.gen_genocchi_bernoulli",
        "special.genocchi_table", "verify.run_grid", "exact.congruent_mod",
        "exact.coprime_part", "exact.factorize", "cache.load_bernoulli_cache",
        "cli.render_reports_csv", "cli.render_reports_json",
    ),
    "genocchi_column": (
        "series.series_reciprocal", "series.series_mul", "special.gen_genocchi_table",
        "cli.render_genocchi_json",
    ),
    "bernoulli_cold": (
        "series.series_reciprocal", "special.bernoulli_table", "cache.save_bernoulli_cache",
        "cli.render_bernoulli_csv", "cli.render_bernoulli_json",
    ),
    "bernoulli_warm": (
        "cache.load_bernoulli_cache", "cache.get_or_build",
        "cli.render_bernoulli_csv", "cli.render_bernoulli_json",
    ),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Benchmark of the genocchi CLI.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", type=Path, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(workload, cli):
    """Import-time and first-call set-up plus the workload's own preparation."""
    workload.prepare(cli.main)
    code, _ = invoke(cli, workload.warm_up_argv())
    if code != 0:
        raise RuntimeError(f"warm-up {workload.warm_up_argv()} exited {code}")


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes now: Fraction sums
    and big-integer products, the arithmetic the package spends its time in."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(120):
        acc += comb(120, k) * Fraction(1, k + 1)
    x = 3**4000
    for _ in range(160):
        x = (x * 7 + 1) % _CALIBRATION_MODULUS
    return time.perf_counter() - start


def timed(fn) -> tuple[object, float, float]:
    """fn's result, its wall time, and that time scaled to the reference
    host speed by calibrations just before and just after."""
    before = calibrate()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    after = calibrate()
    return result, elapsed, elapsed * 2 * CALIBRATION_REFERENCE_S / (before + after)


def time_setup(args) -> tuple[float, float]:
    """Median scaled and median wall time of SETUP_REPEATS fresh
    interpreters doing set_up."""
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        child_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(child_dir)]
        proc, elapsed, elapsed_scaled = timed(
            lambda: subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        )
        shutil.rmtree(child_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
        scaled.append(elapsed_scaled)
        wall.append(elapsed)
    return statistics.median(scaled), statistics.median(wall)


def invoke(cli, argv) -> tuple[int | None, str]:
    """Exit code (None for a crash) and stdout of one CLI invocation."""
    out = io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed operation, not a benchmark error
            code, crash = None, traceback.format_exc()
    if crash is not None:
        print(crash, file=sys.stderr)
    return code, out.getvalue()


class Sample:
    """Latency (wall and scaled), work and outcome of a sequence of
    operations."""

    def __init__(self):
        self.wall: list[float] = []
        self.latencies: list[float] = []
        self.work = 0
        self.failed = 0
        self.rounds = 0

    def run_round(self, cli, workload, refs, ops) -> None:
        for op in ops:
            (code, out), elapsed, elapsed_scaled = timed(lambda: invoke(cli, op.argv))
            self.wall.append(elapsed)
            self.latencies.append(elapsed_scaled)
            self.work += op.work
            try:
                ok = code == 0 and workload.check(op, out, refs)
            except (ValueError, KeyError, IndexError, TypeError):
                ok = False
            if not ok:
                self.failed += 1
                print(f"FAILED {' '.join(op.argv)} (exit {code})", file=sys.stderr)
            if op.fresh_path is not None:
                op.fresh_path.unlink(missing_ok=True)
        self.rounds += 1

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def wall_busy_s(self) -> float:
        return sum(self.wall)


def tail_percentile(workload, n: int) -> int:
    for pct in TAIL_LADDER:
        if pct <= workload.tail_percentile and n * (100 - pct) / 100 >= MIN_BEYOND_TAIL:
            return pct
    return 50


def end_to_end(args, workload, cli, refs, rounds, setup) -> tuple[Sample, dict, str]:
    sample = Sample()
    random.seed(args.seed)
    deadline = time.perf_counter() + args.seconds
    for ops in rounds:
        if sample.rounds and time.perf_counter() >= deadline:
            break
        sample.run_round(cli, workload, refs, ops)
    lat = sample.latencies
    pct = tail_percentile(workload, len(lat))
    tail = statistics.quantiles(lat, n=100, method="inclusive")[pct - 1] if len(lat) > 1 else lat[0]
    metrics = {
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "work_per_s": (sample.work / sample.busy_s, "items/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup[0], "s"),
    }
    beyond = sum(1 for x in lat if x > tail)
    note = (f"{workload.name}: {len(lat)} ops in {sample.rounds} rounds; latency_tail_s is "
            f"p{pct} ({beyond} ops beyond); work item: {workload.work_unit}; "
            f"error_rate {sample.failed}/{len(lat)}; wall: latency_p50 "
            f"{statistics.median(sample.wall):.4f} s, work_per_s "
            f"{sample.work / sample.wall_busy_s:.1f}, setup {setup[1]:.4f} s")
    return sample, metrics, note


def per_layer(args, workload, cli, refs, rounds) -> tuple[Sample, dict, str, list[str]]:
    import genocchi
    from spans import MODULES, Tracer

    random.seed(args.seed)
    plain, traced = Sample(), Sample()
    for _ in range(workload.trace_rounds):
        plain.run_round(cli, workload, refs, next(rounds))
    tracer = Tracer()
    tracer.install(genocchi)
    try:
        for _ in range(workload.trace_rounds):
            traced.run_round(cli, workload, refs, next(rounds))
    finally:
        tracer.uninstall()

    calls, total, own, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts
    gob_calls = calls["cache.get_or_build"]
    built = counts["verify.columns_built"]
    render_s = sum(v for k, v in total.items() if k.startswith("cli.render_"))
    m = {
        "series.series_reciprocal.s": (total["series.series_reciprocal"], "s"),
        "series.series_reciprocal.calls": (calls["series.series_reciprocal"], "count"),
        "series.series_mul.s": (total["series.series_mul"], "s"),
        "series.series_mul.calls": (calls["series.series_mul"], "count"),
        "series.terms": (counts["series.terms"], "count"),
        "series.idc_reciprocal_scaled.s": (total["series.idc_reciprocal_scaled"], "s"),
        "special.gen_genocchi_table.s": (total["special.gen_genocchi_table"], "s"),
        "special.gen_genocchi_table.calls": (calls["special.gen_genocchi_table"], "count"),
        "special.gen_genocchi_table.coeffs": (counts["special.gen_genocchi_table.coeffs"], "count"),
        "special.bernoulli_table.s": (total["special.bernoulli_table"], "s"),
        "special.bernoulli_table.calls": (calls["special.bernoulli_table"], "count"),
        "special.bernoulli_table.entries": (counts["special.bernoulli_table.entries"], "count"),
        "special.gen_genocchi_bernoulli.s": (total["special.gen_genocchi_bernoulli"], "s"),
        "special.gen_genocchi_bernoulli.calls": (calls["special.gen_genocchi_bernoulli"], "count"),
        "special.genocchi_table.s": (total["special.genocchi_table"], "s"),
        "special.max_coeff_bits": (counts["special.max_coeff_bits"], "bits"),
        "verify.run_grid.s": (total["verify.run_grid"], "s"),
        "verify.run_grid.self_s": (own["verify.run_grid"], "s"),
        "verify.points": (counts["verify.points"], "count"),
        "verify.columns_built": (built, "count"),
        "verify.column_reuse_ratio": (counts["verify.columns_distinct"] / built if built else 0.0, "ratio"),
        "exact.congruent_mod.s": (total["exact.congruent_mod"], "s"),
        "exact.congruent_mod.calls": (calls["exact.congruent_mod"], "count"),
        "exact.coprime_part.s": (total["exact.coprime_part"], "s"),
        "exact.coprime_part.calls": (calls["exact.coprime_part"], "count"),
        "exact.factorize.calls": (calls["exact.factorize"], "count"),
        "cache.load.s": (total["cache.load_bernoulli_cache"], "s"),
        "cache.load.calls": (calls["cache.load_bernoulli_cache"], "count"),
        "cache.bytes_read": (counts["cache.bytes_read"], "bytes"),
        "cache.save.s": (total["cache.save_bernoulli_cache"], "s"),
        "cache.save.calls": (calls["cache.save_bernoulli_cache"], "count"),
        "cache.bytes_written": (counts["cache.bytes_written"], "bytes"),
        "cache.hit_ratio": (counts["cache.get_or_build_hits"] / gob_calls if gob_calls else 0.0, "ratio"),
        "cli.render.s": (render_s, "s"),
        "cli.render.bytes": (counts["cli.render.bytes"], "bytes"),
        "cli.main.self_s": (own["cli.main"], "s"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = (tracer.module_self_s(module), "s")
    accounted = sum(own.values())
    m["traced_wall_s"] = (traced.wall_busy_s, "s")
    m["traced_accounted_ratio"] = (accounted / traced.wall_busy_s, "ratio")
    m["trace_overhead"] = ((traced.busy_s / traced.work) / (plain.busy_s / plain.work), "ratio")

    missing = [name for name in EXPECTED_SPANS[workload.name] if calls.get(name, 0) == 0]
    sample = Sample()
    sample.latencies = plain.latencies + traced.latencies
    sample.failed = plain.failed + traced.failed
    note = (f"{workload.name}: {len(plain.latencies)} untraced and {len(traced.latencies)} "
            f"traced ops; module self times sum to {accounted:.4f} s of "
            f"{traced.wall_busy_s:.4f} s traced, glue (cli.main.self_s) {own['cli.main']:.4f} s")
    return sample, m, note, missing


def main(argv=None) -> int:
    args = parse_args(argv)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "genocchi").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no src/genocchi or tests/oracles.py; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only is not None:
        import genocchi.cli as cli

        set_up(WORKLOADS[args.workload](args.setup_only), cli)
        return 0

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        workload = WORKLOADS[args.workload](work_dir)
        from reference import load_oracles

        refs = workload.references(load_oracles(ROOT))
        rounds = workload.rounds(random.Random(args.seed))
        missing: list[str] = []
        # set-up is timed in fresh interpreters before this process pays it
        setup = None if args.trace else time_setup(args)
        import genocchi.cli as cli

        set_up(workload, cli)
        if args.trace:
            sample, metrics, note, missing = per_layer(args, workload, cli, refs, rounds)
        else:
            sample, metrics, note = end_to_end(args, workload, cli, refs, rounds, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    print(note)
    for name in missing:
        print(f"span {name} recorded no call on {workload.name}", file=sys.stderr)
    result = {
        "correct": sample.failed == 0 and not missing,
        "attempted": len(sample.latencies),
        "failed": sample.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The acceptance gate: every release-blocking criterion, checked exactly.

Each test prints one pass/fail line. All arithmetic is exact; there are
no tolerances anywhere, a single failing grid point fails the criterion.
"""

from fractions import Fraction
from time import perf_counter

import pytest

from genocchi.special import bernoulli_table, gen_genocchi_table, genocchi_table
from genocchi.verify import TheoremId, run_grid
from childproc import run_python
from oracles import bernoulli_recurrence, trial_factor

THEOREM1_BUDGET_S = 60.0
BERNOULLI_BUDGET_S = 300.0


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} {label}: {'PASS' if ok else 'FAIL'}{suffix}", flush=True)
    assert ok, f"acceptance criterion {number} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def bern500():
    start = perf_counter()
    table = bernoulli_table(500)
    return table, perf_counter() - start


def test_criterion_01_theorem1_full_grid():
    r = run_grid(TheoremId.THEOREM1, (1, 200), (2, 20), jobs=1)
    ok = r.failures == () and r.checked == 200 * 19 and r.elapsed_s < THEOREM1_BUDGET_S
    _report(
        1, "theorem1 on 1<=n<=200, 2<=a<=20", ok,
        f"checked={r.checked}, failures={len(r.failures)}, {r.elapsed_s:.1f}s single-threaded",
    )


def test_criterion_02_odd_part_divides_classical_values():
    r = run_grid(TheoremId.THEOREM1, (1, 200), (2, 2))
    ok = r.failures == () and r.checked == 200
    _report(
        2, "odd part of n divides G_n for n<=200", ok,
        f"checked={r.checked}, failures={len(r.failures)}",
    )


def test_criterion_03_theorem2_full_grid():
    r = run_grid(TheoremId.THEOREM2, (2, 200), (2, 20))
    ok = r.failures == () and r.checked == 199 * 19
    _report(
        3, "theorem2 congruence on 2<=n<=200, 2<=a<=20", ok,
        f"checked={r.checked}, failures={len(r.failures)}",
    )


def test_criterion_04_corollary2_and_gcd_grid():
    r_cor = run_grid(TheoremId.COROLLARY2, (1, 200), (2, 20))
    r_gcd = run_grid(TheoremId.GCD_COROLLARY, (2, 200), (2, 20))
    ok = (
        r_cor.failures == () and r_cor.checked == 9 * 200 + 10 * 199
        and r_gcd.failures == () and r_gcd.checked == 199 * 19
    )
    _report(
        4, "corollary2 residues and gcd corollary on the same grid", ok,
        f"residues checked={r_cor.checked}, gcd checked={r_gcd.checked}, "
        f"failures={len(r_cor.failures) + len(r_gcd.failures)}",
    )


def test_criterion_05_route_equivalence(bern500):
    table, _ = bern500
    r = run_grid(TheoremId.PROP2_EQUIV, (1, 64), (2, 12), bernoulli=table)
    ok = r.failures == () and r.checked == 64 * 11
    _report(
        5, "series route equals Bernoulli-sum route on 1<=n<=64, 2<=a<=12", ok,
        f"checked={r.checked}, failures={len(r.failures)}",
    )


def test_criterion_06_idc_closure_on_random_series():
    r = run_grid(TheoremId.PROP1_IDC, (1, 100), None)
    ok = r.failures == () and r.checked == 100 and "trial series of order 30" in r.notes
    _report(
        6, "scaled reciprocal keeps 100 random IDC series integral at order 30", ok,
        f"checked={r.checked}, failures={len(r.failures)}",
    )


def test_criterion_07_von_staudt_clausen(bern500):
    table, _ = bern500
    r = run_grid(TheoremId.VSC_INTEGRALITY, (2, 200), None, bernoulli=table)
    # nu_p(B_n) >= -1 everywhere is a squarefree denominator, factored here
    # by the oracle's trial division
    squarefree = all(
        e == 1 for n in range(2, 201, 2) for _, e in trial_factor(table[n].denominator)
    )
    ok = r.failures == () and r.checked == 100 and squarefree
    _report(
        7, "B_n + sum 1/p integral and nu_p(B_n) >= -1 for even n<=200", ok,
        f"checked={r.checked}, failures={len(r.failures)}, squarefree={squarefree}",
    )


def test_criterion_08_dual_route_bernoulli(bern500):
    table, elapsed = bern500
    agrees = list(table.values) == bernoulli_recurrence(500)
    ok = agrees and elapsed < BERNOULLI_BUDGET_S
    _report(
        8, "series and recurrence routes agree exactly for n<=500", ok,
        f"agreement={agrees}, {elapsed:.1f}s",
    )


def test_criterion_09_frozen_spot_values(bern500):
    table, _ = bern500
    checks = {
        "B_12": table[12] == Fraction(-691, 2730),
        "G_8": genocchi_table(8)[8] == 17,
        "G_12": genocchi_table(12)[12] == 2073,
        "G_{6,3}": gen_genocchi_table(3, 6)[6] == -26,
        "G_{3,6}": gen_genocchi_table(6, 3)[3] == 10,
    }
    ok = all(checks.values())
    _report(
        9, "spot values B_12, G_8, G_12, G_{6,3}, G_{3,6}", ok,
        ", ".join(f"{k}={'ok' if v else 'WRONG'}" for k, v in checks.items()),
    )


def test_criterion_10_mutation_is_detected_end_to_end():
    proc = run_python(
        "-m", "genocchi", "verify", "theorem2",
        "--n-max", "10", "--a-max", "4", "--mutate", "5,4",
    )
    located = "failure,theorem2" in proc.stdout and ",5,4," in proc.stdout
    ok = proc.returncode == 1 and located and "FAIL" in proc.stderr
    _report(
        10, "a planted wrong value drives exit code 1 and is localized", ok,
        f"exit={proc.returncode}, failure row located={located}",
    )

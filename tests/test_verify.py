"""Grid runner semantics: clamping, counting, determinism, counterexample
capture, and the per-statement checks."""

import hashlib
import os
from fractions import Fraction
from math import lcm

import pytest

from genocchi import verify
from genocchi.cli import main
from genocchi.exact import coprime_part
from genocchi.series import idc_reciprocal_scaled
from genocchi.special import (
    BernoulliTable,
    bernoulli_table,
    gen_genocchi_bernoulli,
    gen_genocchi_table,
    genocchi_table,
)
from genocchi.verify import (
    PROP1_ORDER,
    STATEMENTS,
    GridFailure,
    TheoremId,
    run_grid,
    _prop1_trial_series,
)
from oracles import prop1_trial_by_randint, trial_factor


def failures_for(theorem, n, a, g, beside=None):
    """The (observed, expected) pair a statement's describer returns for the
    value g at (n, a), as a list of at most one pair; `beside` is what it
    reads besides G (prop2_equiv's Bernoulli-sum column). Empty when g
    satisfies the statement."""
    fault = STATEMENTS[theorem].describe(n, a, g, beside)
    assert fault is None or (
        type(fault) is tuple and len(fault) == 2 and all(type(s) is str for s in fault)
    ), fault
    return [] if fault is None else [fault]


class TestPointChecks:
    """A point check is the one-point grid (n, n) x (a, a); a given value is
    judged by the statement's describer."""

    def test_lemma_and_theorem1_hold_at_spots(self):
        for n, a in [(1, 2), (6, 3), (12, 10), (30, 6), (49, 7)]:
            for theorem in (TheoremId.LEMMA_N_DIV, TheoremId.THEOREM1):
                report = run_grid(theorem, (n, n), (a, a))
                assert (report.checked, report.passed) == (1, True), (theorem, n, a)

    def test_theorem1_judges_a_given_value(self):
        g = gen_genocchi_table(3, 6)[6]
        assert failures_for(TheoremId.THEOREM1, 6, 3, g) == []
        # a wrong value for a point with a nontrivial coprime part must fail
        assert coprime_part(6, 3) == 2
        assert failures_for(TheoremId.THEOREM1, 6, 3, g + 1) != []

    def test_theorem2_judgment(self):
        assert run_grid(TheoremId.THEOREM2, (6, 6), (3, 3)).passed is True
        assert failures_for(TheoremId.THEOREM2, 2, 3, -1) != []

    def test_theorem2_odd_times_odd(self):
        # n and a both odd puts a denominator of 2 into the target residue
        assert run_grid(TheoremId.THEOREM2, (3, 3), (3, 3)).passed

    def test_corollary2_residues(self):
        for n, a in [
            (4, 7),  # odd a: 1 mod a
            (1, 7),  # odd a admits n = 1
            (4, 6),  # even a, even n: 1 mod a
            (5, 6),  # even a, odd n: 1 + a/2 mod a
        ]:
            assert run_grid(TheoremId.COROLLARY2, (n, n), (a, a)).passed, (n, a)
        assert failures_for(TheoremId.COROLLARY2, 5, 6, 1) != []

    def test_gcd_corollary_spots(self):
        for n, a in [
            (3, 6),  # a = 2 mod 4, odd n: gcd 2
            (4, 6),  # even n: gcd 1
            (5, 4),  # a = 0 mod 4: gcd 1
        ]:
            assert run_grid(TheoremId.GCD_COROLLARY, (n, n), (a, a)).passed, (n, a)
        assert failures_for(TheoremId.GCD_COROLLARY, 5, 4, -24) != []  # gcd 4 is out

    def test_gcd_corollary_with_vanishing_values(self):
        # classical odd-index values vanish and gcd(0, 2) = 2 still fits the
        # characterization at a = 2
        assert gen_genocchi_table(2, 3)[3] == 0
        assert run_grid(TheoremId.GCD_COROLLARY, (3, 3), (2, 2)).passed
        assert run_grid(TheoremId.GCD_COROLLARY, (5, 5), (2, 2)).passed

    def test_even_genocchi_odd(self):
        assert run_grid(TheoremId.ODD_GENOCCHI, (8, 8)).passed
        assert failures_for(TheoremId.ODD_GENOCCHI, 8, None, 18) != []

    def test_hypothesis_bounds_enforced(self):
        # a point outside the statement is an empty one-point grid
        for theorem, n, a in [
            (TheoremId.LEMMA_N_DIV, 0, 3),
            (TheoremId.THEOREM1, 3, 1),
            (TheoremId.THEOREM2, 1, 3),
            (TheoremId.COROLLARY2, 1, 6),  # even a starts at n = 2
            (TheoremId.GCD_COROLLARY, 1, 3),
            (TheoremId.ODD_GENOCCHI, 7, None),
            (TheoremId.ODD_GENOCCHI, 0, None),
            (TheoremId.COROLLARY2, 0, 7),  # odd a starts at n = 1
        ]:
            with pytest.raises(ValueError, match="empty"):
                run_grid(theorem, (n, n), None if a is None else (a, a))

    def test_prop2_point_builds_one_bernoulli_sum_column(self, monkeypatch):
        built = []

        def counting(route, build):
            def counted(*args):
                built.append((route, *args[:2]))
                return build(*args)

            return counted

        monkeypatch.setattr(verify, "gen_genocchi_table",
                            counting("series", gen_genocchi_table))
        monkeypatch.setattr(verify, "gen_genocchi_bernoulli",
                            counting("sums", gen_genocchi_bernoulli))
        assert run_grid(TheoremId.PROP2_EQUIV, (9, 9), (4, 4)).passed
        assert built == [("series", 4, 9), ("sums", 4, 9)]


MUTABLE = [t for t in TheoremId if STATEMENTS[t].table]


class TestPointChecksAgreeWithGrid:
    @pytest.mark.parametrize("theorem", MUTABLE, ids=lambda t: t.value)
    def test_check_fails_exactly_where_the_mutated_grid_fails(self, theorem):
        statement = STATEMENTS[theorem]
        a_range = (2, 6) if statement.over_a else None
        table = bernoulli_table(12)
        columns = {}
        points = caught = 0
        for a in range(2, 7) if statement.over_a else (None,):
            column = genocchi_table(12) if a is None else gen_genocchi_table(a, 12)
            beside = None
            if theorem is TheoremId.PROP2_EQUIV:
                beside = gen_genocchi_bernoulli(a, 12, table)
            for n in statement.n_values(a, statement.min_n, 12):
                points += 1
                assert failures_for(theorem, n, a, column[n], beside) == [], (n, a)
                target = (n, a or 2)
                if not failures_for(theorem, n, a, column[n] + 1, beside):
                    with pytest.raises(ValueError, match="invisible"):
                        run_grid(theorem, (1, 12), a_range, mutate=target, columns=columns)
                    continue
                mutated = run_grid(theorem, (1, 12), a_range, mutate=target, columns=columns)
                assert [(f.n, f.a) for f in mutated.failures] == [(n, a)]
                caught += 1
        report = run_grid(theorem, (1, 12), a_range)
        assert (report.checked, report.passed) == (points, True)
        assert caught > 0


class TestBumpCensus:
    """What each statement sees of G + δ at every point of the default grid,
    n = 1..200 and a = 2..20, by its describer: a bump a statement misses is
    a wrong value it cannot tell from the right one."""

    # δ at (n, a) -> bumps seen per statement, in MUTABLE's order: lemma_n_div,
    # theorem1, theorem2, corollary2, gcd_corollary, odd_genocchi, prop2_equiv
    BUMPS = {
        "+1": (lambda n, a: 1, (3600, 3600, 3781, 3790, 1990, 100, 3800)),
        "-1": (lambda n, a: -1, (3600, 3600, 3781, 3790, 3781, 100, 3800)),
        "+a": (lambda n, a: a, (3600, 3600, 0, 0, 0, 0, 3800)),
        "-a": (lambda n, a: -a, (3600, 3600, 0, 0, 0, 0, 3800)),
        "+n": (lambda n, a: n, (0, 0, 3267, 3276, 1496, 0, 3800)),
        "-n": (lambda n, a: -n, (0, 0, 3267, 3276, 1488, 0, 3800)),
        "+lcm(2a, n)": (lambda n, a: lcm(2 * a, n), (0, 0, 0, 0, 0, 0, 3800)),
        "-lcm(2a, n)": (lambda n, a: -lcm(2 * a, n), (0, 0, 0, 0, 0, 0, 3800)),
    }
    POINTS = (3800, 3800, 3781, 3790, 3781, 100, 3800)
    N_MAX, A_MAX = 200, 20

    @pytest.fixture(scope="class")
    def columns(self):
        """The series columns G_{0..N_MAX,a} for a = 2..A_MAX, built once."""
        return {a: gen_genocchi_table(a, self.N_MAX) for a in range(2, self.A_MAX + 1)}

    def test_every_bump_at_every_point(self, columns):
        n_max, a_max = self.N_MAX, self.A_MAX
        table = bernoulli_table(n_max)
        points = {t: set() for t in MUTABLE}
        seen = {(d, t): set() for d in self.BUMPS for t in MUTABLE}
        for a in range(2, a_max + 1):
            column = columns[a]
            by_sums = gen_genocchi_bernoulli(a, n_max, table)
            for theorem in MUTABLE:
                statement = STATEMENTS[theorem]
                if not statement.over_a and a != 2:
                    continue
                at = a if statement.over_a else None
                beside = by_sums if theorem is TheoremId.PROP2_EQUIV else None
                for n in statement.n_values(at, statement.min_n, n_max):
                    points[theorem].add((n, a))
                    for d, (delta, _) in self.BUMPS.items():
                        if statement.describe(n, at, column[n] + delta(n, a), beside) is not None:
                            seen[d, theorem].add((n, a))
        assert tuple(len(points[t]) for t in MUTABLE) == self.POINTS
        assert {d: tuple(len(seen[d, t]) for t in MUTABLE) for d in self.BUMPS} == {
            d: counts for d, (_, counts) in self.BUMPS.items()
        }
        # the points where every prime of n divides a, n = 1 included
        for theorem in (TheoremId.LEMMA_N_DIV, TheoremId.THEOREM1):
            missed = {(n, a) for n, a in points[theorem] if coprime_part(n, a) == 1}
            assert points[theorem] - seen["+1", theorem] == missed, theorem
        # G_{1,a} = 1; only the independent route sees 2 there at even a
        others = set().union(
            *(seen["+1", t] for t in MUTABLE if t is not TheoremId.PROP2_EQUIV)
        )
        assert seen["+1", TheoremId.PROP2_EQUIV] - others == {
            (1, a) for a in range(2, a_max + 1, 2)
        }

    def test_congruences_miss_exactly_the_multiples_of_l(self, columns):
        # At (n, a) corollary2 misses exactly the bumps in aZ, theorem1 those
        # in coprime_part(n, a) Z, and every other congruence statement all
        # of LZ, L being the lcm of the two moduli of those that check the
        # point. So every one misses the multiples of L and nothing else
        # exactly when each misses ±L and one sees ±L/p for each prime p | L.
        # That gap is what prop2_equiv's independent route alone closes.
        congruences = [t for t in MUTABLE if t is not TheoremId.PROP2_EQUIV]
        all_missed = set()
        for a, column in columns.items():
            for n in range(1, self.N_MAX + 1):
                checks = {}  # statement -> the base its describer takes
                for theorem in congruences:
                    statement = STATEMENTS[theorem]
                    at = a if statement.over_a else None
                    if (statement.over_a or a == 2) and n in statement.n_values(
                        at, statement.min_n, self.N_MAX
                    ):
                        checks[theorem] = at

                def seen(delta):
                    return [
                        t for t, at in checks.items()
                        if STATEMENTS[t].describe(n, at, column[n] + delta, None) is not None
                    ]

                gap = coprime_part(n, a)
                if TheoremId.COROLLARY2 in checks:
                    gap = lcm(gap, a)
                if gap == 1:
                    all_missed.add((n, a))
                for sign in (1, -1):
                    assert seen(sign * gap) == [], (n, a, sign * gap)
                    for p, _ in trial_factor(gap):
                        assert seen(sign * gap // p), (n, a, sign * gap // p)
        # only lemma_n_div and theorem1 check G_{1,a} = 1 at even a
        assert all_missed == {(1, a) for a in range(2, self.A_MAX + 1, 2)}

    def test_prop1_sees_no_bump(self, monkeypatch):
        # prop1_idc asks only whether each s_k is an integer, so it passes
        # s_k + 1 for every k in every trial: it checks none of the values
        trials = 200
        exact = {}  # trial series -> its s_0..s_30, computed once

        def bumped(f):
            key = tuple(f)
            if key not in exact:
                exact[key] = idc_reciprocal_scaled(f)
            h = list(exact[key])
            h[k] += 1
            return h

        monkeypatch.setattr(verify, "idc_reciprocal_scaled", bumped)
        for k in range(PROP1_ORDER + 1):
            r = run_grid(TheoremId.PROP1_IDC, (1, trials))
            assert (r.checked, r.failures) == (trials, ()), k
        assert len(exact) == trials


class TestStatementRegistry:
    def test_one_record_per_statement(self):
        assert list(STATEMENTS) == list(TheoremId)


class TestGridCounting:
    def test_rectangular_grids(self):
        r = run_grid(TheoremId.THEOREM1, (1, 50), (2, 8))
        assert (r.checked, r.failures) == (350, ())
        assert r.n_range == (1, 50) and r.a_range == (2, 8)

    def test_theorem2_clamps_n(self):
        r = run_grid(TheoremId.THEOREM2, (1, 40), (1, 8))
        assert r.n_range == (2, 40) and r.a_range == (2, 8)
        assert r.checked == 39 * 7
        assert any("raised" in note for note in r.notes)

    def test_corollary2_counts_by_parity(self):
        r = run_grid(TheoremId.COROLLARY2, (1, 30), (2, 9))
        # four odd bases get n = 1..30, four even bases get n = 2..30
        assert r.checked == 4 * 30 + 4 * 29
        assert r.failures == ()

    def test_even_only_grids(self):
        r = run_grid(TheoremId.ODD_GENOCCHI, (2, 40), None)
        assert r.checked == 20 and r.a_range is None
        r = run_grid(TheoremId.VSC_INTEGRALITY, (3, 41), None)
        assert r.checked == 19  # even n in 4..40

    def test_a_range_ignored_with_note(self):
        r = run_grid(TheoremId.ODD_GENOCCHI, (2, 10), (2, 5))
        assert r.a_range is None
        assert any("ignored" in note for note in r.notes)

    def test_prop_grids(self):
        r = run_grid(TheoremId.PROP1_IDC, (1, 20), None)
        assert (r.checked, r.failures) == (20, ())
        r = run_grid(TheoremId.PROP2_EQUIV, (1, 24), (2, 6))
        assert (r.checked, r.failures) == (24 * 5, ())

    def test_lemma_and_gcd_grids(self):
        r = run_grid(TheoremId.LEMMA_N_DIV, (1, 40), (2, 8))
        assert (r.checked, r.failures) == (280, ())
        r = run_grid(TheoremId.GCD_COROLLARY, (1, 30), (2, 8))
        assert r.n_range == (2, 30)
        assert (r.checked, r.failures) == (29 * 7, ())

    def test_empty_grids_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_grid(TheoremId.THEOREM2, (1, 1), (2, 8))
        with pytest.raises(ValueError, match=r"empty n-range for theorem1: \(5, 3\)"):
            run_grid(TheoremId.THEOREM1, (5, 3), (2, 8))
        with pytest.raises(ValueError, match="empty"):
            run_grid(TheoremId.THEOREM1, (1, 10), (2, 1))
        with pytest.raises(ValueError, match="empty"):
            run_grid(TheoremId.ODD_GENOCCHI, (3, 3), None)
        with pytest.raises(ValueError, match="empty"):
            # n = 1 is checked at odd bases only
            run_grid(TheoremId.COROLLARY2, (1, 1), (2, 2))

    def test_a_range_required_when_used(self):
        with pytest.raises(ValueError, match="a-range"):
            run_grid(TheoremId.THEOREM1, (1, 10), None)
        with pytest.raises(ValueError, match="a-range"):
            # the a-range is checked before the n-range
            run_grid(TheoremId.THEOREM1, (5, 3), None)


@pytest.fixture
def started(monkeypatch):
    """The worker counts of the process pools started, each running its
    tasks in this process."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return started


class TestDeterminism:
    def test_identical_runs_compare_equal(self):
        r1 = run_grid(TheoremId.THEOREM2, (2, 25), (2, 6))
        r2 = run_grid(TheoremId.THEOREM2, (2, 25), (2, 6))
        assert r1 == r2  # elapsed_s is excluded from comparison
        assert r1.elapsed_s > 0 and r2.elapsed_s > 0

    def test_mutated_runs_compare_equal(self):
        r1 = run_grid(TheoremId.THEOREM2, (2, 12), (2, 5), mutate=(7, 3))
        r2 = run_grid(TheoremId.THEOREM2, (2, 12), (2, 5), mutate=(7, 3))
        assert r1 == r2
        assert run_grid(TheoremId.THEOREM2, (2, 12), (2, 5), mutate=(7, 3), jobs=2) == r1

    def test_jobs_do_not_change_the_report(self):
        r1 = run_grid(TheoremId.THEOREM1, (1, 30), (2, 6), jobs=1)
        r2 = run_grid(TheoremId.THEOREM1, (1, 30), (2, 6), jobs=2)
        assert r1 == r2
        # workers hand back the columns they build; later tasks carry them
        columns = {}
        for theorem in (TheoremId.THEOREM1, TheoremId.THEOREM2):
            serial = run_grid(theorem, (1, 30), (2, 6), jobs=1)
            assert run_grid(theorem, (1, 30), (2, 6), jobs=2, columns=columns) == serial
        assert columns == {(a, 30): gen_genocchi_table(a, 30) for a in range(2, 7)}

    def test_worker_count_is_clamped(self, monkeypatch, started):
        serial = run_grid(TheoremId.THEOREM1, (1, 12), (2, 3))
        # jobs 3 on two columns: at most one worker per column and per CPU
        for cpus, expected in ((4, [2]), (1, []), (None, [])):
            started.clear()
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert run_grid(TheoremId.THEOREM1, (1, 12), (2, 3), jobs=3) == serial
            assert started == expected

    def test_a_command_starts_one_pool_per_kind_of_column(
        self, monkeypatch, started, capsys, tmp_path
    ):
        # series columns for the first a-based statement, Bernoulli-sum
        # columns for prop2_equiv; the other statements only check
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        argv = ["verify", "all", "--n-max", "20", "--a-max", "5", "--jobs", "2",
                "--cache-path", str(tmp_path / "b.json")]
        assert main(argv) == 0
        assert started == [2, 2]

    def test_prop1_trials_are_reproducible(self):
        assert _prop1_trial_series(9, 30) == _prop1_trial_series(9, 30)
        f = _prop1_trial_series(9, 30)
        assert all(type(c) is int for c in f)
        assert 1 <= f[0] <= 5
        assert all(-9 <= c <= 9 for c in f[1:])
        assert len(f) == 31

    def test_prop1_trials_are_randint_draws(self):
        # the trials replay randint's rule over getrandbits; a CPython whose
        # randint draws otherwise fails here, rather than silently changing
        # the series prop1 checks
        for order in (1, 2, 30, 50):
            for t in range(1, 501):
                assert _prop1_trial_series(t, order) == prop1_trial_by_randint(t, order), (t, order)

    def test_prop1_trial_outputs_are_pinned(self):
        # the random.Random(trial) draws and the integers s_0..s_30 of each
        # trial, as first computed by the rational route
        rows = (",".join(map(str, idc_reciprocal_scaled(_prop1_trial_series(t, 30))))
                for t in range(1, 201))
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert digest == "018cbe33c0c963bd84c73b03626da588ec29c18183e8df9f0fc9aa2094a71700"


class TestMutation:
    def test_theorem2_mutation_is_localized(self):
        r = run_grid(TheoremId.THEOREM2, (2, 10), (2, 4), mutate=(5, 4))
        assert [(f.n, f.a) for f in r.failures] == [(5, 4)]
        assert not r.passed
        assert any("mutation" in note for note in r.notes)

    def test_theorem1_mutation_detected(self):
        # G_{9,2} vanishes; bumping it to 1 breaks divisibility by 9
        r = run_grid(TheoremId.THEOREM1, (1, 12), (2, 3), mutate=(9, 2))
        assert [(f.n, f.a) for f in r.failures] == [(9, 2)]

    def test_odd_genocchi_mutation_detected(self):
        r = run_grid(TheoremId.ODD_GENOCCHI, (2, 12), None, mutate=(8, 2))
        assert [(f.n, f.a) for f in r.failures] == [(8, None)]

    def test_prop2_mutation_detected(self):
        r = run_grid(TheoremId.PROP2_EQUIV, (1, 10), (2, 4), mutate=(6, 3))
        assert [(f.n, f.a) for f in r.failures] == [(6, 3)]

    def test_prop2_mutation_builds_one_bernoulli_sum_column_per_base(self, monkeypatch):
        built = []

        def counting(a, n_max, table):
            built.append((a, n_max))
            return gen_genocchi_bernoulli(a, n_max, table)

        monkeypatch.setattr(verify, "gen_genocchi_bernoulli", counting)
        r = run_grid(TheoremId.PROP2_EQUIV, (1, 10), (2, 4), mutate=(6, 3))
        assert [(f.n, f.a) for f in r.failures] == [(6, 3)]
        assert built == [(a, 10) for a in (2, 3, 4)]

    def test_prop1_reports_a_non_integral_trial(self, monkeypatch):
        # prop1 judges the coefficients it gets, not merely that they come back
        bad = _prop1_trial_series(3, 30)

        def one_off(f):
            h = idc_reciprocal_scaled(f)
            if f == bad:
                h[7] += Fraction(1, 2)
            return h

        monkeypatch.setattr(verify, "idc_reciprocal_scaled", one_off)
        r = run_grid(TheoremId.PROP1_IDC, (1, 5))
        assert r.failures == (
            GridFailure(
                3,
                None,
                "scaled reciprocal left the integers (trial 3)",
                "integer coefficients through order 30",
            ),
        )

    def test_mutation_never_reaches_shared_columns(self):
        columns = {}
        mutated = run_grid(TheoremId.THEOREM2, (2, 10), (2, 4), mutate=(5, 4), columns=columns)
        assert [(f.n, f.a) for f in mutated.failures] == [(5, 4)]
        assert columns[(4, 10)] == gen_genocchi_table(4, 10)
        fresh = run_grid(TheoremId.THEOREM1, (1, 10), (2, 4))
        assert run_grid(TheoremId.THEOREM1, (1, 10), (2, 4), columns=columns) == fresh

    def test_gcd_mutation_detected(self):
        # G_{5,4} = -25; the bump makes it even, so gcd with 4 jumps past 2
        r = run_grid(TheoremId.GCD_COROLLARY, (2, 8), (2, 4), mutate=(5, 4))
        assert [(f.n, f.a) for f in r.failures] == [(5, 4)]

    def test_failure_records_carry_both_sides(self):
        r = run_grid(TheoremId.THEOREM2, (2, 10), (2, 4), mutate=(5, 4))
        f = r.failures[0]
        assert isinstance(f, GridFailure)
        assert f.observed and f.expected
        assert "mod" in f.expected

    def test_mutation_target_validation(self):
        with pytest.raises(ValueError, match="outside"):
            run_grid(TheoremId.THEOREM2, (2, 10), (2, 4), mutate=(5, 9))
        with pytest.raises(ValueError, match="outside"):
            run_grid(TheoremId.THEOREM2, (2, 10), (2, 4), mutate=(1, 3))
        with pytest.raises(ValueError, match="not supported"):
            run_grid(TheoremId.VSC_INTEGRALITY, (2, 10), None, mutate=(4, 2))
        with pytest.raises(ValueError, match="not supported"):
            run_grid(TheoremId.PROP1_IDC, (1, 10), None, mutate=(4, 2))
        with pytest.raises(ValueError, match="a = 2"):
            run_grid(TheoremId.ODD_GENOCCHI, (2, 10), None, mutate=(4, 3))


class TestFailureText:
    """The failure text of the integer routes, pinned byte for byte to what
    the earlier Fraction routes wrote."""

    def test_prop2_on_a_doctored_table(self):
        values = list(bernoulli_table(20).values)
        values[10] += Fraction(1, 101)
        doctored = BernoulliTable(tuple(values))
        r = run_grid(TheoremId.PROP2_EQUIV, (1, 12), (3, 4), bernoulli=doctored)
        assert [(f.n, f.a, f.observed, f.expected) for f in r.failures] == [
            (11, 3, "series route 20317, Bernoulli route 2701556/101", "exact equality"),
            (11, 4, "series route 555731, Bernoulli route 67663167/101", "exact equality"),
            (12, 3, "series route 201772, Bernoulli route 24276206/101", "exact equality"),
            (12, 4, "series route 4247577, Bernoulli route 498211293/101", "exact equality"),
        ]

    def test_vsc_on_a_doctored_table(self):
        # B_6 + 1/3 has lost the 3 of its denominator, B_12 + 1/4 has a
        # square one, and B_14 + 1 leaves the sum an integer
        values = list(bernoulli_table(16).values)
        for n, bump in ((6, Fraction(1, 3)), (10, Fraction(1, 5)), (12, Fraction(1, 4)),
                        (14, 1), (16, Fraction(1, 7))):
            values[n] += bump
        doctored = BernoulliTable(tuple(values))
        r = run_grid(TheoremId.VSC_INTEGRALITY, (2, 16), None, bernoulli=doctored)
        assert [(f.n, f.observed, f.expected) for f in r.failures] == [
            (6, "B_n + sum 1/p = 4/3", "an integer"),
            (10, "B_n + sum 1/p = 6/5", "an integer"),
            (12, "B_n + sum 1/p = 5/4", "an integer"),
            (16, "B_n + sum 1/p = -41/7", "an integer"),
        ]

    @pytest.mark.parametrize("mutate,observed,expected", [
        # n*a = 21 is odd, so x = 2(G - 1) + n*a is odd and is the numerator
        ((7, 3), "num(G - (1 - n*a/2)) = 119", "0 (mod 3)"),
        # n*a = 30 is even, so the numerator is x / 2
        ((6, 5), "num(G - (1 - n*a/2)) = -249", "0 (mod 5)"),
    ])
    def test_theorem2_at_a_mutated_point(self, mutate, observed, expected):
        r = run_grid(TheoremId.THEOREM2, (2, 12), (2, 5), mutate=mutate)
        assert r.failures == (GridFailure(*mutate, observed, expected),)


class TestBernoulliPlumbing:
    def test_supplied_table_is_used(self):
        table = bernoulli_table(30)
        r = run_grid(TheoremId.PROP2_EQUIV, (1, 24), (2, 5), bernoulli=table)
        assert r.failures == ()

    def test_short_table_rejected(self):
        # the route that reads the table rejects it, naming the index it needs
        table = bernoulli_table(10)
        with pytest.raises(ValueError, match=r"Bernoulli table covers indices up to 10, need 23$"):
            run_grid(TheoremId.PROP2_EQUIV, (1, 24), (2, 5), bernoulli=table)
        with pytest.raises(ValueError, match=r"Bernoulli table covers indices up to 10, need 12$"):
            run_grid(TheoremId.VSC_INTEGRALITY, (2, 24), None, bernoulli=table)

    def test_vsc_grid_with_supplied_table(self):
        table = bernoulli_table(40)
        r = run_grid(TheoremId.VSC_INTEGRALITY, (2, 40), None, bernoulli=table)
        assert (r.checked, r.failures) == (20, ())

"""Bernoulli and Genocchi generators, their dual routes, and the
denominator structure of the Bernoulli numbers."""

import json
import os
import random
import sys
from fractions import Fraction

import pytest

from genocchi import special
from genocchi.exact import ConsistencyError, factorize, is_prime
from genocchi.series import EgfSeries, idc_reciprocal_scaled
from genocchi.special import (
    BernoulliTable,
    bernoulli_table,
    gen_genocchi_bernoulli,
    gen_genocchi_table,
    genocchi_table,
    von_staudt_clausen_sum,
)
from genocchi.verify import TheoremId, run_grid
import check_frontier
from check_frontier import DIGESTS, digest
from oracles import (
    BERNOULLI_FROZEN,
    GEN_GENOCCHI_FROZEN,
    GENOCCHI_FROZEN,
    bernoulli_by_tangent,
    bernoulli_recurrence,
    bernoulli_sum,
    gen_genocchi_by_ordinary,
    genocchi_by_ordinary,
    scaled_reciprocal_by_ordinary,
    trial_factor,
)


@pytest.fixture(scope="module")
def bern64():
    return bernoulli_table(64)


class TestBernoulliTable:
    def test_frozen_values(self, bern64):
        for n, expected in BERNOULLI_FROZEN.items():
            assert bern64[n] == expected

    def test_matches_recurrence_oracle(self, bern64):
        assert list(bern64.values) == bernoulli_recurrence(64)

    def test_odd_indices_vanish(self, bern64):
        assert all(bern64[n] == 0 for n in range(3, 65, 2))

    def test_single_entry_table(self):
        assert bernoulli_table(0).values == (Fraction(1),)

    @pytest.mark.parametrize("max_index", [1, 2, 3])
    def test_short_tables_match_recurrence_oracle(self, max_index):
        assert list(bernoulli_table(max_index).values) == bernoulli_recurrence(max_index)

    def test_cross_check_builds_one_genocchi_column(self, monkeypatch):
        calls = []

        def counting(n_max):
            calls.append(n_max)
            return genocchi_table(n_max)

        monkeypatch.setattr(special, "genocchi_table", counting)
        assert bernoulli_table(30) == BernoulliTable(tuple(bernoulli_recurrence(30)))
        assert calls == [30]

    def test_cross_check_catches_one_wrong_genocchi_value(self, monkeypatch):
        def off_by_one(n_max):
            column = genocchi_table(n_max)
            column[8] += 1
            return column

        monkeypatch.setattr(special, "genocchi_table", off_by_one)
        with pytest.raises(ConsistencyError, match="B_8") as exc:
            bernoulli_table(10)
        # the message names both routes and blames neither
        assert "from Seidel's triangle" in str(exc.value)
        assert "G_8 = 18 from the base-2 series column" in str(exc.value)

    @pytest.mark.parametrize("max_index", [*range(41), 300])
    def test_kernel_matches_tangent_numbers(self, max_index):
        # the short tables pin the truncation at small max_index
        assert special._seidel_bernoulli(max_index) == bernoulli_by_tangent(max_index)

    def test_max_index(self, bern64):
        assert bern64.max_index == 64

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli_table(-1)

    def test_validation_rejects_bad_anchors(self):
        with pytest.raises(ValueError, match="B_0"):
            BernoulliTable((Fraction(2),))
        with pytest.raises(ValueError, match="B_1"):
            BernoulliTable((Fraction(1), Fraction(1, 2)))
        with pytest.raises(ValueError, match="B_3"):
            BernoulliTable((1, Fraction(-1, 2), Fraction(1, 6), Fraction(1, 30)))
        with pytest.raises(ValueError, match="B_0"):
            BernoulliTable(())
        coerced = BernoulliTable([1, Fraction(-1, 2), Fraction(1, 6)])
        assert coerced.values == (1, Fraction(-1, 2), Fraction(1, 6))
        assert type(coerced.values) is tuple
        assert all(type(v) is Fraction for v in coerced.values)

    def test_rejects_empty_iterator(self):
        # the emptiness test runs on the converted tuple, not on the iterator
        with pytest.raises(ValueError, match="needs at least B_0"):
            BernoulliTable(v for v in [])

    @pytest.mark.parametrize("values", [
        (1, -0.5, Fraction(1, 6)),  # -0.5 is exact, but a float all the same
        (1, Fraction(-1, 2), 1 / 6),
        [1, "-1/2", Fraction(1, 6)],
        (1, Fraction(-1, 2), "1/6"),
    ])
    def test_rejects_inexact_values(self, values):
        with pytest.raises(ValueError, match="int or a Fraction, got"):
            BernoulliTable(values)


def reached(fn, *args):
    """The code objects under src/genocchi that fn(*args) runs, as
    (file, first line, name), recorded by a profile hook."""
    package = os.path.dirname(special.__file__) + os.sep
    seen = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package):
            seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return seen


class TestRouteIndependence:
    def test_bernoulli_kernel_shares_no_code_with_its_cross_check_column(self):
        # bernoulli_table compares the two; a column built from the kernel,
        # or a kernel that read the column, would agree with itself
        kernel = reached(special._seidel_bernoulli, 60)
        column = reached(genocchi_table, 60)
        assert "_seidel_bernoulli" in {name for _, _, name in kernel}
        assert "gen_genocchi_table" in {name for _, _, name in column}
        assert kernel.isdisjoint(column)

    @pytest.mark.parametrize("a", [2, 5])
    def test_series_column_shares_no_code_with_the_bernoulli_sum_column(self, a, bern64):
        # prop2_equiv compares the two; the table, built before recording
        # starts, is the Bernoulli-sum route's declared input
        series = reached(gen_genocchi_table, a, 40)
        transform = reached(gen_genocchi_bernoulli, a, 40, bern64)
        assert "gen_genocchi_table" in {name for _, _, name in series}
        assert "gen_genocchi_bernoulli" in {name for _, _, name in transform}
        assert series.isdisjoint(transform)

    def test_scaled_reciprocal_oracle_reaches_no_package_code(self):
        f = [2] + [1] * 20  # e^t + 1
        kernel = reached(idc_reciprocal_scaled, f)
        assert "idc_reciprocal_scaled" in {name for _, _, name in kernel}
        assert reached(scaled_reciprocal_by_ordinary, f) == set()


class TestGenocchi:
    def test_frozen_values(self):
        assert genocchi_table(14) == GENOCCHI_FROZEN

    def test_single_values(self):
        assert genocchi_table(8)[8] == 17
        assert genocchi_table(12)[12] == 2073
        assert genocchi_table(0)[0] == 0
        assert genocchi_table(1)[1] == 1

    def test_matches_ordinary_route(self):
        assert genocchi_table(40) == genocchi_by_ordinary(40)

    def test_order_zero(self):
        assert genocchi_table(0) == [0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            genocchi_table(-2)

    def test_even_index_values_are_odd(self):
        table = genocchi_table(40)
        assert all(table[n] % 2 == 1 for n in range(2, 41, 2))

    def test_odd_index_values_vanish_from_three(self):
        table = genocchi_table(41)
        assert all(table[n] == 0 for n in range(3, 42, 2))


class TestGenGenocchi:
    def test_frozen_columns(self):
        for a, column in GEN_GENOCCHI_FROZEN.items():
            assert gen_genocchi_table(a, 8) == column

    def test_base_two_specializes_to_classical(self):
        assert gen_genocchi_table(2, 40) == genocchi_table(40)

    def test_matches_ordinary_route(self):
        for a in (3, 5, 8, 12):
            assert gen_genocchi_table(a, 24) == gen_genocchi_by_ordinary(a, 24)
        for a in range(2, 7):
            assert gen_genocchi_table(a, 40) == gen_genocchi_by_ordinary(a, 40)

    def test_column_goes_through_the_series_layer(self, monkeypatch):
        # the benchmark's trace expects one call of each per column; the
        # reciprocal stops one order short, as a*t*r reads r_{n-1} alone
        calls = []
        for name in ("series_reciprocal", "series_mul"):
            def recording(f, *rest, _inner=getattr(special, name), _name=name):
                calls.append((_name, f.order))
                return _inner(f, *rest)

            monkeypatch.setattr(special, name, recording)
        assert gen_genocchi_table(3, 8) == GEN_GENOCCHI_FROZEN[3]
        assert calls == [("series_reciprocal", 7), ("series_mul", 8)]
        calls.clear()
        for a in (2, 3, 10):
            assert gen_genocchi_table(a, 1) == [0, 1]
            assert gen_genocchi_table(a, 0) == [0]
        assert calls == [("series_reciprocal", 0), ("series_mul", 1),
                         ("series_reciprocal", 0), ("series_mul", 0)] * 3

    def test_low_indices(self):
        for a in range(2, 13):
            table = gen_genocchi_table(a, 2)
            assert table[0] == 0
            assert table[1] == 1
            assert table[2] == 1 - a

    def test_columns_are_ints(self):
        for a in range(2, 21):
            assert all(type(g) is int for g in gen_genocchi_table(a, 60)), a

    def test_non_integral_product_aborts(self, monkeypatch):
        # the text is the one the column wrote when it unboxed Fractions
        def off_by_half(f, g, _inner=special.series_mul):
            coeffs = list(_inner(f, g).coeffs)
            coeffs[4] += Fraction(1, 2)
            return EgfSeries(tuple(coeffs))

        monkeypatch.setattr(special, "series_mul", off_by_half)
        with pytest.raises(ConsistencyError) as caught:
            gen_genocchi_table(3, 8)
        assert str(caught.value) == (
            "generalized Genocchi (a=3) came out non-integral at index 4: 9/2"
        )

    def test_single_value(self):
        assert gen_genocchi_table(3, 6)[6] == -26
        assert gen_genocchi_table(6, 3)[3] == 10

    def test_rejects_bad_arguments(self):
        # the column's own words, not those of the helper it calls
        with pytest.raises(ValueError, match=r"^base must satisfy a >= 2, got 1$"):
            gen_genocchi_table(1, 5)
        with pytest.raises(ValueError, match=r"^n_max must be nonnegative, got -1$"):
            gen_genocchi_table(3, -1)


class TestBernoulliSumRoute:
    def test_frozen_spot_values(self, bern64):
        assert gen_genocchi_bernoulli(3, 6, bern64)[6] == -26
        assert gen_genocchi_bernoulli(6, 3, bern64)[3] == 10
        assert gen_genocchi_bernoulli(2, 8, bern64)[8] == 17

    def test_agrees_with_series_route_on_grid(self, bern64):
        for a in range(2, 9):
            by_sum = gen_genocchi_bernoulli(a, 32, bern64)
            assert all(type(g) is int for g in by_sum)
            assert by_sum == gen_genocchi_table(a, 32)

    def test_starts_at_zero_and_reads_below_n_max(self):
        # G_{0,a} is the empty sum, and column n_max reads B_0..B_{n_max-1}
        assert gen_genocchi_bernoulli(5, 0, bernoulli_table(0)) == [0]
        short = bernoulli_table(7)
        assert gen_genocchi_bernoulli(4, 8, short) == gen_genocchi_table(4, 8)

    def test_integer_route_is_exact_for_any_table(self, bern64):
        # one even entry altered, anchors intact, and a new prime in the
        # denominators: the route must still equal the plain Fraction sum
        values = list(bern64.values)
        values[10] += Fraction(1, 101)
        doctored = BernoulliTable(tuple(values))
        for a in (2, 3, 10):
            by_sum = gen_genocchi_bernoulli(a, 65, doctored)
            for n in range(1, 66):
                assert by_sum[n] == bernoulli_sum(n, a, values)
        assert gen_genocchi_bernoulli(3, 11, doctored)[11].denominator == 101

    def test_rejects_bad_arguments(self, bern64):
        with pytest.raises(ValueError):
            gen_genocchi_bernoulli(1, 3, bern64)
        with pytest.raises(ValueError):
            gen_genocchi_bernoulli(3, -1, bern64)
        with pytest.raises(ValueError, match="table"):
            gen_genocchi_bernoulli(3, 4, bernoulli_table(2))


class TestFrontierDigest:
    def test_base_two_column_at_n_1000(self):
        # every base to 100 is checked by tests/check_frontier.py, by the
        # Bernoulli-sum route and at a = 3 and 20 by the series route, in
        # about 45 s on one core
        pinned = json.loads(DIGESTS.read_text())
        column = gen_genocchi_table(2, pinned["column_n_max"])
        assert digest(column) == pinned["columns"]["2"]

    def test_seidel_bernoulli_to_the_frontier(self):
        # the kernel every warm cache load trusts, alone; tests/check_frontier.py
        # cross-checks it at B_2000 against the base-2 series column and the
        # tangent numbers, within the same 45 s
        pinned = json.loads(DIGESTS.read_text())
        values = special._seidel_bernoulli(pinned["bernoulli_max_index"])
        assert digest(values) == pinned["bernoulli"]

    def test_check_frontier_at_a_small_size(self, tmp_path, monkeypatch, capsys):
        # the CI frontier job's script, over digests from the oracles alone:
        # 19 columns by the Bernoulli-sum route, 2 by the series route, B twice
        n_max, max_index = 30, 60
        pinned = {
            "column_n_max": n_max,
            "columns": {str(a): digest(gen_genocchi_by_ordinary(a, n_max)) for a in range(2, 21)},
            "bernoulli_max_index": max_index,
            "bernoulli": digest(bernoulli_recurrence(max_index)),
        }
        path = tmp_path / "frontier_digests.json"
        monkeypatch.setattr(check_frontier, "DIGESTS", path)
        path.write_text(json.dumps(pinned))
        assert check_frontier.main() == 0
        assert capsys.readouterr().out.splitlines()[-1] == "23 of 23 digests match"

        pinned["columns"]["20"] = digest(gen_genocchi_by_ordinary(20, n_max - 1))
        path.write_text(json.dumps(pinned))
        assert check_frontier.main() == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "21 of 23 digests match"
        assert "mismatch: a = 20 by the Bernoulli-sum route" in err
        assert "mismatch: a = 20 by the series route" in err


class TestVonStaudtClausen:
    def test_small_sums_are_one(self, bern64):
        assert von_staudt_clausen_sum(2, bern64) == 1
        assert von_staudt_clausen_sum(4, bern64) == 1
        assert von_staudt_clausen_sum(6, bern64) == 1
        assert von_staudt_clausen_sum(12, bern64) == 1

    def test_integral_through_sixty_four(self, bern64):
        for n in range(2, 65, 2):
            assert von_staudt_clausen_sum(n, bern64).denominator == 1

    def test_matches_the_sum_of_fractions_through_300(self):
        table = bernoulli_table(300)
        for n in range(2, 301, 2):
            by_fractions = table[n] + sum(
                (Fraction(1, p) for p in range(2, n + 2) if n % (p - 1) == 0 and is_prime(p)),
                Fraction(0),
            )
            assert von_staudt_clausen_sum(n, table) == by_fractions, n

    def test_denominator_is_product_of_matching_primes(self, bern64):
        # the denominator of B_n = product of the primes p with (p-1) | n, squarefree
        for n in range(2, 65, 2):
            d = bern64[n].denominator
            expected = 1
            for p in range(2, n + 2):
                if is_prime(p) and n % (p - 1) == 0:
                    expected *= p
            assert d == expected
            assert all(e == 1 for _, e in factorize(d))

    def test_rejects_odd_and_small(self, bern64):
        with pytest.raises(ValueError):
            von_staudt_clausen_sum(3, bern64)
        with pytest.raises(ValueError):
            von_staudt_clausen_sum(0, bern64)

    def test_rejects_short_table(self):
        with pytest.raises(ValueError, match="table"):
            von_staudt_clausen_sum(10, bernoulli_table(4))


class TestValuationBound:
    """nu_p(B_n) >= -1 at every prime p, that is a squarefree denominator of
    B_n, follows from vsc_integrality: an integral s = B_n + sum 1/p over
    distinct primes leaves B_n = s - sum 1/p a squarefree denominator. So a
    table whose B_n has a square in its denominator fails vsc at n."""

    def test_holds_on_real_tables(self, bern64):
        for n in range(1, 65):
            assert all(e == 1 for _, e in trial_factor(bern64[n].denominator)), n

    @pytest.mark.parametrize("b2", [
        Fraction(1, 12),
        # 101 is neither of the primes, 2 and 3, that B_2's sum adds
        Fraction(1, 101**2),
    ])
    def test_detects_violations(self, b2):
        doctored = BernoulliTable((Fraction(1), Fraction(-1, 2), b2))
        r = run_grid(TheoremId.VSC_INTEGRALITY, (2, 2), None, bernoulli=doctored)
        assert [(f.n, f.expected) for f in r.failures] == [(2, "an integer")]

    def test_square_denominators_fail_integrality(self, bern64):
        rng = random.Random(32)
        dens = [p**e for p in (2, 3, 5, 7, 11, 13, 101) for e in (1, 2, 3)] + [36]
        squares = 0
        for _ in range(600):
            values = list(bern64.values)
            n = rng.randrange(2, 65, 2)
            values[n] += Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.choice(dens))
            if all(e == 1 for _, e in trial_factor(values[n].denominator)):
                continue
            squares += 1
            doctored = BernoulliTable(tuple(values))
            r = run_grid(TheoremId.VSC_INTEGRALITY, (n, n), None, bernoulli=doctored)
            assert [f.n for f in r.failures] == [n], (n, values[n])
        assert squares > 200

"""Command-line contract: formats, exit codes, cache wiring, round trips."""

import csv
import errno
import hashlib
import io
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from genocchi.cache import save_bernoulli_cache
from genocchi.cli import (
    main,
    render_bernoulli_csv,
    render_bernoulli_json,
    render_genocchi_csv,
    render_genocchi_json,
    render_reports_csv,
    render_reports_json,
)
from genocchi.exact import ConsistencyError
from genocchi import cache, cli, series, special, verify
from genocchi.special import bernoulli_table, gen_genocchi_table, genocchi_table
from genocchi.verify import TheoremId, run_grid
from childproc import REPO_ROOT, run_python
from oracles import bernoulli_recurrence


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_writer_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def without_elapsed(out, fmt):
    """Verify output with each report's elapsed_s left out."""
    if fmt == "json":
        return [{k: v for k, v in r.items() if k != "elapsed_s"} for r in json.loads(out)]
    rows = parse_csv(out)
    i = rows[0].index("elapsed_s")
    return [row[:i] + row[i + 1:] for row in rows]


def canonical_reports_from_csv(text):
    """Fold the two row kinds of the verify CSV back into report dicts."""
    rows = parse_csv(text)
    assert rows[0][0] == "kind"
    header = rows[0]
    reports = []
    for row in rows[1:]:
        fields = dict(zip(header, row))
        if fields["kind"] == "report":
            reports.append({
                "theorem": fields["theorem"],
                "n_range": [int(fields["n_min"]), int(fields["n_max"])],
                "a_range": None if fields["a_min"] == "" else
                           [int(fields["a_min"]), int(fields["a_max"])],
                "checked": int(fields["checked"]),
                "failure_count": int(fields["failure_count"]),
                "elapsed_s": float(fields["elapsed_s"]),
                "notes": json.loads(fields["notes"]),
                "failures": [],
            })
        else:
            assert fields["kind"] == "failure"
            reports[-1]["failures"].append({
                "n": int(fields["n"]),
                "a": None if fields["a"] == "" else int(fields["a"]),
                "observed": fields["observed"],
                "expected": fields["expected"],
            })
    return reports


class TestBernoulliCommand:
    def test_csv_output(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "bernoulli", "--n-max", "4",
            "--cache-path", str(tmp_path / "b.json"),
        )
        assert code == 0
        assert parse_csv(out) == [
            ["index", "numerator", "denominator"],
            ["0", "1", "1"],
            ["1", "-1", "2"],
            ["2", "1", "6"],
            ["3", "0", "1"],
            ["4", "-1", "30"],
        ]

    def test_json_output_uses_decimal_strings(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "bernoulli", "--n-max", "12", "--format", "json",
            "--cache-path", str(tmp_path / "b.json"),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_index"] == 12
        assert payload["values"][4] == {"num": "-1", "den": "30"}
        assert payload["values"][12] == {"num": "-691", "den": "2730"}
        assert all(isinstance(v["num"], str) for v in payload["values"])

    def test_json_bytes_are_those_of_json_dumps(self):
        table = bernoulli_table(150)
        for n_max in (0, 1, 2, 150):
            payload = {
                "max_index": n_max,
                "values": [{"num": str(v.numerator), "den": str(v.denominator)}
                           for v in table.values[: n_max + 1]],
            }
            assert render_bernoulli_json(table, n_max) == json.dumps(payload, indent=1) + "\n"

    def test_csv_bytes_are_those_of_csv_writer(self):
        table = bernoulli_table(150)
        for n_max in (0, 1, 2, 150):
            rows = [["index", "numerator", "denominator"]]
            values = table.values[: n_max + 1]
            rows += [[i, v.numerator, v.denominator] for i, v in enumerate(values)]
            assert render_bernoulli_csv(table, n_max) == csv_writer_text(rows)

    def test_index_zero_only(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "bernoulli", "--n-max", "0",
            "--cache-path", str(tmp_path / "b.json"),
        )
        assert code == 0
        assert parse_csv(out) == [["index", "numerator", "denominator"], ["0", "1", "1"]]

    def test_cache_is_created_and_reused(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        assert run_cli(capsys, "bernoulli", "--n-max", "8", "--cache-path", str(path))[0] == 0
        stamp = path.read_text()
        assert run_cli(capsys, "bernoulli", "--n-max", "6", "--cache-path", str(path))[0] == 0
        assert path.read_text() == stamp

    def test_env_var_names_the_cache(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env-cache.json"
        monkeypatch.setenv("GENOCCHI_CACHE", str(path))
        code, _, _ = run_cli(capsys, "bernoulli", "--n-max", "4")
        assert code == 0
        assert path.exists()

    def test_no_home_directory_exits_two(self, capsys, monkeypatch):
        # Path.home() raises when HOME is unset and the user has no passwd entry
        def no_home():
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.delenv("GENOCCHI_CACHE", raising=False)
        monkeypatch.setattr(Path, "home", staticmethod(no_home))
        verify_all = ["verify", "all", "--n-max", "12", "--a-max", "3"]
        for argv in (["bernoulli", "--n-max", "3"], verify_all):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == (
                "error: no home directory for the Bernoulli cache; "
                "give --cache-path or set GENOCCHI_CACHE\n"
            ), argv
        code, out, _ = run_cli(capsys, "genocchi", "--n-max", "3")
        assert code == 0 and out == "n,value\n0,0\n1,1\n2,-1\n3,0\n"

    def test_corrupt_cache_exits_two_and_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        save_bernoulli_cache(path, bernoulli_table(10))
        raw = json.loads(path.read_text())
        raw["entries"][2]["num"] = "7"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "bernoulli", "--n-max", "5", "--cache-path", str(path))
        assert code == 2
        assert str(path) in err and "entry" in err
        raw["entries"][2]["num"] = "1"
        raw["entries"][1]["den"] = 2.7  # int() would read 2, and B_1 = -1/2
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "bernoulli", "--n-max", "5", "--cache-path", str(path))
        assert code == 2
        assert str(path) in err and "entry 1 fails re-derivation" in err
        # int() reads each of these strings as the right value
        raw["entries"][1]["den"] = "0_2"
        raw["entries"][1]["num"] = " -1\n"
        raw["entries"][0]["num"] = "\u0661"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "bernoulli", "--n-max", "5", "--cache-path", str(path))
        assert code == 2
        assert str(path) in err and "entry 0 fails re-derivation" in err
        path.write_text("[]")
        code, _, err = run_cli(capsys, "bernoulli", "--n-max", "5", "--cache-path", str(path))
        assert code == 2
        assert str(path) in err and "object" in err

    def test_deeply_nested_cache_exits_two(self, capsys, tmp_path):
        # a crash here would exit 1, which reads as a counterexample
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        for argv in (["bernoulli", "--n-max", "3"], ["verify", "vsc_integrality", "--n-max", "4"]):
            code, _, err = run_cli(capsys, *argv, "--cache-path", str(path))
            assert code == 2
            assert str(path) in err and "unreadable" in err

    def test_unwritable_cache_exits_two_and_names_the_file(self, capsys, tmp_path):
        parent = tmp_path / "not-a-dir"
        parent.write_text("")
        path = parent / "b.json"
        code, _, err = run_cli(capsys, "bernoulli", "--n-max", "5", "--cache-path", str(path))
        assert code == 2 and str(path) in err

    def test_negative_n_max_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bernoulli", "--n-max", "-3",
            "--cache-path", str(tmp_path / "b.json"),
        )
        assert code == 2 and "n-max" in err


class TestGenocchiCommand:
    def test_csv_default_base(self, capsys):
        code, out, _ = run_cli(capsys, "genocchi", "--n-max", "4")
        assert code == 0
        assert parse_csv(out) == [
            ["n", "value"], ["0", "0"], ["1", "1"], ["2", "-1"], ["3", "0"], ["4", "1"],
        ]

    def test_csv_base_three(self, capsys):
        code, out, _ = run_cli(capsys, "genocchi", "--n-max", "6", "--a", "3")
        assert code == 0
        assert [row[1] for row in parse_csv(out)[1:]] == ["0", "1", "-2", "1", "4", "-5", "-26"]

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "genocchi", "--n-max", "8", "--a", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "a": 5,
            "n_max": 8,
            "values": ["0", "1", "-4", "6", "16", "-74", "-264", "1946", "9056"],
        }

    def test_json_bytes_are_those_of_json_dumps(self):
        cases = [(2, [0]), (3, [0, 1, -2, 1, 4, -5, -26]), (10, gen_genocchi_table(10, 12)),
                 (25, gen_genocchi_table(25, 30)), (7, [0, -(10**60), 10**60 + 1])]
        for a, values in cases:
            payload = {"a": a, "n_max": len(values) - 1, "values": [str(v) for v in values]}
            assert render_genocchi_json(a, values) == json.dumps(payload, indent=1) + "\n"

    def test_csv_bytes_are_those_of_csv_writer(self):
        cases = [(2, [0]), (2, genocchi_table(40)), (25, gen_genocchi_table(25, 30)),
                 (25, [0, -(10**60), 10**60 + 1])]
        for a, values in cases:
            rows = [["n", "value"]] + [[n, v] for n, v in enumerate(values)]
            assert render_genocchi_csv(a, values) == csv_writer_text(rows)

    def test_bad_base_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "genocchi", "--n-max", "4", "--a", "1")
        assert code == 2 and "--a" in err

    def test_order_below_n_max_exits_two(self, capsys, tmp_path):
        # a column's truncation is its n_max; genocchi takes no --order
        code, _, err = run_cli(capsys, "genocchi", "--n-max", "10", "--a", "3", "--order", "4")
        assert code == 2 and "--order" in err
        # only prop1_idc has a trial series; the others note that they ignore it
        for argv in (
            ["verify", "theorem1", "--n-max", "10", "--a-max", "3", "--order", "4"],
            ["verify", "odd_genocchi", "--n-max", "10", "--order", "4"],
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            notes = canonical_reports_from_csv(out)[0]["notes"]
            assert f"{argv[1]} has no trial series; order ignored" in notes, argv
        # under all, --order still sizes prop1's trials
        code, out, _ = run_cli(capsys, "verify", "all", "--n-max", "20", "--a-max", "3",
                               "--order", "5", "--cache-path", str(tmp_path / "b.json"))
        assert code == 0
        for r in canonical_reports_from_csv(out):
            ignored = f"{r['theorem']} has no trial series; order ignored" in r["notes"]
            assert ignored == (r["theorem"] != "prop1_idc"), r["theorem"]
            if r["theorem"] == "prop1_idc":
                assert r["checked"] == 20
                assert "trial series of order 5" in r["notes"]
        # without --order prop1 notes the default order
        code, out, _ = run_cli(capsys, "verify", "prop1_idc", "--n-max", "3")
        assert code == 0
        assert "trial series of order 30" in canonical_reports_from_csv(out)[0]["notes"]
        # prop1's order sizes its trial series; below 1 every trial is a constant
        for order in ("0", "-2"):
            code, _, err = run_cli(capsys, "verify", "prop1_idc", "--n-max", "3", "--order", order)
            assert code == 2, order
            assert f"order {order} is below 1 for prop1_idc" in err, order

    def test_unwritable_output_exits_two(self, capsys, monkeypatch):
        # exit 1 means a counterexample; a full disk is an error like any other
        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(["genocchi", "--n-max", "10", "--a", "3"]) == 2
        assert "error: [Errno 28] No space left on device" in capsys.readouterr().err

    def test_closed_pipe_exits_two_quietly(self):
        # a reader that stops early (`| head`) is no error to report, but
        # the output was not all written, so the exit code stays 2
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            for n_max in ("0", "300"):
                proc = run_python("-m", "genocchi", "genocchi", "--n-max", n_max, "--a", "3",
                                  stdout=write_end)
                assert proc.returncode == 2, n_max
                assert proc.stderr == "", n_max
        finally:
            os.close(write_end)

    def test_internal_error_exits_three(self, capsys, monkeypatch, tmp_path):
        def broken(*args):
            raise ConsistencyError("routes disagree")

        def off_by_one(n_max):
            column = genocchi_table(n_max)
            column[6] += 1
            return column

        monkeypatch.setattr("genocchi.cli.gen_genocchi_table", broken)
        monkeypatch.setattr("genocchi.special.genocchi_table", off_by_one)
        for argv, fragment in (
            (["genocchi", "--n-max", "4"], "routes disagree"),
            (["bernoulli", "--n-max", "10", "--cache-path", str(tmp_path / "b.json")], "B_6"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3, argv
            assert out == "" and "internal error" in err and fragment in err, argv
        assert not (tmp_path / "b.json").exists()

    def test_out_of_memory_exits_two(self, capsys, monkeypatch, tmp_path):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "get_or_build", exhausted)
        cache = str(tmp_path / "b.json")
        for argv in (
            ["bernoulli", "--n-max", "10", "--cache-path", cache],
            ["verify", "vsc_integrality", "--n-max", "10", "--cache-path", cache],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == "" and err.startswith("error: out of memory"), argv

    def test_unexpected_exception_exits_three_with_traceback(self, capsys, monkeypatch):
        def crash(*args):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli, "gen_genocchi_table", crash)
        code, out, err = run_cli(capsys, "genocchi", "--n-max", "4")
        assert code == 3
        assert out == "" and "Traceback" in err
        assert err.splitlines()[-1] == "internal error: TypeError: unsupported operand"


class TestVerifyCommand:
    def test_clean_run_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "verify", "theorem1", "--n-max", "20", "--a-max", "5")
        assert code == 0
        reports = canonical_reports_from_csv(out)
        assert len(reports) == 1
        assert reports[0]["checked"] == 20 * 4
        assert reports[0]["failure_count"] == 0
        assert "theorem1" in err  # progress goes to stderr

    def test_mutation_exits_one_and_localizes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "theorem2",
            "--n-max", "10", "--a-max", "4", "--mutate", "5,4",
        )
        assert code == 1
        reports = canonical_reports_from_csv(out)
        assert reports[0]["failure_count"] == 1
        assert reports[0]["failures"][0]["n"] == 5
        assert reports[0]["failures"][0]["a"] == 4
        assert "FAIL" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "odd_genocchi", "--n-max", "12", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["theorem"] == "odd_genocchi"
        assert payload[0]["a_range"] is None
        assert payload[0]["checked"] == 6

    def test_all_statements_on_a_small_grid(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "verify", "all", "--n-max", "12", "--a-max", "4",
            "--cache-path", str(tmp_path / "b.json"),
        )
        assert code == 0
        reports = canonical_reports_from_csv(out)
        assert [r["theorem"] for r in reports] == [t.value for t in TheoremId]
        assert all(r["failure_count"] == 0 for r in reports)

    def test_bad_order_under_all_fails_before_any_statement(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify", "all", "--n-max", "10", "--a-max", "3",
                                 "--order", "0", "--cache-path", str(tmp_path / "b.json"))
        assert code == 2 and out == ""
        assert "lemma_n_div:" not in err
        assert err == "error: order 0 is below 1 for prop1_idc\n"
        assert not (tmp_path / "b.json").exists()  # nor is the Bernoulli table built

    def test_all_builds_each_column_once_per_command(self, capsys, tmp_path, monkeypatch):
        # counted under every name the kernel has, so a base-2 column built
        # through genocchi_table counts too
        built = []

        def counting(a, n_max):
            built.append((a, n_max))
            return gen_genocchi_table(a, n_max)

        cache = str(tmp_path / "b.json")
        # warm: a cold cache builds a base-2 column of its own to check B_n
        assert run_cli(capsys, "bernoulli", "--n-max", "12", "--cache-path", cache)[0] == 0
        for module in (special, verify):
            monkeypatch.setattr(module, "gen_genocchi_table", counting)
        argv = ["verify", "all", "--n-max", "12", "--a-max", "4", "--cache-path", cache]
        for _ in range(2):  # no column outlives its command
            built.clear()
            assert run_cli(capsys, *argv)[0] == 0
            assert sorted(built) == [(a, 12) for a in (2, 3, 4)]

    def test_jobs_flag_changes_nothing_but_elapsed(self, capsys, tmp_path):
        for theorem in ("theorem1", "all"):
            argv = ["verify", theorem, "--n-max", "15", "--a-max", "4", "--format", "json",
                    "--cache-path", str(tmp_path / "b.json")]
            code1, out1, _ = run_cli(capsys, *argv)
            code2, out2, _ = run_cli(capsys, *argv, "--jobs", "2")
            assert code1 == code2 == 0
            one, two = json.loads(out1), json.loads(out2)
            for r in one + two:
                del r["elapsed_s"]
            assert one == two

    def test_n_max_below_a_statements_hypothesis_exits_two_before_checking(self, capsys, tmp_path):
        # theorem2 starts at n = 2, so `all` must stop before lemma_n_div runs
        code, out, err = run_cli(
            capsys, "verify", "all", "--n-max", "1", "--cache-path", str(tmp_path / "b.json"),
        )
        assert code == 2
        assert out == ""
        assert "--n-max must be at least 2" in err
        assert "checked" not in err
        assert not (tmp_path / "b.json").exists()

    def test_unknown_statement_exits_two(self, capsys):
        assert run_cli(capsys, "verify", "nosuch")[0] == 2

    def test_malformed_mutate_exits_two(self, capsys):
        assert run_cli(capsys, "verify", "theorem2", "--mutate", "5")[0] == 2
        assert run_cli(capsys, "verify", "theorem2", "--mutate", "x,y")[0] == 2

    def test_mutate_with_all_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "all", "--mutate", "5,4")
        assert code == 2 and "single" in err

    def test_mutate_outside_grid_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "theorem2", "--n-max", "10", "--a-max", "4",
            "--mutate", "5,9",
        )
        assert code == 2 and "outside" in err

    def test_invisible_mutation_exits_two(self, capsys):
        # G_{4,3} = 1 (mod 3) bumps to 2, still coprime with 3
        code, out, err = run_cli(
            capsys, "verify", "gcd_corollary", "--n-max", "10", "--a-max", "6",
            "--mutate", "4,3",
        )
        assert (code, out) == (2, "")
        assert "mutation at (n=4, a=3) is invisible to gcd_corollary" in err

    def test_missing_subcommand_exits_two(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


def bumped_at(n, fn, base=None):
    """fn with entry n of the list it returns raised by 1; with `base`, only
    in the calls whose first argument is that base. `bumped.hits` counts the
    values it bumped."""
    def bumped(*args):
        values = fn(*args)
        if len(values) > n and base in (None, args[0]):
            values[n] += 1
            bumped.hits += 1
        return values

    bumped.hits = 0
    return bumped


PROP2_SMALL = ["verify", "prop2_equiv", "--n-max", "12", "--a-max", "3"]
BERNOULLI_SMALL = ["bernoulli", "--n-max", "12"]

# fault -> (the module that defines the kernel, its name, the modules that
# import it by name, the entry bumped, the one base bumped or None for all)
FAULTS = {
    "kernel": (special, "_seidel_bernoulli", (special, cache), 8, None),
    "column": (special, "genocchi_table", (special, verify), 8, None),
    "column-a3": (special, "gen_genocchi_table", (special, verify, cli), 8, 3),
    "transform": (special, "gen_genocchi_bernoulli", (special, verify), 8, None),
    "prop1": (series, "idc_reciprocal_scaled", (series, verify), 5, None),
}


class TestFaultMatrix:
    """One wrong value in a kernel or in the cache file, and what each cache
    state makes of it. A cold cache builds the Bernoulli table and checks
    it against the base-2 series column; a warm one, written before the
    fault, is re-derived by the Bernoulli kernel alone. The kernels are
    Seidel's triangle, the base-2 and base-3 series columns, the
    Bernoulli-sum transform and prop1's recurrence. prop1_idc checks only
    that its trials stay integral, so a bumped integer passes it: the
    statement cannot tell a wrong recurrence from a right one."""

    @pytest.mark.parametrize("fault, state, argv, code, fragments", [
        ("kernel", "cold", BERNOULLI_SMALL, 3,
         ["B_8 = 29/30 from Seidel's triangle disagrees with G_8 = 17"]),
        ("kernel", "warm", BERNOULLI_SMALL, 2, ["entry 8 fails re-derivation"]),
        ("column", "cold", PROP2_SMALL, 3,
         ["B_8 = -1/30 from Seidel's triangle disagrees with G_8 = 18"]),
        ("column", "warm", PROP2_SMALL, 1, ["FAIL prop2_equiv n=8 a=2"]),
        ("column-a3", "cold", PROP2_SMALL, 1, ["FAIL prop2_equiv n=8 a=3"]),
        ("column-a3", "warm", PROP2_SMALL, 1, ["FAIL prop2_equiv n=8 a=3"]),
        ("transform", "cold", PROP2_SMALL, 1,
         ["FAIL prop2_equiv n=8 a=2", "FAIL prop2_equiv n=8 a=3"]),
        ("transform", "warm", PROP2_SMALL, 1,
         ["FAIL prop2_equiv n=8 a=2", "FAIL prop2_equiv n=8 a=3"]),
        ("prop1", "cold", ["verify", "prop1_idc", "--n-max", "20"], 0,
         ["prop1_idc: checked 20 points, 0 failures"]),
        ("prop1", "warm", ["verify", "prop1_idc", "--n-max", "20"], 0,
         ["prop1_idc: checked 20 points, 0 failures"]),
        ("file", "warm", BERNOULLI_SMALL, 2, ["entry 8 fails re-derivation"]),
    ], ids=["kernel-cold", "kernel-warm", "column-cold", "column-warm", "column-a3-cold",
            "column-a3-warm", "transform-cold", "transform-warm", "prop1-cold", "prop1-warm",
            "file-warm"])
    def test_one_bumped_value(self, capsys, monkeypatch, tmp_path, fault, state, argv, code,
                              fragments):
        path = tmp_path / "b.json"
        if state == "warm":
            save_bernoulli_cache(path, bernoulli_table(12))
        bumped = None
        if fault == "file":
            raw = json.loads(path.read_text())
            entry = raw["entries"][8]
            entry["num"] = str(int(entry["num"]) + 1)
            path.write_text(json.dumps(raw))
        else:
            home, name, modules, n, base = FAULTS[fault]
            bumped = bumped_at(n, getattr(home, name), base)
            # each module that imports the kernel by name gets the bumped one
            for module in modules:
                monkeypatch.setattr(module, name, bumped)
        stamp = path.read_bytes() if state == "warm" else None
        got, _, err = run_cli(capsys, *argv, "--cache-path", str(path))
        assert got == code
        assert bumped is None or bumped.hits > 0  # the fault was reached
        for fragment in fragments:
            assert fragment in err
        if state == "warm":
            assert path.read_bytes() == stamp  # no run rewrites a warm cache
        elif code == 3:
            assert not path.exists()  # a failed build writes none


class TestSharedParser:
    """main builds one parser per process; no call may leave anything in it
    that changes a later call."""

    def test_repeated_calls_match_their_first_run(self, capsys, tmp_path, monkeypatch):
        assert cli.build_parser() is not cli.build_parser()
        cache = str(tmp_path / "b.json")
        calls = [["genocchi", "--n-max", "x"], ["--help"]]
        for fmt in ("csv", "json"):
            calls += [
                ["bernoulli", "--n-max", "20", "--format", fmt, "--cache-path", cache],
                ["genocchi", "--n-max", "20", "--a", "3", "--format", fmt],
                ["verify", "all", "--n-max", "12", "--a-max", "3", "--format", fmt,
                 "--cache-path", cache],
            ]
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        first = {}
        for argv in calls + calls[::-1]:
            code, out, _ = run_cli(capsys, *argv)
            if argv[0] == "verify":
                out = without_elapsed(out, argv[argv.index("--format") + 1])
            assert first.setdefault(tuple(argv), (code, out)) == (code, out), argv
        assert [first[tuple(argv)][0] for argv in calls] == [2, 0] + [0] * 6
        assert len(built) == 1

    def test_dispatch_looks_up_the_command_at_call_time(self, capsys, monkeypatch):
        # what keeps the benchmark's cli.cmd_* spans counting once the
        # parser outlives the wrappers installed after it was built
        assert run_cli(capsys, "genocchi", "--n-max", "3")[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_genocchi", lambda args: seen.append(args.n_max) or 0)
        assert run_cli(capsys, "genocchi", "--n-max", "5") == (0, "", "")
        assert seen == [5]


DEFAULT_GRID_CSV = (
    "kind,theorem,n_min,n_max,a_min,a_max,checked,failure_count,elapsed_s,notes,"
    "n,a,observed,expected\n"
    "report,lemma_n_div,1,200,2,20,3800,0,0.0,[],,,,\n"
    "report,theorem1,1,200,2,20,3800,0,0.0,[],,,,\n"
    'report,theorem2,2,200,2,20,3781,0,0.0,'
    '"[""n raised from 1 to 2 (theorem2 hypothesis)""]",,,,\n'
    'report,corollary2,1,200,2,20,3790,0,0.0,'
    '"[""even bases checked for n >= 2, odd bases for n >= 1""]",,,,\n'
    'report,gcd_corollary,2,200,2,20,3781,0,0.0,'
    '"[""n raised from 1 to 2 (gcd_corollary hypothesis)""]",,,,\n'
    'report,odd_genocchi,2,200,,,100,0,0.0,'
    '"[""n raised from 1 to 2 (odd_genocchi hypothesis)"", '
    '""odd_genocchi does not range over a; a-range ignored""]",,,,\n'
    'report,vsc_integrality,2,200,,,100,0,0.0,'
    '"[""n raised from 1 to 2 (vsc_integrality hypothesis)"", '
    '""vsc_integrality does not range over a; a-range ignored""]",,,,\n'
    'report,prop1_idc,1,200,,,200,0,0.0,'
    '"[""prop1_idc does not range over a; a-range ignored"", '
    '""trial series of order 30""]",,,,\n'
    "report,prop2_equiv,1,200,2,20,3800,0,0.0,[],,,,\n"
)
DEFAULT_GRID_JSON_SHA256 = "4f132add9178bf5331473e07cb819b4b14184f95b4f5d5ab56cf41ca3e8ad99d"

# one mutated point per statement that takes a mutation, on n = 1..12,
# a = 2..6: (statement, N,A) -> its (n, a, observed, expected) records
MUTATION_FAILURES = {
    ("lemma_n_div", "6,4"): [[6, 4, "a^(n-1)*G = 4 (mod 6) with G = -98", "0 (mod 6)"]],
    ("theorem1", "10,3"): [[10, 3, "G = -6709 = 1 (mod 10)", "0 (mod 10)"]],
    ("theorem2", "5,4"): [[5, 4, "num(G - (1 - n*a/2)) = -15", "0 (mod 4)"]],
    # n*a odd: G - (1 - n*a/2) is a half-integer
    ("theorem2", "3,3"): [[3, 3, "num(G - (1 - n*a/2)) = 11", "0 (mod 3)"]],
    ("corollary2", "7,6"): [[7, 6, "G = 5 (mod 6)", "4 (mod 6)"]],
    ("gcd_corollary", "6,6"): [
        [6, 6, "gcd(G, a) = 2 with G = -574", "1, or 2 exactly when a = 2 (mod 4) and n is odd"]
    ],
    ("odd_genocchi", "8,2"): [[8, None, "G_8 = 18", "an odd integer"]],
    ("prop2_equiv", "10,5"): [
        [10, 5, "series route -512023, Bernoulli route -512024", "exact equality"]
    ],
}


class TestByteGate:
    """What every change keeps: `verify all` on the default grid writes these
    bytes once elapsed_s reads 0.0, and a mutated run writes these failures
    and exits 1."""

    def test_verify_all_on_the_default_grid(self, capsys, tmp_path, monkeypatch):
        def untimed(*args, **kwargs):
            return replace(run_grid(*args, **kwargs), elapsed_s=0.0)

        monkeypatch.setattr(cli, "run_grid", untimed)
        cache = str(tmp_path / "b.json")
        code, out, _ = run_cli(capsys, "verify", "all", "--cache-path", cache)
        assert code == 0 and out == DEFAULT_GRID_CSV
        code, out, _ = run_cli(capsys, "verify", "all", "--format", "json", "--cache-path", cache)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_GRID_JSON_SHA256

    @pytest.mark.parametrize("statement,mutate", list(MUTATION_FAILURES))
    def test_one_mutation_per_statement(self, capsys, tmp_path, statement, mutate):
        code, out, _ = run_cli(
            capsys, "verify", statement, "--n-max", "12", "--a-max", "6", "--mutate", mutate,
            "--format", "json", "--cache-path", str(tmp_path / "b.json"),
        )
        failures = [list(f.values()) for f in json.loads(out)[0]["failures"]]
        assert code == 1 and failures == MUTATION_FAILURES[statement, mutate]


class TestValuesPastTheDigitLimit:
    """Python caps int <-> str conversion (4300 digits by default); exact
    output must not stop there. Each case runs with the lowest cap, 640
    digits, which B_500 (743 digits) and G_{400,20} (1069 digits) pass: in a
    child process, or in this one, where main must put the cap back."""

    LIMIT = {"PYTHONINTMAXSTRDIGITS": "640"}

    def test_bernoulli_table_and_its_cache(self, tmp_path):
        cache = tmp_path / "b.json"
        argv = ["-m", "genocchi", "bernoulli", "--cache-path", str(cache)]
        cold = run_python(*argv, "--n-max", "500", env=self.LIMIT)
        assert cold.returncode == 0, cold.stderr
        expected = bernoulli_recurrence(500)
        rows = parse_csv(cold.stdout)[1:]
        assert [Fraction(int(num), int(den)) for _, num, den in rows] == expected
        assert max(len(num) for _, num, _ in rows) > 640
        # a smaller warm request is served from the 500-entry cache, unchanged
        written = cache.read_bytes()
        warm = run_python(*argv, "--n-max", "480", env=self.LIMIT)
        assert warm.returncode == 0, warm.stderr
        assert warm.stdout == "\n".join(cold.stdout.split("\n")[:482]) + "\n"
        assert cache.read_bytes() == written

    def test_genocchi_column(self):
        done = run_python("-m", "genocchi", "genocchi", "--n-max", "400", "--a", "20",
                          "--format", "json", env=self.LIMIT)
        assert done.returncode == 0, done.stderr
        values = json.loads(done.stdout)["values"]
        assert [int(v) for v in values] == gen_genocchi_table(20, 400)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int string digit limit"
    )
    def test_main_in_process_restores_the_callers_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(
                capsys, "genocchi", "--n-max", "400", "--a", "20", "--format", "json"
            )
            after = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0, err
        assert after == 640
        values = json.loads(out)["values"]
        assert values == [str(g) for g in gen_genocchi_table(20, 400)]
        assert max(map(len, values)) > 640


class TestRoundTrips:
    def test_csv_and_json_verify_encodings_parse_identically(self):
        reports = [
            run_grid(TheoremId.THEOREM2, (2, 10), (2, 4), mutate=(5, 4)),
            run_grid(TheoremId.THEOREM1, (1, 12), (2, 4)),
            run_grid(TheoremId.ODD_GENOCCHI, (2, 12), None),
        ]
        from_csv = canonical_reports_from_csv(render_reports_csv(reports))
        from_json = json.loads(render_reports_json(reports))
        assert from_csv == from_json

    def test_bernoulli_encodings_parse_identically(self, capsys, tmp_path):
        cache = str(tmp_path / "b.json")
        _, out_csv, _ = run_cli(capsys, "bernoulli", "--n-max", "20", "--cache-path", cache)
        _, out_json, _ = run_cli(
            capsys, "bernoulli", "--n-max", "20", "--format", "json", "--cache-path", cache,
        )
        rows = parse_csv(out_csv)[1:]
        via_csv = [(int(r[0]), int(r[1]), int(r[2])) for r in rows]
        payload = json.loads(out_json)
        via_json = [
            (i, int(v["num"]), int(v["den"])) for i, v in enumerate(payload["values"])
        ]
        assert via_csv == via_json

    def test_genocchi_encodings_parse_identically(self, capsys):
        _, out_csv, _ = run_cli(capsys, "genocchi", "--n-max", "10", "--a", "7")
        _, out_json, _ = run_cli(
            capsys, "genocchi", "--n-max", "10", "--a", "7", "--format", "json",
        )
        via_csv = [int(r[1]) for r in parse_csv(out_csv)[1:]]
        via_json = [int(v) for v in json.loads(out_json)["values"]]
        assert via_csv == via_json


def project_scripts(pyproject):
    """The ``[project.scripts]`` table of ``pyproject``, read without tomllib (3.10 lacks it)."""
    scripts, section = {}, None
    for line in pyproject.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, target = (part.strip() for part in line.split("=", 1))
            scripts[name] = target.strip("\"'")
    return scripts


class TestStartup:
    def test_single_process_runs_import_no_pool(self, tmp_path):
        probe = (
            "import sys; from genocchi.cli import main; "
            "code = main(sys.argv[1:]); "
            "print(code, 'concurrent.futures' in sys.modules, file=sys.stderr)"
        )
        for argv in (["genocchi", "--n-max", "5"],
                     ["verify", "all", "--n-max", "6", "--a-max", "3",
                      "--cache-path", str(tmp_path / "b.json")]):
            proc = run_python("-c", probe, *argv)
            assert proc.stderr.splitlines()[-1] == "0 False", (argv, proc.stderr)


class TestConsoleScript:
    def test_entry_point_runs(self):
        """The installed ``genocchi`` command is wired to the CLI, checked without PATH."""
        target = project_scripts(REPO_ROOT / "pyproject.toml").get("genocchi")
        assert target == "genocchi.cli:entry"
        module, attr = target.split(":")
        # Call the target the way the generated console script does.
        proc = run_python(
            "-c",
            f"import sys; sys.argv[0] = 'genocchi'; "
            f"from {module} import {attr}; sys.exit({attr}())",
            "--help",
        )
        assert proc.returncode == 0
        assert "verify" in proc.stdout

"""Cache round trips and corruption detection."""

import json
import sys

import pytest

from genocchi.cache import (
    CacheCorruptionError,
    CacheError,
    get_or_build,
    load_bernoulli_cache,
    save_bernoulli_cache,
)
from genocchi.special import bernoulli_table


def _tamper(path, mutate):
    raw = json.loads(path.read_text())
    mutate(raw)
    path.write_text(json.dumps(raw))


def _replace(i, pair):
    """A tamper that puts pair in place of entry i."""
    def mutate(raw):
        raw["entries"][i] = pair
    return mutate


class TestRoundTrip:
    def test_reproduces_exact_table(self, tmp_path):
        table = bernoulli_table(300)
        path = tmp_path / "b.json"
        save_bernoulli_cache(path, table)
        assert load_bernoulli_cache(path) == table

    def test_repeated_loads_return_the_same_table(self, tmp_path):
        # every load re-derives every entry, so each load checks the same way
        path = tmp_path / "b.json"
        table = bernoulli_table(60)
        save_bernoulli_cache(path, table)
        for _ in range(20):
            assert load_bernoulli_cache(path) == table

    def test_tiny_table(self, tmp_path):
        path = tmp_path / "b.json"
        table = bernoulli_table(0)
        save_bernoulli_cache(path, table)
        assert load_bernoulli_cache(path) == table

    def test_stale_temp_name_does_not_block_saving(self, tmp_path):
        path = tmp_path / "b.json"
        (tmp_path / "b.json.tmp").mkdir()
        save_bernoulli_cache(path, bernoulli_table(6))
        assert load_bernoulli_cache(path).max_index == 6
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.json", "b.json.tmp"]

    def test_failed_save_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "b.json"
        path.mkdir()  # a directory cannot be replaced by a file
        with pytest.raises(CacheError, match="b.json"):
            save_bernoulli_cache(path, bernoulli_table(6))
        assert [p.name for p in tmp_path.iterdir()] == ["b.json"]

    def test_file_is_plain_ascii_json(self, tmp_path):
        path = tmp_path / "b.json"
        save_bernoulli_cache(path, bernoulli_table(12))
        raw = json.loads(path.read_text(encoding="ascii"))
        assert sorted(raw) == ["entries", "format_version"]
        assert raw["format_version"] == 2
        assert len(raw["entries"]) == 13
        assert raw["entries"][12] == ["-691", "2730"]

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "b.json"
        save_bernoulli_cache(path, bernoulli_table(4))
        assert path.read_bytes() == (
            b'{"format_version": 2, "entries": '
            b'[["1", "1"], ["-1", "2"], ["1", "6"], ["0", "1"], ["-1", "30"]]}'
        )

    def test_indented_file_loads(self, tmp_path):
        # the loader compares parsed entries, so the whitespace between
        # tokens does not matter
        path = tmp_path / "b.json"
        table = bernoulli_table(20)
        save_bernoulli_cache(path, table)
        assert "\n" not in path.read_text()
        path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
        assert load_bernoulli_cache(path) == table

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int string digit limit"
    )
    def test_values_past_the_digit_limit_raise_cache_error(self, tmp_path):
        # B_598 has a 931-digit numerator: past the lowest limit, 640 digits
        table = bernoulli_table(599)
        path = tmp_path / "b.json"
        save_bernoulli_cache(path, table)  # written with the limit lifted
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(CacheError, match="set_int_max_str_digits") as exc:
                save_bernoulli_cache(tmp_path / "c.json", table)
            assert type(exc.value) is CacheError and "c.json" in str(exc.value)
            with pytest.raises(CacheError, match="set_int_max_str_digits") as exc:
                load_bernoulli_cache(path)
            assert type(exc.value) is CacheError and "b.json" in str(exc.value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert not (tmp_path / "c.json").exists()


class TestCorruption:
    @pytest.fixture
    def cache_path(self, tmp_path):
        path = tmp_path / "b.json"
        save_bernoulli_cache(path, bernoulli_table(40))
        return path

    def _expect_corruption(self, path, fragment=None):
        with pytest.raises(CacheCorruptionError) as info:
            load_bernoulli_cache(path)
        assert str(path) in str(info.value)
        # tmp_path holds the test's name, so match the message without it
        if fragment is not None:
            assert fragment in str(info.value).replace(str(path), "")

    def test_value_tamper_is_caught(self, cache_path):
        # every entry is compared with its re-derived value
        _tamper(cache_path, _replace(2, ["7", "6"]))
        self._expect_corruption(cache_path, "entry 2 fails re-derivation")

    def test_last_entry_sign_flip_fails_every_load(self, cache_path):
        def flip(raw):
            entry = raw["entries"][40]
            entry[0] = str(-int(entry[0]))

        _tamper(cache_path, flip)
        for _ in range(20):
            self._expect_corruption(cache_path, "entry 40 fails re-derivation")

    def test_anchor_tamper_is_caught(self, cache_path):
        _tamper(cache_path, _replace(1, ["1", "2"]))
        self._expect_corruption(cache_path, "entry 1 fails re-derivation")

    def test_zero_denominator(self, cache_path):
        _tamper(cache_path, _replace(4, ["-1", "0"]))
        self._expect_corruption(cache_path, "entry 4 fails re-derivation")

    def test_not_lowest_terms(self, cache_path):
        _tamper(cache_path, _replace(2, ["2", "12"]))
        self._expect_corruption(cache_path, "entry 2 fails re-derivation")

    def test_wrong_format_version(self, cache_path):
        _tamper(cache_path, lambda raw: raw.update(format_version=1))
        self._expect_corruption(cache_path, "format_version 1 is not 2")

    def test_format_1_file_raises(self, tmp_path):
        # the format written before pairs: an index per entry and a max_index
        path = tmp_path / "b.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "max_index": 2,
            "entries": [
                {"index": 0, "num": "1", "den": "1"},
                {"index": 1, "num": "-1", "den": "2"},
                {"index": 2, "num": "1", "den": "6"},
            ],
        }))
        self._expect_corruption(path, "format_version 1 is not 2")

    def test_entry_count_mismatch(self, cache_path):
        # a dropped entry shifts the rest onto the wrong indices; a dropped
        # last entry leaves the valid cache of a shorter table
        _tamper(cache_path, lambda raw: raw["entries"].pop(3))
        self._expect_corruption(cache_path, "entry 3 fails re-derivation")
        save_bernoulli_cache(cache_path, bernoulli_table(40))
        _tamper(cache_path, lambda raw: raw["entries"].pop())
        assert load_bernoulli_cache(cache_path) == bernoulli_table(39)

    def test_empty_entries(self, cache_path):
        # caught before BernoulliTable, which raises ValueError on no values
        for entries in ([], None, {}, "1"):
            _tamper(cache_path, lambda raw: raw.update(entries=entries))
            self._expect_corruption(cache_path, "no entries")
        _tamper(cache_path, lambda raw: raw.pop("entries"))
        self._expect_corruption(cache_path, "no entries")

    def test_malformed_pair(self, tmp_path):
        cases = [
            (3, ["0", "1", "1"]),  # a third string
            (0, ["1"]),  # a lone string
            (6, {"num": "1", "den": "42"}),  # a format-1 entry without its index
            (2, [1, "6"]),  # a JSON number for a string
            (2, ["1", 6]),
        ]
        path = tmp_path / "b.json"
        for i, pair in cases:
            save_bernoulli_cache(path, bernoulli_table(40))
            _tamper(path, _replace(i, pair))
            self._expect_corruption(path, f"entry {i} fails re-derivation")

    def test_non_numeric_entry(self, tmp_path):
        # num and den are canonical decimal strings and format_version a plain
        # int: int() would take every value here but "x", and B_0 = 1 and
        # B_1 = -1/2 would still read right
        def entry(i, pair):
            return 40, _replace(i, pair), f"entry {i} fails re-derivation"

        cases = [
            entry(5, ["x", "1"]),
            entry(1, ["-1", 2.7]),
            entry(0, [1.0, "1"]),
            entry(0, [True, "1"]),
            entry(1, [-1, "2"]),
            entry(1, [" -1\n", "2"]),
            entry(1, ["-1", "0_2"]),
            entry(0, ["\u0661", "1"]),  # Arabic-Indic digit one
            entry(1, ["-01", "2"]),
            (40, lambda raw: raw.update(format_version=True), "format_version"),
            (40, lambda raw: raw.update(format_version=2.0), "format_version"),
        ]
        for max_index, mutate, fragment in cases:
            path = tmp_path / "b.json"
            save_bernoulli_cache(path, bernoulli_table(max_index))
            _tamper(path, mutate)
            self._expect_corruption(path, fragment)

    def test_unparseable_file(self, cache_path):
        # json.loads recurses once per bracket: deep nesting is RecursionError
        for text in ("{ not json", "[" * 200_000):
            cache_path.write_text(text)
            self._expect_corruption(cache_path, "unreadable")

    def test_missing_file(self, tmp_path):
        with pytest.raises(CacheCorruptionError):
            load_bernoulli_cache(tmp_path / "absent.json")


class TestGetOrBuild:
    def test_builds_and_persists(self, tmp_path):
        path = tmp_path / "nested" / "b.json"
        table = get_or_build(path, 20)
        assert path.exists()
        assert table.max_index == 20

    def test_reuses_covering_cache(self, tmp_path):
        path = tmp_path / "b.json"
        get_or_build(path, 30)
        before = path.read_text()
        table = get_or_build(path, 10)
        assert table.max_index == 30  # wider cache served as-is
        assert path.read_text() == before

    def test_rebuilds_when_asked_for_more(self, tmp_path):
        path = tmp_path / "b.json"
        get_or_build(path, 10)
        table = get_or_build(path, 25)
        assert table.max_index == 25
        assert load_bernoulli_cache(path).max_index == 25

    def test_corrupt_cache_raises_instead_of_rebuilding(self, tmp_path):
        path = tmp_path / "b.json"
        save_bernoulli_cache(path, bernoulli_table(15))
        _tamper(path, _replace(2, ["7", "6"]))
        before = path.read_text()
        with pytest.raises(CacheCorruptionError):
            get_or_build(path, 10)
        assert path.read_text() == before

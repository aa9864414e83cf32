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


class TestRoundTrip:
    def test_reproduces_exact_table(self, tmp_path):
        table = bernoulli_table(300)
        path = tmp_path / "b.json"
        save_bernoulli_cache(path, table)
        assert load_bernoulli_cache(path) == table

    def test_repeated_loads_pass_spot_checks(self, tmp_path):
        # every load re-derives every entry, so each load checks the same way
        path = tmp_path / "b.json"
        save_bernoulli_cache(path, bernoulli_table(60))
        for _ in range(20):
            assert load_bernoulli_cache(path).max_index == 60

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
        assert raw["format_version"] == 1
        assert raw["max_index"] == 12
        assert raw["entries"][12] == {"index": 12, "num": "-691", "den": "2730"}

    def test_indented_file_loads(self, tmp_path):
        # earlier writers indented the file; the loader compares parsed
        # entries, so the whitespace between tokens does not matter
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
        _tamper(cache_path, lambda raw: raw["entries"][2].update(num="7"))
        self._expect_corruption(cache_path)

    def test_last_entry_sign_flip_fails_every_load(self, cache_path):
        def flip(raw):
            entry = raw["entries"][40]
            entry["num"] = str(-int(entry["num"]))

        _tamper(cache_path, flip)
        for _ in range(20):
            self._expect_corruption(cache_path, "entry 40 fails re-derivation")

    def test_anchor_tamper_is_caught(self, cache_path):
        _tamper(cache_path, lambda raw: raw["entries"][1].update(num="1"))
        self._expect_corruption(cache_path)

    def test_zero_denominator(self, cache_path):
        _tamper(cache_path, lambda raw: raw["entries"][4].update(den="0"))
        self._expect_corruption(cache_path, "entry 4 fails re-derivation")

    def test_not_lowest_terms(self, cache_path):
        _tamper(cache_path, lambda raw: raw["entries"][2].update(num="2", den="12"))
        self._expect_corruption(cache_path, "entry 2 fails re-derivation")

    def test_wrong_format_version(self, cache_path):
        _tamper(cache_path, lambda raw: raw.update(format_version=2))
        self._expect_corruption(cache_path, "format_version")

    def test_entry_count_mismatch(self, cache_path):
        _tamper(cache_path, lambda raw: raw["entries"].pop())
        self._expect_corruption(cache_path, "entries")

    def test_index_mismatch(self, cache_path):
        _tamper(cache_path, lambda raw: raw["entries"][3].update(index=30))
        self._expect_corruption(cache_path, "entry 3 fails re-derivation")

    def test_non_numeric_entry(self, tmp_path):
        # num and den are canonical decimal strings and index, max_index and
        # format_version plain ints: int() would take every value here but
        # "x", and B_0 = 1 and B_1 = -1/2 would still read right
        def entry(i, **fields):
            mutate = lambda raw: raw["entries"][i].update(fields)
            return 40, mutate, f"entry {i} fails re-derivation"

        cases = [
            entry(5, num="x"),
            entry(1, den=2.7),
            entry(0, num=1.0),
            entry(0, num=True),
            entry(1, num=-1),
            entry(1, index=True),
            entry(1, index=1.0),
            entry(1, num=" -1\n"),
            entry(1, den="0_2"),
            entry(0, num="\u0661"),  # Arabic-Indic digit one
            entry(1, num="-01"),
            (40, lambda raw: raw.update(format_version=True), "format_version"),
            (40, lambda raw: raw.update(format_version=1.0), "format_version"),
            (1, lambda raw: raw.update(max_index=True), "missing max_index"),
            (1, lambda raw: raw.update(max_index=-1, entries=[]), "0 entries for max_index -1"),
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
        _tamper(path, lambda raw: raw["entries"][2].update(num="7"))
        before = path.read_text()
        with pytest.raises(CacheCorruptionError):
            get_or_build(path, 10)
        assert path.read_text() == before

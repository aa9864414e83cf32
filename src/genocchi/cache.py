"""Disk cache for Bernoulli tables.

The format is one JSON object on one line, from json's C encoder:
format_version (currently 2) and entries, where entry i is the pair
[numerator, denominator] of B_i as decimal strings, so arbitrarily large
values survive any JSON parser. There is no index field and no max_index:
the last entry's position is the table's max_index. A file is valid,
indented or not, exactly when its entries equal the ones
save_bernoulli_cache writes for the table of the Bernoulli kernel,
Seidel's triangle: canonical decimal strings (no whitespace, underscores,
leading zeros or non-ASCII digits) and nothing else in a pair. A loaded
table is the kernel's own. A bad file, a format-1 file included, raises
CacheCorruptionError naming the file (a bad entry i as "entry i fails
re-derivation"); deleting it lets the next run rebuild it. An unwritable
file, or values past the int string digit limit (B_2064 on, by default)
before sys.set_int_max_str_digits(0), raise CacheError.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .special import BernoulliTable, _seidel_bernoulli, bernoulli_table

CACHE_FORMAT_VERSION = 2


class CacheError(Exception):
    """A cache file could not be used; the message names the file."""


class CacheCorruptionError(CacheError):
    """A cache file failed validation; the message names the file and, where
    it applies, the entry index."""


def _entries(values, p: Path) -> list[list[str]]:
    try:  # str() raises ValueError past the interpreter's int string digit limit
        return [[str(v.numerator), str(v.denominator)] for v in values]
    except ValueError as exc:
        raise CacheError(f"cache file {p}: values need sys.set_int_max_str_digits(0)") from exc


def save_bernoulli_cache(path, table: BernoulliTable) -> None:
    """Write the table to path atomically: a temp file of its own in the same
    directory, then replace, so concurrent writers never share a temp file."""
    p = Path(path)
    payload = {"format_version": CACHE_FORMAT_VERSION, "entries": _entries(table.values, p)}
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=p.parent, prefix=p.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(json.dumps(payload))
            os.replace(tmp, p)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CacheError(f"cache file {p}: cannot write: {exc}") from exc


def load_bernoulli_cache(path) -> BernoulliTable:
    """The table from Seidel's triangle to the file's last entry, once every
    entry equals the one save_bernoulli_cache writes for it. The kernel runs
    only as far as the entries the file holds, and alone suffices: the table
    it checks was cross-checked against the Genocchi column when it was
    built. B_0, B_1 and the zero odd B_n are compared first, so a file wrong
    there pays the kernel only for the entries before the first wrong one."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="ascii"))
    # json.loads raises RecursionError on deeply nested brackets
    except (OSError, ValueError, RecursionError) as exc:
        raise CacheCorruptionError(f"cache file {p}: unreadable: {exc}") from exc
    if not isinstance(raw, dict):
        raise CacheCorruptionError(f"cache file {p}: top level is not a JSON object")
    version = raw.get("format_version")
    if type(version) is not int or version != CACHE_FORMAT_VERSION:  # JSON true == 1
        raise CacheCorruptionError(
            f"cache file {p}: format_version {version!r} "
            f"is not {CACHE_FORMAT_VERSION}"
        )
    entries = raw.get("entries")
    if type(entries) is not list or not entries:
        raise CacheCorruptionError(f"cache file {p}: no entries")
    # B_0, B_1 and every odd B_n from B_3 on are fixed pairs, compared
    # first: the kernel runs only to the entry before the first wrong one,
    # and only its even entries are left to compare
    fixed = entries[:2] + entries[3::2]
    want = [["1", "1"], ["-1", "2"], *[["0", "1"]] * (len(fixed) - 2)][: len(fixed)]
    stop = len(entries)
    if fixed != want:
        j = next(j for j, (got, w) in enumerate(zip(fixed, want)) if got != w)
        stop = j if j < 2 else 2 * j - 1
    values = _seidel_bernoulli(stop - 1) if stop else []
    evens, expected = entries[:stop:2], _entries(values[::2], p)
    # a string equals only the same string, so this one comparison is exact
    if stop < len(entries) or evens != expected:
        i = next((2 * j for j, (got, w) in enumerate(zip(evens, expected)) if got != w), stop)
        raise CacheCorruptionError(f"cache file {p}: entry {i} fails re-derivation")
    return BernoulliTable(tuple(values))


def get_or_build(path, max_index: int) -> BernoulliTable:
    """Table from cache when it already covers max_index; otherwise build at
    max_index and persist. A corrupt file raises rather than being rebuilt
    silently."""
    p = Path(path)
    if p.exists():
        table = load_bernoulli_cache(p)
        if table.max_index >= max_index:
            return table
    table = bernoulli_table(max_index)
    save_bernoulli_cache(p, table)
    return table

"""Disk cache for Bernoulli tables.

The format is a single JSON object: format_version (currently 1),
max_index, and one entry per index with numerator and denominator as
decimal strings, so arbitrarily large values survive any JSON parser.
Loading validates the shape and compares every entry with the
tangent-number kernel's value; a file that fails any of this raises
CacheCorruptionError naming the file and the first offending entry
instead of returning bad numbers. A file that cannot be written raises
CacheError naming the file.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from math import gcd
from pathlib import Path

from .special import BernoulliTable, _tangent_bernoulli, bernoulli_table

CACHE_FORMAT_VERSION = 1


class CacheError(Exception):
    """A cache file could not be used; the message names the file."""


class CacheCorruptionError(CacheError):
    """A cache file failed validation; the message names the file and, where
    it applies, the entry index."""


def save_bernoulli_cache(path, table: BernoulliTable) -> None:
    """Write the table to path atomically: a temp file of its own in the same
    directory, then replace, so concurrent writers never share a temp file."""
    p = Path(path)
    payload = {
        "format_version": CACHE_FORMAT_VERSION,
        "max_index": table.max_index,
        "entries": [
            {"index": i, "num": str(v.numerator), "den": str(v.denominator)}
            for i, v in enumerate(table.values)
        ],
    }
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=p.parent, prefix=p.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(json.dumps(payload, indent=1))
            os.replace(tmp, p)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CacheError(f"cache file {p}: cannot write: {exc}") from exc


def _entry_value(path: Path, entry, expect_index: int) -> Fraction:
    try:
        index, num, den = entry["index"], entry["num"], entry["den"]
        # int() would also take a JSON number or boolean: 2.7 as den reads 2
        if type(index) is not int or type(num) is not str or type(den) is not str:
            raise TypeError("index must be an int, num and den decimal strings")
        numerator = int(num)
        denominator = int(den)
    except (TypeError, KeyError, ValueError) as exc:
        raise CacheCorruptionError(
            f"cache file {path}: malformed entry {expect_index}: {exc}"
        ) from exc
    if index != expect_index:
        raise CacheCorruptionError(
            f"cache file {path}: entry {expect_index} carries index {index}"
        )
    if denominator <= 0:
        raise CacheCorruptionError(
            f"cache file {path}: entry {expect_index} has denominator {denominator}"
        )
    if gcd(numerator, denominator) != 1:
        raise CacheCorruptionError(
            f"cache file {path}: entry {expect_index} is not in lowest terms"
        )
    return Fraction(numerator, denominator)


def load_bernoulli_cache(path) -> BernoulliTable:
    """Read and validate a cache file, re-deriving every entry with the
    tangent-number kernel. The kernel alone suffices here: the table it
    checks was cross-checked against the Genocchi column when it was built."""
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
    max_index = raw.get("max_index")
    entries = raw.get("entries")
    if type(max_index) is not int or not isinstance(entries, list):
        raise CacheCorruptionError(f"cache file {p}: missing max_index or entries")
    if len(entries) != max_index + 1:
        raise CacheCorruptionError(
            f"cache file {p}: {len(entries)} entries for max_index {max_index}"
        )
    values = [_entry_value(p, entry, i) for i, entry in enumerate(entries)]
    try:
        table = BernoulliTable(tuple(values))
    except ValueError as exc:
        raise CacheCorruptionError(f"cache file {p}: {exc}") from exc
    for i, (value, derived) in enumerate(zip(values, _tangent_bernoulli(max_index))):
        if value != derived:
            raise CacheCorruptionError(
                f"cache file {p}: entry {i} fails re-derivation"
            )
    return table


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

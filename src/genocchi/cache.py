"""Disk cache for Bernoulli tables.

The format is one JSON object on one line, from json's C encoder:
format_version (currently 1), max_index, and one entry per index with
numerator and denominator as decimal strings, so arbitrarily large values
survive any JSON parser. A file is valid, indented or not, exactly when
each entry equals the one save_bernoulli_cache writes for the table of
the Bernoulli kernel, Seidel's triangle: canonical decimal strings (no
whitespace, underscores, leading zeros or non-ASCII digits) and no other
keys. A loaded table is the kernel's own. A bad file raises
CacheCorruptionError naming the file (a bad entry i as "entry i fails
re-derivation"); an unwritable one, or values past the int string digit
limit (B_2064 on, by default) before sys.set_int_max_str_digits(0), raise
CacheError.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .special import BernoulliTable, _seidel_bernoulli, bernoulli_table

CACHE_FORMAT_VERSION = 1


class CacheError(Exception):
    """A cache file could not be used; the message names the file."""


class CacheCorruptionError(CacheError):
    """A cache file failed validation; the message names the file and, where
    it applies, the entry index."""


def _entries(table: BernoulliTable, p: Path) -> list[dict]:
    try:  # str() raises ValueError past the interpreter's int string digit limit
        return [
            {"index": i, "num": str(v.numerator), "den": str(v.denominator)}
            for i, v in enumerate(table.values)
        ]
    except ValueError as exc:
        raise CacheError(f"cache file {p}: values need sys.set_int_max_str_digits(0)") from exc


def save_bernoulli_cache(path, table: BernoulliTable) -> None:
    """Write the table to path atomically: a temp file of its own in the same
    directory, then replace, so concurrent writers never share a temp file."""
    p = Path(path)
    payload = {
        "format_version": CACHE_FORMAT_VERSION,
        "max_index": table.max_index,
        "entries": _entries(table, p),
    }
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
    """The table from Seidel's triangle to the file's max_index, once every
    entry equals the one save_bernoulli_cache writes for it. The shape is
    checked first, so the kernel never runs past the entries the file holds.
    The kernel alone suffices: the table it checks was cross-checked against
    the Genocchi column when it was built."""
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
    if max_index < 0 or len(entries) != max_index + 1:
        raise CacheCorruptionError(
            f"cache file {p}: {len(entries)} entries for max_index {max_index}"
        )
    table = BernoulliTable(tuple(_seidel_bernoulli(max_index)))
    for i, (entry, expected) in enumerate(zip(entries, _entries(table, p))):
        # a float or boolean index compares equal to its int: JSON true == 1
        if entry != expected or type(entry["index"]) is not int:
            raise CacheCorruptionError(f"cache file {p}: entry {i} fails re-derivation")
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

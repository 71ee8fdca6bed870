"""Whole-or-absent file writes for run artifacts, and the JSONL codec with
the one reader of the id-keyed corpus and prediction files."""
from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from .errors import SchemaError


@contextmanager
def atomic_file(path: str):
    """Binary file handle on ``<path>.<pid>.tmp`` beside path, renamed over
    path when the block completes; if the block or the rename fails, the
    temp file is removed and path keeps its previous content (or stays
    absent). There is no fsync: this guards against failures of the
    program, not of the machine."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_atomic(path: str, data: str | bytes) -> None:
    """Write a fully serialised payload through ``atomic_file``; text is
    written as UTF-8. Serialising before the call means a value that cannot
    be serialised fails before anything touches the disk."""
    with atomic_file(path) as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)


def write_jsonl(path: str, records) -> None:
    """One JSON object per line, written through ``write_atomic``."""
    write_atomic(path, "".join(json.dumps(rec, ensure_ascii=False) + "\n"
                               for rec in records))


def read_jsonl(path: str) -> Iterator[tuple[int, object]]:
    """Yields (line number, value) for each non-blank line; a line that is
    not JSON raises SchemaError naming ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                yield ln, json.loads(line)
            except json.JSONDecodeError as e:
                raise SchemaError(f"{path}:{ln}: not valid JSON ({e})") from e


def read_keyed_jsonl(path: str, parse: Callable[[object], tuple[str, object]]) -> dict:
    """{id: value} in file order, where parse turns each record into (id, value).
    parse's ValueError, or a repeated id, becomes a SchemaError naming path:line."""
    values, first_line = {}, {}
    for ln, rec in read_jsonl(path):
        try:
            key, value = parse(rec)
        except ValueError as e:
            raise SchemaError(f"{path}:{ln}: {e}") from e
        if key in first_line:
            raise SchemaError(f"{path}:{ln}: repeats id {key!r} of line {first_line[key]}")
        first_line[key] = ln
        values[key] = value
    return values

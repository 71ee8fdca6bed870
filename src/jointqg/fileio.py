"""Whole-or-absent file writes for run artifacts, and the JSONL codec with
the one reader of the id-keyed corpus and prediction files."""
from __future__ import annotations

import json
import os
import stat
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from .errors import SchemaError


# Closes of replaced files still pending on a background thread; bounded so
# a burst of overwrites cannot pile up open descriptors: past the bound a
# writer waits for one of them to finish.
_pending_closes = threading.BoundedSemaphore(8)


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
        _replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _replace(tmp: str, path: str) -> None:
    """``os.replace(tmp, path)`` that frees the replaced file off the
    writer's thread: a descriptor on a regular file at path is held across
    the rename and closed on a background thread. The rename is still onto
    the existing file, so ext4 allocates the new file's blocks before the
    rename commits (``auto_da_alloc``), as with a plain ``os.replace``.
    Freeing the replaced file's blocks, done at its last close, took
    33-84 ms on an ext4 virtio disk mounted with ``discard`` when that
    300-byte file had itself replaced an older one, whether it was 0.1 s or
    40 s old."""
    try:
        old = os.open(path, os.O_RDONLY) if stat.S_ISREG(os.lstat(path).st_mode) else None
    except OSError:  # absent, unreadable or removed after the lstat
        old = None
    try:
        os.replace(tmp, path)
    except BaseException:
        if old is not None:
            os.close(old)
        raise
    if old is not None:
        _pending_closes.acquire()
        try:
            threading.Thread(target=_close, args=(old,), name="fileio-close").start()
        except RuntimeError:  # no thread to spare: the write still succeeded
            _close(old)


def _close(fd: int) -> None:
    try:
        os.close(fd)
    finally:
        _pending_closes.release()


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

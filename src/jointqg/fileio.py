"""Whole-or-absent file writes for run artifacts."""
from __future__ import annotations

import os
from contextlib import contextmanager


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

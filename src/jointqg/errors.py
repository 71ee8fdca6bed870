"""Exception types shared across the package.

Input validation raises ValueError directly; these classes cover failures
that callers may want to catch selectively (bad files, unalignable spans,
numeric blowups, harness stage aborts).
"""
from __future__ import annotations


class SchemaError(ValueError):
    """A file parsed, but its structure does not match the expected schema."""


class AlignmentError(ValueError):
    """An answer span cannot be located inside its context."""


class EmptyDatasetError(ValueError):
    """A dataset file yielded zero usable examples."""


class InputTooLongError(ValueError):
    """An assembled model input cannot fit max_len even after truncation."""


class NumericError(ArithmeticError):
    """A non-finite value appeared during a forward or training step."""

    def __init__(self, message: str, where: str):
        super().__init__(f"{message} (at {where})")
        self.where = where


class VocabMismatchError(ValueError):
    """A checkpoint was produced with a different vocabulary."""


class StageError(RuntimeError):
    """A pipeline stage failed; the stage name is preserved."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"pipeline stage '{stage}' failed: {cause}")
        self.stage = stage

"""Sentence/answer embedding backends used for weak relevance supervision.

Two interchangeable backends produce a fixed-size vector for a token
list:

* ``bag_mean``          hash-seeded Gaussian token vectors, mean pooled; a
                        dependency-free lexical-overlap proxy.
* ``precomputed_file``  token vectors loaded from a TSV dump, mean pooled;
                        the drop-in point for real embedding-model output.

Neither reads model parameters, so the label stage draws none. Both are
read-only after construction apart from internal caching.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError

BACKEND_KINDS = ("bag_mean", "precomputed_file")


@dataclass(frozen=True)
class BackendSpec:
    """Declarative backend choice, as it appears in experiment configs."""

    kind: str = "bag_mean"
    dim: int = 256
    source: str | None = None  # path for precomputed_file

    def validate(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown embedding backend '{self.kind}'")
        if self.kind == "bag_mean" and self.dim < 1:
            raise ValueError("dim must be positive")
        if self.kind == "precomputed_file" and not self.source:
            raise ValueError("precomputed_file backend needs a source path")


class _MeanPooled:
    """Shared embed_tokens: the mean of the subclass's token_vector."""

    def embed_tokens(self, tokens: list[str]) -> np.ndarray:
        if not tokens:
            raise ValueError("cannot embed an empty token list")
        acc = np.zeros(self.dim)
        for t in tokens:
            acc += self.token_vector(t)
        return acc / len(tokens)


class BagMeanBackend(_MeanPooled):
    """Mean of per-token pseudo-random unit-Gaussian vectors.

    Each distinct token string maps to a fixed vector derived from
    blake2s(seed:token), so scores reflect token overlap between texts:
    shared tokens contribute identical vectors, disjoint tokens are nearly
    orthogonal in expectation.
    """

    def __init__(self, dim: int = 256, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.seed = seed
        self._cache: dict[str, np.ndarray] = {}

    def token_vector(self, token: str) -> np.ndarray:
        vec = self._cache.get(token)
        if vec is None:
            digest = hashlib.blake2s(f"{self.seed}:{token}".encode("utf-8")).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
            vec = rng.standard_normal(self.dim)
            self._cache[token] = vec
        return vec


class PrecomputedBackend(_MeanPooled):
    """Token vectors read from a TSV file, mean pooled.

    File format: first line ``dim <d>``, then one ``token<TAB>v_1 ... v_d``
    line per token (values separated by whitespace); a repeated token is
    refused. A ``<unk>`` row, when present, covers out-of-table tokens;
    otherwise they contribute zero vectors.
    """

    def __init__(self, path: str):
        self.path = path
        table: dict[str, np.ndarray] = {}
        first_line: dict[str, int] = {}
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 2 or header[0] != "dim":
                raise SchemaError(f"{path}: first line must be 'dim <d>'")
            try:
                dim = int(header[1])
            except ValueError as e:
                raise SchemaError(f"{path}: bad dimension '{header[1]}'") from e
            if dim < 1:
                raise SchemaError(f"{path}: dimension must be positive")
            for ln, line in enumerate(fh, 2):
                line = line.rstrip("\n")
                if not line:
                    continue
                token, tab, rest = line.partition("\t")
                values = rest.split()
                if not tab or len(values) != dim:
                    raise SchemaError(
                        f"{path}:{ln}: expected token plus {dim} values, got {len(values)}")
                if token in first_line:
                    raise SchemaError(
                        f"{path}:{ln}: repeats token {token!r} of line {first_line[token]}")
                first_line[token] = ln
                try:
                    vec = np.asarray([float(x) for x in values])
                except ValueError as e:
                    raise SchemaError(f"{path}:{ln}: non-numeric vector value") from e
                if not np.isfinite(vec).all():
                    raise SchemaError(f"{path}:{ln}: non-finite vector value")
                table[token] = vec
        if not table:
            raise SchemaError(f"{path}: no vectors")
        self.dim = dim
        self._table = table
        self._unk = table.get("<unk>", np.zeros(dim))

    def token_vector(self, token: str) -> np.ndarray:
        return self._table.get(token, self._unk)


def create_backend(spec: BackendSpec):
    """Instantiate the backend named by spec."""
    spec.validate()
    if spec.kind == "bag_mean":
        return BagMeanBackend(spec.dim)
    return PrecomputedBackend(spec.source)


def cosine_similarity(u: np.ndarray, v: np.ndarray,
                      return_flag: bool = False):
    """Cosine of the angle between two vectors.

    Degenerate inputs (either norm below 1e-12) score 0.0; pass
    return_flag=True to also receive that degeneracy bit.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"vector shapes differ: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu < 1e-12 or nv < 1e-12:
        return (0.0, True) if return_flag else 0.0
    sim = float(np.dot(u, v) / (nu * nv))
    return (sim, False) if return_flag else sim


def embed_tokens(tokens: list[str], backend) -> np.ndarray:
    """Uniform entry point over any backend instance."""
    return backend.embed_tokens(tokens)

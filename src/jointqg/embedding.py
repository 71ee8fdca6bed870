"""Sentence/answer embedding backends used for weak relevance supervision.

Three interchangeable backends produce a fixed-size vector for a token
list:

* ``bag_mean``          hash-seeded Gaussian token vectors, mean pooled; a
                        dependency-free lexical-overlap proxy.
* ``precomputed_file``  token vectors loaded from a TSV dump, mean pooled;
                        the drop-in point for real embedding-model output.
* ``model_encoder``     mean of the token states of a model's encoder; the
                        label stage gives it a freshly initialised one.

All backends are read-only after construction apart from internal caching.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError

BACKEND_KINDS = ("bag_mean", "precomputed_file", "model_encoder")


@dataclass(frozen=True)
class BackendSpec:
    """Declarative backend choice, as it appears in experiment configs."""

    kind: str = "bag_mean"
    dim: int = 256
    seed: int = 0
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
    line per token (values separated by whitespace). A ``<unk>`` row, when
    present, covers out-of-table tokens; otherwise they contribute zero
    vectors.
    """

    def __init__(self, path: str):
        self.path = path
        table: dict[str, np.ndarray] = {}
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


class ModelEncoderBackend:
    """Mean of encoder token states for the given token list.

    Tokens are encoded with the model vocabulary and wrapped as
    [CLS] tokens [SEP]; the mean excludes those wrapper positions. The
    encoder is whatever `params` hold; the label stage passes a fresh
    initialisation of a selector's tensors, so labels never depend on
    training.
    """

    def __init__(self, params, config, vocab):
        self.params = params
        self.config = config
        self.vocab = vocab
        self.dim = config.d_model

    def embed_tokens(self, tokens: list[str]) -> np.ndarray:
        from . import model  # local import keeps light backends import-free
        from .tokenizer import CLS_ID, SEP_ID

        if not tokens:
            raise ValueError("cannot embed an empty token list")
        ids = self.vocab.encode_tokens(tokens)
        wrapped = np.asarray([CLS_ID] + ids + [SEP_ID], dtype=np.int64)
        states = model.encode_token_ids(wrapped, self.params, self.config)
        return states[1:-1].mean(axis=0)


def create_backend(spec: BackendSpec, *, params=None, config=None, vocab=None):
    """Instantiate the backend named by spec; model pieces are only needed
    for kind model_encoder."""
    spec.validate()
    if spec.kind == "bag_mean":
        return BagMeanBackend(spec.dim, spec.seed)
    if spec.kind == "precomputed_file":
        return PrecomputedBackend(spec.source)
    if params is None or config is None or vocab is None:
        raise ValueError("model_encoder backend needs params, config and vocab")
    return ModelEncoderBackend(params, config, vocab)


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

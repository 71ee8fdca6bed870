"""Word tokenization, vocabulary, and model-input assembly.

The model consumes one flat id sequence per example:

    [CLS] s_0 tokens ... s_{n-1} tokens [SEP] answer tokens [SEP]

plus a per-position sentence ordinal (-1 off context tokens). When the
sequence exceeds max_len, whole sentences are dropped farthest-first from
the answer sentence; the answer segment is never cut.
"""
from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import QAExample, normalize_text
from .errors import InputTooLongError, SchemaError
from .fileio import write_atomic

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

PAD_ID, UNK_ID, BOS_ID, EOS_ID, SEP_ID, CLS_ID = 0, 1, 2, 3, 4, 5
SPECIAL_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>", "<sep>", "<cls>")
N_SPECIALS = len(SPECIAL_TOKENS)
_VOCAB_HEADER = "# jointqg-vocab v1 specials=" + ",".join(
    f"{t}:{i}" for i, t in enumerate(SPECIAL_TOKENS))


def tokenize(text: str) -> list[str]:
    """Lowercased word/punctuation tokens; NFC applied first."""
    return _TOKEN_RE.findall(normalize_text(text).lower())


def check_vocab_settings(max_size: int) -> None:
    """Refuse a vocabulary size below 1."""
    if max_size < 1:
        raise ValueError("max_size must be positive")


@dataclass
class Vocabulary:
    """Token/id mapping with fixed special ids 0..5."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        if tuple(self.id_to_token[:N_SPECIALS]) != SPECIAL_TOKENS:
            raise ValueError("vocabulary must start with the special tokens")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    @classmethod
    def build(cls, examples: list[QAExample], max_size: int = 30000) -> "Vocabulary":
        """Count tokens over contexts, questions and answers; keep the
        max_size most frequent as non-special entries (ties by token)."""
        if not examples:
            raise ValueError("cannot build a vocabulary from zero examples")
        check_vocab_settings(max_size)
        counts: Counter[str] = Counter()
        for ex in examples:
            counts.update(tokenize(ex.document.context))
            counts.update(tokenize(ex.document.question))
            counts.update(tokenize(ex.document.answer_text))
        # sort by token, then stably by count: ties keep token order, and
        # both sorts compare plain strs and ints, no per-type key tuple
        kept = sorted(sorted(counts), key=counts.__getitem__, reverse=True)[:max_size]
        return cls(list(SPECIAL_TOKENS) + kept)

    def encode_tokens(self, tokens: list[str]) -> list[int]:
        get = self.token_to_id.get
        return [get(t, UNK_ID) for t in tokens]

    def encode(self, text: str) -> list[int]:
        return self.encode_tokens(tokenize(text))

    def decode(self, ids) -> str:
        """Space-joined tokens; PAD/BOS skipped, stops at the first EOS."""
        out = []
        for i in ids:
            i = int(i)
            if not 0 <= i < len(self.id_to_token):
                raise ValueError(f"token id {i} out of range")
            if i == EOS_ID:
                break
            if i in (PAD_ID, BOS_ID):
                continue
            out.append(self.id_to_token[i])
        return " ".join(out)

    def save(self, path: str) -> None:
        write_atomic(path, self.serialize())

    def serialize(self) -> str:
        lines = [_VOCAB_HEADER] + self.id_to_token[N_SPECIALS:]
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != _VOCAB_HEADER:
            raise SchemaError(f"{path}: missing or unknown vocab header")
        try:
            return cls(list(SPECIAL_TOKENS) + [ln for ln in lines[1:] if ln])
        except ValueError as e:
            raise SchemaError(f"{path}: {e}") from e


@dataclass
class ModelInput:
    """Flat encoder input for one example.

    sentence_index holds the kept-sentence ordinal of each context token and
    -1 elsewhere; kept_sentences maps ordinals back to original sentence
    indices.
    """

    token_ids: np.ndarray
    sentence_index: np.ndarray
    kept_sentences: list[int]

    @property
    def length(self) -> int:
        return int(self.token_ids.shape[0])

    @property
    def n_sentences(self) -> int:
        return len(self.kept_sentences)

    def restrict(self, keep: list[int]) -> "ModelInput":
        """This input over the kept sentences whose original indices are in
        keep, plus the [CLS], [SEP] and answer rows; ordinals are renumbered.
        A sentence it does not hold raises ValueError."""
        kept = sorted(set(keep))
        if not set(kept) <= set(self.kept_sentences):
            raise ValueError("keep names a sentence this input does not hold")
        # new ordinal per old one; the extra last slot maps -1 to -1
        renumber = np.full(self.n_sentences + 1, -1, dtype=np.int64)
        renumber[[self.kept_sentences.index(i) for i in kept]] = np.arange(len(kept))
        ordinals = renumber[self.sentence_index]
        rows = (self.sentence_index < 0) | (ordinals >= 0)
        return ModelInput(self.token_ids[rows], ordinals[rows], kept)


def assemble_model_input(example: QAExample, vocab: Vocabulary,
                         max_len: int = 256) -> ModelInput:
    """Lay out one example as [CLS] context [SEP] answer [SEP].

    Raises InputTooLongError when even the answer segment cannot fit.
    """
    if max_len < 8:
        raise ValueError("max_len must be at least 8")
    sent_ids = [vocab.encode(text) for text in example.sentence_texts()]
    answer_ids = vocab.encode(example.document.answer_text)
    if not answer_ids:
        raise ValueError(f"{example.document.id}: answer has no tokens")

    kept = [i for i, ids in enumerate(sent_ids) if ids]

    overhead = 3 + len(answer_ids)  # CLS + SEP + answer + SEP
    if overhead > max_len:
        raise InputTooLongError(
            f"{example.document.id}: answer segment alone needs {overhead} > max_len={max_len}")

    ans = example.answer_sentence

    def total(indices: list[int]) -> int:
        return overhead + sum(len(sent_ids[i]) for i in indices)

    while kept and total(kept) > max_len:
        # drop the sentence farthest from the answer sentence; on distance
        # ties the larger index goes first
        victim = max(kept, key=lambda i: (abs(i - ans), i))
        kept.remove(victim)

    ids: list[int] = [CLS_ID]
    ordinals: list[int] = [-1]
    for ordinal, i in enumerate(kept):
        ids.extend(sent_ids[i])
        ordinals.extend([ordinal] * len(sent_ids[i]))
    ids.extend([SEP_ID, *answer_ids, SEP_ID])
    ordinals.extend([-1] * (len(answer_ids) + 2))
    return ModelInput(
        token_ids=np.asarray(ids, dtype=np.int64),
        sentence_index=np.asarray(ordinals, dtype=np.int64),
        kept_sentences=kept,
    )


def pad_rows(rows, fill) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad rows with fill into one (B, max(longest, 1)) array; returns
    it with the int64 mask that is 1 on real entries and 0 on padding."""
    if not rows:
        raise ValueError("empty batch")
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    real = np.arange(max(int(lengths.max()), 1)) < lengths[:, None]
    padded = np.full(real.shape, fill, dtype=np.int64)
    padded[real] = np.concatenate(rows)
    return padded, real.astype(np.int64)


def pad_batch(inputs: list[ModelInput]) -> dict[str, np.ndarray]:
    """Right-pad a list of ModelInputs into dense (B, T) arrays.

    Returns token_ids, nonpad (1 on real tokens) and sentence_index (-1 on
    padding).
    """
    token_ids, nonpad = pad_rows([mi.token_ids for mi in inputs], PAD_ID)
    sentence_index, _ = pad_rows([mi.sentence_index for mi in inputs], -1)
    return {"token_ids": token_ids, "nonpad": nonpad, "sentence_index": sentence_index}

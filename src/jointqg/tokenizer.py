"""Word tokenization, vocabulary, and model-input assembly.

The model consumes one flat id sequence per example:

    [CLS] s_0 tokens ... s_{n-1} tokens [SEP] answer tokens [SEP]

plus a per-position sentence ordinal (-1 off context tokens) and an answer
mask. When the sequence exceeds max_len, whole sentences are dropped
farthest-first from the answer sentence; the answer segment is never cut.
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


def check_vocab_settings(max_size: int, min_freq: int) -> None:
    """Refuse a vocabulary size or minimum frequency below 1."""
    if max_size < 1:
        raise ValueError("max_size must be positive")
    if min_freq < 1:
        raise ValueError("min_freq must be positive")


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
    def build(cls, examples: list[QAExample], max_size: int = 30000,
              min_freq: int = 1) -> "Vocabulary":
        """Count tokens over contexts, questions and answers; keep tokens
        with frequency >= min_freq, most frequent first (ties by token),
        truncated to max_size non-special entries."""
        if not examples:
            raise ValueError("cannot build a vocabulary from zero examples")
        check_vocab_settings(max_size, min_freq)
        counts: Counter[str] = Counter()
        for ex in examples:
            counts.update(tokenize(ex.document.context))
            counts.update(tokenize(ex.document.question))
            counts.update(tokenize(ex.document.answer_text))
        kept = sorted((t for t, c in counts.items() if c >= min_freq),
                      key=lambda t: (-counts[t], t))[:max_size]
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
    indices; answer_ordinal is the ordinal of the answer sentence or -1 if
    truncation removed it.
    """

    token_ids: np.ndarray
    sentence_index: np.ndarray
    answer_mask: np.ndarray
    kept_sentences: list[int]
    answer_ordinal: int

    @property
    def length(self) -> int:
        return int(self.token_ids.shape[0])

    @property
    def n_sentences(self) -> int:
        return len(self.kept_sentences)


def sentence_token_lists(example: QAExample, vocab: Vocabulary) -> list[list[int]]:
    return [vocab.encode(text) for text in example.sentence_texts()]


def assemble_model_input(example: QAExample, vocab: Vocabulary,
                         max_len: int = 256,
                         keep: list[int] | None = None) -> ModelInput:
    """Lay out one example as [CLS] context [SEP] answer [SEP].

    `keep` restricts the context to the given sentence indices before any
    length handling (used when an external selector filters sentences).
    Raises InputTooLongError when even the answer segment cannot fit.
    """
    if max_len < 8:
        raise ValueError("max_len must be at least 8")
    sent_ids = sentence_token_lists(example, vocab)
    answer_ids = vocab.encode(example.document.answer_text)
    if not answer_ids:
        raise ValueError(f"{example.document.id}: answer has no tokens")

    n = len(sent_ids)
    if keep is None:
        kept = [i for i in range(n) if sent_ids[i]]
    else:
        kept = sorted(set(keep))
        if any(i < 0 or i >= n for i in kept):
            raise ValueError("keep contains an out-of-range sentence index")
        kept = [i for i in kept if sent_ids[i]]

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
    ids.append(SEP_ID)
    ordinals.append(-1)
    answer_lo = len(ids)
    ids.extend(answer_ids)
    ordinals.extend([-1] * len(answer_ids))
    ids.append(SEP_ID)
    ordinals.append(-1)

    mask = np.zeros(len(ids), dtype=np.int64)
    mask[answer_lo:answer_lo + len(answer_ids)] = 1
    return ModelInput(
        token_ids=np.asarray(ids, dtype=np.int64),
        sentence_index=np.asarray(ordinals, dtype=np.int64),
        answer_mask=mask,
        kept_sentences=kept,
        answer_ordinal=kept.index(ans) if ans in kept else -1,
    )


def pad_batch(inputs: list[ModelInput]) -> dict[str, np.ndarray]:
    """Right-pad a list of ModelInputs into dense (B, T) arrays.

    Returns token_ids, nonpad (1 on real tokens) and sentence_index (-1 on
    padding).
    """
    if not inputs:
        raise ValueError("empty batch")
    tmax = max(mi.length for mi in inputs)
    bsz = len(inputs)
    ids = np.full((bsz, tmax), PAD_ID, dtype=np.int64)
    nonpad = np.zeros((bsz, tmax), dtype=np.int64)
    sent = np.full((bsz, tmax), -1, dtype=np.int64)
    for b, mi in enumerate(inputs):
        t = mi.length
        ids[b, :t] = mi.token_ids
        nonpad[b, :t] = 1
        sent[b, :t] = mi.sentence_index
    return {"token_ids": ids, "nonpad": nonpad, "sentence_index": sent}

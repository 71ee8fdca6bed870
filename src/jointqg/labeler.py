"""Weak supervision: relevance labels for sentences and question types.

Relevance labeling scores every context sentence by cosine similarity
between its embedding and the answer embedding, then marks the top k as
positive. No human labels are involved; the resulting labels supervise the
selector head during training.
"""
from __future__ import annotations

from dataclasses import dataclass

from .corpus import QAExample
from .embedding import cosine_similarity, embed_tokens
from .errors import SchemaError
from .fileio import read_keyed_jsonl, write_jsonl
from .tokenizer import tokenize

QUESTION_TYPES = ("what", "who", "when", "where", "why", "how", "which", "other")
_WH_ALIASES = {
    "what": "what",
    "who": "who", "whom": "who", "whose": "who",
    "when": "when",
    "where": "where",
    "why": "why",
    "how": "how",
    "which": "which",
}


@dataclass(frozen=True)
class RelevanceLabels:
    """Per-sentence 0/1 labels with the scores that produced them."""

    labels: tuple[int, ...]
    scores: tuple[float, ...]
    k: int

    def __post_init__(self):
        if len(self.labels) != len(self.scores):
            raise ValueError("labels and scores must align")
        if sum(self.labels) != min(self.k, len(self.labels)):
            raise ValueError("label count must equal min(k, n_sentences)")

    def positive_indices(self) -> list[int]:
        return [i for i, y in enumerate(self.labels) if y == 1]


def rank_sentences(scores: list[float]) -> list[int]:
    """Indices sorted by descending score; equal scores keep the earlier
    sentence first."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def make_relevance_labels(example: QAExample, backend, k: int) -> RelevanceLabels:
    """Label the top-k sentences most similar to the answer as relevant.

    When the context has fewer than k sentences every sentence is positive.
    Embedding failures propagate from the backend.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    answer_vec = embed_tokens(tokenize(example.document.answer_text), backend)
    scores = []
    for text in example.sentence_texts():
        sent_vec = embed_tokens(tokenize(text), backend)
        scores.append(cosine_similarity(sent_vec, answer_vec))
    order = rank_sentences(scores)
    n_pos = min(k, len(scores))
    labels = [0] * len(scores)
    for i in order[:n_pos]:
        labels[i] = 1
    return RelevanceLabels(tuple(labels), tuple(scores), k)


def question_type_of(question: str) -> str:
    """First interrogative word found in the question, else 'other'."""
    if not question:
        raise ValueError("empty question")
    for token in tokenize(question):
        mapped = _WH_ALIASES.get(token)
        if mapped is not None:
            return mapped
    return "other"


def question_type_index(qtype: str) -> int:
    try:
        return QUESTION_TYPES.index(qtype)
    except ValueError:
        raise ValueError(f"unknown question type '{qtype}'") from None


def label_examples(examples: list[QAExample], backend, k: int) -> list[RelevanceLabels]:
    return [make_relevance_labels(ex, backend, k) for ex in examples]


def write_labels_jsonl(examples: list[QAExample],
                       labels: list[RelevanceLabels], path: str) -> None:
    """One record per example: id, relevance labels, scores, k, qtype."""
    if len(examples) != len(labels):
        raise ValueError("examples and labels must align")
    write_jsonl(path, ({"id": ex.document.id,
                        "relevance": list(lab.labels),
                        "scores": [float(s) for s in lab.scores],
                        "k": lab.k,
                        "qtype": question_type_of(ex.document.question)}
                       for ex, lab in zip(examples, labels)))


def _keyed_label_entry(rec) -> tuple[str, dict]:
    try:
        return str(rec["id"]), {
            "labels": RelevanceLabels(tuple(int(x) for x in rec["relevance"]),
                                      tuple(float(x) for x in rec["scores"]), int(rec["k"])),
            "qtype": str(rec["qtype"])}
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad label record ({e})") from e


def read_labels_jsonl(path: str) -> dict[str, dict]:
    """Map example id to its stored label record; a repeated id is refused."""
    records = read_keyed_jsonl(path, _keyed_label_entry)
    if not records:
        raise SchemaError(f"{path}: no label records")
    return records

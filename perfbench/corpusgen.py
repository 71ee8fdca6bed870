"""Seeded synthetic SQuAD-style corpora for the benchmark.

Word types are drawn from a bounded Zipf law (exponent 1 over 100k types),
so a corpus of a few hundred thousand tokens holds more than 30k distinct
words while a small one still covers a few thousand. Every context has
the same shape (9 sentences of 11 words, 113 model-input tokens), every
answer is two words of one sentence and every question is 15 tokens (a
wh-word, 8 drawn words of which the first 5 follow a 'the', and '?'), so
the cost of a workload does not depend on the seed, only its content does.
The repeated 'the' makes one question token clearly the most frequent,
which keeps briefly trained models from emitting EOS at a seed-dependent
step.
"""
from __future__ import annotations

import json

import numpy as np

from jointqg.corpus import QAExample, RawDocument, build_example

N_TYPES = 100_000
ZIPF_EXPONENT = 1.0
SENTENCES = 9
SENTENCE_WORDS = 11
QUESTION_WORDS = 8
QUESTION_THE = 5
ANSWER_WORDS = 2

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
_WH = ("what", "who", "where", "when", "which", "how", "why")


def _word(rank: int) -> str:
    """Distinct lowercase consonant-vowel word per rank, two syllables or more.

    No such word is a sentence-splitter abbreviation, so every period the
    generator writes ends a sentence.
    """
    n = len(_SYLLABLES)
    if rank < n * n:
        return _SYLLABLES[rank // n] + _SYLLABLES[rank % n]
    rank -= n * n
    return _SYLLABLES[rank // (n * n)] + _SYLLABLES[(rank // n) % n] + _SYLLABLES[rank % n]


_WORDS = [_word(r) for r in range(N_TYPES)]
_CDF = np.cumsum(1.0 / np.arange(1, N_TYPES + 1) ** ZIPF_EXPONENT)
_CDF /= _CDF[-1]


def _draw(rng: np.random.Generator, n: int) -> list[str]:
    ranks = np.searchsorted(_CDF, rng.random(n), side="right")
    return [_WORDS[r] for r in np.minimum(ranks, N_TYPES - 1)]


def make_examples(seed: int, n: int, prefix: str = "syn") -> list[QAExample]:
    """n examples, identical for identical (seed, n, prefix)."""
    rng = np.random.default_rng(seed)
    ctx_words = SENTENCES * SENTENCE_WORDS
    words = _draw(rng, n * (ctx_words + QUESTION_WORDS))
    answer_sentences = rng.integers(0, SENTENCES, size=n)
    answer_offsets = rng.integers(1, SENTENCE_WORDS - ANSWER_WORDS + 1, size=n)
    wh = rng.integers(0, len(_WH), size=n)
    out = []
    per = ctx_words + QUESTION_WORDS
    for i in range(n):
        w = words[i * per:(i + 1) * per]
        sentences = []
        answer_start = answer_text = None
        for s in range(SENTENCES):
            sw = w[s * SENTENCE_WORDS:(s + 1) * SENTENCE_WORDS]
            sw[0] = sw[0].capitalize()
            if s == answer_sentences[i]:
                lo = int(answer_offsets[i])
                before = " ".join(sentences + [" ".join(sw[:lo])])
                answer_start = len(before) + 1
                answer_text = " ".join(sw[lo:lo + ANSWER_WORDS])
            sentences.append(" ".join(sw) + ".")
        context = " ".join(sentences)
        qw = w[ctx_words:]
        lead = [t for q in qw[:QUESTION_THE] for t in ("the", q)]
        question = " ".join([_WH[wh[i]].capitalize()] + lead + qw[QUESTION_THE:]) + "?"
        out.append(build_example(RawDocument(f"{prefix}-{seed}-{i}", context, question,
                                             answer_text, answer_start)))
    return out


def squad_json(examples: list[QAExample]) -> str:
    """SQuAD v1.1 JSON text, one paragraph per example."""
    paragraphs = [{"context": ex.document.context,
                   "qas": [{"id": ex.document.id, "question": ex.document.question,
                            "answers": [{"text": ex.document.answer_text,
                                         "answer_start": ex.document.answer_start}]}]}
                  for ex in examples]
    return json.dumps({"version": "1.1", "data": [{"title": "synthetic",
                                                    "paragraphs": paragraphs}]})

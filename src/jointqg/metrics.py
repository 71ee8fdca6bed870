"""Surface-overlap metrics for generated questions.

* bleu4: corpus-level BLEU with n-gram orders 1..4 and a brevity penalty.
  Smoothing: add-one is applied to an order's precision only when that
  order has zero matches, and never to unigrams, so corpora with no empty
  predictions and healthy overlap are scored unsmoothed.
* rouge_l: LCS-based F-measure with beta = 1.2.
* meteor_lite: two-stage unigram alignment (exact, then suffix-stemmed)
  with the 10PR/(R+9P) harmonic mean and the cubic chunk penalty
  0.5 * (chunks / matches)^3. No synonym or paraphrase stage.

All metric inputs are token lists; scores live in [0, 1].
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

from .fileio import write_atomic
from .tokenizer import tokenize

ROUGE_BETA = 1.2
_STEM_SUFFIXES = ("ing", "ed", "es", "ly", "s")
_MIN_STEM = 3


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _validate_pairs(candidates, references) -> None:
    if len(candidates) != len(references):
        raise ValueError("candidates and references must align")
    if not candidates:
        raise ValueError("cannot score an empty corpus")
    for seq in list(candidates) + list(references):
        if not all(isinstance(t, str) for t in seq):
            raise ValueError("metric inputs are lists of token strings")


def bleu4(candidates: list[list[str]], references: list[list[str]]) -> float:
    """Corpus BLEU over orders 1..4 with clipped counts."""
    _validate_pairs(candidates, references)
    cand_total = sum(len(c) for c in candidates)
    ref_total = sum(len(r) for r in references)
    if cand_total == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        matches = 0
        total = 0
        for cand, ref in zip(candidates, references):
            cgrams = _ngrams(cand, n)
            rgrams = _ngrams(ref, n)
            total += sum(cgrams.values())
            matches += sum(min(count, rgrams[g]) for g, count in cgrams.items())
        if matches == 0:
            if n == 1:
                return 0.0
            precision = (matches + 1.0) / (total + 1.0)
        else:
            precision = matches / total
        log_sum += 0.25 * math.log(precision)
    brevity = 1.0 if cand_total > ref_total else math.exp(1.0 - ref_total / cand_total)
    return brevity * math.exp(log_sum)


def sentence_bleu4(candidate: list[str], reference: list[str]) -> float:
    return bleu4([candidate], [reference])


def _lcs_length(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(candidate: list[str], reference: list[str]) -> float:
    """LCS F-measure; empty inputs or no common subsequence score 0."""
    if not candidate or not reference:
        return 0.0
    lcs = _lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    b2 = ROUGE_BETA ** 2
    return (1.0 + b2) * precision * recall / (recall + b2 * precision)


def _stem(token: str) -> str:
    for suffix in _STEM_SUFFIXES:
        if token.endswith(suffix) and len(token) - len(suffix) >= _MIN_STEM:
            return token[:len(token) - len(suffix)]
    return token


def _align(candidate: list[str], reference: list[str]) -> list[tuple[int, int]]:
    """Greedy leftmost unigram alignment: exact stage first, stem stage on
    the leftovers. Returns (candidate position, reference position) pairs."""
    pairs: list[tuple[int, int]] = []
    taken = [False] * len(reference)
    matched = [False] * len(candidate)
    for key in (lambda tok: tok, _stem):
        for ci, tok in enumerate(candidate):
            if matched[ci]:
                continue
            want = key(tok)
            for ri, ref_tok in enumerate(reference):
                if not taken[ri] and key(ref_tok) == want:
                    pairs.append((ci, ri))
                    taken[ri] = True
                    matched[ci] = True
                    break
    return sorted(pairs)


def _chunk_count(pairs: list[tuple[int, int]]) -> int:
    chunks = 0
    prev = None
    for ci, ri in pairs:
        if prev is None or ci != prev[0] + 1 or ri != prev[1] + 1:
            chunks += 1
        prev = (ci, ri)
    return chunks


def meteor_lite(candidate: list[str], reference: list[str]) -> float:
    """Alignment F-mean 10PR/(R+9P) damped by the cubic chunk penalty."""
    if not candidate or not reference:
        return 0.0
    pairs = _align(candidate, reference)
    m = len(pairs)
    if m == 0:
        return 0.0
    precision = m / len(candidate)
    recall = m / len(reference)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (_chunk_count(pairs) / m) ** 3
    return f_mean * (1.0 - penalty)


@dataclass
class MetricReport:
    bleu4: float
    rouge_l: float
    meteor_lite: float
    n_examples: int
    per_example: list[dict] = field(default_factory=list)

    def summary(self) -> dict:
        return {"bleu4": self.bleu4, "rouge_l": self.rouge_l,
                "meteor_lite": self.meteor_lite, "n_examples": self.n_examples}


def score_corpus(candidates: list[list[str]], references: list[list[str]],
                 ids: list[str] | None = None) -> MetricReport:
    """Corpus BLEU plus mean ROUGE-L / METEOR-lite with per-example rows."""
    _validate_pairs(candidates, references)
    per = []
    for i, (cand, ref) in enumerate(zip(candidates, references)):
        per.append({
            "id": ids[i] if ids else str(i),
            "bleu4": sentence_bleu4(cand, ref),
            "rouge_l": rouge_l(cand, ref),
            "meteor_lite": meteor_lite(cand, ref),
        })
    n = len(candidates)
    return MetricReport(
        bleu4=bleu4(candidates, references),
        rouge_l=sum(r["rouge_l"] for r in per) / n,
        meteor_lite=sum(r["meteor_lite"] for r in per) / n,
        n_examples=n,
        per_example=per,
    )


def score_predictions(records: list[dict]) -> MetricReport:
    """The evaluate stage of run_pipeline and ``jointqg evaluate``."""
    return score_corpus([tokenize(r["prediction"]) for r in records],
                        [tokenize(r["gold"]) for r in records],
                        ids=[str(r["id"]) for r in records])


def write_report_json(report: MetricReport, path: str, extra: dict | None = None) -> None:
    """Serialize a report; extra fields (config, hashes) merge at top level."""
    payload = {**report.summary(),
               "bleu_smoothing": "add-one only on zero-match orders >= 2",
               "per_example": report.per_example}
    if extra:
        payload.update(extra)
    write_atomic(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")

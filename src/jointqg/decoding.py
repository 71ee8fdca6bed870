"""Greedy and beam-search decoding.

Both decoders consume a scorer: a callable mapping the generated prefix
(ids, no BOS) to a (V,) array of next-token log-probabilities. PAD and BOS
are suppressed before any selection, so outputs never contain them. A NaN
or +inf entry raises NumericError; a step with no finite token, ValueError.

Beam search keeps the beam_size best candidates per step ranked by
cumulative log-probability; candidates that just emitted EOS retire to a
finished pool and are never extended. The final answer is the best pooled
hypothesis by logp / len^length_alpha (the best unfinished one if nothing
finished), with exact score ties broken toward the lexicographically
smaller id sequence. beam_size=1 with length_alpha=0 follows exactly the
greedy path.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import training as T
from .corpus import QAExample
from .errors import NumericError, SchemaError
from .fileio import read_jsonl, write_jsonl
from .model import Checkpoint, DecoderSession, encoder_forward, load_checkpoint
from .tokenizer import BOS_ID, EOS_ID, PAD_ID, ModelInput, Vocabulary, assemble_model_input

_SUPPRESSED = (PAD_ID, BOS_ID)

SELECTOR_CHECKPOINT = "selector.ckpt"  # two_step selector, beside model.ckpt
PREDICTION_FIELDS = ("id", "prediction", "gold", "beam_size", "score")


@dataclass(frozen=True)
class DecodeResult:
    ids: tuple[int, ...]   # generated ids, EOS included when finished
    logp: float
    score: float           # length-normalized
    finished: bool


def make_scorer(ckpt: Checkpoint, model_input: ModelInput):
    """Scorer over one encoded example; encodes once, steps many times."""
    enc = encoder_forward(model_input, ckpt.params, ckpt.config)
    session = DecoderSession(enc, ckpt.params, ckpt.config)
    return session.step_logprobs


def _next_logprobs(scorer, prefix: list[int]) -> np.ndarray:
    """The scorer's row after prefix, with PAD and BOS suppressed."""
    lp = np.asarray(scorer(prefix), dtype=np.float64).copy()
    if lp.ndim != 1 or lp.shape[0] <= max(_SUPPRESSED):
        raise ValueError("scorer must return a flat distribution over the vocabulary")
    step = len(prefix)
    if not (lp < np.inf).all():  # NaN or +inf
        raise NumericError("non-finite log-probability", where=f"decoding step {step}")
    lp[list(_SUPPRESSED)] = -np.inf
    if not np.isfinite(lp).any():
        raise ValueError(f"no finite token left at decoding step {step}")
    return lp


def _norm_score(logp: float, length: int, alpha: float) -> float:
    return logp / (length ** alpha) if alpha != 0.0 else logp


def greedy_decode(scorer, max_len: int = 32) -> list[int]:
    """Argmax chain; ties resolve to the lowest token id."""
    if max_len < 1:
        raise ValueError("max_len must be positive")
    out: list[int] = []
    while len(out) < max_len:
        nxt = int(np.argmax(_next_logprobs(scorer, out)))
        out.append(nxt)
        if nxt == EOS_ID:
            break
    return out


def check_decode_settings(beam_size: int, max_len: int, length_alpha: float) -> None:
    """Refuse a beam or length below 1 and a non-finite or negative alpha."""
    if beam_size < 1:
        raise ValueError("beam_size must be at least 1")
    if max_len < 1:
        raise ValueError("max_len must be positive")
    if not np.isfinite(length_alpha) or length_alpha < 0:
        raise ValueError("length_alpha must be finite and non-negative")


def beam_search_decode(scorer, beam_size: int, max_len: int = 32,
                       length_alpha: float = 0.7) -> list[int]:
    """Best final hypothesis only."""
    return list(beam_search_nbest(scorer, beam_size, max_len, length_alpha)[0].ids)


def beam_search_nbest(scorer, beam_size: int, max_len: int = 32,
                      length_alpha: float = 0.7) -> list[DecodeResult]:
    """All final hypotheses, best first."""
    check_decode_settings(beam_size, max_len, length_alpha)

    active: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    pool: list[tuple[tuple[int, ...], float]] = []
    for _ in range(max_len):
        # Live prefixes share one length, so with rows in id order the
        # row-major flat index of (hypothesis, token) orders candidates like
        # their extended id tuples: a stable sort on -total then breaks ties
        # toward the lexicographically smaller sequence.
        active.sort(key=lambda h: h[0])
        lp = np.stack([_next_logprobs(scorer, list(ids)) for ids, _ in active])
        vocab_size = lp.shape[1]
        finite = np.isfinite(lp).ravel()
        totals = (np.array([logp for _, logp in active])[:, None] + lp).ravel()
        keep = min(beam_size, int(finite.sum()))
        cut = np.partition(totals[finite], -keep)[-keep]
        picked = np.flatnonzero(finite & (totals >= cut))
        picked = picked[np.argsort(-totals[picked], kind="stable")][:keep]
        live = []
        for flat in picked.tolist():
            hyp, tok = divmod(flat, vocab_size)
            item = (active[hyp][0] + (tok,), float(totals[flat]))
            (pool if tok == EOS_ID else live).append(item)
        active = live
        if not active:
            break

    def as_result(item: tuple[tuple[int, ...], float], finished: bool) -> DecodeResult:
        ids, logp = item
        return DecodeResult(ids, logp, _norm_score(logp, len(ids), length_alpha), finished)

    finals = ([as_result(h, True) for h in pool] if pool
              else [as_result(h, False) for h in active])
    finals.sort(key=lambda r: (-r.score, r.ids))
    return finals


def decode_example(ckpt: Checkpoint, model_input: ModelInput, beam_size: int = 1,
                   max_len: int = 32, length_alpha: float = 0.7) -> list[int]:
    """Encode one input and decode it with beam search."""
    return beam_search_decode(make_scorer(ckpt, model_input), beam_size, max_len,
                              length_alpha)


def load_selector_beside(ckpt_path: str, vocab: Vocabulary) -> Checkpoint | None:
    """The two_step selector saved beside a generator checkpoint, if any."""
    path = os.path.join(os.path.dirname(ckpt_path), SELECTOR_CHECKPOINT)
    if not os.path.exists(path):
        return None
    selector = load_checkpoint(path, expected_vocab=vocab)
    if selector.selector_k is None or selector.selector_k < 1:
        raise SchemaError(f"{path}: selector checkpoint does not record a positive k")
    return selector


def generate_predictions(ckpt: Checkpoint, examples: list[QAExample],
                         vocab: Vocabulary, beam_size: int = 1, max_len: int = 32,
                         length_alpha: float = 0.7,
                         selector: Checkpoint | None = None) -> list[dict]:
    """Decode each example into an {id, prediction, gold, beam_size, score}
    record. A selector first cuts each context to the sentences it keeps,
    by the same training.selector_cut two_step stage 2 trained on."""
    inputs = [assemble_model_input(ex, vocab, ckpt.config.max_len) for ex in examples]
    if selector is not None:
        inputs, _ = T.selector_cut(examples, inputs, selector.params, selector.config,
                                   selector.selector_k, vocab, ckpt.config.max_len)
    records = []
    for ex, mi in zip(examples, inputs):
        best = beam_search_nbest(make_scorer(ckpt, mi), beam_size, max_len,
                                 length_alpha)[0]
        records.append({"id": ex.document.id, "prediction": vocab.decode(list(best.ids)),
                        "gold": ex.document.question, "beam_size": beam_size,
                        "score": best.score})
    return records


def generate_file(ckpt_path: str, examples: list[QAExample], vocab: Vocabulary,
                  out_path: str, beam_size: int = 1, max_len: int = 32,
                  length_alpha: float = 0.7) -> list[dict]:
    """The generate stage of run_pipeline and ``jointqg generate``: decode with
    the checkpoint and any selector.ckpt beside it, and write the records."""
    ckpt = load_checkpoint(ckpt_path, expected_vocab=vocab)
    records = generate_predictions(ckpt, examples, vocab, beam_size, max_len,
                                   length_alpha,
                                   selector=load_selector_beside(ckpt_path, vocab))
    write_predictions_jsonl(records, out_path)
    return records


def _checked_prediction(rec, where: str = "") -> dict:
    missing = [f for f in PREDICTION_FIELDS if not isinstance(rec, dict) or f not in rec]
    if missing:
        raise SchemaError(f"{where}prediction record missing {missing}")
    return rec


def write_predictions_jsonl(records: list[dict], path: str) -> None:
    """One object per line with every PREDICTION_FIELDS key; a bad record
    fails before anything is written, so it leaves no partial file."""
    write_jsonl(path, [_checked_prediction(rec) for rec in records])


def read_predictions_jsonl(path: str) -> list[dict]:
    return [_checked_prediction(rec, f"{path}:{ln}: ") for ln, rec in read_jsonl(path)]

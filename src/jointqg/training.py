"""Losses, optimizer and the four training modes.

Modes:

* ``joint``            total = lambda * selection + (1 - lambda) * generation
* ``generation_only``  decoder NLL alone, selector untouched
* ``two_step``         stage 1 trains encoder+selector on selection loss;
                       stage 2 trains a fresh model on generation over the
                       sentences the stage-1 selector keeps
* ``aux_qtc``          question-type classification replaces selection as
                       the auxiliary task under the same weighting

The optimizer is Adam with decoupled weight decay; the decay term is not
scaled by the learning rate, so lr=0 leaves parameters unchanged except
for the decay shrinkage.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import model as M
from .autodiff import Tensor
from .corpus import QAExample
from .embedding import ModelEncoderBackend
from .errors import InputTooLongError, NumericError
from .labeler import RelevanceLabels, label_examples, question_type_index, rank_sentences
from .tokenizer import (BOS_ID, EOS_ID, PAD_ID, ModelInput, Vocabulary,
                        assemble_model_input, pad_batch)

_PROB_CLAMP = 1e-7

TRAIN_MODES = ("joint", "generation_only", "two_step", "aux_qtc")
# the stage modes whose loss reads an example's relevance labels
_RELEVANCE_MODES = ("joint", "two_step_stage1")


@dataclass
class TrainConfig:
    mode: str = "joint"
    lambda_weight: float = 0.5
    learning_rate: float = 2e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    epochs: int = 10
    batch_size: int = 16
    seed: int = 0
    k: int = 4
    max_question_len: int = 32
    refresh_labels_each_epoch: bool = False

    def validate(self) -> None:
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"unknown training mode '{self.mode}'")
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda_weight must be in [0, 1]")
        for name in ("learning_rate", "weight_decay", "adam_eps"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ValueError("learning_rate and weight_decay must be non-negative")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("Adam betas must be in (0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.max_question_len < 2:
            raise ValueError("max_question_len must allow a token plus EOS")


# loss functions; array in, float out. The training loop uses the Tensor
# variants below so gradients flow.


def selection_loss(probs, labels) -> float:
    """Binary cross-entropy between relevance probabilities and 0/1 labels,
    averaged over sentences; probabilities are clamped to
    [1e-7, 1 - 1e-7] before the log."""
    p = np.clip(np.asarray(probs, dtype=np.float64), _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError("probs and labels must have the same shape")
    if p.size == 0:
        raise ValueError("cannot score zero sentences")
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log1p(-p)))


def generation_loss(step_distributions, gold_ids) -> float:
    """Mean negative log-probability of each gold token under its step
    distribution (teacher forcing)."""
    dist = np.asarray(step_distributions, dtype=np.float64)
    gold = np.asarray(gold_ids, dtype=np.int64)
    if dist.ndim != 2 or gold.ndim != 1 or dist.shape[0] != gold.shape[0]:
        raise ValueError("need one distribution row per gold token")
    if gold.size == 0:
        raise ValueError("cannot score an empty target")
    if np.any((gold < 0) | (gold >= dist.shape[1])):
        raise ValueError("gold id outside the vocabulary")
    picked = np.clip(dist[np.arange(gold.size), gold], _PROB_CLAMP, None)
    return float(np.mean(-np.log(picked)))


def joint_loss(loss_sel: float, loss_gen: float, lambda_weight: float) -> float:
    """lambda * selection + (1 - lambda) * generation."""
    if not 0.0 <= lambda_weight <= 1.0:
        raise ValueError("lambda_weight must be in [0, 1]")
    return lambda_weight * loss_sel + (1.0 - lambda_weight) * loss_gen


def _selection_loss_t(probs: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    p = ad.clip(probs, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    y = Tensor(labels)
    bce = (y * ad.log(p) + (1.0 - y) * ad.log(1.0 - p)) * -1.0
    return (bce * Tensor(mask)).sum() * (1.0 / mask.sum())


def _generation_loss_t(logits: Tensor, targets: np.ndarray, nonpad: np.ndarray) -> Tensor:
    logp = ad.log_softmax(logits, axis=-1)
    bsz, u = targets.shape
    rows = np.repeat(np.arange(bsz), u)
    cols = np.tile(np.arange(u), bsz)
    picked = ad.getitem(logp, (rows, cols, targets.reshape(-1))).reshape((bsz, u))
    return (picked * Tensor(nonpad)).sum() * (-1.0 / nonpad.sum())


def _qtype_loss_t(logits: Tensor, targets: np.ndarray) -> Tensor:
    logp = ad.log_softmax(logits, axis=-1)
    picked = ad.getitem(logp, (np.arange(targets.size), targets))
    return picked.mean() * -1.0


class Adam:
    """Adam with decoupled, lr-independent weight decay.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - wd * theta
    A parameter's moments are created at its first gradient. Until then
    they would be exact zeros, whose update is exactly 0.0, so the step
    applies only the decay. From then on a missing gradient counts as zero,
    so the moment estimates advance in every step.
    """

    def __init__(self, params: M.Parameters, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None and name not in self._m:
                # p - lr * 0.0 == p for any finite lr
                p.data = p.data - self.weight_decay * p.data
                continue
            # a scalar zero gives bitwise the same moments as a zeros array
            g = p.grad if p.grad is not None else 0.0
            m = self._m[name] = b1 * self._m.get(name, 0.0) + (1.0 - b1) * g
            v = self._v[name] = b2 * self._v.get(name, 0.0) + (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - self.lr * update - self.weight_decay * p.data


@dataclass
class PreparedExample:
    example: QAExample
    model_input: ModelInput
    gold_ids: np.ndarray       # question ids ending in EOS
    relevance: np.ndarray      # labels re-based to kept sentences
    qtype: int
    source_index: int = -1     # position in the original example list


def _relevance(labels: RelevanceLabels, mi: ModelInput) -> np.ndarray:
    return np.asarray([labels.labels[i] for i in mi.kept_sentences], dtype=np.int64)


def prepare_examples(examples: list[QAExample], labels: list[RelevanceLabels],
                     qtypes: list[str], vocab: Vocabulary, model_cfg: M.ModelConfig,
                     train_cfg: TrainConfig) -> tuple[list[PreparedExample], int]:
    """Assemble model inputs and targets; returns (prepared, dropped)."""
    if not (len(examples) == len(labels) == len(qtypes)):
        raise ValueError("examples, labels and qtypes must align")
    prepared = []
    dropped = 0
    for idx, (ex, lab, qt) in enumerate(zip(examples, labels, qtypes)):
        try:
            mi = assemble_model_input(ex, vocab, model_cfg.max_len)
        except InputTooLongError:
            dropped += 1
            continue
        gold = vocab.encode(ex.document.question)[:train_cfg.max_question_len - 1]
        if not gold:
            dropped += 1
            continue
        prepared.append(PreparedExample(
            example=ex,
            model_input=mi,
            gold_ids=np.asarray(gold + [EOS_ID], dtype=np.int64),
            relevance=_relevance(lab, mi),
            qtype=question_type_index(qt),
            source_index=idx,
        ))
    if not prepared:
        raise ValueError("no trainable examples survived preparation")
    return prepared, dropped


def _decoder_batch(batch: list[PreparedExample]) -> dict[str, np.ndarray]:
    u = max(len(pe.gold_ids) for pe in batch)
    bsz = len(batch)
    dec_in = np.full((bsz, u), PAD_ID, dtype=np.int64)
    targets = np.full((bsz, u), PAD_ID, dtype=np.int64)
    nonpad = np.zeros((bsz, u))
    for b, pe in enumerate(batch):
        n = len(pe.gold_ids)
        dec_in[b, 0] = BOS_ID
        dec_in[b, 1:n] = pe.gold_ids[:-1]
        targets[b, :n] = pe.gold_ids
        nonpad[b, :n] = 1.0
    return {"dec_in": dec_in, "targets": targets, "nonpad": nonpad}


def _selector_batch(batch: list[PreparedExample]) -> dict[str, np.ndarray]:
    smax = max(pe.model_input.n_sentences for pe in batch)
    bsz = len(batch)
    labels = np.zeros((bsz, max(smax, 1)))
    mask = np.zeros((bsz, max(smax, 1)))
    for b, pe in enumerate(batch):
        n = pe.model_input.n_sentences
        labels[b, :n] = pe.relevance
        mask[b, :n] = 1.0
    return {"labels": labels, "mask": mask}


@dataclass
class TrainResult:
    params: M.Parameters
    history: list[dict] = field(default_factory=list)
    selector_params: M.Parameters | None = None
    selector_f1: float | None = None
    dropped: int = 0
    steps: int = 0


def _batch_losses(batch, params, model_cfg, mode, lam, dropout_rng):
    """Forward one batch; returns (total, sel_value, gen_value) Tensors or
    None where a branch is unused."""
    enc = pad_batch([pe.model_input for pe in batch])
    train_flag = model_cfg.dropout > 0.0
    states = M.encoder_states(enc["token_ids"], enc["nonpad"], params, model_cfg,
                              train=train_flag, rng=dropout_rng)
    sel_loss = None
    gen_loss = None
    if mode in _RELEVANCE_MODES:
        sb = _selector_batch(batch)
        gmat = M.group_matrix(enc["sentence_index"],
                              [pe.model_input.n_sentences for pe in batch])
        if sb["mask"].sum() == 0:
            raise ValueError("batch holds no sentences to select over")
        probs = M.selector_probs(M.sentence_vectors_from_states(states, gmat), params)
        sel_loss = _selection_loss_t(probs, sb["labels"], sb["mask"])
    if mode == "aux_qtc":
        pooled = M.pooled_vector(states, enc["nonpad"].astype(np.float64))
        qlogits = M.qtype_logits(pooled, params)
        targets = np.asarray([pe.qtype for pe in batch], dtype=np.int64)
        sel_loss = _qtype_loss_t(qlogits, targets)
    if mode != "two_step_stage1":
        db = _decoder_batch(batch)
        pooled = M.pooled_vector(states, enc["nonpad"].astype(np.float64))
        memory, mem_bias = M.conditioning_memory(states, pooled, enc["nonpad"], model_cfg)
        logits = M.decoder_logits(db["dec_in"], memory, mem_bias, params, model_cfg,
                                  train=train_flag, rng=dropout_rng)
        gen_loss = _generation_loss_t(logits, db["targets"], db["nonpad"])

    if mode == "generation_only":
        total = gen_loss
    elif mode == "two_step_stage1":
        total = sel_loss
    else:
        total = sel_loss * lam + gen_loss * (1.0 - lam)
    return total, sel_loss, gen_loss


def _backward_step(batch, params, model_cfg, mode, lam, dropout_rng,
                   step) -> tuple[float, float, float]:
    """Forward and backward one batch into the parameters' .grad; returns
    the (total, selection, generation) loss values, 0.0 for an unused
    branch. The step's graph is released on return, so the next forward
    never runs while an older graph is still alive."""
    params.zero_grad()
    total, sel_l, gen_l = _batch_losses(batch, params, model_cfg, mode, lam,
                                        dropout_rng)
    if not np.isfinite(total.data):
        raise NumericError("non-finite loss", where=f"step {step}")
    ad.backward(total)
    return (total.item(), sel_l.item() if sel_l is not None else 0.0,
            gen_l.item() if gen_l is not None else 0.0)


def _run_stage(prepared, params, vocab, model_cfg, train_cfg, mode, epochs,
               history, log_fh, order_rng, dropout_rng, record_mode=None,
               step_offset=0) -> int:
    adam = Adam(params, train_cfg.learning_rate, train_cfg.adam_beta1,
                train_cfg.adam_beta2, train_cfg.adam_eps, train_cfg.weight_decay)
    step = step_offset
    n = len(prepared)
    for epoch in range(epochs):
        if train_cfg.refresh_labels_each_epoch and mode in _RELEVANCE_MODES:
            # relabel with the encoder as it stands
            live = ModelEncoderBackend(params, model_cfg, vocab)
            fresh = label_examples([pe.example for pe in prepared], live, train_cfg.k)
            for pe, lab in zip(prepared, fresh):
                pe.relevance = _relevance(lab, pe.model_input)
        started = time.monotonic()
        order = order_rng.permutation(n)
        sums = {"total": 0.0, "sel": 0.0, "gen": 0.0}
        count = 0
        for lo in range(0, n, train_cfg.batch_size):
            batch = [prepared[i] for i in order[lo:lo + train_cfg.batch_size]]
            step += 1
            total, sel_l, gen_l = _backward_step(batch, params, model_cfg, mode,
                                                 train_cfg.lambda_weight,
                                                 dropout_rng, step)
            adam.step()
            b = len(batch)
            sums["total"] += total * b
            sums["sel"] += sel_l * b
            sums["gen"] += gen_l * b
            count += b
        record = {
            "epoch": epoch,
            "mode": record_mode or mode,
            "loss_total": sums["total"] / count,
            "loss_sel": sums["sel"] / count,
            "loss_gen": sums["gen"] / count,
            "lr": train_cfg.learning_rate,
            "seconds": time.monotonic() - started,
        }
        history.append(record)
        if log_fh is not None:
            log_fh.write(json.dumps(record) + "\n")
            log_fh.flush()
    # the last step's gradients are consumed; nothing after the stage reads them
    params.zero_grad()
    return step


def selector_keep_indices(probs: np.ndarray, kept_sentences: list[int], k: int) -> list[int]:
    """Original sentence indices whose probability passes 0.5; when none
    pass, fall back to the top-k by probability."""
    chosen = [i for i, p in enumerate(probs) if p > 0.5]
    if not chosen:
        chosen = sorted(rank_sentences(probs)[:k])
    return [kept_sentences[i] for i in chosen]


def selector_predictions(model_inputs: list[ModelInput], params: M.Parameters,
                         model_cfg: M.ModelConfig) -> list[np.ndarray]:
    """Relevance probabilities over each input's kept sentences."""
    return [M.selector_forward(M.encoder_forward(mi, params, model_cfg).sentence_vectors,
                               params)
            for mi in model_inputs]


def selector_cut(examples: list[QAExample], model_inputs: list[ModelInput],
                 params: M.Parameters, model_cfg: M.ModelConfig, k: int,
                 vocab: Vocabulary, max_len: int) -> tuple[list[ModelInput], list]:
    """The two_step cut of stage 2 and decoding: each example re-assembled over
    the sentences the selector keeps of its input, and the probabilities."""
    probs = selector_predictions(model_inputs, params, model_cfg)
    cut = [assemble_model_input(ex, vocab, max_len,
                                keep=selector_keep_indices(pr, mi.kept_sentences, k))
           for ex, mi, pr in zip(examples, model_inputs, probs)]
    return cut, probs


def selector_f1(prepared: list[PreparedExample], probs_per_example: list[np.ndarray]) -> float:
    """Micro F1 of thresholded predictions against the training labels."""
    tp = fp = fn = 0
    for pe, probs in zip(prepared, probs_per_example):
        pred = probs > 0.5
        gold = pe.relevance.astype(bool)
        tp += int(np.sum(pred & gold))
        fp += int(np.sum(pred & ~gold))
        fn += int(np.sum(~pred & gold))
    denom = 2 * tp + fp + fn
    return (2.0 * tp / denom) if denom else 0.0


def train(examples: list[QAExample], labels: list[RelevanceLabels],
          qtypes: list[str], vocab: Vocabulary, model_cfg: M.ModelConfig,
          train_cfg: TrainConfig, log_path: str | None = None) -> TrainResult:
    """Run one training job and return final parameters plus history."""
    model_cfg.validate()
    train_cfg.validate()
    if not examples:
        raise ValueError("no training examples")

    ss = np.random.SeedSequence(train_cfg.seed)
    init_ss, order_ss, dropout_ss, stage2_ss = ss.spawn(4)
    order_rng = np.random.default_rng(order_ss)
    dropout_rng = np.random.default_rng(dropout_ss)

    params = M.Parameters.init(model_cfg, seed=init_ss)
    prepared, dropped = prepare_examples(examples, labels, qtypes, vocab,
                                         model_cfg, train_cfg)
    history: list[dict] = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        if train_cfg.mode == "two_step":
            steps = _run_stage(prepared, params, vocab, model_cfg, train_cfg,
                               "two_step_stage1", train_cfg.epochs, history,
                               log_fh, order_rng, dropout_rng,
                               record_mode="two_step:stage1")
            # a subset of sentences that fit still fits: the cut drops nothing
            inputs, probs = selector_cut([pe.example for pe in prepared],
                                         [pe.model_input for pe in prepared],
                                         params, model_cfg, train_cfg.k, vocab,
                                         model_cfg.max_len)
            f1 = selector_f1(prepared, probs)
            stage2 = [replace(pe, model_input=mi,
                              relevance=_relevance(labels[pe.source_index], mi))
                      for pe, mi in zip(prepared, inputs)]
            init2_ss, order2_ss = stage2_ss.spawn(2)
            gen_params = M.Parameters.init(model_cfg, seed=init2_ss)
            steps = _run_stage(stage2, gen_params, vocab, model_cfg, train_cfg,
                               "generation_only", train_cfg.epochs, history,
                               log_fh, np.random.default_rng(order2_ss),
                               dropout_rng, record_mode="two_step:stage2",
                               step_offset=steps)
            return TrainResult(params=gen_params, history=history,
                               selector_params=params, selector_f1=f1,
                               dropped=dropped, steps=steps)

        steps = _run_stage(prepared, params, vocab, model_cfg, train_cfg,
                           train_cfg.mode, train_cfg.epochs, history, log_fh,
                           order_rng, dropout_rng)
        return TrainResult(params=params, history=history, dropped=dropped,
                           steps=steps)
    finally:
        if log_fh is not None:
            log_fh.close()

"""Shared fixtures. The two trained runs are session-scoped because they
are the expensive part of the suite; training tests and acceptance
criteria read the same results."""
from __future__ import annotations

import pathlib
import time

import numpy as np
import pytest
from hypothesis import settings

import synth
from jointqg.corpus import load_squad_json
from jointqg.decoding import beam_search_decode, make_scorer
from jointqg.embedding import BagMeanBackend
from jointqg.labeler import label_examples, question_type_of
from jointqg.metrics import score_corpus
from jointqg.model import Checkpoint, ModelConfig, Parameters
from jointqg.tokenizer import Vocabulary, assemble_model_input, tokenize
from jointqg.training import TrainConfig, train

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def tiny_examples():
    return load_squad_json(str(DATA_DIR / "squad_tiny.json"))


@pytest.fixture(scope="session")
def ibm_example(tiny_examples):
    ex = next(e for e in tiny_examples if e.document.id == "ibm-1")
    assert len(ex.sentences) == 4
    return ex


@pytest.fixture(scope="session")
def tiny_vocab(tiny_examples):
    return Vocabulary.build(tiny_examples)


def small_model_cfg(vocab_size: int, **kw) -> ModelConfig:
    base = dict(vocab_size=vocab_size, d_model=16, encoder_layers=1,
                decoder_layers=1, attention_heads=2, feedforward_dim=32,
                selector_hidden=8, max_len=64)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="session")
def tiny_model_cfg(tiny_vocab):
    return small_model_cfg(len(tiny_vocab))


@pytest.fixture(scope="session")
def tiny_params(tiny_model_cfg):
    return Parameters.init(tiny_model_cfg, seed=11)


@pytest.fixture(scope="session")
def tiny_checkpoint(tiny_vocab, tiny_model_cfg, tiny_params):
    return Checkpoint(tiny_params, tiny_model_cfg, tiny_vocab.sha256())


@pytest.fixture(scope="session")
def memorization_run():
    """generation_only training pushed to convergence on the 50-example
    stall corpus; greedy decodes and the metric report come along."""
    examples = synth.memorization_examples()
    vocab = Vocabulary.build(examples)
    model_cfg = ModelConfig(vocab_size=len(vocab), d_model=32,
                            encoder_layers=1, decoder_layers=1,
                            attention_heads=2, feedforward_dim=64,
                            selector_hidden=16, max_len=64)
    labels = label_examples(examples, BagMeanBackend(dim=32, seed=0), k=1)
    qtypes = [question_type_of(ex.document.question) for ex in examples]
    train_cfg = TrainConfig(mode="generation_only", epochs=200,
                            learning_rate=2e-3, weight_decay=0.0,
                            batch_size=16, seed=0, k=1)
    started = time.monotonic()
    result = train(examples, labels, qtypes, vocab, model_cfg, train_cfg)
    elapsed = time.monotonic() - started
    ckpt = Checkpoint(result.params, model_cfg, vocab.sha256())
    cands, refs = [], []
    for ex in examples:
        mi = assemble_model_input(ex, vocab, model_cfg.max_len)
        ids = beam_search_decode(make_scorer(ckpt, mi), beam_size=1, max_len=16,
                                 length_alpha=0.0)
        cands.append(tokenize(vocab.decode(ids)))
        refs.append(tokenize(ex.document.question))
    return {
        "examples": examples, "vocab": vocab, "model_cfg": model_cfg,
        "train_cfg": train_cfg, "result": result, "elapsed": elapsed,
        "report": score_corpus(cands, refs),
        "final_gen_loss": result.history[-1]["loss_gen"],
    }


@pytest.fixture(scope="session")
def selector_run():
    """two_step training on the separable selector corpus."""
    examples, labels, qtypes = synth.selector_examples()
    vocab = Vocabulary.build(examples)
    model_cfg = ModelConfig(vocab_size=len(vocab), d_model=32,
                            encoder_layers=1, decoder_layers=1,
                            attention_heads=2, feedforward_dim=64,
                            selector_hidden=16, max_len=96)
    train_cfg = TrainConfig(mode="two_step", epochs=40, learning_rate=2e-3,
                            weight_decay=0.0, batch_size=16, seed=0, k=2)
    result = train(examples, labels, qtypes, vocab, model_cfg, train_cfg)
    return {"examples": examples, "labels": labels, "vocab": vocab,
            "model_cfg": model_cfg, "train_cfg": train_cfg, "result": result}


def rng_scorer(seed: int, vocab_size: int):
    """Deterministic pseudo-random scorer: the distribution after a prefix
    depends only on (seed, prefix)."""
    def scorer(prefix_ids):
        key = np.random.SeedSequence([seed, len(prefix_ids)] + [int(i) for i in prefix_ids])
        logits = np.random.default_rng(key).normal(0.0, 2.0, size=vocab_size)
        e = np.exp(logits - logits.max())
        return np.log(e / e.sum())
    return scorer

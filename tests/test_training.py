"""Losses, optimizer and the training loop across the four modes."""
import dataclasses
import functools
import json
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointqg import autodiff as ad
from jointqg import decoding as D
from jointqg import model as M
from jointqg import training as T
from jointqg.autodiff import Tensor
from jointqg.embedding import BagMeanBackend
from jointqg.errors import NumericError
from jointqg.labeler import RelevanceLabels, label_examples, question_type_of
from jointqg.model import Checkpoint, Parameters
from jointqg.tokenizer import EOS_ID, Vocabulary, pad_batch, pad_rows
from conftest import small_model_cfg
from oracles import (adam_eager_oracle, decoder_batch_loop, pad_batch_loop,
                     selector_batch_loop)
import synth

LN2 = 0.6931471805599453


# ------------------------------------------------------------- losses

def test_selection_loss_closed_forms():
    assert T.selection_loss([0.5, 0.5], [1, 0]) == np.log(2.0)
    assert abs(T.selection_loss([0.9], [1]) - (-np.log(0.9))) < 1e-15
    assert abs(T.selection_loss([0.9], [0]) - (-np.log(0.1))) < 1e-12
    # mean over sentences
    both = T.selection_loss([0.9, 0.5], [1, 1])
    assert abs(both - 0.5 * (-np.log(0.9) + LN2)) < 1e-15


def test_selection_loss_clamps_at_zero_and_one():
    assert abs(T.selection_loss([0.0], [1]) - (-np.log(1e-7))) < 1e-12
    assert abs(T.selection_loss([1.0], [0]) - (-np.log(1e-7))) < 1e-9


def test_selection_loss_validation():
    with pytest.raises(ValueError):
        T.selection_loss([0.5, 0.5], [1])
    with pytest.raises(ValueError):
        T.selection_loss([], [])


def test_generation_loss_closed_forms():
    dist = [[0.1, 0.9], [0.5, 0.5]]
    want = np.mean([-np.log(0.9), -np.log(0.5)])
    assert T.generation_loss(dist, [1, 0]) == want
    assert abs(T.generation_loss([[0.5, 0.25, 0.25]], [0]) - LN2) < 1e-15


def test_generation_loss_clamps_zero_probability():
    assert abs(T.generation_loss([[1.0, 0.0]], [1]) - (-np.log(1e-7))) < 1e-12


def test_generation_loss_validation():
    with pytest.raises(ValueError):
        T.generation_loss([[0.5, 0.5]], [2])  # id outside vocabulary
    with pytest.raises(ValueError):
        T.generation_loss([[0.5, 0.5]], [])
    with pytest.raises(ValueError):
        T.generation_loss([0.5, 0.5], [0])
    with pytest.raises(ValueError, match="cannot score an empty target"):
        T.generation_loss(np.zeros((0, 2)), [])  # no rows and no gold ids


def test_joint_loss_weighting():
    assert T.joint_loss(2.0, 4.0, 0.5) == 3.0
    assert T.joint_loss(1.7, 9.9, 0.0) == 9.9  # reduces to generation alone
    assert T.joint_loss(1.7, 9.9, 1.0) == 1.7  # reduces to selection alone
    with pytest.raises(ValueError):
        T.joint_loss(1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        T.joint_loss(1.0, 1.0, -0.1)


def test_tensor_losses_match_numpy_versions():
    rng = np.random.default_rng(0)
    probs = rng.uniform(0.05, 0.95, size=(2, 3))
    labels = rng.integers(0, 2, size=(2, 3)).astype(np.float64)
    mask = np.ones((2, 3))
    got = T._selection_loss_t(Tensor(probs), labels, mask).item()
    want = T.selection_loss(probs.ravel(), labels.ravel())
    assert abs(got - want) < 1e-12

    logits = rng.standard_normal((2, 4, 5))
    targets = rng.integers(0, 5, size=(2, 4))
    nonpad = np.ones((2, 4))
    got = T._generation_loss_t(Tensor(logits), targets, nonpad).item()
    dists = np.exp(logits - logits.max(-1, keepdims=True))
    dists = dists / dists.sum(-1, keepdims=True)
    want = T.generation_loss(dists.reshape(-1, 5), targets.ravel())
    assert abs(got - want) < 1e-9


def test_selection_loss_tensor_respects_mask():
    probs = Tensor(np.array([[0.9, 0.123]]))
    labels = np.array([[1.0, 1.0]])
    mask = np.array([[1.0, 0.0]])
    got = T._selection_loss_t(probs, labels, mask).item()
    assert abs(got - (-np.log(0.9))) < 1e-12


# ---------------------------------------------------------------- Adam

def _single_param(value, grad=None):
    t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
    if grad is not None:
        t.grad = np.asarray(grad, dtype=np.float64)
    return Parameters({"w": t})


def test_adam_zero_lr_applies_only_decay():
    p = _single_param([2.0, -3.0], grad=[5.0, 5.0])
    orig = p["w"].data.copy()
    T.Adam(p, lr=0.0, weight_decay=0.01).step()
    assert np.array_equal(p["w"].data, orig - 0.01 * orig)


def test_adam_zero_lr_zero_decay_is_identity():
    p = _single_param([2.0, -3.0], grad=[5.0, 5.0])
    orig = p["w"].data.copy()
    adam = T.Adam(p, lr=0.0, weight_decay=0.0)
    for _ in range(3):
        adam.step()
    assert np.array_equal(p["w"].data, orig)


def test_adam_single_step_closed_form():
    p = _single_param([1.0], grad=[2.0])
    T.Adam(p, lr=0.5, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0).step()
    m_hat = (0.1 * 2.0) / (1.0 - 0.9)
    v_hat = (0.001 * 4.0) / (1.0 - 0.999)
    want = 1.0 - 0.5 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert abs(p["w"].data[0] - want) < 1e-15


def test_adam_missing_grad_counts_as_zero():
    p = _single_param([4.0])  # no grad set
    T.Adam(p, lr=0.1, weight_decay=0.0).step()
    assert np.array_equal(p["w"].data, [4.0])


def test_adam_missing_grad_is_bitwise_an_explicit_zero_grad():
    rng = np.random.default_rng(4)
    shapes = {"a": (3, 4), "b": (5,), "c": (2, 2)}
    init = {k: rng.normal(size=s) for k, s in shapes.items()}
    # per step, the gradients that are present; the rest are missing
    grads = [{"a": rng.normal(size=(3, 4))},
             {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)},
             {"c": rng.normal(size=(2, 2))}]

    def run(explicit_zeros):
        p = Parameters({k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()})
        adam = T.Adam(p, lr=0.01, weight_decay=0.01)
        for step in grads:
            for k, t in p.items():
                t.grad = step.get(k, np.zeros(shapes[k]) if explicit_zeros else None)
            adam.step()
        return p, adam

    (p_none, a_none), (p_zero, a_zero) = run(False), run(True)
    for k in shapes:
        assert p_none[k].data.tobytes() == p_zero[k].data.tobytes()
        assert a_none._m[k].tobytes() == a_zero._m[k].tobytes()
        assert a_none._v[k].tobytes() == a_zero._v[k].tobytes()


def _run_adam(init, grads_per_step, **kw):
    p = Parameters({k: Tensor(np.array(v), requires_grad=True) for k, v in init.items()})
    adam = T.Adam(p, **kw)
    for grads in grads_per_step:
        for k, t in p.items():
            t.grad = grads.get(k)
        adam.step()
    return p, adam


# signed zeros in data and gradients, where a different expression order
# would show up in the sign bit
_ADAM_INIT = {"seen": [[0.5, -0.0, 0.0], [-2.0, 3.0, 1e-300]],
              "never": [[1.5, -0.0], [0.0, -7.0]]}
_ADAM_KW = dict(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01)


def test_adam_never_graded_parameter_has_no_moments_and_only_decays():
    rng = np.random.default_rng(5)
    grads = [{"seen": rng.normal(size=(2, 3))} for _ in range(4)]
    grads[1]["seen"][0, 1] = -0.0
    p, adam = _run_adam(_ADAM_INIT, grads, **_ADAM_KW)
    assert "never" not in adam._m and "never" not in adam._v
    data, m, v = adam_eager_oracle(_ADAM_INIT, grads, **_ADAM_KW)
    for k in _ADAM_INIT:
        assert p[k].data.tobytes() == data[k].tobytes(), k
    assert adam._m["seen"].tobytes() == m["seen"].tobytes()
    assert adam._v["seen"].tobytes() == v["seen"].tobytes()


def test_adam_first_gradient_at_step_3_matches_explicit_zero_gradients():
    rng = np.random.default_rng(6)
    late = [rng.normal(size=(2, 3)) for _ in range(3)]
    late[0][1, 2] = -0.0
    missing = [{}, {}] + [{"seen": g} for g in late]
    explicit = [{"seen": np.zeros((2, 3))}, {"seen": np.zeros((2, 3))}] + missing[2:]
    p_missing, a_missing = _run_adam(_ADAM_INIT, missing, **_ADAM_KW)
    p_explicit, a_explicit = _run_adam(_ADAM_INIT, explicit, **_ADAM_KW)
    data, m, v = adam_eager_oracle(_ADAM_INIT, missing, **_ADAM_KW)
    for got_p, got_a in ((p_missing, a_missing), (p_explicit, a_explicit)):
        for k in _ADAM_INIT:
            assert got_p[k].data.tobytes() == data[k].tobytes(), k
        assert got_a._m["seen"].tobytes() == m["seen"].tobytes()
        assert got_a._v["seen"].tobytes() == v["seen"].tobytes()


def test_two_step_stages_keep_moments_only_for_parameters_with_gradients(
        stall_setup, monkeypatch):
    optimizers = []

    class Recording(T.Adam):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            optimizers.append(self)

    monkeypatch.setattr(T, "Adam", Recording)
    res = _train(stall_setup, mode="two_step", epochs=1)
    stage1, stage2 = optimizers
    names = res.params.names()
    sel = {n for n in names if n.startswith("sel.")}
    generator_only = {n for n in names
                      if n.startswith(("dec", "out.", "qt.")) or n == "pos_dec"}
    assert sel <= set(stage1._m) and not generator_only & set(stage1._m)
    # stage 2 trains generation alone: no selector or question-type head
    assert "out.w" in stage2._m and not (sel | {"qt.w1"}) & set(stage2._m)
    assert set(stage1._m) == set(stage1._v) and set(stage2._m) == set(stage2._v)


def test_adam_decay_independent_of_lr():
    # the decay shrinkage must not scale with the learning rate
    for lr in (0.0, 1e-6, 1e-2):
        p = _single_param([10.0])  # zero grad, decay acts alone
        T.Adam(p, lr=lr, weight_decay=0.1).step()
        assert p["w"].data[0] == 10.0 - 0.1 * 10.0


def test_adam_moment_accumulation():
    p = _single_param([0.0], grad=[1.0])
    adam = T.Adam(p, lr=0.1, weight_decay=0.0)
    adam.step()
    first = p["w"].data[0]
    p["w"].grad = np.array([1.0])
    adam.step()
    assert adam.t == 2
    # constant gradient keeps m_hat/sqrt(v_hat) near 1, so steps keep moving
    assert p["w"].data[0] < first < 0.0 + 1e-12


# ----------------------------------------------- config and preparation

@pytest.mark.parametrize("bad", [
    dict(mode="pretrain"),
    dict(lambda_weight=1.2),
    dict(learning_rate=-1e-4),
    dict(epochs=-1),
    dict(batch_size=0),
    dict(k=0),
    dict(max_question_len=1),
])
def test_train_config_validation(bad):
    cfg = T.TrainConfig(**bad)
    with pytest.raises(ValueError):
        cfg.validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["learning_rate", "weight_decay"])
def test_train_config_rejects_non_finite_optimizer_values(name, value):
    with pytest.raises(ValueError, match=name):
        T.TrainConfig(**{name: value}).validate()


@pytest.fixture(scope="module")
def stall_setup():
    examples = synth.memorization_examples()[:8]
    vocab = Vocabulary.build(examples)
    backend = BagMeanBackend(dim=16, seed=0)
    labels = label_examples(examples, backend, 1)
    qtypes = [question_type_of(ex.document.question) for ex in examples]
    cfg = small_model_cfg(len(vocab))
    return examples, labels, qtypes, vocab, cfg


def test_prepare_examples_basic(stall_setup):
    examples, labels, qtypes, vocab, cfg = stall_setup
    prepared, dropped = T.prepare_examples(examples, labels, qtypes, vocab, cfg,
                                           T.TrainConfig())
    assert dropped == 0 and len(prepared) == len(examples)
    for i, pe in enumerate(prepared):
        assert pe.source_index == i
        assert pe.gold_ids[-1] == 3  # EOS closes every target
        assert pe.relevance.shape == (pe.model_input.n_sentences,)
        assert pe.relevance.sum() == 1  # k=1 labels survive re-basing


def _record_batches(monkeypatch, mode):
    """Map source_index to the example last trained on in a `mode` batch."""
    seen = {}
    real = T._batch_losses

    def spy(batch, params, model_cfg, batch_mode, lam):
        if batch_mode == mode:
            seen.update((pe.source_index, pe) for pe in batch)
        return real(batch, params, model_cfg, batch_mode, lam)

    monkeypatch.setattr(T, "_batch_losses", spy)
    return seen


def test_prepare_examples_rebases_relevance_to_kept(stall_setup, monkeypatch):
    # two_step stage 2 trains on the prepared examples cut to the sentences
    # the selector keeps: here a selector that passes the second one only
    examples, labels, qtypes, vocab, cfg = stall_setup
    monkeypatch.setattr(T, "selector_predictions", lambda inputs, params, model_cfg:
                        [np.eye(mi.n_sentences)[1] for mi in inputs])
    stage2 = _record_batches(monkeypatch, "generation_only")
    T.train(examples, labels, qtypes, vocab, cfg,
            T.TrainConfig(mode="two_step", epochs=1, batch_size=4, k=1))
    assert sorted(stage2) == list(range(len(examples)))
    for i, lab in enumerate(labels):
        assert stage2[i].model_input.kept_sentences == [1]
        assert stage2[i].relevance.tolist() == [lab.labels[1]]


def test_prepare_examples_drops_overlong():
    # a 6-token answer cannot fit an 8-position budget (CLS + SEP x2 + answer)
    long_ans = "very long mineral vein sample rows"
    a = synth.make_example("keep-1", "Crews kept rocks. Boxes filled fast.",
                           "What was kept?", "rocks")
    b = synth.make_example("drop-1", f"Teams measured {long_ans}. Values ran high.",
                           "What did teams measure?", long_ans)
    vocab = Vocabulary.build([a, b])
    cfg = small_model_cfg(len(vocab), max_len=8)
    labs = [RelevanceLabels((1, 0), (0.9, 0.1), 1)] * 2
    prepared, dropped = T.prepare_examples([a, b], labs, ["what", "what"],
                                           vocab, cfg, T.TrainConfig())
    assert dropped == 1 and len(prepared) == 1
    assert prepared[0].source_index == 0
    assert prepared[0].model_input.kept_sentences == [0]
    with pytest.raises(ValueError):  # nothing survives at all
        T.prepare_examples([b], labs[:1], ["what"], vocab, cfg, T.TrainConfig())


def test_prepare_examples_drops_a_question_without_tokens():
    # whitespace passes RawDocument's non-empty check but encodes to no ids
    a = synth.make_example("keep-1", "Crews kept rocks. Boxes filled fast.",
                           "What was kept?", "rocks")
    b = synth.make_example("blank-1", "Crews kept rocks. Boxes filled fast.", " \t ", "rocks")
    vocab = Vocabulary.build([a])
    labs = [RelevanceLabels((1, 0), (0.9, 0.1), 1)] * 2
    prepared, dropped = T.prepare_examples([a, b], labs, ["what", "other"], vocab,
                                           small_model_cfg(len(vocab)), T.TrainConfig())
    assert dropped == 1 and [pe.source_index for pe in prepared] == [0]


def test_prepare_examples_alignment_checked(stall_setup):
    examples, labels, qtypes, vocab, cfg = stall_setup
    with pytest.raises(ValueError):
        T.prepare_examples(examples, labels[:-1], qtypes, vocab, cfg, T.TrainConfig())


# ------------------------------------------------------------ batch layout

@functools.cache
def _layout_pool():
    """Prepared examples of every shape a batch can mix: full and truncated
    inputs, full and cut questions, and one input with no kept sentence
    whose question is EOS alone (last)."""
    sel, sel_labels, sel_qtypes = synth.selector_examples(n=6)
    sweep = synth.sweep_examples(3)
    examples = sel + sweep
    vocab = Vocabulary.build(examples)
    labels = sel_labels + label_examples(sweep, BagMeanBackend(dim=16, seed=0), 2)
    qtypes = sel_qtypes + [question_type_of(ex.document.question) for ex in sweep]
    cfg = small_model_cfg(len(vocab), max_len=96)
    pool = []
    for max_len, question_len in ((96, 32), (16, 4)):
        pool += T.prepare_examples(examples, labels, qtypes, vocab,
                                   dataclasses.replace(cfg, max_len=max_len),
                                   T.TrainConfig(max_question_len=question_len))[0]
    pool.append(dataclasses.replace(pool[0], model_input=pool[0].model_input.restrict([]),
                                    relevance=np.zeros(0, dtype=np.int64),
                                    gold_ids=np.array([EOS_ID])))
    return pool, cfg, Parameters.init(cfg, seed=3)


def _fed_arrays(batch, mode):
    """The selector and decoder arrays _batch_losses hands the model and
    the losses."""
    got = {}
    sel_loss, gen_loss, dec_logits = T._selection_loss_t, T._generation_loss_t, T.M.decoder_logits

    def spy_sel(probs, labels, mask):
        got.update(labels=labels, sel_mask=mask)
        return sel_loss(probs, labels, mask)

    def spy_gen(logits, targets, mask):
        got.update(targets=targets, gen_mask=mask)
        return gen_loss(logits, targets, mask)

    def spy_dec(dec_in, *args, **kw):
        got["dec_in"] = dec_in
        return dec_logits(dec_in, *args, **kw)

    _, cfg, params = _layout_pool()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_selection_loss_t", spy_sel)
        mp.setattr(T, "_generation_loss_t", spy_gen)
        mp.setattr(T.M, "decoder_logits", spy_dec)
        T._batch_losses(batch, params, cfg, mode, 0.5)
    return got


def _assert_same(got, want, key):
    assert got.shape == want.shape and np.array_equal(got, want), key


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 99), min_size=1, max_size=6))
@example([-1])
def test_batch_arrays_match_the_frozen_padders(picks):
    pool, cfg, params = _layout_pool()
    batch = [pool[i % len(pool)] for i in picks]
    enc = pad_batch([pe.model_input for pe in batch])
    for key, want in pad_batch_loop([pe.model_input for pe in batch]).items():
        assert enc[key].dtype == np.int64, key
        _assert_same(enc[key], want, key)
    sel, dec = selector_batch_loop(batch), decoder_batch_loop(batch)
    if any(pe.model_input.n_sentences for pe in batch):
        got = _fed_arrays(batch, "joint")
    else:
        # one column and an all-zero mask, refused by the selection loss
        with pytest.raises(ValueError, match="no sentences"):
            T._batch_losses(batch, params, cfg, "joint", 0.5)
        got = _fed_arrays(batch, "generation_only")
        got["labels"], got["sel_mask"] = pad_rows([pe.relevance for pe in batch], 0)
    for key, want in (("labels", sel["labels"]), ("sel_mask", sel["mask"]),
                      ("targets", dec["targets"]), ("gen_mask", dec["nonpad"]),
                      ("dec_in", dec["dec_in"])):
        assert got[key].dtype == np.int64, key
        _assert_same(got[key], want, key)


def test_max_question_len_truncates_gold(stall_setup):
    examples, labels, qtypes, vocab, cfg = stall_setup
    short = T.TrainConfig(max_question_len=3)
    prepared, _ = T.prepare_examples(examples, labels, qtypes, vocab, cfg, short)
    for pe in prepared:
        assert len(pe.gold_ids) <= 3 and pe.gold_ids[-1] == 3


# ------------------------------------------------------- training loop

def _train(stall_setup, n=6, **kw):
    examples, labels, qtypes, vocab, cfg = stall_setup
    tc = T.TrainConfig(**{**dict(learning_rate=2e-3, epochs=2, batch_size=4,
                                 seed=0, k=1), **kw})
    return T.train(examples[:n], labels[:n], qtypes[:n], vocab, cfg, tc)


def test_history_records_and_steps(stall_setup, tmp_path):
    examples, labels, qtypes, vocab, cfg = stall_setup
    log = tmp_path / "log.jsonl"
    tc = T.TrainConfig(mode="generation_only", epochs=3, batch_size=4, seed=0)
    res = T.train(examples[:6], labels[:6], qtypes[:6], vocab, cfg, tc,
                  log_path=str(log))
    assert len(res.history) == 3
    assert res.steps == 3 * 2  # ceil(6 / 4) batches per epoch
    for i, rec in enumerate(res.history):
        assert rec["epoch"] == i and rec["mode"] == "generation_only"
        assert set(rec) == {"epoch", "mode", "loss_total", "loss_sel",
                            "loss_gen", "lr", "seconds"}
        assert rec["loss_sel"] == 0.0
        assert np.isfinite(rec["loss_total"]) and rec["loss_total"] > 0
        assert rec["lr"] == tc.learning_rate
    logged = [json.loads(l) for l in log.read_text().splitlines()]
    assert logged == res.history


def test_joint_total_is_weighted_sum(stall_setup):
    examples, labels, qtypes, vocab, cfg = stall_setup
    prepared, _ = T.prepare_examples(examples, labels, qtypes, vocab, cfg,
                                     T.TrainConfig())
    params = Parameters.init(cfg, seed=1)
    lam = 0.3
    total, sel_l, gen_l = T._batch_losses(prepared[:4], params, cfg, "joint",
                                          lam)
    assert total.item() == T.joint_loss(sel_l.item(), gen_l.item(), lam)

    # gradients compose linearly with the same weights
    ad.backward(total)
    joint_grads = {n: t.grad.copy() if t.grad is not None else None
                   for n, t in params.items()}
    params.zero_grad()
    sel_only, _, _ = T._batch_losses(prepared[:4], params, cfg,
                                     "two_step_stage1", lam)
    ad.backward(sel_only)
    sel_grads = {n: t.grad for n, t in params.items()}
    params.zero_grad()
    gen_only, _, _ = T._batch_losses(prepared[:4], params, cfg,
                                     "generation_only", lam)
    ad.backward(gen_only)
    gen_grads = {n: t.grad for n, t in params.items()}

    for name, jg in joint_grads.items():
        if jg is None:
            continue
        s = sel_grads[name] if sel_grads[name] is not None else 0.0
        g = gen_grads[name] if gen_grads[name] is not None else 0.0
        combo = lam * s + (1.0 - lam) * g
        scale = max(1.0, np.abs(combo).max())
        assert np.abs(jg - combo).max() / scale < 1e-9, name


def test_lambda_zero_joint_matches_generation_only(stall_setup):
    joint = _train(stall_setup, mode="joint", lambda_weight=0.0, epochs=3)
    gen = _train(stall_setup, mode="generation_only", epochs=3)
    for name in joint.params.names():
        assert np.array_equal(joint.params[name].data, gen.params[name].data), name
    gen_losses = [r["loss_gen"] for r in gen.history]
    joint_losses = [r["loss_gen"] for r in joint.history]
    assert gen_losses == joint_losses


def test_lambda_one_joint_ignores_generation_branch(stall_setup):
    res = _train(stall_setup, mode="joint", lambda_weight=1.0, epochs=1)
    rec = res.history[0]
    assert rec["loss_total"] == rec["loss_sel"]
    assert rec["loss_gen"] > 0.0  # still reported, just unweighted


def test_same_seed_reproduces_parameters(stall_setup):
    a = _train(stall_setup, mode="joint")
    b = _train(stall_setup, mode="joint")
    for name in a.params.names():
        assert np.array_equal(a.params[name].data, b.params[name].data)
    c = _train(stall_setup, mode="joint", seed=1)
    assert any(not np.array_equal(a.params[n].data, c.params[n].data)
               for n in a.params.names())


def test_epochs_zero_returns_untrained_init(stall_setup):
    res = _train(stall_setup, mode="joint", epochs=0)
    assert res.history == [] and res.steps == 0
    ss = np.random.SeedSequence(0)
    init_ss = ss.spawn(4)[0]
    _, _, _, _, cfg = stall_setup
    expected = Parameters.init(cfg, seed=init_ss)
    for name in res.params.names():
        assert np.array_equal(res.params[name].data, expected[name].data)


def test_aux_qtype_mode_trains(stall_setup):
    res = _train(stall_setup, mode="aux_qtc", epochs=2)
    for rec in res.history:
        assert rec["mode"] == "aux_qtc"
        assert np.isfinite(rec["loss_sel"]) and rec["loss_sel"] > 0
        assert np.isfinite(rec["loss_gen"]) and rec["loss_gen"] > 0
    assert res.selector_params is None
    assert all(np.isfinite(t.data).all() for _, t in res.params.items())


def test_nan_loss_aborts_with_step(stall_setup, monkeypatch):
    def poisoned(batch, params, model_cfg, mode, lam):
        return Tensor(np.nan, requires_grad=True), None, None
    monkeypatch.setattr(T, "_batch_losses", poisoned)
    with pytest.raises(NumericError, match="step 1"):
        _train(stall_setup, mode="generation_only", epochs=1)


@pytest.mark.parametrize("mode", ["joint", "two_step"])
def test_each_step_graph_is_released_before_the_next_forward(
        stall_setup, monkeypatch, mode):
    # a weakref to every step's encoder-state array; Tensor has no weakref
    # slot, but its ndarray does. An older step's array still alive when the
    # next forward starts means two graphs are held at once.
    refs = []
    alive_at_forward = []
    real_states, real_losses = T.M.encoder_states, T._batch_losses

    def recording_states(*args, **kw):
        out = real_states(*args, **kw)
        refs.append(weakref.ref(out.data))
        return out

    def checking_losses(*args, **kw):
        alive_at_forward.append(sum(r() is not None for r in refs))
        return real_losses(*args, **kw)

    monkeypatch.setattr(T.M, "encoder_states", recording_states)
    monkeypatch.setattr(T, "_batch_losses", checking_losses)
    res = _train(stall_setup, mode=mode, epochs=2)
    assert res.steps >= 4 and len(refs) >= res.steps
    assert alive_at_forward == [0] * res.steps


@pytest.mark.parametrize("mode", ["joint", "two_step"])
def test_train_returns_parameters_without_gradients(stall_setup, mode):
    res = _train(stall_setup, mode=mode, epochs=1)
    param_sets = [res.params]
    if mode == "two_step":
        param_sets.append(res.selector_params)
    for params in param_sets:
        assert [n for n, t in params.items() if t.grad is not None] == []


def test_empty_example_list_rejected(stall_setup):
    _, _, _, vocab, cfg = stall_setup
    with pytest.raises(ValueError):
        T.train([], [], [], vocab, cfg, T.TrainConfig())


# ------------------------------------------------------------ two_step

def test_two_step_history_and_fresh_generator(selector_run):
    res = selector_run["result"]
    epochs = selector_run["train_cfg"].epochs
    assert len(res.history) == 2 * epochs
    assert all(r["mode"] == "two_step:stage1" for r in res.history[:epochs])
    assert all(r["mode"] == "two_step:stage2" for r in res.history[epochs:])
    assert all(r["loss_gen"] == 0.0 for r in res.history[:epochs])
    assert all(r["loss_sel"] == 0.0 for r in res.history[epochs:])
    assert res.selector_params is not None
    assert 0.0 <= res.selector_f1 <= 1.0
    # the generator is trained from a fresh draw, not the stage-1 weights
    assert any(not np.array_equal(res.params[n].data, res.selector_params[n].data)
               for n in res.selector_params.names())


def test_two_step_selector_holds_the_full_draw_of_its_tensors(stall_setup):
    # the selector keeps only the encoder and its head, drawn as part of the
    # full initialisation, so each starts as it does in every other mode
    _, _, _, _, cfg = stall_setup
    full = _train(stall_setup, mode="joint", epochs=0).params
    selector = _train(stall_setup, mode="two_step", epochs=0).selector_params
    assert selector.names() == sorted(M.selector_shapes(cfg))
    for name, tensor in selector.items():
        assert np.array_equal(tensor.data, full[name].data), name


def test_two_step_stage1_draws_only_the_selector_tensors(stall_setup, monkeypatch):
    # stage 1 asks for the selector set, stage 2 for the full generator
    _, _, _, _, cfg = stall_setup
    real_init = M.Parameters.init.__func__
    asked = []

    def recording_init(cls, model_cfg, seed=0, shapes=None):
        asked.append(shapes)
        return real_init(cls, model_cfg, seed=seed, shapes=shapes)

    monkeypatch.setattr(M.Parameters, "init", classmethod(recording_init))
    _train(stall_setup, mode="two_step", epochs=0)
    assert asked == [M.selector_shapes(cfg), None]


def test_stage1_loss_actually_falls(selector_run):
    epochs = selector_run["train_cfg"].epochs
    sel = [r["loss_sel"] for r in selector_run["result"].history[:epochs]]
    assert sel[-1] < sel[0]


def test_stage2_trains_on_the_inputs_generate_serves(monkeypatch):
    examples, labels, qtypes = synth.selector_examples(n=12)
    vocab = Vocabulary.build(examples)
    cfg = small_model_cfg(len(vocab), max_len=96)
    tc = T.TrainConfig(mode="two_step", epochs=3, learning_rate=2e-3,
                       weight_decay=0.0, batch_size=4, seed=0, k=2)
    trained = _record_batches(monkeypatch, "generation_only")
    res = T.train(examples, labels, qtypes, vocab, cfg, tc)

    served = []
    real = D.make_scorer
    monkeypatch.setattr(D, "make_scorer",
                        lambda ckpt, mi: served.append(mi) or real(ckpt, mi))
    sha = vocab.sha256()
    D.generate_predictions(Checkpoint(res.params, cfg, sha), examples, vocab, max_len=1,
                           selector=Checkpoint(res.selector_params, cfg, sha,
                                               selector_k=tc.k))
    assert len(served) == len(trained) == len(examples)
    for i, mi in enumerate(served):
        for f in dataclasses.fields(mi):
            assert np.array_equal(getattr(mi, f.name),
                                  getattr(trained[i].model_input, f.name)), f.name
    # the cut is not the identity on this corpus
    assert any(len(mi.kept_sentences) < 4 for mi in served)


# --------------------------------------------------- selector inference

def test_selector_keep_indices_threshold_and_fallback():
    assert T.selector_keep_indices(np.array([0.9, 0.2, 0.6]), [0, 1, 3], k=2) == [0, 3]
    assert T.selector_keep_indices(np.array([0.1, 0.3, 0.2]), [0, 1, 3], k=2) == [1, 3]
    assert T.selector_keep_indices(np.array([0.4, 0.4, 0.1]), [5, 6, 7], k=1) == [5]
    assert T.selector_keep_indices(np.array([0.1, 0.2]), [0, 1], k=9) == [0, 1]


def test_selector_f1_hand_case():
    a = T.PreparedExample(None, None, np.array([1, 0]), 0)
    b = T.PreparedExample(None, None, np.array([0, 1]), 0)
    preds = [np.array([0.9, 0.1]), np.array([0.9, 0.6])]
    assert T.selector_f1([a, b], preds) == 2 * 2 / (2 * 2 + 1 + 0)
    assert T.selector_f1([a], [np.array([0.1, 0.9])]) == 0.0


# ------------------------------------------- convergence (shared run)

def test_memorization_loss_is_near_zero(memorization_run):
    assert memorization_run["final_gen_loss"] < 0.1


def test_memorization_loss_mostly_monotone(memorization_run):
    losses = [r["loss_gen"] for r in memorization_run["result"].history]
    tail = losses[10:]
    rises = sum(1 for a, b in zip(tail, tail[1:]) if b > a)
    assert rises <= 0.05 * len(tail)
    assert losses[-1] < losses[0] / 10

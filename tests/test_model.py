"""Model forward passes against a straight-line numpy reference, plus
parameter bookkeeping, padding invariance and checkpoint io."""
import hashlib
import io
import os
import pathlib
import re
import struct
import subprocess
import sys
import zipfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jointqg import model as M
from jointqg.autodiff import Tensor, log_softmax, no_grad
from jointqg.decoding import beam_search_nbest, load_selector_beside
from jointqg.errors import NumericError, SchemaError, VocabMismatchError
from jointqg.tokenizer import BOS_ID, assemble_model_input, pad_batch
from conftest import small_model_cfg
from oracles import group_matrix_loop, grouped_mean_oracle, save_checkpoint_bytesio
from reference_model import (
    params_as_arrays,
    ref_decoder_dist,
    ref_encoder,
    ref_selector_prob,
)


def _rand_ids(rng, n, vocab_size):
    return rng.integers(6, vocab_size, size=n).astype(np.int64)


# ------------------------------------------------------------ parameters

def test_param_shapes_inventory():
    cfg = small_model_cfg(20)
    shapes = M.param_shapes(cfg)
    assert shapes["tok_emb"] == (20, 16)
    assert shapes["pos_enc"] == (64, 16) and shapes["pos_dec"] == (64, 16)
    assert shapes["enc0.attn.wq"] == (16, 16) and shapes["enc0.attn.bq"] == (16,)
    assert shapes["enc0.ff.w1"] == (16, 32) and shapes["enc0.ff.w2"] == (32, 16)
    assert shapes["dec0.cross.wo"] == (16, 16)
    assert shapes["sel.w1"] == (16, 8) and shapes["sel.w2"] == (8, 1)
    assert shapes["qt.w2"] == (8, 8) and shapes["qt.b2"] == (8,)
    assert shapes["out.w"] == (16, 20) and shapes["out.b"] == (20,)
    assert "enc1.attn.wq" not in shapes and "dec1.self.wq" not in shapes

    two = M.param_shapes(small_model_cfg(20, encoder_layers=2, decoder_layers=3))
    assert "enc1.attn.wq" in two and "dec2.cross.wq" in two


def test_init_values_and_determinism():
    cfg = small_model_cfg(20)
    p = M.Parameters.init(cfg, seed=5)
    assert np.array_equal(p["enc0.ln1.g"].data, np.ones(16))
    for name in ("enc0.attn.bq", "dec0.ff.b2", "sel.b1", "out.b"):
        assert np.array_equal(p[name].data, np.zeros(p[name].shape))
    flat = np.concatenate([p[n].data.ravel() for n in ("tok_emb", "out.w")])
    assert abs(flat.mean()) < 0.005 and abs(flat.std() - 0.02) < 0.005
    q = M.Parameters.init(cfg, seed=5)
    assert all(np.array_equal(p[n].data, q[n].data) for n in p.names())
    r = M.Parameters.init(cfg, seed=6)
    assert not np.array_equal(p["tok_emb"].data, r["tok_emb"].data)


_small_cfgs = st.builds(
    small_model_cfg, st.integers(7, 40), d_model=st.sampled_from([4, 8, 12]),
    encoder_layers=st.integers(1, 2), decoder_layers=st.integers(1, 2),
    feedforward_dim=st.integers(1, 9), selector_hidden=st.integers(1, 9),
    max_len=st.integers(8, 20))
_seeds = st.one_of(
    st.integers(0, 2**64 - 1),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 3)).map(
        lambda t: np.random.SeedSequence(t[0]).spawn(4)[t[1]]))


@given(cfg=_small_cfgs, seed=_seeds, data=st.data())
def test_init_draws_each_tensor_by_its_name(cfg, seed, data):
    full = M.Parameters.init(cfg, seed=seed)
    shapes = M.param_shapes(cfg)
    subset = data.draw(st.sets(st.sampled_from(sorted(shapes))), label="subset")
    part = M.Parameters.init(cfg, seed=seed, shapes={n: shapes[n] for n in subset})
    assert part.names() == sorted(subset)
    for name, tensor in part.items():
        assert np.array_equal(tensor.data, full[name].data), name
    # one more vocabulary token reshapes three tensors and moves no other
    wider = replace(cfg, vocab_size=cfg.vocab_size + 1)
    grown = M.Parameters.init(wider, seed=seed)
    reshaped = {n for n, s in M.param_shapes(wider).items() if s != shapes[n]}
    assert reshaped == {"tok_emb", "out.w", "out.b"}
    for name in set(shapes) - reshaped:
        assert np.array_equal(grown[name].data, full[name].data), name


def test_init_is_independent_of_the_hash_seed():
    # a name's stream comes from a stable digest, never from the salted hash()
    script = ("import hashlib, numpy as np\n"
              "from jointqg import model as M\n"
              "p = M.Parameters.init(M.ModelConfig(vocab_size=9, d_model=4, encoder_layers=1,"
              " decoder_layers=1, attention_heads=1, feedforward_dim=4, selector_hidden=2,"
              " max_len=8), seed=3)\n"
              "h = hashlib.sha256()\n"
              "for name, t in p.items():\n"
              "    h.update(name.encode()); h.update(t.data.tobytes())\n"
              "print(h.hexdigest())\n")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True)
        digests.add(out.stdout)
    assert len(digests) == 1


def test_n_scalars_matches_shapes():
    cfg = small_model_cfg(20)
    p = M.Parameters.init(cfg)
    assert {name: t.shape for name, t in p.items()} == M.param_shapes(cfg)
    expected = sum(int(np.prod(s)) for s in M.param_shapes(cfg).values())
    assert sum(t.data.size for _, t in p.items()) == expected
    assert p.names() == sorted(p.names())


def test_parameters_copy_is_independent():
    p = M.Parameters.init(small_model_cfg(20))
    q = p.copy()
    q["out.b"].data[0] = 99.0
    assert p["out.b"].data[0] == 0.0


@pytest.mark.parametrize("bad", [
    dict(vocab_size=6),
    dict(vocab_size=20, d_model=15),           # not a multiple of heads
    dict(vocab_size=20, max_len=4),
    dict(vocab_size=20, attention_heads=0),    # must fail before the modulo
    dict(vocab_size=20, decoder_layers=0),
    dict(vocab_size=20, encoder_layers=0),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        small_model_cfg(**bad).validate()


def test_config_dict_round_trip():
    cfg = small_model_cfg(20, decoder_layers=3, max_len=40)
    assert M.ModelConfig.from_dict(cfg.to_dict()) == cfg


# ------------------------------------------- forward vs reference oracle

@pytest.fixture(scope="module")
def oracle_setup():
    cfg = small_model_cfg(24)
    params = M.Parameters.init(cfg, seed=3)
    return cfg, params, params_as_arrays(params)


def test_encoder_matches_reference(oracle_setup):
    cfg, params, arrays = oracle_setup
    rng = np.random.default_rng(0)
    ids = _rand_ids(rng, 9, cfg.vocab_size)
    got = M.encode_token_ids(ids, params, cfg)
    want = ref_encoder(ids, arrays, cfg)
    assert np.abs(got - want).max() < 1e-9


def test_encoder_two_layers_matches_reference():
    cfg = small_model_cfg(24, encoder_layers=3)
    params = M.Parameters.init(cfg, seed=4)
    arrays = params_as_arrays(params)
    ids = _rand_ids(np.random.default_rng(1), 7, cfg.vocab_size)
    got = M.encode_token_ids(ids, params, cfg)
    assert np.abs(got - ref_encoder(ids, arrays, cfg)).max() < 1e-9


def test_decoder_matches_reference(oracle_setup):
    cfg, params, arrays = oracle_setup
    rng = np.random.default_rng(2)
    src = _rand_ids(rng, 8, cfg.vocab_size)
    memory = M.encode_token_ids(src, params, cfg)
    for u in (1, 4):
        dec_ids = np.concatenate([[M.BOS_ID], _rand_ids(rng, u - 1, cfg.vocab_size)])
        with_pkg = M.decoder_logits(dec_ids[None], Tensor(memory[None]), None,
                                    params, cfg)
        probs = np.exp(with_pkg.data[0, -1] - with_pkg.data[0, -1].max())
        probs = probs / probs.sum()
        want = ref_decoder_dist(dec_ids, memory, arrays, cfg)
        assert np.abs(probs - want).max() < 1e-9


def test_selector_matches_reference(oracle_setup):
    cfg, params, arrays = oracle_setup
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((5, cfg.d_model))
    got = M.selector_forward(vecs, params)
    want = np.array([ref_selector_prob(v, arrays) for v in vecs])
    assert np.abs(got - want).max() < 1e-12


# --------------------------------------------------- selector behaviour

def test_selector_zero_head_gives_half(oracle_setup):
    cfg, params, _ = oracle_setup
    p = params.copy()
    p["sel.w2"].data[:] = 0.0
    p["sel.b2"].data[:] = 0.0
    probs = M.selector_forward(np.random.default_rng(4).standard_normal((3, cfg.d_model)), p)
    assert np.array_equal(probs, [0.5, 0.5, 0.5])


def test_selector_clamp_keeps_open_interval(oracle_setup):
    cfg, params, _ = oracle_setup
    p = params.copy()
    p["sel.w2"].data[:] = 0.0
    vecs = np.zeros((1, cfg.d_model))
    p["sel.b2"].data[:] = 1000.0  # large o means irrelevant
    low = M.selector_forward(vecs, p)[0]
    p["sel.b2"].data[:] = -1000.0
    high = M.selector_forward(vecs, p)[0]
    e36 = np.exp(-36.0)
    assert low == e36 / (1.0 + e36) and low > 0.0
    assert high == 1.0 / (1.0 + e36) and high < 1.0


def test_selector_two_sentence_closed_form(oracle_setup):
    cfg, params, arrays = oracle_setup
    vecs = np.random.default_rng(5).standard_normal((2, cfg.d_model))
    probs = M.selector_forward(vecs, params)
    for i in range(2):
        h = np.maximum(vecs[i] @ arrays["sel.w1"] + arrays["sel.b1"], 0.0)
        o = (h @ arrays["sel.w2"] + arrays["sel.b2"]).item()
        assert abs(probs[i] - 1.0 / (1.0 + np.exp(o))) < 1e-12
    assert np.all((probs > 0.0) & (probs < 1.0))


def test_selector_forward_validates_shape(oracle_setup):
    _, params, _ = oracle_setup
    with pytest.raises(ValueError):
        M.selector_forward(np.zeros(16), params)
    assert M.selector_forward(np.zeros((0, 16)), params).shape == (0,)


# ------------------------------------------------- grouped sentence mean

def test_grouped_mean_hand_case():
    states = np.array([[2.0, 0.0], [4.0, 2.0], [10.0, 6.0]])
    out = M.reconstruct_sentence_vectors(states, np.array([0, 0, 1]))
    assert np.array_equal(out, [[3.0, 1.0], [10.0, 6.0]])


def test_grouped_mean_skips_negative_ordinals():
    states = np.arange(8.0).reshape(4, 2)
    out = M.reconstruct_sentence_vectors(states, np.array([-1, 0, 0, -1]))
    assert np.array_equal(out, [[3.0, 4.0]])
    empty = M.reconstruct_sentence_vectors(states, np.array([-1, -1, -1, -1]))
    assert empty.shape == (0, 2)


def test_grouped_mean_matches_oracle():
    rng = np.random.default_rng(6)
    states = rng.standard_normal((12, 5))
    idx = np.array([-1] + [0] * 3 + [1] * 2 + [-1] + [2] * 4 + [-1])
    got = M.reconstruct_sentence_vectors(states, idx)
    assert np.abs(got - grouped_mean_oracle(states, idx)).max() < 1e-12


def test_grouped_mean_missing_ordinal_rejected():
    with pytest.raises(ValueError):
        M.reconstruct_sentence_vectors(np.zeros((2, 3)), np.array([0, 2]))
    with pytest.raises(ValueError):
        M.reconstruct_sentence_vectors(np.zeros((2, 3)), np.array([0]))


def test_group_matrix_agrees_with_reconstruct():
    rng = np.random.default_rng(7)
    states = rng.standard_normal((2, 6, 4))
    idx = np.array([[0, 0, 1, 1, 2, -1],
                    [0, 1, 1, -1, -1, -1]])
    g = M.group_matrix(idx, [3, 2])
    assert g.shape == (2, 3, 6)
    batched = M.sentence_vectors_from_states(Tensor(states), g).data
    for b, n in enumerate([3, 2]):
        single = M.reconstruct_sentence_vectors(states[b], idx[b])
        assert np.abs(batched[b, :n] - single).max() < 1e-12
    assert np.array_equal(batched[1, 2], np.zeros(4))  # padded sentence row


def _padded_sentence_batch(rng):
    """Ordinals laid out as pad_batch lays them out: per example a [CLS] row,
    1-3 rows for each of its 0-4 sentences, answer rows, then padding, all
    but the sentence rows marked -1."""
    rows = [[-1] + [s for s in range(n) for _ in range(rng.integers(1, 4))]
            + [-1] * int(rng.integers(1, 3))
            for n in rng.integers(0, 5, size=rng.integers(1, 6))]
    t = max(map(len, rows)) + int(rng.integers(0, 3))
    idx = np.full((len(rows), t), -1, dtype=np.int64)
    nonpad = np.zeros((len(rows), t), dtype=np.int64)
    for b, row in enumerate(rows):
        idx[b, :len(row)] = row
        nonpad[b, :len(row)] = 1
    return idx, nonpad, [int(row.max(initial=-1)) + 1 for row in idx]


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_group_matrix_and_pooled_vector_bitwise_equal_the_loops(dtype):
    rng = np.random.default_rng(19)
    for _ in range(60):
        idx, nonpad, counts = _padded_sentence_batch(rng)
        got = M.group_matrix(idx.astype(dtype), counts)
        want = group_matrix_loop(idx.astype(dtype), counts)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        states = Tensor(rng.standard_normal((*idx.shape, 3)))
        mask = nonpad.astype(dtype)
        # the mean weights as pooled_vector built them before it used group_matrix
        weights = (mask / mask.sum(axis=1, keepdims=True))[:, None, :]
        want = (Tensor(weights) @ states).data.reshape(len(idx), 3)
        assert M.pooled_vector(states, mask).data.tobytes() == want.tobytes()


@pytest.mark.parametrize("idx,counts,message", [
    # example 0 misses ordinal 1 and example 1 ordinal 0: example order first
    ([[0, 2, -1], [-1, -1, -1]], [3, 1], "sentence ordinal 1 has no tokens in example 0"),
    ([[0, 1, -1], [1, -1, -1]], [2, 3], "sentence ordinal 0 has no tokens in example 1"),
], ids=["example-order", "second-example"])
def test_group_matrix_names_the_first_missing_ordinal(idx, counts, message):
    for build in (M.group_matrix, group_matrix_loop):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(np.array(idx), counts)


# ------------------------------------------------------- masking effects

def test_encoder_padding_invariance(oracle_setup):
    cfg, params, _ = oracle_setup
    rng = np.random.default_rng(8)
    short = _rand_ids(rng, 6, cfg.vocab_size)
    long = _rand_ids(rng, 11, cfg.vocab_size)
    ids = np.full((2, 11), 0, dtype=np.int64)
    ids[0, :6] = short
    ids[1] = long
    nonpad = np.zeros((2, 11), dtype=np.int64)
    nonpad[0, :6] = 1
    nonpad[1] = 1
    batched = M.encoder_states(ids, nonpad, params, cfg).data
    alone = M.encode_token_ids(short, params, cfg)
    assert np.abs(batched[0, :6] - alone).max() < 1e-9
    assert np.abs(batched[1] - M.encode_token_ids(long, params, cfg)).max() < 1e-9


def test_pooled_vector_ignores_padding(oracle_setup):
    cfg, params, _ = oracle_setup
    rng = np.random.default_rng(9)
    ids = _rand_ids(rng, 5, cfg.vocab_size)
    padded = np.concatenate([ids, [0, 0, 0]])
    nonpad = np.array([[1, 1, 1, 1, 1, 0, 0, 0]], dtype=np.float64)
    states = M.encoder_states(padded[None], nonpad.astype(np.int64), params, cfg)
    pooled = M.pooled_vector(states, nonpad).data[0]
    want = M.encode_token_ids(ids, params, cfg).mean(axis=0)
    assert np.abs(pooled - want).max() < 1e-9


def test_causal_bias_layout():
    b = M.causal_bias(3)
    assert b.shape == (1, 1, 3, 3)
    assert np.array_equal(b[0, 0], [[0, -1e9, -1e9], [0, 0, -1e9], [0, 0, 0]])


def test_key_padding_bias_layout():
    b = M.key_padding_bias(np.array([[1, 1, 0]]))
    assert b.shape == (1, 1, 1, 3)
    assert np.array_equal(b[0, 0, 0], [0.0, 0.0, -1e9])


def test_decoder_causality(oracle_setup):
    # changing a later prefix token must not change earlier positions
    cfg, params, _ = oracle_setup
    rng = np.random.default_rng(10)
    memory = Tensor(rng.standard_normal((1, 4, cfg.d_model)))
    ids = np.array([[2, 8, 9, 10]])
    base = M.decoder_logits(ids, memory, None, params, cfg).data
    ids2 = ids.copy()
    ids2[0, -1] = 11
    other = M.decoder_logits(ids2, memory, None, params, cfg).data
    assert np.abs(base[0, :3] - other[0, :3]).max() == 0.0
    assert np.abs(base[0, 3] - other[0, 3]).max() > 0.0


# -------------------------------------------------- decoding convenience

def _encoded(example, vocab, params, cfg):
    mi = assemble_model_input(example, vocab, max_len=cfg.max_len)
    return M.encoder_forward(mi, params, cfg)


def test_encoder_forward_output_shapes(ibm_example, tiny_vocab):
    # max_len must clear the 102-token assembled input or sentences drop
    cfg = small_model_cfg(len(tiny_vocab), max_len=128)
    params = M.Parameters.init(cfg, seed=11)
    mi = assemble_model_input(ibm_example, tiny_vocab, max_len=cfg.max_len)
    enc = M.encoder_forward(mi, params, cfg)
    t = mi.length
    assert mi.n_sentences == 4
    assert enc.token_states.shape == (t, cfg.d_model)
    assert enc.sentence_vectors.shape == (4, cfg.d_model)
    want = M.reconstruct_sentence_vectors(enc.token_states, mi.sentence_index)
    assert np.array_equal(enc.sentence_vectors, want)


@pytest.mark.parametrize("mode", ["token_attention"])
def test_next_token_distribution_sums_to_one(ibm_example, tiny_vocab,
                                             tiny_params, mode):
    cfg = small_model_cfg(len(tiny_vocab))
    enc = _encoded(ibm_example, tiny_vocab, tiny_params, cfg)
    for prefix in ([], [8], [8, 9, 10]):
        dist = M.decoder_step(enc, prefix, tiny_params, cfg)
        assert dist.shape == (len(tiny_vocab),)
        assert abs(dist.sum() - 1.0) < 1e-9
        assert np.all(dist >= 0.0)


def test_zeroed_output_head_is_uniform(ibm_example, tiny_vocab, tiny_params,
                                       tiny_model_cfg):
    p = tiny_params.copy()
    p["out.w"].data[:] = 0.0
    p["out.b"].data[:] = 0.0
    enc = _encoded(ibm_example, tiny_vocab, p, tiny_model_cfg)
    dist = M.decoder_step(enc, [7], p, tiny_model_cfg)
    assert np.allclose(dist, 1.0 / len(tiny_vocab), atol=1e-15)


def test_session_matches_decoder_step(ibm_example, tiny_vocab, tiny_params,
                                      tiny_model_cfg):
    enc = _encoded(ibm_example, tiny_vocab, tiny_params, tiny_model_cfg)
    session = M.DecoderSession(enc, tiny_params, tiny_model_cfg)
    lp = session.step_logprobs([8, 9])
    assert np.abs(np.exp(lp) - M.decoder_step(enc, [8, 9], tiny_params,
                                              tiny_model_cfg)).max() < 1e-12
    again = session.step_logprobs([8, 9])
    assert np.array_equal(lp, again)


# ------------------------------------------- incremental decoder session

def _sharp_params(cfg, seed=7):
    """Seeded init plus wide noise, so next-token rows are far from uniform."""
    p = M.Parameters.init(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for t in p.tensors.values():
        t.data += rng.normal(0.0, 0.3, size=t.shape)
    return p


@pytest.fixture(scope="module", params=["token_attention"])
def session_setup(request):
    cfg = small_model_cfg(40, decoder_layers=2, max_len=24)
    p = _sharp_params(cfg)
    states = M.encode_token_ids(_rand_ids(np.random.default_rng(4), 11, 40), p, cfg)
    return cfg, p, M.EncoderOutput(states, states[:2])


def _full_recompute(enc, p, cfg, prefix):
    """log_softmax of the last row of decoder_logits over [BOS] + prefix,
    with the all-zero mask of a memory without padding."""
    ids = np.array([[BOS_ID] + list(prefix)], dtype=np.int64)
    memory = enc.token_states[None]
    with no_grad():
        logits = M.decoder_logits(ids, Tensor(memory),
                                  M.key_padding_bias(np.ones(memory.shape[:2])), p, cfg)
        return log_softmax(logits[0, -1], axis=-1).data


def _prefix_family(cfg, rng):
    """A root-to-leaf chain of every length up to max_len - 1 plus branches
    off it at several depths."""
    chain = [int(t) for t in rng.integers(6, cfg.vocab_size, size=cfg.max_len - 1)]
    prefixes = [tuple(chain[:n]) for n in range(cfg.max_len)]
    for depth in (0, 1, 5, cfg.max_len // 2, cfg.max_len - 2):
        prefixes.append(tuple(chain[:depth]) + (int(rng.integers(6, cfg.vocab_size)),))
    return prefixes


def test_session_matches_full_recompute_in_any_call_order(session_setup):
    cfg, p, enc = session_setup
    prefixes = _prefix_family(cfg, np.random.default_rng(1))
    sequential = M.DecoderSession(enc, p, cfg)
    want = {pre: sequential.step_logprobs(pre) for pre in prefixes}
    for pre, lp in want.items():
        assert np.abs(lp - _full_recompute(enc, p, cfg, pre)).max() <= 1e-9
    assert max(len(pre) for pre in want) == cfg.max_len - 1

    shuffled = [prefixes[i] for i in np.random.default_rng(2).permutation(len(prefixes))]
    orders = {
        "fresh": [[pre] for pre in prefixes],
        "reverse": [prefixes[::-1]],
        "shuffled": [shuffled],
        "repeated": [[pre, pre, pre[:1], pre] for pre in prefixes[::7]],
    }
    for name, calls in orders.items():
        for run in calls:
            session = M.DecoderSession(enc, p, cfg)
            for pre in run:
                assert np.array_equal(session.step_logprobs(list(pre)), want[pre]), name


def test_session_beam_like_branching_is_bitwise_stable(session_setup):
    cfg, p, enc = session_setup
    rng = np.random.default_rng(3)
    session = M.DecoderSession(enc, p, cfg)
    live = [()]
    for _ in range(12):
        rows = {pre: session.step_logprobs(pre) for pre in live}
        for pre, lp in rows.items():
            assert np.array_equal(lp, M.DecoderSession(enc, p, cfg).step_logprobs(pre))
        # every live hypothesis spawns two children; four survive
        children = [pre + (int(t),) for pre in live
                    for t in rng.choice(np.arange(6, cfg.vocab_size), 2, replace=False)]
        live = [children[i] for i in sorted(rng.choice(len(children),
                                                       min(4, len(children)), replace=False))]


@pytest.mark.parametrize("mode", ["token_attention"])
@pytest.mark.parametrize("beam", [1, 2, 3, 4, 5])
def test_session_and_full_recompute_decode_the_same_ids(ibm_example, tiny_vocab,
                                                        mode, beam):
    cfg = small_model_cfg(len(tiny_vocab), decoder_layers=2, max_len=128)
    p = _sharp_params(cfg)
    enc = _encoded(ibm_example, tiny_vocab, p, cfg)
    cached = beam_search_nbest(M.DecoderSession(enc, p, cfg).step_logprobs, beam, max_len=12)
    full = beam_search_nbest(lambda pre: _full_recompute(enc, p, cfg, pre), beam, max_len=12)
    assert [r.ids for r in cached] == [r.ids for r in full]
    assert np.allclose([r.score for r in cached], [r.score for r in full],
                       rtol=0.0, atol=1e-9)


def test_session_rejects_prefix_at_max_len_and_stays_usable(session_setup):
    cfg, p, enc = session_setup
    session = M.DecoderSession(enc, p, cfg)
    ok = [8] * (cfg.max_len - 1)
    want = session.step_logprobs(ok)
    with pytest.raises(ValueError, match="max_len"):
        session.step_logprobs(ok + [9])
    assert np.array_equal(session.step_logprobs(ok), want)
    assert np.array_equal(session.step_logprobs([8, 9]),
                          M.DecoderSession(enc, p, cfg).step_logprobs([8, 9]))


def test_session_numeric_error_names_layer_and_session_recovers(session_setup):
    cfg, params, enc = session_setup
    p = params.copy()
    session = M.DecoderSession(enc, p, cfg)
    want = M.DecoderSession(enc, params, cfg).step_logprobs([8, 9, 10])
    good = p["dec1.ff.w1"].data[0, 0]
    p["dec1.ff.w1"].data[0, 0] = np.inf
    with pytest.raises(NumericError) as info:
        session.step_logprobs([8, 9, 10])
    assert info.value.where == "decoder layer 1"
    p["dec1.ff.w1"].data[0, 0] = good
    assert np.array_equal(session.step_logprobs([8, 9, 10]), want)

    q = params.copy()
    q["out.b"].data[5] = np.inf
    with pytest.raises(NumericError, match="output projection"):
        M.DecoderSession(enc, q, cfg).step_logprobs([8])


def test_qtype_head_shape(oracle_setup):
    cfg, params, _ = oracle_setup
    pooled = Tensor(np.random.default_rng(11).standard_normal((2, cfg.d_model)))
    out = M.qtype_logits(pooled, params)
    assert out.shape == (2, 8)


# ----------------------------------------------------- failure handling

def test_length_overflow_rejected(oracle_setup):
    cfg, params, _ = oracle_setup
    ids = np.zeros((1, cfg.max_len + 1), dtype=np.int64)
    nonpad = np.ones_like(ids)
    with pytest.raises(ValueError, match="max_len"):
        M.encoder_states(ids, nonpad, params, cfg)
    memory = Tensor(np.zeros((1, 3, cfg.d_model)))
    with pytest.raises(ValueError, match="max_len"):
        M.decoder_logits(ids, memory, None, params, cfg)


def test_numeric_error_names_encoder_layer(oracle_setup):
    cfg, params, _ = oracle_setup
    p = params.copy()
    p["enc0.ff.b2"].data[:] = np.nan
    ids = np.array([[6, 7, 8]])
    with pytest.raises(NumericError, match="encoder layer 0"):
        M.encoder_states(ids, np.ones_like(ids), p, cfg)


def test_numeric_error_names_decoder_layer_and_head(oracle_setup):
    cfg, params, _ = oracle_setup
    memory = Tensor(np.zeros((1, 3, cfg.d_model)))
    ids = np.array([[2, 8]])
    p = params.copy()
    p["dec0.ff.b2"].data[:] = np.nan
    with pytest.raises(NumericError, match="decoder layer 0"):
        M.decoder_logits(ids, memory, None, p, cfg)
    q = params.copy()
    q["out.b"].data[:] = np.inf
    with pytest.raises(NumericError, match="output projection"):
        M.decoder_logits(ids, memory, None, q, cfg)


# ------------------------------------------------------------ checkpoints

def test_checkpoint_round_trip(tmp_path, tiny_params, tiny_model_cfg, tiny_vocab):
    path = str(tmp_path / "model.ckpt")
    M.save_checkpoint(path, tiny_params, tiny_model_cfg, tiny_vocab,
                      step=17, seed=9)
    ckpt = M.load_checkpoint(path, expected_vocab=tiny_vocab)
    assert ckpt.step == 17 and ckpt.seed == 9
    assert ckpt.config == tiny_model_cfg
    assert ckpt.vocab_sha256 == tiny_vocab.sha256()
    assert set(ckpt.params.names()) == set(tiny_params.names())
    for name, t in tiny_params.items():
        # storage is float32: loading returns exactly the quantized values
        assert np.array_equal(ckpt.params[name].data,
                              t.data.astype("<f4").astype(np.float64))


def test_checkpoint_bytes_deterministic(tmp_path, tiny_params, tiny_model_cfg,
                                        tiny_vocab):
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    M.save_checkpoint(a, tiny_params, tiny_model_cfg, tiny_vocab)
    M.save_checkpoint(b, tiny_params, tiny_model_cfg, tiny_vocab)

    def digest(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    assert digest(a) == digest(b)


@pytest.mark.parametrize("selector_k", [None, 2])
def test_checkpoint_bytes_equal_the_whole_entry_writer(tmp_path, tiny_params, tiny_model_cfg,
                                                      tiny_vocab, selector_k):
    streamed, whole = tmp_path / "streamed.ckpt", tmp_path / "whole.ckpt"
    M.save_checkpoint(str(streamed), tiny_params, tiny_model_cfg, tiny_vocab,
                      step=3, seed=5, selector_k=selector_k)
    save_checkpoint_bytesio(str(whole), tiny_params, tiny_model_cfg, tiny_vocab,
                            step=3, seed=5, selector_k=selector_k)
    assert streamed.read_bytes() == whole.read_bytes()


def test_checkpoint_fortran_ordered_tensor_saved_in_c_order(
        tmp_path, tiny_params, tiny_model_cfg, tiny_vocab):
    params = tiny_params.copy()
    params["sel.w1"].data = np.asfortranarray(params["sel.w1"].data)
    fortran, c_order = tmp_path / "fortran.ckpt", tmp_path / "c.ckpt"
    M.save_checkpoint(str(fortran), params, tiny_model_cfg, tiny_vocab)
    M.save_checkpoint(str(c_order), tiny_params, tiny_model_cfg, tiny_vocab)
    assert fortran.read_bytes() == c_order.read_bytes()
    loaded = M.load_checkpoint(str(fortran)).params["sel.w1"].data
    assert np.array_equal(loaded, params["sel.w1"].data.astype("<f4"))


def test_checkpoint_vocab_mismatch(tmp_path, tiny_params, tiny_model_cfg,
                                   tiny_vocab, tiny_examples):
    path = str(tmp_path / "model.ckpt")
    M.save_checkpoint(path, tiny_params, tiny_model_cfg, tiny_vocab)
    from jointqg.tokenizer import Vocabulary
    other = Vocabulary.build(tiny_examples, max_size=10)
    with pytest.raises(VocabMismatchError):
        M.load_checkpoint(path, expected_vocab=other)
    assert M.load_checkpoint(path).vocab_sha256 == tiny_vocab.sha256()


def _tampered_copy(src, dst, drop=None, replace=None):
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for item in zin.infolist():
            data = zin.read(item.filename)
            if item.filename == drop:
                continue
            if replace and item.filename == replace[0]:
                data = replace[1]
            zout.writestr(item, data)


def test_checkpoint_shape_tamper_rejected(tmp_path, tiny_params, tiny_model_cfg,
                                          tiny_vocab):
    import io as _io
    src = str(tmp_path / "good.ckpt")
    M.save_checkpoint(src, tiny_params, tiny_model_cfg, tiny_vocab)
    buf = _io.BytesIO()
    np.save(buf, np.zeros((2, 2), dtype="<f4"), allow_pickle=False)
    bad = str(tmp_path / "bad.ckpt")
    _tampered_copy(src, bad, replace=("tensors/out.b.npy", buf.getvalue()))
    with pytest.raises(SchemaError, match="out.b"):
        M.load_checkpoint(bad)


def test_checkpoint_non_finite_tensor_rejected(tmp_path, tiny_params,
                                               tiny_model_cfg, tiny_vocab):
    import io as _io
    src = str(tmp_path / "good.ckpt")
    M.save_checkpoint(src, tiny_params, tiny_model_cfg, tiny_vocab)
    for i, value in enumerate((np.nan, np.inf, -np.inf)):
        arr = tiny_params["sel.w1"].data.astype("<f4")
        arr[0, 0] = value
        buf = _io.BytesIO()
        np.save(buf, arr, allow_pickle=False)
        bad = str(tmp_path / f"bad{i}.ckpt")
        _tampered_copy(src, bad, replace=("tensors/sel.w1.npy", buf.getvalue()))
        with pytest.raises(SchemaError, match="sel.w1"):
            M.load_checkpoint(bad)


@pytest.mark.parametrize("key, value", [("step", "x"), ("seed", None),
                                        ("vocab_sha256", None)])
def test_checkpoint_bad_metadata_value_rejected(tmp_path, tiny_params, tiny_model_cfg,
                                                tiny_vocab, key, value):
    import json as _json
    src = str(tmp_path / "good.ckpt")
    M.save_checkpoint(src, tiny_params, tiny_model_cfg, tiny_vocab)
    with zipfile.ZipFile(src) as zf:
        meta = _json.loads(zf.read("meta.json"))
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    bad = str(tmp_path / "bad.ckpt")
    _tampered_copy(src, bad, replace=("meta.json", _json.dumps(meta).encode()))
    with pytest.raises(SchemaError, match="bad checkpoint metadata"):
        M.load_checkpoint(bad)


@pytest.mark.parametrize("field, value", [("dropout", 0.0),
                                          ("conditioning_mode", "token_attention")])
def test_checkpoint_with_a_removed_config_field_rejected(tmp_path, tiny_params,
                                                         tiny_model_cfg, tiny_vocab,
                                                         field, value):
    # a checkpoint written while ModelConfig still had these fields
    import json as _json
    src = str(tmp_path / "good.ckpt")
    M.save_checkpoint(src, tiny_params, tiny_model_cfg, tiny_vocab)
    with zipfile.ZipFile(src) as zf:
        meta = _json.loads(zf.read("meta.json"))
    meta["config"][field] = value
    bad = str(tmp_path / "old.ckpt")
    _tampered_copy(src, bad, replace=("meta.json", _json.dumps(meta).encode()))
    with pytest.raises(SchemaError, match=rf"^{re.escape(bad)}: bad checkpoint metadata "
                                          rf"\(.*unexpected keyword argument '{field}'\)$"):
        M.load_checkpoint(bad)


def test_checkpoint_missing_tensor_rejected(tmp_path, tiny_params,
                                            tiny_model_cfg, tiny_vocab):
    src = str(tmp_path / "good.ckpt")
    M.save_checkpoint(src, tiny_params, tiny_model_cfg, tiny_vocab)
    bad = str(tmp_path / "bad.ckpt")
    _tampered_copy(src, bad, drop="tensors/out.b.npy")
    with pytest.raises(SchemaError, match="out.b"):
        M.load_checkpoint(bad)


@pytest.mark.parametrize("value, ok", [(2, True), (True, False), (0, False),
                                       (2.0, False), ("2", False)])
def test_selector_beside_requires_positive_integer_k(tmp_path, tiny_params,
                                                     tiny_model_cfg, tiny_vocab,
                                                     value, ok):
    import json as _json
    src = str(tmp_path / "good.ckpt")
    selector = M.Parameters({n: tiny_params[n] for n in M.selector_shapes(tiny_model_cfg)})
    M.save_checkpoint(src, selector, tiny_model_cfg, tiny_vocab, selector_k=2)
    with zipfile.ZipFile(src) as zf:
        meta = _json.loads(zf.read("meta.json"))
    meta["selector_k"] = value
    run = tmp_path / "run"
    run.mkdir()
    _tampered_copy(src, str(run / "selector.ckpt"),
                   replace=("meta.json", _json.dumps(meta).encode()))
    # bool is an int subclass, so `true` must be refused explicitly
    if ok:
        assert load_selector_beside(str(run / "model.ckpt"), tiny_vocab).selector_k == 2
    else:
        with pytest.raises(SchemaError, match="selector.ckpt"):
            load_selector_beside(str(run / "model.ckpt"), tiny_vocab)


@pytest.mark.parametrize("change", [
    pytest.param(lambda meta: meta["tensors"].remove("out.b"), id="name-missing"),
    pytest.param(lambda meta: meta["tensors"].append("extra.w"), id="name-extra"),
    pytest.param(lambda meta: meta["config"].update(encoder_layers=2), id="config-wants-more"),
    # a checkpoint recording selector_k holds only the selector's tensors
    pytest.param(lambda meta: meta.update(selector_k=2), id="selector-k-on-every-tensor"),
])
def test_checkpoint_tensor_names_must_match_the_config(tmp_path, tiny_params, tiny_model_cfg,
                                                       tiny_vocab, change):
    import json as _json
    src = str(tmp_path / "good.ckpt")
    M.save_checkpoint(src, tiny_params, tiny_model_cfg, tiny_vocab)
    with zipfile.ZipFile(src) as zf:
        meta = _json.loads(zf.read("meta.json"))
    change(meta)
    bad = str(tmp_path / "bad.ckpt")
    _tampered_copy(src, bad, replace=("meta.json", _json.dumps(meta).encode()))
    with pytest.raises(SchemaError, match=r"bad\.ckpt: tensor names do not match the stored config"):
        M.load_checkpoint(bad)


def _npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=False)
    return buf.getvalue()


@pytest.mark.parametrize("make", [
    pytest.param(lambda v: b"not an npy file", id="no-magic"),
    pytest.param(lambda v: _npy_bytes(np.zeros(v, "<f4"))[:40], id="truncated"),
    pytest.param(lambda v: np.lib.format.magic(1, 0) + b"\x10\x00"
                 + b"{'descr': 1}".ljust(15) + b"\n", id="header-keys"),
    pytest.param(lambda v: _npy_bytes(np.array(["x"] * v)), id="string-dtype"),
    pytest.param(lambda v: np.lib.format.magic(3, 0) + _npy_bytes(np.zeros(v, "<f4"))[8:],
                 id="npy-version-3"),
])
def test_checkpoint_malformed_tensor_rejected(tmp_path, tiny_params, tiny_model_cfg,
                                              tiny_vocab, make):
    src = str(tmp_path / "good.ckpt")
    M.save_checkpoint(src, tiny_params, tiny_model_cfg, tiny_vocab)
    bad = str(tmp_path / "bad.ckpt")
    _tampered_copy(src, bad, replace=("tensors/out.b.npy", make(len(tiny_vocab))))
    with pytest.raises(SchemaError, match=r"bad\.ckpt: tensor out\.b "):
        M.load_checkpoint(bad)


def test_checkpoint_object_array_entry_rejected(tmp_path, tiny_params, tiny_model_cfg,
                                                tiny_vocab):
    src = str(tmp_path / "good.ckpt")
    M.save_checkpoint(src, tiny_params, tiny_model_cfg, tiny_vocab)
    buf = io.BytesIO()
    np.save(buf, np.array([None] * len(tiny_vocab), dtype=object), allow_pickle=True)
    bad = str(tmp_path / "bad.ckpt")
    _tampered_copy(src, bad, replace=("tensors/out.b.npy", buf.getvalue()))
    with pytest.raises(SchemaError, match=r"bad\.ckpt: tensor out\.b .*[Oo]bject"):
        M.load_checkpoint(bad)


@pytest.mark.parametrize("layout, message", [
    ("fortran-order", r"is stored in Fortran order, expected C order"),
    ("npy-version-2", r"is missing or corrupt \(ValueError: unsupported \.npy format version"),
], ids=["fortran-order", "npy-version-2"])
def test_checkpoint_entry_layouts_save_never_writes_are_refused(tmp_path, tiny_params,
                                                                tiny_model_cfg, tiny_vocab,
                                                                layout, message):
    # np.save writes either for these values; save_checkpoint writes neither
    src = str(tmp_path / "good.ckpt")
    M.save_checkpoint(src, tiny_params, tiny_model_cfg, tiny_vocab)
    arr = tiny_params["sel.w1"].data.astype("<f4")
    buf = io.BytesIO()
    if layout == "fortran-order":
        np.save(buf, np.asfortranarray(arr), allow_pickle=False)
    else:
        np.lib.format.write_array(buf, arr, version=(2, 0), allow_pickle=False)
    bad = str(tmp_path / "bad.ckpt")
    _tampered_copy(src, bad, replace=("tensors/sel.w1.npy", buf.getvalue()))
    with pytest.raises(SchemaError, match=rf"bad\.ckpt: tensor sel\.w1 {message}"):
        M.load_checkpoint(bad)


@pytest.mark.parametrize("entry, message", [
    ("tensors/tok_emb.npy", r"model\.ckpt: tensor tok_emb "),
    ("meta.json", r"model\.ckpt: bad checkpoint metadata"),
])
def test_checkpoint_flipped_byte_rejected(tmp_path, tiny_params, tiny_model_cfg,
                                          tiny_vocab, entry, message):
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(str(path), tiny_params, tiny_model_cfg, tiny_vocab)
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(entry)
    raw = bytearray(path.read_bytes())
    # local file header: 30 fixed bytes, then the name and the extra field
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    data_start = info.header_offset + 30 + name_len + extra_len
    raw[data_start + info.compress_size - 1] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(SchemaError, match=message):
        M.load_checkpoint(str(path))


def test_checkpoint_entries_stored_and_deflated_still_loads(
        tmp_path, tiny_params, tiny_model_cfg, tiny_vocab):
    src = str(tmp_path / "stored.ckpt")
    M.save_checkpoint(src, tiny_params, tiny_model_cfg, tiny_vocab)
    deflated = str(tmp_path / "deflated.ckpt")
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(deflated, "w") as zout:
        assert all(i.compress_type == zipfile.ZIP_STORED for i in zin.infolist())
        for item in zin.infolist():
            data = zin.read(item.filename)
            item.compress_type = zipfile.ZIP_DEFLATED
            zout.writestr(item, data)
    with zipfile.ZipFile(deflated) as zf:
        assert all(i.compress_type == zipfile.ZIP_DEFLATED for i in zf.infolist())
    a, b = M.load_checkpoint(src), M.load_checkpoint(deflated)
    assert a.params.names() == b.params.names()
    for name in a.params.names():
        assert a.params[name].data.tobytes() == b.params[name].data.tobytes()
    assert (a.config, a.vocab_sha256, a.step, a.seed) == (b.config, b.vocab_sha256,
                                                          b.step, b.seed)


@pytest.mark.parametrize("existing", [False, True])
def test_checkpoint_failed_save_leaves_target_untouched(
        tmp_path, monkeypatch, tiny_params, tiny_model_cfg, tiny_vocab, existing):
    path = tmp_path / "model.ckpt"
    if existing:
        M.save_checkpoint(str(path), tiny_params, tiny_model_cfg, tiny_vocab, step=1)
    before = path.read_bytes() if existing else None
    # each tensor entry starts with its .npy header: fail at the third one,
    # after two entries are already in the temp file
    real_header, calls = np.lib.format.write_array_header_1_0, []

    def failing_header(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        return real_header(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", failing_header)
    with pytest.raises(OSError, match="disk full"):
        M.save_checkpoint(str(path), tiny_params, tiny_model_cfg, tiny_vocab, step=2)
    assert len(calls) == 3
    assert sorted(os.listdir(tmp_path)) == (["model.ckpt"] if existing else [])
    if existing:
        assert path.read_bytes() == before


def test_checkpoint_garbage_and_missing_files(tmp_path):
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(b"not a zip at all")
    with pytest.raises(SchemaError):
        M.load_checkpoint(str(garbage))
    with pytest.raises(OSError):
        M.load_checkpoint(str(tmp_path / "absent.ckpt"))


def test_checkpoint_version_gate(tmp_path, tiny_params, tiny_model_cfg,
                                 tiny_vocab):
    import json as _json
    src = str(tmp_path / "good.ckpt")
    M.save_checkpoint(src, tiny_params, tiny_model_cfg, tiny_vocab)
    with zipfile.ZipFile(src) as zf:
        meta = _json.loads(zf.read("meta.json"))
    meta["version"] = "2"
    bad = str(tmp_path / "bad.ckpt")
    _tampered_copy(src, bad, replace=("meta.json", _json.dumps(meta).encode()))
    with pytest.raises(SchemaError, match="version"):
        M.load_checkpoint(bad)


@pytest.mark.parametrize("key, value", [
    *((key, value) for key in ("step", "seed") for value in (True, 2.7, "3")),
    ("vocab_sha256", 123), ("vocab_sha256", None)])
def test_checkpoint_mistyped_metadata_rejected(tmp_path, tiny_params, tiny_model_cfg,
                                               tiny_vocab, key, value):
    import json as _json
    src = str(tmp_path / "good.ckpt")
    M.save_checkpoint(src, tiny_params, tiny_model_cfg, tiny_vocab, step=4, seed=5)
    with zipfile.ZipFile(src) as zf:
        meta = _json.loads(zf.read("meta.json"))
    meta[key] = value
    bad = str(tmp_path / "bad.ckpt")
    _tampered_copy(src, bad, replace=("meta.json", _json.dumps(meta).encode()))
    with pytest.raises(SchemaError, match=rf"bad\.ckpt: bad checkpoint metadata \({key} "):
        M.load_checkpoint(bad)


def _wide_checkpoint(tmp_path, tiny_vocab, vocab_size):
    """A checkpoint whose tok_emb and out.w entries span several read chunks."""
    cfg = small_model_cfg(vocab_size)
    path = tmp_path / "wide.ckpt"
    M.save_checkpoint(str(path), M.Parameters.init(cfg, seed=2), cfg, tiny_vocab)
    return path


def _deflated_copy(src, dst):
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for item in zin.infolist():
            data = zin.read(item.filename)
            item.compress_type = zipfile.ZIP_DEFLATED
            zout.writestr(item, data)


@pytest.mark.parametrize("deflate", [False, True], ids=["stored", "deflated"])
def test_checkpoint_tensors_equal_whole_entry_reads(tmp_path, tiny_vocab, deflate):
    # 5003 x 16 = 80048 values: one full read chunk and a partial one
    path = str(_wide_checkpoint(tmp_path, tiny_vocab, 5003))
    if deflate:
        _deflated_copy(path, str(tmp_path / "deflated.ckpt"))
        path = str(tmp_path / "deflated.ckpt")
    ckpt = M.load_checkpoint(path)
    with zipfile.ZipFile(path) as zf:
        for name, t in ckpt.params.items():
            want = np.load(io.BytesIO(zf.read(f"tensors/{name}.npy"))).astype(np.float64)
            assert t.data.dtype == np.float64 and t.data.shape == want.shape
            assert t.data.tobytes() == want.tobytes()


def test_checkpoint_load_holds_no_copy_of_an_entry(tmp_path, tiny_vocab):
    import tracemalloc
    # tok_emb and out.w are 4 MB entries each, 8 MB once in float64
    path = _wide_checkpoint(tmp_path, tiny_vocab, 1 << 16)
    M.load_checkpoint(str(path))  # warm caches outside the measurement
    tracemalloc.start()
    try:
        ckpt = M.load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tensors = sum(t.data.nbytes for _, t in ckpt.params.items())
    assert peak - tensors < 2 << 20, (peak, tensors)


def test_checkpoint_save_holds_one_copy_of_an_entry(tmp_path, tiny_vocab):
    import tracemalloc
    # tok_emb and out.w are 4 MB float32 entries, far above every other one
    cfg = small_model_cfg(1 << 16)
    params = M.Parameters.init(cfg, seed=2)
    path = str(tmp_path / "model.ckpt")
    M.save_checkpoint(path, params, cfg, tiny_vocab)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        M.save_checkpoint(path, params, cfg, tiny_vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    largest = max(t.data.size for _, t in params.items()) * 4
    # the float32 copy of one entry, not a second copy of it on the way out
    assert peak < 1.5 * largest, (peak, largest)


def test_checkpoint_corrupt_entry_with_a_nan_reads_as_corrupt(tmp_path, tiny_vocab):
    path = _wide_checkpoint(tmp_path, tiny_vocab, 5003)
    # the entry spans two read chunks, so the NaN is read before the CRC is checked
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("tensors/tok_emb.npy")
    payload_at = info.file_size - 4 * 5003 * 16
    raw = bytearray(path.read_bytes())
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    first = info.header_offset + 30 + name_len + extra_len + payload_at
    # the first value becomes a NaN, and the entry no longer matches its CRC
    raw[first:first + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(SchemaError, match=r"tensor tok_emb is missing or corrupt"):
        M.load_checkpoint(str(path))


@pytest.mark.parametrize("cut", [1, 4, "payload"])
def test_checkpoint_truncated_payload_rejected(tmp_path, tiny_params, tiny_model_cfg,
                                               tiny_vocab, cut):
    src = str(tmp_path / "good.ckpt")
    M.save_checkpoint(src, tiny_params, tiny_model_cfg, tiny_vocab)
    arr = tiny_params["sel.w1"].data.astype("<f4")
    entry = _npy_bytes(arr)
    entry = entry[:-(arr.nbytes if cut == "payload" else cut)]
    bad = str(tmp_path / "bad.ckpt")
    _tampered_copy(src, bad, replace=("tensors/sel.w1.npy", entry))
    with pytest.raises(SchemaError, match=r"bad\.ckpt: tensor sel\.w1 is missing or corrupt"):
        M.load_checkpoint(bad)


@pytest.mark.parametrize("was, now", [(b"'<f4'", b"'<f8'"), (b"(5003,", b"(5004,")],
                         ids=["dtype", "shape"])
def test_checkpoint_damaged_entry_header_reads_as_corrupt(tmp_path, tiny_vocab, was, now):
    path = _wide_checkpoint(tmp_path, tiny_vocab, 5003)
    # one header byte changed in place: the entry now fails its CRC, which
    # must be reported rather than the dtype or shape the damaged header claims
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("tensors/tok_emb.npy")
        entry = zf.read(info.filename)
    head = entry[:entry.index(b"\n") + 1]
    assert head.count(was) == 1
    raw = bytearray(path.read_bytes())
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    at = info.header_offset + 30 + name_len + extra_len + head.index(was)
    raw[at:at + len(was)] = now
    path.write_bytes(bytes(raw))
    with pytest.raises(SchemaError, match=r"tensor tok_emb is missing or corrupt"):
        M.load_checkpoint(str(path))

"""Acceptance gates for the whole workbench, one test per criterion.

Each test prints a single [criterion N] PASS/FAIL line before asserting, so
the run log doubles as a checklist.
"""
import json
import pathlib
import time

import numpy as np
import pytest

import synth
from conftest import rng_scorer, small_model_cfg
from oracles import (best_decode_oracle, bleu4_oracle, central_difference,
                     meteor_lite_oracle, rouge_l_oracle)

from jointqg import autodiff as ad
from jointqg import decoding as D
from jointqg import harness as H
from jointqg import metrics as MX
from jointqg import model as M
from jointqg import training as T
from jointqg.embedding import BackendSpec, BagMeanBackend, create_backend
from jointqg.labeler import label_examples, make_relevance_labels, question_type_of
from jointqg.tokenizer import N_SPECIALS, Vocabulary, assemble_model_input

DATA = pathlib.Path(__file__).parent / "data" / "squad_tiny.json"

SMALL_MODEL = {"d_model": 16, "encoder_layers": 1, "decoder_layers": 1,
               "attention_heads": 2, "feedforward_dim": 32,
               "selector_hidden": 8, "max_len": 128}


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def _grad_arrays(params):
    return {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
            for name, t in params.items()}


def _tiny_joint_batch(n_examples, vocab_cap=None, **model_kw):
    examples = synth.memorization_examples()[:n_examples]
    vocab = Vocabulary.build(examples, vocab_cap, 1) if vocab_cap \
        else Vocabulary.build(examples)
    cfg = small_model_cfg(len(vocab), max_len=32, **model_kw)
    labels = label_examples(examples, BagMeanBackend(dim=16, seed=0), k=1)
    qtypes = [question_type_of(ex.document.question) for ex in examples]
    prepared, dropped = T.prepare_examples(
        examples, labels, qtypes, vocab, cfg,
        T.TrainConfig(k=1, max_question_len=8, batch_size=len(examples)))
    assert dropped == 0
    return prepared, cfg


def test_criterion_01_loss_composition():
    started = time.monotonic()
    center = T.joint_loss(2.0, 4.0, 0.5)
    rng = np.random.default_rng(1)
    endpoints = True
    for _ in range(100):
        s, g = float(rng.uniform(0.0, 6.0)), float(rng.uniform(0.0, 6.0))
        endpoints &= T.joint_loss(s, g, 0.0) == g
        endpoints &= T.joint_loss(s, g, 1.0) == s

    batch, cfg = _tiny_joint_batch(2)
    params = M.Parameters.init(cfg, seed=3)

    def grads_of(part):
        params.zero_grad()
        total, sel_l, gen_l = T._batch_losses(batch, params, cfg, "joint", 0.5)
        ad.backward({"total": total, "sel": sel_l, "gen": gen_l}[part])
        return _grad_arrays(params)

    g_sel, g_gen, g_joint = grads_of("sel"), grads_of("gen"), grads_of("total")
    worst = 0.0
    for name, gj in g_joint.items():
        want = 0.5 * g_sel[name] + 0.5 * g_gen[name]
        rel = np.linalg.norm(gj - want) / max(np.linalg.norm(want), 1e-12)
        worst = max(worst, rel)

    elapsed = time.monotonic() - started
    ok = center == 3.0 and endpoints and worst < 1e-6 and elapsed < 1.0
    verdict(1, ok, f"joint(2,4,l=.5)={center}, endpoint reductions bit-exact, "
                   f"gradient composition rel err {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_02_finite_difference_gradients():
    started = time.monotonic()
    prepared, cfg = _tiny_joint_batch(6, vocab_cap=20 - N_SPECIALS, d_model=8,
                                      feedforward_dim=16)
    assert cfg.vocab_size == 20
    batch = prepared[:2]
    params = M.Parameters.init(cfg, seed=7)

    def loss_value():
        with ad.no_grad():
            total, _, _ = T._batch_losses(batch, params, cfg, "joint", 0.5)
        return float(total.data)

    params.zero_grad()
    total, _, _ = T._batch_losses(batch, params, cfg, "joint", 0.5)
    ad.backward(total)
    analytic = _grad_arrays(params)

    worst_name, worst = "", 0.0
    n_scalars = 0
    for name, t in params.items():
        # h=1e-5 keeps O(h^2) truncation below the gate on the smallest
        # gradient tensors without hitting roundoff
        fd = central_difference(loss_value, t.data, h=1e-5)
        n_scalars += t.data.size
        den = max(np.linalg.norm(analytic[name]), np.linalg.norm(fd), 1e-12)
        rel = np.linalg.norm(analytic[name] - fd) / den
        if rel > worst:
            worst_name, worst = name, rel

    elapsed = time.monotonic() - started
    ok = worst < 1e-3 and elapsed < 120.0
    verdict(2, ok, f"{n_scalars} scalars over {len(analytic)} tensors, worst "
                   f"rel err {worst:.2e} at {worst_name}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_memorization(memorization_run):
    bleu = memorization_run["report"].bleu4
    loss = memorization_run["final_gen_loss"]
    epochs = memorization_run["train_cfg"].epochs
    elapsed = memorization_run["elapsed"]
    ok = bleu >= 0.9 and loss < 0.1 and epochs <= 500 and elapsed < 600.0
    verdict(3, ok, f"train-set BLEU-4 {bleu:.3f}, final generation loss "
                   f"{loss:.4f} after {epochs} epochs in {elapsed:.1f}s")
    assert ok


def test_criterion_04_metric_oracles():
    pool = ("the cat cats sat sitting mat walked walking quickly "
            "dog ran runs").split()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        cand = list(rng.choice(pool, size=int(rng.integers(1, 9))))
        ref = list(rng.choice(pool, size=int(rng.integers(1, 9))))
        worst = max(
            worst,
            abs(MX.bleu4([cand], [ref]) - bleu4_oracle([cand], [ref])),
            abs(MX.rouge_l(cand, ref) - rouge_l_oracle(cand, ref)),
            abs(MX.meteor_lite(cand, ref) - meteor_lite_oracle(cand, ref)))

    six = "the cat sat on a mat".split()
    closed = (MX.bleu4([six], [six]) == 1.0
              and MX.rouge_l(six, six) == 1.0
              and abs(MX.meteor_lite(six, six) - (1 - 0.5 / 6 ** 3)) <= 1e-12)
    pinned = abs(MX.rouge_l("a b c".split(), "a x c".split()) - 2 / 3)

    ok = worst <= 1e-9 and closed and pinned <= 1e-9
    verdict(4, ok, f"200 random pairs max |impl - oracle| {worst:.2e}, "
                   f"identity closed forms hold, one-substitution F {pinned + 2/3:.6f}")
    assert ok


def test_criterion_05_labeler_highlighted_sentences(ibm_example, data_dir):
    ex = ibm_example
    texts = ex.sentence_texts()
    renamed = next(i for i, s in enumerate(texts) if "renamed" in s)
    follow_on = next(i for i, s in enumerate(texts) if "initialism" in s)
    required = sorted([renamed, follow_on])
    # The follow-on sentence shares no token with the answer, so the lexical
    # bag_mean proxy ranks it only by chance; the committed vector table
    # carries the fact that "IBM" names the answer.
    table = create_backend(BackendSpec(kind="precomputed_file",
                                       source=str(data_dir / "vectors_ibm.tsv")))
    rl = make_relevance_labels(ex, table, k=2)
    got = sorted(i for i, v in enumerate(rl.labels) if v == 1)
    part_a = got == required

    rng = np.random.default_rng(9)
    pool = ("mill river stone copper valley trader wagon bridge "
            "lantern meadow archive column").split()
    backend = BagMeanBackend(dim=16, seed=1)
    holds = 0
    for i in range(1000):
        n_sent = int(rng.integers(1, 7))
        sents = [" ".join(rng.choice(pool, size=int(rng.integers(3, 9)))) + "."
                 for _ in range(n_sent)]
        words = sents[int(rng.integers(0, n_sent))].rstrip(".").split()
        answer = words[int(rng.integers(0, len(words)))]
        inst = synth.make_example(f"r{i}", " ".join(sents),
                                  "What stands by the river?", answer)
        k = int(rng.integers(1, 7))
        out = make_relevance_labels(inst, backend, k)
        holds += (sum(out.labels) == min(k, len(inst.sentences)) and out.k == k)
    part_b = holds == 1000

    ok = part_a and part_b
    verdict(5, ok, f"top-2 vector-table labels {got} vs required {required}; "
                   f"sum(labels)==min(k,n) held on {holds}/1000 random instances")
    assert ok, (f"vector-table ranking labels {got}, not the required "
                f"{required}; sum(labels)==min(k,n) held on {holds}/1000")


def _rigged_scorer():
    """Three legal moves per step (two words, ids 1 and 4, plus end id 3);
    the step-one favorite leads into a low-probability region."""
    table = {
        (): {1: 0.45, 4: 0.40, 3: 0.14},
        (1,): {1: 0.39, 4: 0.39, 3: 0.21},
        (4,): {1: 0.04, 4: 0.05, 3: 0.90},
        (1, 1): {1: 0.30, 4: 0.19, 3: 0.50},
    }
    default = {1: 0.33, 4: 0.33, 3: 0.33}

    def scorer(prefix_ids):
        row = table.get(tuple(prefix_ids), default)
        probs = np.full(5, 0.005)
        for tok, p in row.items():
            probs[tok] = p
        return np.log(probs)

    return scorer


def test_criterion_06_decoding_equivalences():
    mismatches = 0
    for seed in range(100):
        scorer = rng_scorer(seed, vocab_size=5 + seed % 8)
        if D.greedy_decode(scorer, 8) != D.beam_search_decode(scorer, 1, 8, 0.0):
            mismatches += 1

    rigged = _rigged_scorer()
    enumerated = True
    for alpha in (0.0, 0.7, 1.0):
        want = best_decode_oracle(rigged, 5, 3, alpha)
        enumerated &= D.beam_search_decode(rigged, 27, 3, alpha) == want
    # the rig exists to separate the two searches
    trap = D.beam_search_decode(rigged, 27, 3, 0.0) != D.greedy_decode(rigged, 3)

    ok = mismatches == 0 and enumerated and trap
    verdict(6, ok, f"beam=1/alpha=0 matched greedy on {100 - mismatches}/100 "
                   f"random inputs; wide beam matched exhaustive enumeration "
                   f"on the rigged model for alpha in (0, 0.7, 1.0)")
    assert ok


def test_criterion_07_selector_capability(selector_run):
    f1 = selector_run["result"].selector_f1
    ok = f1 is not None and f1 >= 0.95
    verdict(7, ok, f"stage-1 selector F1 {f1:.3f} on linearly separable "
                   f"sentence vectors (threshold 0.95)")
    assert ok


def _study_config(tmp_path, data, **train_kw):
    train = {"epochs": 1, "batch_size": 8, "max_question_len": 10}
    train.update(train_kw)
    return H.ExperimentConfig(
        train_data=str(data), out_dir=str(tmp_path / "out"), seed=0, k=2,
        backend={"kind": "bag_mean", "dim": 16, "seed": 0},
        model=dict(SMALL_MODEL), train=train,
        beam_size=1, max_decode_len=8, length_alpha=0.7)


def test_criterion_08_ablation_harness_shape(tmp_path):
    data = synth.write_squad_json(synth.sweep_examples(8), str(tmp_path / "sweep.json"))
    cfg = _study_config(tmp_path, data)

    rows, errors = H.sweep_top_k(cfg.with_overrides(out_dir=str(tmp_path / "sweep")),
                                 [1, 2, 3, 4, 5])
    sweep_ok = (not errors and [r["k"] for r in rows] == [1, 2, 3, 4, 5]
                and all(0.0 <= r[m] <= 1.0 for r in rows
                        for m in ("bleu4", "meteor_lite", "rouge_l")))

    cmp_rows = H.compare_modes(cfg.with_overrides(out_dir=str(tmp_path / "cmp")),
                               modes=("joint", "two_step"))
    cmp_ok = ([r["mode"] for r in cmp_rows] == ["joint", "two_step"]
              and all(np.isfinite(r["delta_bleu4"]) for r in cmp_rows))

    aux_report, aux_dir = H.run_pipeline(
        cfg.with_overrides(mode="aux_qtc", out_dir=str(tmp_path / "aux")))
    aux_ok = (0.0 <= aux_report.bleu4 <= 1.0
              and (pathlib.Path(aux_dir) / "report.json").is_file())

    ok = sweep_ok and cmp_ok and aux_ok
    verdict(8, ok, f"sweep rows for k=1..5: {len(rows)} with {len(errors)} errors; "
                   f"compare-modes rows {[r['mode'] for r in cmp_rows]}; "
                   f"aux_qtc pipeline completed end-to-end")
    assert ok


def test_criterion_09_determinism(tmp_path):
    cfg = _study_config(tmp_path, DATA, batch_size=5)
    _, dir_a = H.run_pipeline(cfg)
    _, dir_b = H.run_pipeline(cfg)
    dir_a, dir_b = pathlib.Path(dir_a), pathlib.Path(dir_b)

    def log_minus_time(d):
        records = []
        for line in (d / "train_log.jsonl").read_text().splitlines():
            rec = json.loads(line)
            rec.pop("seconds")
            records.append(rec)
        return records

    same_log = log_minus_time(dir_a) == log_minus_time(dir_b)
    same_preds = ((dir_a / "predictions.jsonl").read_bytes()
                  == (dir_b / "predictions.jsonl").read_bytes())
    same_report = ((dir_a / "report.json").read_bytes()
                   == (dir_b / "report.json").read_bytes())
    same_ckpt = ((dir_a / "model.ckpt").read_bytes()
                 == (dir_b / "model.ckpt").read_bytes())

    ok = same_log and same_preds and same_report and same_ckpt
    verdict(9, ok, f"rerun with identical config and seed: train log "
                   f"{'==' if same_log else '!='}, predictions "
                   f"{'==' if same_preds else '!='}, report "
                   f"{'==' if same_report else '!='}, checkpoint "
                   f"{'==' if same_ckpt else '!='} (timing fields excluded)")
    assert ok


def test_criterion_10_pad_invariance_and_normalization(tiny_examples, tiny_vocab):
    cfg = small_model_cfg(len(tiny_vocab), max_len=128)
    params = M.Parameters.init(cfg, seed=11)

    worst_pad = 0.0
    for ex in tiny_examples:
        mi = assemble_model_input(ex, tiny_vocab, cfg.max_len)
        ids = np.asarray(mi.token_ids, dtype=np.int64)[None, :]
        nonpad = np.ones_like(ids)
        padded_ids = np.concatenate([ids, np.zeros((1, 8), np.int64)], axis=1)
        padded_np = np.concatenate([nonpad, np.zeros((1, 8), np.int64)], axis=1)
        with ad.no_grad():
            base = M.encoder_states(ids, nonpad, params, cfg).data[0]
            padded = M.encoder_states(padded_ids, padded_np, params, cfg).data[0]
        worst_pad = max(worst_pad, float(np.abs(padded[:ids.shape[1]] - base).max()))

    worst_sum = 0.0
    probs_open = True
    for ex in tiny_examples:
        mi = assemble_model_input(ex, tiny_vocab, cfg.max_len)
        enc = M.encoder_forward(mi, params, cfg)
        prefix: list[int] = []
        for _ in range(5):
            dist = M.decoder_step(enc, prefix, params, cfg)
            worst_sum = max(worst_sum, abs(float(dist.sum()) - 1.0))
            prefix.append(int(dist.argmax()))
        sel = M.selector_forward(enc.sentence_vectors, params)
        probs_open &= bool(np.all(sel > 0.0) and np.all(sel < 1.0))

    rng = np.random.default_rng(0)
    for scale in (1.0, 1e3, 1e6):  # drive the head deep into saturation
        sel = M.selector_forward(rng.normal(size=(6, cfg.d_model)) * scale, params)
        probs_open &= bool(np.all(sel > 0.0) and np.all(sel < 1.0))

    ok = worst_pad <= 1e-5 and worst_sum <= 1e-6 and probs_open
    verdict(10, ok, f"pad perturbation max {worst_pad:.2e}, decoder row sum "
                    f"drift max {worst_sum:.2e}, selector probabilities all "
                    f"inside the open interval")
    assert ok

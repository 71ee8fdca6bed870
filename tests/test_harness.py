"""End-to-end pipeline, batch studies, and the command line built on them.

Runs here use a deliberately tiny model so every stage finishes in seconds.
Assertions target the artifact contracts: what lands on disk, how it reads
back, and how failures surface. Model quality is covered elsewhere.
"""
import argparse
import csv
import hashlib
import json
import pathlib
import re
import zipfile

import pytest

from jointqg import harness as H
from jointqg import model as M
from jointqg.cli import build_parser, main as cli_main
from jointqg.corpus import load_squad_json, read_corpus_jsonl
from jointqg.decoding import read_predictions_jsonl
from jointqg.embedding import BACKEND_KINDS, BackendSpec, create_backend
from jointqg.errors import SchemaError, StageError
from jointqg.labeler import label_examples, read_labels_jsonl, write_labels_jsonl
from jointqg.tokenizer import Vocabulary
from jointqg.training import TRAIN_MODES

import synth

SMALL_MODEL = {"d_model": 16, "encoder_layers": 1, "decoder_layers": 1,
               "attention_heads": 2, "feedforward_dim": 32,
               "selector_hidden": 8, "max_len": 128}

ARTIFACTS = ["corpus.jsonl", "vocab.txt", "labels.jsonl", "train_log.jsonl",
             "model.ckpt", "predictions.jsonl", "report.json"]


def make_cfg(out_dir, data_path, epochs=1, **train_kw):
    train = {"epochs": epochs, "batch_size": 5, "max_question_len": 12}
    train.update(train_kw)
    return H.ExperimentConfig(
        train_data=str(data_path), out_dir=str(out_dir), seed=0, k=2,
        backend={"kind": "bag_mean", "dim": 16, "seed": 0},
        model=dict(SMALL_MODEL), train=train,
        beam_size=1, max_decode_len=8, length_alpha=0.7)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    data = pathlib.Path(__file__).parent / "data" / "squad_tiny.json"
    cfg = make_cfg(out, data)
    report, run_dir = H.run_pipeline(cfg)
    return {"cfg": cfg, "report": report, "run_dir": pathlib.Path(run_dir),
            "out": out, "data": data}


# ---------------------------------------------------------------- artifacts

def test_pipeline_writes_every_artifact(pipeline_run):
    run_dir = pipeline_run["run_dir"]
    for name in ARTIFACTS:
        assert (run_dir / name).is_file(), name
    # joint mode trains one parameter set; no separate selector checkpoint
    assert not (run_dir / "selector.ckpt").exists()


@pytest.mark.parametrize("backend", [
    {"kind": "bag_mean", "dim": 16, "seed": 0},
    {"kind": "precomputed_file",
     "source": str(pathlib.Path(__file__).parent / "data" / "vectors_ibm.tsv")},
], ids=["bag_mean", "precomputed_file"])
def test_label_stage_draws_no_model_parameters(tmp_path, monkeypatch, backend):
    # two_step draws its two trained parameter sets and nothing for labelling
    data = pathlib.Path(__file__).parent / "data" / "squad_tiny.json"
    cfg = make_cfg(tmp_path / "runs", data, mode="two_step")
    cfg.backend = BackendSpec(**backend)
    real_init = M.Parameters.init.__func__
    calls = []

    def counting_init(cls, *args, **kw):
        calls.append(kw.get("seed"))
        return real_init(cls, *args, **kw)

    monkeypatch.setattr(M.Parameters, "init", classmethod(counting_init))
    _, run_dir = H.run_pipeline(cfg)
    monkeypatch.undo()
    assert len(calls) == 2

    # the labels are those of the same backend built by hand
    examples = load_squad_json(str(data))
    want = tmp_path / "labels.jsonl"
    write_labels_jsonl(examples, label_examples(examples, create_backend(cfg.backend), cfg.k),
                       str(want))
    assert (pathlib.Path(run_dir) / "labels.jsonl").read_bytes() == want.read_bytes()


def test_run_dir_name_carries_config_hash(pipeline_run):
    name = pipeline_run["run_dir"].name
    assert name.startswith("run-")
    assert pipeline_run["cfg"].config_hash() in name


def test_corpus_artifact_round_trips(pipeline_run):
    examples = read_corpus_jsonl(str(pipeline_run["run_dir"] / "corpus.jsonl"))
    source = load_squad_json(pipeline_run["cfg"].train_data)
    assert [e.document.id for e in examples] == [e.document.id for e in source]
    assert len(examples) == 5


def test_vocab_artifact_loads(pipeline_run):
    vocab = Vocabulary.load(str(pipeline_run["run_dir"] / "vocab.txt"))
    assert len(vocab) >= 7


def test_labels_artifact_obeys_k(pipeline_run):
    records = read_labels_jsonl(str(pipeline_run["run_dir"] / "labels.jsonl"))
    examples = load_squad_json(pipeline_run["cfg"].train_data)
    assert set(records) == {e.document.id for e in examples}
    for ex in examples:
        rl = records[ex.document.id]["labels"]
        assert rl.k == 2
        assert sum(rl.labels) == min(2, len(ex.sentences))


def test_train_log_is_json_per_line(pipeline_run):
    lines = (pipeline_run["run_dir"] / "train_log.jsonl").read_text().splitlines()
    records = [json.loads(ln) for ln in lines]
    assert len(records) == 1  # one epoch
    rec = records[0]
    assert set(rec) >= {"epoch", "mode", "loss_total", "loss_sel",
                        "loss_gen", "lr", "seconds"}
    assert rec["mode"] == "joint"
    assert rec["loss_total"] > 0.0


def test_checkpoint_artifact_loads(pipeline_run):
    run_dir = pipeline_run["run_dir"]
    vocab = Vocabulary.load(str(run_dir / "vocab.txt"))
    ckpt = M.load_checkpoint(str(run_dir / "model.ckpt"), expected_vocab=vocab)
    assert ckpt.config.d_model == 16
    assert ckpt.config.vocab_size == len(vocab)
    assert ckpt.step == 1  # 5 examples, batch 5, 1 epoch


def test_predictions_artifact_fields(pipeline_run):
    records = read_predictions_jsonl(str(pipeline_run["run_dir"] / "predictions.jsonl"))
    examples = load_squad_json(pipeline_run["cfg"].train_data)
    assert [r["id"] for r in records] == [e.document.id for e in examples]
    for rec, ex in zip(records, examples):
        assert rec["beam_size"] == 1
        assert isinstance(rec["prediction"], str)
        assert rec["gold"] == ex.document.question
        assert rec["score"] <= 0.0  # length-normalized log probability


def test_report_embeds_run_provenance(pipeline_run):
    cfg = pipeline_run["cfg"]
    payload = json.loads((pipeline_run["run_dir"] / "report.json").read_text())
    assert payload["config_hash"] == cfg.config_hash()
    assert payload["config"] == cfg.resolved()
    assert payload["data_sha256"] == hashlib.sha256(
        pathlib.Path(cfg.train_data).read_bytes()).hexdigest()
    vocab = Vocabulary.load(str(pipeline_run["run_dir"] / "vocab.txt"))
    assert payload["vocab_size"] == len(vocab)
    assert payload["n_examples"] == 5
    assert payload["selector_f1"] is None  # joint mode trains no separate selector
    assert payload["train_dropped"] == 0
    assert payload["bleu4"] == pipeline_run["report"].bleu4
    assert len(payload["per_example"]) == 5


def test_report_metrics_bounded(pipeline_run):
    rep = pipeline_run["report"]
    for value in (rep.bleu4, rep.rouge_l, rep.meteor_lite):
        assert 0.0 <= value <= 1.0


# ------------------------------------------------------------ repeatability

def test_rerun_is_byte_identical(pipeline_run):
    report2, run_dir2 = H.run_pipeline(pipeline_run["cfg"])
    first, second = pipeline_run["run_dir"], pathlib.Path(run_dir2)
    assert second != first
    for name in ("model.ckpt", "predictions.jsonl", "report.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    # wall-clock timing is the one legitimately varying field
    def log_minus_seconds(d):
        out = []
        for ln in (d / "train_log.jsonl").read_text().splitlines():
            rec = json.loads(ln)
            rec.pop("seconds")
            out.append(rec)
        return out
    assert log_minus_seconds(first) == log_minus_seconds(second)
    assert report2.bleu4 == pipeline_run["report"].bleu4


# ------------------------------------------------------------- other modes

@pytest.fixture(scope="module")
def two_step_run(tmp_path_factory, pipeline_run):
    cfg = make_cfg(tmp_path_factory.mktemp("two_step"), pipeline_run["data"],
                   mode="two_step")
    _, run_dir = H.run_pipeline(cfg)
    return cfg, pathlib.Path(run_dir)


def test_two_step_writes_selector_checkpoint(two_step_run):
    _, run_dir = two_step_run
    assert (run_dir / "selector.ckpt").is_file()
    vocab = Vocabulary.load(str(run_dir / "vocab.txt"))
    sel = M.load_checkpoint(str(run_dir / "selector.ckpt"), expected_vocab=vocab)
    assert sel.config.d_model == 16
    modes = [json.loads(ln)["mode"]
             for ln in (run_dir / "train_log.jsonl").read_text().splitlines()]
    assert modes == ["two_step:stage1", "two_step:stage2"]
    payload = json.loads((run_dir / "report.json").read_text())
    assert 0.0 <= payload["selector_f1"] <= 1.0


def test_two_step_selector_checkpoint_holds_only_the_selector(two_step_run):
    _, run_dir = two_step_run
    vocab = Vocabulary.load(str(run_dir / "vocab.txt"))
    sel = M.load_checkpoint(str(run_dir / "selector.ckpt"), expected_vocab=vocab)
    shapes = M.selector_shapes(sel.config)
    with zipfile.ZipFile(run_dir / "selector.ckpt") as zf:
        assert sorted(zf.namelist()) == sorted(["meta.json",
                                                *(f"tensors/{n}.npy" for n in shapes)])
    assert {n: t.data.shape for n, t in sel.params.items()} == shapes


def test_cli_generate_reproduces_two_step_predictions(tmp_path, two_step_run):
    # the CLI must decode the contexts the run's selector kept, exactly as
    # the pipeline's generate stage did
    cfg, run_dir = two_step_run
    vocab = Vocabulary.load(str(run_dir / "vocab.txt"))
    sel = M.load_checkpoint(str(run_dir / "selector.ckpt"), expected_vocab=vocab)
    assert sel.selector_k == cfg.k
    out = tmp_path / "preds.jsonl"
    assert cli_main(["generate", str(run_dir / "model.ckpt"),
                     "--data", str(run_dir / "corpus.jsonl"),
                     "--vocab", str(run_dir / "vocab.txt"),
                     "--out", str(out), "--beam", str(cfg.beam_size),
                     "--max-len", str(cfg.max_decode_len),
                     "--alpha", str(cfg.length_alpha)]) == 0
    assert out.read_bytes() == (run_dir / "predictions.jsonl").read_bytes()


def test_cli_evaluate_reproduces_two_step_report(tmp_path, two_step_run, capsys):
    _, run_dir = two_step_run
    out = tmp_path / "report.json"
    assert cli_main(["evaluate", str(run_dir / "predictions.jsonl"),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    got = json.loads(out.read_text())
    want = json.loads((run_dir / "report.json").read_text())
    for key in ("bleu4", "rouge_l", "meteor_lite", "n_examples", "per_example"):
        assert got[key] == want[key], key


def test_cli_evaluate_rejects_record_missing_a_key(tmp_path, capsys):
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps({"id": "a", "prediction": "x", "gold": "y",
                                "beam_size": 1, "score": -1.0}) + "\n"
                    + json.dumps({"id": "b", "prediction": "x", "beam_size": 1,
                                  "score": -1.0}) + "\n")
    assert cli_main(["evaluate", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert re.search(r"preds.jsonl:2: .*'gold'", capsys.readouterr().err)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("selector_k", [None, 0])
def test_cli_generate_rejects_selector_without_k(tmp_path, pipeline_run, capsys,
                                                  selector_k):
    cfg = make_cfg(tmp_path / "runs", pipeline_run["data"], epochs=0,
                   mode="two_step")
    _, run_dir = H.run_pipeline(cfg)
    run_dir = pathlib.Path(run_dir)
    vocab = Vocabulary.load(str(run_dir / "vocab.txt"))
    sel = M.load_checkpoint(str(run_dir / "selector.ckpt"), expected_vocab=vocab)
    M.save_checkpoint(str(run_dir / "selector.ckpt"), sel.params, sel.config, vocab,
                      selector_k=selector_k)
    assert cli_main(["generate", str(run_dir / "model.ckpt"),
                     "--data", str(run_dir / "corpus.jsonl"),
                     "--vocab", str(run_dir / "vocab.txt"),
                     "--out", str(tmp_path / "preds.jsonl")]) == 2
    assert re.search("selector.ckpt", capsys.readouterr().err)
    assert not (tmp_path / "preds.jsonl").exists()


def test_separate_eval_data(tmp_path):
    train = synth.write_squad_json(synth.memorization_examples()[:4],
                                   str(tmp_path / "train.json"))
    eval_ = synth.write_squad_json(synth.sweep_examples(2),
                                   str(tmp_path / "eval.json"))
    cfg = make_cfg(tmp_path / "out", train, epochs=0)
    cfg.eval_data = eval_
    report, run_dir = H.run_pipeline(cfg)
    records = read_predictions_jsonl(str(pathlib.Path(run_dir) / "predictions.jsonl"))
    eval_ids = [e.document.id for e in load_squad_json(eval_)]
    assert [r["id"] for r in records] == eval_ids
    payload = json.loads((pathlib.Path(run_dir) / "report.json").read_text())
    h1 = hashlib.sha256(pathlib.Path(train).read_bytes()).hexdigest()
    h2 = hashlib.sha256(pathlib.Path(eval_).read_bytes()).hexdigest()
    assert payload["data_sha256"] == f"{h1}:{h2}"


def test_report_counts_training_examples_left_out(tmp_path):
    # at max_len 16 the long answer alone needs 18 positions
    long_answer = "a very long mineral vein sample row set of grey stone over many hot days"
    long_one = synth.make_example("drop-1", f"Teams measured {long_answer}. Values ran high.",
                                  "What did teams measure?", long_answer)
    kept = synth.memorization_examples()[:3]
    train = synth.write_squad_json(kept + [long_one], str(tmp_path / "train.json"))
    cfg = make_cfg(tmp_path / "out", train, epochs=0)
    cfg.eval_data = synth.write_squad_json(kept, str(tmp_path / "eval.json"))
    cfg.model["max_len"] = 16
    _, run_dir = H.run_pipeline(cfg)
    payload = json.loads((pathlib.Path(run_dir) / "report.json").read_text())
    assert payload["train_dropped"] == 1


# ----------------------------------------------------------------- failure

def test_missing_input_fails_in_prepare_stage(tmp_path):
    cfg = make_cfg(tmp_path, tmp_path / "nope.json")
    with pytest.raises(StageError, match="prepare") as exc:
        H.run_pipeline(cfg)
    assert exc.value.stage == "prepare"


def test_bad_backend_fails_in_label_stage_keeping_partials(tmp_path, pipeline_run):
    cfg = make_cfg(tmp_path, pipeline_run["data"])
    cfg.backend = BackendSpec(kind="precomputed_file", source=str(tmp_path / "absent.tsv"))
    with pytest.raises(StageError) as exc:
        H.run_pipeline(cfg)
    assert exc.value.stage == "label"
    run_dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    # stages before the failure left their artifacts for inspection
    assert (run_dirs[0] / "corpus.jsonl").is_file()
    assert (run_dirs[0] / "vocab.txt").is_file()
    assert not (run_dirs[0] / "labels.jsonl").exists()


def test_bogus_backend_refused_before_any_run_dir(tmp_path, pipeline_run):
    cfg = make_cfg(tmp_path / "out", pipeline_run["data"])
    cfg.backend = BackendSpec(kind="bogus")
    with pytest.raises(ValueError, match="unknown embedding backend 'bogus'"):
        H.run_pipeline(cfg)
    assert not list(tmp_path.glob("out/run-*"))


@pytest.mark.parametrize("name,value", [
    ("beam_size", 0), ("max_decode_len", 0), ("length_alpha", float("nan")),
    ("length_alpha", float("inf")), ("length_alpha", -0.5),
    ("vocab_max_size", 0)])
def test_bad_decode_and_vocab_settings_refused_before_any_stage(tmp_path, pipeline_run,
                                                                name, value):
    cfg = make_cfg(tmp_path / "out", pipeline_run["data"])
    setattr(cfg, name, value)  # assigned after construction, still caught
    with pytest.raises(ValueError):  # a StageError is not a ValueError
        H.run_pipeline(cfg)
    assert not list(tmp_path.glob("out/run-*"))


@pytest.mark.parametrize("model_kw, decode_len, train_kw", [
    ({"d_model": 10, "attention_heads": 4}, 8, {}),
    ({"attention_heads": 0}, 8, {}),
    ({}, 200, {}),  # SMALL_MODEL's max_len is 128
    ({"max_len": 10}, 8, {"mode": "generation_only", "max_question_len": 200})],
    ids=["d_model_not_a_multiple_of_heads", "zero_heads", "decode_past_max_len",
         "question_past_max_len"])
def test_bad_model_settings_and_lengths_refused_before_any_stage(
        tmp_path, pipeline_run, model_kw, decode_len, train_kw):
    cfg = make_cfg(tmp_path / "out", pipeline_run["data"], **train_kw)
    cfg.model.update(model_kw)
    cfg.max_decode_len = decode_len
    with pytest.raises(ValueError):  # a StageError is not a ValueError
        H.run_pipeline(cfg)
    assert not list(tmp_path.glob("out/run-*"))


def test_lengths_up_to_max_len_accepted(tmp_path, pipeline_run):
    cfg = make_cfg(tmp_path, pipeline_run["data"], max_question_len=10)
    cfg.model["max_len"] = cfg.max_decode_len = 10
    assert cfg.resolved()["model"]["max_len"] == 10


def test_stage_rewraps_failures_and_passes_stage_errors_through():
    with pytest.raises(StageError, match="'vocab'") as exc:
        with H._stage("vocab"):
            raise KeyError("boom")
    assert exc.value.stage == "vocab"
    assert isinstance(exc.value.__cause__, KeyError)
    inner = StageError("label", ValueError("bad"))
    with pytest.raises(StageError) as exc:
        with H._stage("train"):
            raise inner
    assert exc.value is inner


def test_runs_started_in_one_second_get_their_own_directories(tmp_path, monkeypatch,
                                                               pipeline_run):
    monkeypatch.setattr(H.time, "strftime", lambda fmt, *t: "20260101-000000")
    cfg = make_cfg(tmp_path, pipeline_run["data"], epochs=0)
    run_dirs = [pathlib.Path(H.run_pipeline(cfg)[1]) for _ in range(2)]
    name = f"run-20260101-000000-{cfg.config_hash()}"
    assert [d.name for d in run_dirs] == [name, f"{name}-2"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [name, f"{name}-2"]
    for run_dir in run_dirs:
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(ARTIFACTS)
    first, second = ((d / "predictions.jsonl").read_bytes() for d in run_dirs)
    assert first == second


# ------------------------------------------------------------ batch studies

def test_sweep_top_k_rows_and_csv(tmp_path, pipeline_run):
    cfg = make_cfg(tmp_path, pipeline_run["data"], epochs=0)
    rows, errors = H.sweep_top_k(cfg, [1, 3])
    assert errors == []
    assert [r["k"] for r in rows] == [1, 3]
    for row in rows:
        assert set(row) == {"k", "bleu4", "meteor_lite", "rouge_l"}
    assert (tmp_path / "k1").is_dir() and (tmp_path / "k3").is_dir()
    assert not (tmp_path / "sweep_k_errors.csv").exists()
    with open(tmp_path / "sweep_k.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert [int(r["k"]) for r in parsed] == [1, 3]
    assert [float(r["bleu4"]) for r in parsed] == [r["bleu4"] for r in rows]


def test_sweep_top_k_collects_errors(tmp_path, pipeline_run):
    cfg = make_cfg(tmp_path, pipeline_run["data"], epochs=0)
    rows, errors = H.sweep_top_k(cfg, [2, 0])
    assert [r["k"] for r in rows] == [2]
    assert len(errors) == 1
    assert errors[0]["k"] == 0
    # config validation fires before any stage starts, so no stage name
    assert errors[0]["stage"] == "unknown"
    assert "k must be positive" in errors[0]["error"]
    with open(tmp_path / "sweep_k_errors.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["stage"] == "unknown"


def test_sweep_rejects_empty_k_list(tmp_path, pipeline_run):
    cfg = make_cfg(tmp_path, pipeline_run["data"], epochs=0)
    with pytest.raises(ValueError, match="k_list"):
        H.sweep_top_k(cfg, [])


def test_compare_modes_zero_lambda_ties_generation_only(tmp_path, pipeline_run):
    cfg = make_cfg(tmp_path, pipeline_run["data"], lambda_weight=0.0)
    rows = H.compare_modes(cfg, modes=("joint", "generation_only"))
    assert [r["mode"] for r in rows] == ["joint", "generation_only"]
    # lambda 0 removes the selection term, so both runs take the same steps
    for metric in ("bleu4", "meteor_lite", "rouge_l"):
        assert rows[0][metric] == rows[1][metric]
        assert rows[0][f"delta_{metric}"] == 0.0
        assert rows[1][f"delta_{metric}"] == 0.0
    with open(tmp_path / "compare_modes.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert [r["mode"] for r in parsed] == ["joint", "generation_only"]
    assert (tmp_path / "mode-joint").is_dir()
    assert (tmp_path / "mode-generation_only").is_dir()


def test_compare_modes_needs_two_modes(tmp_path, pipeline_run):
    cfg = make_cfg(tmp_path, pipeline_run["data"])
    with pytest.raises(ValueError, match="two modes"):
        H.compare_modes(cfg, modes=("joint",))


def test_compare_modes_refuses_an_unknown_mode_before_any_run(tmp_path, pipeline_run):
    cfg = make_cfg(tmp_path / "cmp", pipeline_run["data"])
    with pytest.raises(ValueError, match="'bogus'"):
        H.compare_modes(cfg, modes=("joint", "bogus"))
    assert not (tmp_path / "cmp").exists()


# ------------------------------------------------------ experiment configs

def test_config_backend_dict_coerced():
    cfg = H.ExperimentConfig(train_data="a", out_dir="b",
                             backend={"kind": "bag_mean", "dim": 8})
    assert isinstance(cfg.backend, BackendSpec)
    assert cfg.backend.dim == 8


@pytest.mark.parametrize("field,payload", [
    ("model", {"hidden_size": 4}),
    ("model", {"vocab_size": 9}),  # derived from the corpus, never configured
    ("train", {"optimizer": "sgd"}),
    # seed and k are top-level only, so no stage can see a second value
    ("train", {"k": 2}),
    ("train", {"seed": 1}),
])
def test_config_rejects_unknown_fields(field, payload):
    with pytest.raises(ValueError, match="unknown"):
        H.ExperimentConfig(train_data="a", out_dir="b", **{field: payload})


def test_with_overrides_routes_training_knobs():
    cfg = H.ExperimentConfig(train_data="a", out_dir="b",
                             backend={"kind": "bag_mean", "dim": 8, "seed": 5})
    out = cfg.with_overrides(mode="two_step", lambda_weight=0.25, k=3,
                             backend="precomputed_file", seed=None)
    assert out.train == {"mode": "two_step", "lambda_weight": 0.25}
    assert out.k == 3
    assert out.backend.kind == "precomputed_file"
    assert out.backend.dim == 8 and out.backend.seed == 5
    assert out.seed == cfg.seed  # None means keep
    # the source config is untouched
    assert cfg.train == {} and cfg.k == 4 and cfg.backend.kind == "bag_mean"


def test_with_overrides_rejects_unknown_key():
    cfg = H.ExperimentConfig(train_data="a", out_dir="b")
    with pytest.raises(ValueError, match="unknown override"):
        cfg.with_overrides(bogus=1)


def test_config_hash_stable_and_sensitive():
    cfg1 = H.ExperimentConfig(train_data="a", out_dir="b")
    cfg2 = H.ExperimentConfig(train_data="a", out_dir="b")
    assert cfg1.config_hash() == cfg2.config_hash()
    assert len(cfg1.config_hash()) == 12
    int(cfg1.config_hash(), 16)
    assert cfg1.with_overrides(k=9).config_hash() != cfg1.config_hash()


def test_resolved_fills_every_default():
    cfg = H.ExperimentConfig(train_data="a", out_dir="b")
    full = cfg.resolved()
    assert "vocab_size" not in full["model"]
    assert full["model"]["d_model"] == 128
    assert full["train"]["learning_rate"] == 2e-4
    assert full["train"]["k"] == 4  # top-level k reaches the train config
    assert full["backend"] == {"kind": "bag_mean", "dim": 256,
                               "seed": 0, "source": None}


@pytest.mark.parametrize("body,match", [
    pytest.param("{not json", "line 1 column 2", id="not-json"),
    pytest.param("[1, 2]", "expected a JSON object", id="list"),
    pytest.param(json.dumps({"train_data": "a", "out_dir": "b", "sead": 1, "kk": 2}),
                 r"unknown fields: \['kk', 'sead'\]", id="unknown-keys"),
    pytest.param(json.dumps({"train_data": "a", "out_dir": "b", "train": {"k": 2}}),
                 "unknown train fields", id="train-k"),
    pytest.param(json.dumps({"out_dir": "b"}), "train_data", id="missing-key"),
])
def test_config_from_file_errors_name_the_file(tmp_path, body, match):
    path = tmp_path / "exp.json"
    path.write_text(body)
    with pytest.raises(SchemaError, match="exp.json") as info:
        H.ExperimentConfig.from_file(str(path))
    assert info.match(match)


def test_config_from_file_round_trip(tmp_path, pipeline_run):
    cfg = make_cfg(tmp_path / "out", pipeline_run["data"], epochs=3)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "train_data": cfg.train_data, "out_dir": cfg.out_dir, "seed": 0,
        "k": 2, "backend": {"kind": "bag_mean", "dim": 16, "seed": 0},
        "model": dict(SMALL_MODEL), "train": dict(cfg.train),
        "beam_size": 1, "max_decode_len": 8, "length_alpha": 0.7}))
    loaded = H.ExperimentConfig.from_file(str(path))
    assert loaded == cfg
    assert loaded.config_hash() == cfg.config_hash()


# ------------------------------------------------------------- command line

def test_cli_choices_follow_the_mode_and_backend_constants():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def choices(command, dest):
        return tuple(next(a for a in commands[command]._actions if a.dest == dest).choices)

    assert choices("train", "mode") == TRAIN_MODES
    assert choices("train", "backend") == BACKEND_KINDS
    assert choices("label", "backend") == BACKEND_KINDS


def write_exp_config(tmp_path, data, **kw):
    cfg = make_cfg(tmp_path / "runs", data, **kw)
    path = tmp_path / "exp.json"
    body = {"train_data": cfg.train_data, "out_dir": cfg.out_dir,
            "seed": 0, "k": 2,
            "backend": {"kind": "bag_mean", "dim": 16, "seed": 0},
            "model": dict(SMALL_MODEL), "train": dict(cfg.train),
            "beam_size": 1, "max_decode_len": 8, "length_alpha": 0.7}
    path.write_text(json.dumps(body))
    return str(path)


def test_cli_prepare_and_label(tmp_path, pipeline_run, capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert cli_main(["prepare", str(pipeline_run["data"]),
                     "--out", str(corpus)]) == 0
    assert "wrote 5 examples" in capsys.readouterr().out
    assert len(read_corpus_jsonl(str(corpus))) == 5

    labels = tmp_path / "labels.jsonl"
    assert cli_main(["label", str(corpus), "--out", str(labels),
                     "--k", "2", "--dim", "16"]) == 0
    records = read_labels_jsonl(str(labels))
    assert len(records) == 5
    assert all(rec["labels"].k == 2 for rec in records.values())


def test_cli_train_runs_pipeline(tmp_path, pipeline_run, capsys):
    cfg_path = write_exp_config(tmp_path, pipeline_run["data"], epochs=0)
    out = tmp_path / "override"
    assert cli_main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "run dir:" in printed and "bleu4" in printed
    reports = list(out.glob("run-*/report.json"))
    assert len(reports) == 1
    payload = json.loads(reports[0].read_text())
    assert payload["config"]["out_dir"] == str(out)


def test_cli_train_flag_overrides_reach_report(tmp_path, pipeline_run):
    cfg_path = write_exp_config(tmp_path, pipeline_run["data"], epochs=0)
    out = tmp_path / "flags"
    assert cli_main(["train", "--config", cfg_path, "--out", str(out),
                     "--lambda", "0.0", "--beam", "2", "--k", "1"]) == 0
    payload = json.loads(next(out.glob("run-*/report.json")).read_text())
    assert payload["config"]["train"]["lambda_weight"] == 0.0
    assert payload["config"]["beam_size"] == 2
    assert payload["config"]["train"]["k"] == 1


def test_cli_generate_decodes_corpus(tmp_path, pipeline_run, capsys):
    run_dir = pipeline_run["run_dir"]
    out = tmp_path / "preds.jsonl"
    assert cli_main(["generate", str(run_dir / "model.ckpt"),
                     "--data", str(run_dir / "corpus.jsonl"),
                     "--vocab", str(run_dir / "vocab.txt"),
                     "--out", str(out), "--max-len", "6"]) == 0
    assert "wrote 5 predictions" in capsys.readouterr().out
    records = read_predictions_jsonl(str(out))
    assert len(records) == 5
    assert all(len(r["prediction"].split()) <= 6 for r in records)


def test_cli_evaluate_scores_predictions(tmp_path, pipeline_run, capsys):
    report_path = tmp_path / "report.json"
    assert cli_main(["evaluate",
                     str(pipeline_run["run_dir"] / "predictions.jsonl"),
                     "--out", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    assert payload["n_examples"] == 5
    assert 0.0 <= payload["bleu4"] <= 1.0
    assert "bleu4" in capsys.readouterr().out


def test_cli_sweep_k(tmp_path, pipeline_run, capsys):
    cfg_path = write_exp_config(tmp_path, pipeline_run["data"], epochs=0)
    out = tmp_path / "sweep"
    assert cli_main(["sweep-k", "--config", cfg_path, "--out", str(out),
                     "--k-list", "2"]) == 0
    assert (out / "sweep_k.csv").is_file()
    assert "'k': 2" in capsys.readouterr().out


def test_cli_sweep_k_rejects_garbage_list(tmp_path, pipeline_run, capsys):
    cfg_path = write_exp_config(tmp_path, pipeline_run["data"], epochs=0)
    assert cli_main(["sweep-k", "--config", cfg_path,
                     "--k-list", "a,b"]) == 2
    assert "comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["sweep-k", "--k-list", ","], "--k-list must be comma-separated integers"),
    (["sweep-k", "--k-list", "0,-1"], "--k-list must be comma-separated integers of at least 1"),
    (["sweep-k", "--k-list", "2,1,2"], "sweep-k: k_list repeats a k: [2, 1, 2]"),
    (["compare-modes", "--modes", "joint"], "--modes: compare_modes needs at least two modes"),
    (["compare-modes", "--modes", "joint,bogus"], "--modes: unknown training modes ['bogus']"),
    (["compare-modes", "--modes", "joint,joint"], "--modes: modes repeat a mode: ['joint', 'joint']"),
], ids=["empty-k-list", "k-below-1", "repeated-k", "one-mode", "unknown-mode", "repeated-mode"])
def test_cli_refuses_a_bad_list_before_any_run(tmp_path, pipeline_run, capsys, argv,
                                               message):
    cfg_path = write_exp_config(tmp_path, pipeline_run["data"], epochs=0)
    out = tmp_path / "never"
    assert cli_main(argv + ["--config", cfg_path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _bad_config(tmp_path, data, case):
    """The path of a config `jointqg` must refuse, and the out_dir it names."""
    if case == "missing-file":
        return str(tmp_path / "absent.json"), tmp_path / "runs"
    path = write_exp_config(tmp_path, data, epochs=0)
    body = json.loads(pathlib.Path(path).read_text())
    absent = str(tmp_path / "absent.json")
    missing = {"missing-train-data": {"train_data": absent},
               "missing-eval-data": {"eval_data": absent},
               "missing-source": {"backend": {"kind": "precomputed_file", "source": absent}}}
    if case == "no-out-dir":
        del body["out_dir"]
    else:
        body.update({**_BAD_VALUES, **missing}[case])
    pathlib.Path(path).write_text(json.dumps(body))
    return path, tmp_path / "runs"


_BAD_VALUES = {"zero-beam": {"beam_size": 0}, "str-k": {"k": "2"},
               "str-beam": {"beam_size": "1"}, "str-d-model": {"model": {"d_model": "16"}},
               "str-backend": {"backend": "bag_mean"}, "bogus-backend": {"backend": {"kind": "bogus"}},
               # switches and backends that no longer exist
               "removed-dropout": {"model": {"dropout": 0.1}},
               "removed-conditioning-mode": {"model": {"conditioning_mode": "pooled"}},
               "removed-refresh": {"train": {"refresh_labels_each_epoch": True}},
               "removed-model-encoder": {"backend": {"kind": "model_encoder"}},
               "removed-adam-beta1": {"train": {"adam_beta1": 0.8}},
               "removed-vocab-min-freq": {"vocab_min_freq": 2}}
_WRONG_TYPE = r"--config: .*exp\.json: a setting has the wrong type \(.*\)"
_NOT_A_FILE = r"--config: .*exp\.json: {} '.*absent\.json' is not a file"
_UNKNOWN = r"--config: .*exp\.json: unknown {} fields: \['{}'\]"


@pytest.mark.parametrize("case,message", [
    ("missing-file", r"--config: \[Errno 2\] No such file or directory: '.*absent\.json'"),
    ("no-out-dir", r"--config: .*exp\.json: .*missing .* argument: 'out_dir'"),
    ("zero-beam", r"--config: beam_size must be at least 1"),
    ("str-k", _WRONG_TYPE),
    ("str-beam", _WRONG_TYPE),
    ("str-d-model", _WRONG_TYPE),
    ("str-backend", r"--config: .*exp\.json: backend must be an object, not 'bag_mean'"),
    ("bogus-backend", r"--config: unknown embedding backend 'bogus'"),
    ("missing-train-data", _NOT_A_FILE.format("train_data")),
    ("missing-eval-data", _NOT_A_FILE.format("eval_data")),
    ("missing-source", _NOT_A_FILE.format(r"backend\.source")),
    ("removed-dropout", _UNKNOWN.format("model", "dropout")),
    ("removed-conditioning-mode", _UNKNOWN.format("model", "conditioning_mode")),
    ("removed-refresh", _UNKNOWN.format("train", "refresh_labels_each_epoch")),
    ("removed-model-encoder", r"--config: unknown embedding backend 'model_encoder'"),
    ("removed-adam-beta1", _UNKNOWN.format("train", "adam_beta1")),
    ("removed-vocab-min-freq", r"--config: .*exp\.json: unknown fields: \['vocab_min_freq'\]"),
], ids=["missing-file", "no-out-dir", "zero-beam", "str-k", "str-beam", "str-d-model",
        "str-backend", "bogus-backend", "missing-train-data", "missing-eval-data",
        "missing-source", "removed-dropout", "removed-conditioning-mode", "removed-refresh",
        "removed-model-encoder", "removed-adam-beta1", "removed-vocab-min-freq"])
@pytest.mark.parametrize("argv", [["train"], ["sweep-k", "--k-list", "1,2"], ["compare-modes"]],
                         ids=["train", "sweep-k", "compare-modes"])
def test_cli_refuses_a_bad_config_before_any_run(tmp_path, pipeline_run, capsys, argv, case,
                                                 message):
    cfg_path, out = _bad_config(tmp_path, pipeline_run["data"], case)
    before = sorted(tmp_path.rglob("*"))
    assert cli_main(argv + ["--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(message + "\n", err), err
    assert not out.exists() and sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv,message", [
    (["label", "{corpus}", "--out", "{out}", "--k", "0"], r"label: k must be at least 1"),
    (["label", "{corpus}", "--out", "{out}", "--dim", "0"], r"label: dim must be positive"),
    (["generate", "{ckpt}", "--data", "{corpus}", "--vocab", "{vocab}", "--out", "{out}",
      "--beam", "0"], r"generate: beam_size must be at least 1"),
    (["prepare", "{absent}", "--out", "{out}"],
     r"prepare: \[Errno 2\] No such file or directory: '.*absent\.json'"),
    (["evaluate", "{absent}", "--out", "{out}"],
     r"evaluate: \[Errno 2\] No such file or directory: '.*absent\.json'"),
    (["evaluate", "{empty}", "--out", "{out}"], r"evaluate: .*empty\.jsonl: no predictions"),
], ids=["label-k-0", "label-dim-0", "generate-beam-0", "prepare-missing-file",
        "evaluate-missing-file", "evaluate-empty-file"])
def test_cli_refuses_bad_input_with_a_message(tmp_path, pipeline_run, capsys, argv,
                                              message):
    run_dir = pipeline_run["run_dir"]
    paths = {"corpus": run_dir / "corpus.jsonl", "vocab": run_dir / "vocab.txt",
             "ckpt": run_dir / "model.ckpt", "absent": tmp_path / "absent.json",
             "empty": tmp_path / "empty.jsonl", "out": tmp_path / "out.jsonl"}
    paths["empty"].write_text("")
    before = sorted(tmp_path.rglob("*"))
    assert cli_main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(message + "\n", captured.err), captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv,written", [
    (["train"], "run-*/report.json"),
    (["sweep-k", "--k-list", "1"], "sweep_k.csv"),
    (["compare-modes", "--modes", "joint,generation_only"], "compare_modes.csv"),
], ids=["train", "sweep-k", "compare-modes"])
def test_cli_out_stands_in_for_a_missing_out_dir(tmp_path, pipeline_run, capsys, argv,
                                                 written):
    cfg_path, _ = _bad_config(tmp_path, pipeline_run["data"], "no-out-dir")
    out = tmp_path / "out"
    assert cli_main(argv + ["--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(list(out.glob(written))) == 1
    assert not (tmp_path / "runs").exists()


def test_cli_compare_modes(tmp_path, pipeline_run, capsys):
    cfg_path = write_exp_config(tmp_path, pipeline_run["data"], epochs=0)
    out = tmp_path / "cmp"
    assert cli_main(["compare-modes", "--config", cfg_path, "--out", str(out),
                     "--modes", "joint,generation_only"]) == 0
    with open(out / "compare_modes.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert [r["mode"] for r in parsed] == ["joint", "generation_only"]
    assert "delta_bleu4" in parsed[0]

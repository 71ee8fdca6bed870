"""End-to-end pipeline, batch studies, and the command line built on them.

Runs here use a deliberately tiny model so every stage finishes in seconds.
Assertions target the artifact contracts: what lands on disk, how it reads
back, and how failures surface. Model quality is covered elsewhere.
"""
import csv
import hashlib
import json
import pathlib

import pytest

from jointqg import harness as H
from jointqg import model as M
from jointqg.cli import main as cli_main
from jointqg.corpus import load_squad_json, read_corpus_jsonl
from jointqg.decoding import read_predictions_jsonl
from jointqg.embedding import BackendSpec, create_backend
from jointqg.errors import SchemaError, StageError
from jointqg.labeler import label_examples, read_labels_jsonl, write_labels_jsonl
from jointqg.tokenizer import Vocabulary

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


def test_lock_released_after_run(pipeline_run):
    assert not (pipeline_run["run_dir"] / "lock").exists()


@pytest.mark.parametrize("kind,inits", [("bag_mean", 2), ("model_encoder", 3)])
def test_label_stage_initialises_parameters_only_for_model_encoder(
        tmp_path, monkeypatch, kind, inits):
    # two_step trains two parameter sets; only a model_encoder backend
    # needs a third, for labelling
    data = pathlib.Path(__file__).parent / "data" / "squad_tiny.json"
    cfg = make_cfg(tmp_path / "runs", data, mode="two_step")
    cfg.backend = BackendSpec(kind=kind, dim=16, seed=0)
    real_init = M.Parameters.init.__func__
    calls = []

    def counting_init(cls, *args, **kw):
        calls.append(kw.get("seed"))
        return real_init(cls, *args, **kw)

    monkeypatch.setattr(M.Parameters, "init", classmethod(counting_init))
    _, run_dir = H.run_pipeline(cfg)
    monkeypatch.undo()
    assert len(calls) == inits

    # the labels are those of the same backend built by hand
    examples = load_squad_json(str(data))
    vocab = Vocabulary.load(str(pathlib.Path(run_dir) / "vocab.txt"))
    model_cfg = cfg.model_config(len(vocab))
    backend = create_backend(cfg.backend,
                             params=M.Parameters.init(model_cfg, seed=cfg.seed),
                             config=model_cfg, vocab=vocab)
    want = tmp_path / "labels.jsonl"
    write_labels_jsonl(examples, label_examples(examples, backend, cfg.k), str(want))
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


def test_cli_evaluate_rejects_record_missing_a_key(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps({"id": "a", "prediction": "x", "gold": "y",
                                "beam_size": 1, "score": -1.0}) + "\n"
                    + json.dumps({"id": "b", "prediction": "x", "beam_size": 1,
                                  "score": -1.0}) + "\n")
    with pytest.raises(SchemaError, match=r"preds.jsonl:2: .*'gold'"):
        cli_main(["evaluate", str(path), "--out", str(tmp_path / "r.json")])
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("selector_k", [None, 0])
def test_cli_generate_rejects_selector_without_k(tmp_path, pipeline_run, selector_k):
    cfg = make_cfg(tmp_path / "runs", pipeline_run["data"], epochs=0,
                   mode="two_step")
    _, run_dir = H.run_pipeline(cfg)
    run_dir = pathlib.Path(run_dir)
    vocab = Vocabulary.load(str(run_dir / "vocab.txt"))
    sel = M.load_checkpoint(str(run_dir / "selector.ckpt"), expected_vocab=vocab)
    M.save_checkpoint(str(run_dir / "selector.ckpt"), sel.params, sel.config, vocab,
                      selector_k=selector_k)
    with pytest.raises(SchemaError, match="selector.ckpt"):
        cli_main(["generate", str(run_dir / "model.ckpt"),
                  "--data", str(run_dir / "corpus.jsonl"),
                  "--vocab", str(run_dir / "vocab.txt"),
                  "--out", str(tmp_path / "preds.jsonl")])


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


# ----------------------------------------------------------------- failure

def test_missing_input_fails_in_prepare_stage(tmp_path):
    cfg = make_cfg(tmp_path, tmp_path / "nope.json")
    with pytest.raises(StageError, match="prepare") as exc:
        H.run_pipeline(cfg)
    assert exc.value.stage == "prepare"


def test_bad_backend_fails_in_label_stage_keeping_partials(tmp_path, pipeline_run):
    cfg = make_cfg(tmp_path, pipeline_run["data"])
    cfg.backend = BackendSpec(kind="precomputed_file", source=None)
    with pytest.raises(StageError) as exc:
        H.run_pipeline(cfg)
    assert exc.value.stage == "label"
    run_dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    # stages before the failure left their artifacts for inspection
    assert (run_dirs[0] / "corpus.jsonl").is_file()
    assert (run_dirs[0] / "vocab.txt").is_file()
    assert not (run_dirs[0] / "labels.jsonl").exists()
    assert not (run_dirs[0] / "lock").exists()


@pytest.mark.parametrize("name,value", [
    ("beam_size", 0), ("max_decode_len", 0), ("length_alpha", float("nan")),
    ("length_alpha", float("inf")), ("length_alpha", -0.5),
    ("vocab_max_size", 0), ("vocab_min_freq", 0)])
def test_bad_decode_and_vocab_settings_refused_before_any_stage(tmp_path, pipeline_run,
                                                                name, value):
    cfg = make_cfg(tmp_path / "out", pipeline_run["data"])
    setattr(cfg, name, value)  # assigned after construction, still caught
    with pytest.raises(ValueError):  # a StageError is not a ValueError
        H.run_pipeline(cfg)
    assert not list(tmp_path.glob("out/run-*"))


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


def test_run_lock_contention(tmp_path):
    with H.RunLock(str(tmp_path)):
        assert (tmp_path / "lock").is_file()
        with pytest.raises(RuntimeError, match="locked"):
            with H.RunLock(str(tmp_path)):
                pass
    assert not (tmp_path / "lock").exists()
    with H.RunLock(str(tmp_path)):
        pass  # reusable once released


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
                             backend="model_encoder", seed=None)
    assert out.train == {"mode": "two_step", "lambda_weight": 0.25}
    assert out.k == 3
    assert out.backend.kind == "model_encoder"
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


def test_cli_evaluate_empty_predictions_fails(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert cli_main(["evaluate", str(empty),
                     "--out", str(tmp_path / "r.json")]) == 1
    assert "no predictions" in capsys.readouterr().err


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


def test_cli_compare_modes(tmp_path, pipeline_run, capsys):
    cfg_path = write_exp_config(tmp_path, pipeline_run["data"], epochs=0)
    out = tmp_path / "cmp"
    assert cli_main(["compare-modes", "--config", cfg_path, "--out", str(out),
                     "--modes", "joint,generation_only"]) == 0
    with open(out / "compare_modes.csv", newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert [r["mode"] for r in parsed] == ["joint", "generation_only"]
    assert "delta_bleu4" in parsed[0]

"""End-to-end experiment pipeline and batch studies.

``run_pipeline`` drives prepare -> vocab -> label -> train -> generate ->
evaluate inside a fresh run directory, leaving every intermediate artifact
on disk: corpus.jsonl, vocab.txt, labels.jsonl, model.ckpt (plus
selector.ckpt for two_step), train_log.jsonl, predictions.jsonl and
report.json. The report embeds the fully resolved configuration, a short
hash of it, and a content hash of the input data so results stay
attributable. Each run creates its directory exclusively, taking the next
free ``-2``, ``-3``, ... suffix when the name is taken, so no two runs
share one; any stage failure aborts with the stage name while partial
artifacts stay on disk for inspection.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

from . import corpus as C
from . import decoding as D
from . import metrics as MX
from . import model as M
from . import training as T
from .embedding import BackendSpec, create_backend
from .errors import SchemaError, StageError
from .fileio import write_atomic
from .labeler import label_examples, question_type_of, write_labels_jsonl
from .tokenizer import N_SPECIALS, Vocabulary, check_vocab_settings

_MODEL_FIELDS = {f.name for f in dataclasses.fields(M.ModelConfig)} - {"vocab_size"}
# seed and k are set once, at the top level, for every stage
_TRAIN_FIELDS = {f.name for f in dataclasses.fields(T.TrainConfig)} - {"seed", "k"}
# the score columns of the sweep and comparison rows, in CSV column order
_SCORE_COLUMNS = ("bleu4", "meteor_lite", "rouge_l")


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, JSON-serializable."""

    train_data: str
    out_dir: str
    eval_data: str | None = None
    seed: int = 0
    k: int = 4
    vocab_max_size: int = 30000
    backend: BackendSpec = field(default_factory=BackendSpec)
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    beam_size: int = 1
    max_decode_len: int = 32
    length_alpha: float = 0.7

    def __post_init__(self):
        if isinstance(self.backend, dict):
            self.backend = BackendSpec(**self.backend)
        if not isinstance(self.backend, BackendSpec):
            raise TypeError(f"backend must be an object, not {self.backend!r}")
        unknown = set(self.model) - _MODEL_FIELDS
        if unknown:
            raise ValueError(f"unknown model fields: {sorted(unknown)}")
        unknown = set(self.train) - _TRAIN_FIELDS
        if unknown:
            raise ValueError(f"unknown train fields: {sorted(unknown)}")

    @classmethod
    def from_file(cls, path: str, **overrides) -> "ExperimentConfig":
        """The file's config with overrides merged in as with_overrides
        does, before any field is required; bad content raises SchemaError
        naming the file."""
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
                if not isinstance(payload, dict):
                    raise TypeError("expected a JSON object")
                unknown = set(payload) - _CONFIG_FIELDS
                if unknown:
                    raise TypeError(f"unknown fields: {sorted(unknown)}")
                return cls(**_merge_overrides(payload, overrides))
            except (TypeError, ValueError) as e:
                raise SchemaError(f"{path}: {e}") from e

    def with_overrides(self, **kw) -> "ExperimentConfig":
        """Copy with non-None overrides applied; mode/lambda reach train."""
        return ExperimentConfig(**_merge_overrides(dataclasses.asdict(self), kw))

    def train_config(self) -> T.TrainConfig:
        cfg = T.TrainConfig(**self.train, seed=self.seed, k=self.k)
        cfg.validate()
        return cfg

    def model_config(self, vocab_size: int) -> M.ModelConfig:
        cfg = M.ModelConfig(vocab_size=vocab_size, **self.model)
        cfg.validate()
        return cfg

    def resolved(self) -> dict:
        """Full configuration with every default filled in. A bad backend,
        model, train, vocabulary or decode setting, or a decode or question
        length past the model's max_len, raises ValueError here, so a run
        refuses it before its run directory exists."""
        self.backend.validate()
        check_vocab_settings(self.vocab_max_size)
        D.check_decode_settings(self.beam_size, self.max_decode_len, self.length_alpha)
        model_cfg = self.model_config(N_SPECIALS + 1)  # the smallest real vocabulary
        train_cfg = self.train_config()
        for name, length in (("max_decode_len", self.max_decode_len),
                             ("train.max_question_len", train_cfg.max_question_len)):
            if length > model_cfg.max_len:
                raise ValueError(f"{name} {length} exceeds model.max_len {model_cfg.max_len}")
        out = dataclasses.asdict(self)
        out["backend"] = dataclasses.asdict(self.backend)
        out["model"] = model_cfg.to_dict()
        del out["model"]["vocab_size"]
        out["train"] = dataclasses.asdict(train_cfg)
        return out

    def config_hash(self) -> str:
        return _resolved_hash(self.resolved())


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _merge_overrides(fields: dict, overrides: dict) -> dict:
    """A config's fields, as JSON holds them, with the non-None overrides
    applied: mode and lambda_weight go into train, backend sets its kind."""
    out = dict(fields)
    for key, value in overrides.items():
        if value is None:
            continue
        if key in ("mode", "lambda_weight"):
            out["train"] = {**out.get("train", {}), key: value}
        elif key == "backend":
            out["backend"] = {**out.get("backend", {}), "kind": value}
        elif key in _CONFIG_FIELDS:
            out[key] = value
        else:
            raise ValueError(f"unknown override '{key}'")
    return out


def _resolved_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def _stage(name: str):
    """Rewrap a failure in the block as StageError(name); a StageError passes."""
    try:
        yield
    except StageError:
        raise
    except Exception as e:
        raise StageError(name, e) from e


def _make_run_dir(out_dir: str, config_hash: str) -> str:
    name = f"run-{time.strftime('%Y%m%d-%H%M%S')}-{config_hash}"
    base = os.path.join(out_dir, name)
    run_dir = base
    n = 1
    while True:
        try:
            os.makedirs(run_dir, exist_ok=False)
            return run_dir
        except FileExistsError:
            n += 1
            run_dir = f"{base}-{n}"


def run_pipeline(cfg: ExperimentConfig) -> tuple[MX.MetricReport, str]:
    """Execute every stage; returns the evaluation report and run dir."""
    # resolving checks the config, so a bad one creates no directory; the
    # run-directory name and the report share this one resolution
    resolved = cfg.resolved()
    config_hash = _resolved_hash(resolved)
    run_dir = _make_run_dir(cfg.out_dir, config_hash)
    with _stage("prepare"):
        train_examples = C.load_squad_json(cfg.train_data)
        C.write_corpus_jsonl(train_examples, os.path.join(run_dir, "corpus.jsonl"))
        data_hash = _file_sha256(cfg.train_data)
        if cfg.eval_data and cfg.eval_data != cfg.train_data:
            eval_examples = C.load_squad_json(cfg.eval_data)
            data_hash = f"{data_hash}:{_file_sha256(cfg.eval_data)}"
        else:
            eval_examples = train_examples

    with _stage("vocab"):
        vocab = Vocabulary.build(train_examples, cfg.vocab_max_size)
        vocab.save(os.path.join(run_dir, "vocab.txt"))
        model_cfg = cfg.model_config(len(vocab))
        train_cfg = cfg.train_config()

    with _stage("label"):
        labels = label_examples(train_examples, create_backend(cfg.backend), cfg.k)
        qtypes = [question_type_of(ex.document.question) for ex in train_examples]
        write_labels_jsonl(train_examples, labels,
                           os.path.join(run_dir, "labels.jsonl"))

    with _stage("train"):
        result = T.train(train_examples, labels, qtypes, vocab, model_cfg,
                         train_cfg, log_path=os.path.join(run_dir, "train_log.jsonl"))
        ckpt_path = os.path.join(run_dir, "model.ckpt")
        M.save_checkpoint(ckpt_path, result.params, model_cfg, vocab,
                          step=result.steps, seed=train_cfg.seed)
        if result.selector_params is not None:
            M.save_checkpoint(os.path.join(run_dir, D.SELECTOR_CHECKPOINT),
                              result.selector_params, model_cfg, vocab,
                              step=result.steps, seed=train_cfg.seed,
                              selector_k=train_cfg.k)

    with _stage("generate"):
        records = D.generate_file(ckpt_path, eval_examples, vocab,
                                  os.path.join(run_dir, "predictions.jsonl"),
                                  cfg.beam_size, cfg.max_decode_len, cfg.length_alpha)

    with _stage("evaluate"):
        report = MX.score_predictions(records)
        MX.write_report_json(report, os.path.join(run_dir, "report.json"), extra={
            "config": resolved,
            "config_hash": config_hash,
            "data_sha256": data_hash,
            "vocab_size": len(vocab),
            "selector_f1": result.selector_f1,
            "train_dropped": result.dropped,
        })
    return report, run_dir


def _scores(report: MX.MetricReport) -> dict:
    return {name: getattr(report, name) for name in _SCORE_COLUMNS}


def _write_csv(path: str, fields: list[str], rows: list[dict]) -> None:
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    write_atomic(path, buf.getvalue())


def sweep_top_k(cfg: ExperimentConfig, k_list: list[int]) -> tuple[list[dict], list[dict]]:
    """Run the pipeline once per k; failed runs land in an error sidecar
    and do not stop the sweep. Writes sweep_k.csv (and sweep_k_errors.csv
    when needed) under out_dir. An empty or repeating k_list raises first."""
    if not k_list:
        raise ValueError("k_list must not be empty")
    if len(set(k_list)) < len(k_list):
        raise ValueError(f"k_list repeats a k: {list(k_list)}")
    rows: list[dict] = []
    errors: list[dict] = []
    for k in k_list:
        sub = cfg.with_overrides(k=int(k),
                                 out_dir=os.path.join(cfg.out_dir, f"k{k}"))
        try:
            report, _ = run_pipeline(sub)
            rows.append({"k": int(k), **_scores(report)})
        except Exception as e:  # noqa: BLE001 - sweep must survive bad cells
            stage = e.stage if isinstance(e, StageError) else "unknown"
            errors.append({"k": int(k), "stage": stage, "error": str(e)})
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, "sweep_k.csv"),
               ["k", *_SCORE_COLUMNS], rows)
    if errors:
        _write_csv(os.path.join(cfg.out_dir, "sweep_k_errors.csv"),
                   ["k", "stage", "error"], errors)
    return rows, errors


def check_modes(modes: tuple[str, ...]) -> None:
    """Refuse fewer than two modes, a repeat, or one that is not a training mode."""
    if len(modes) < 2:
        raise ValueError("compare_modes needs at least two modes")
    if len(set(modes)) < len(modes):
        raise ValueError(f"modes repeat a mode: {list(modes)}")
    unknown = [m for m in modes if m not in T.TRAIN_MODES]
    if unknown:
        raise ValueError(f"unknown training modes {unknown}; "
                         f"choose from {list(T.TRAIN_MODES)}")


def compare_modes(cfg: ExperimentConfig,
                  modes: tuple[str, ...] = ("joint", "two_step")) -> list[dict]:
    """Run each training mode on the same data; rows carry metric deltas
    against the first mode. Writes compare_modes.csv under out_dir."""
    check_modes(modes)
    rows: list[dict] = []
    for mode in modes:
        sub = cfg.with_overrides(mode=mode,
                                 out_dir=os.path.join(cfg.out_dir, f"mode-{mode}"))
        report, _ = run_pipeline(sub)
        rows.append({"mode": mode, **_scores(report)})
    base = rows[0]
    for row in rows:
        for metric in _SCORE_COLUMNS:
            row[f"delta_{metric}"] = row[metric] - base[metric]
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, "compare_modes.csv"),
               ["mode", *_SCORE_COLUMNS, *(f"delta_{m}" for m in _SCORE_COLUMNS)], rows)
    return rows

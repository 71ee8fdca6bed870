"""The benchmark's three workloads.

Each workload is one process, one caller, closed loop: the next operation
starts when the previous one has returned. ``setup`` builds every input
from the seed; ``run_op`` performs one operation, timing only the calls
into jointqg through ``timer``; correctness checks run outside the timed
calls. All three use the default ModelConfig (d_model 128, 2+2 layers,
4 heads, ff 256) unless a test passes a smaller one.

* train_v30k   joint-mode ``training.train`` at batch 16 on a fixed slice,
               with a ~30k vocabulary built from a large generated corpus.
               Vocabulary-sized work (output projection, log-softmax and
               NLL gather, the dense embedding-gradient scatter, Adam over
               ~8M parameters) is most of each step; nothing is decoded.
* decode_v30k  in-process ``jointqg generate`` at beam 1 (32 tokens) and
               beam 4 (8 tokens) over a seeded-init checkpoint whose EOS
               bias is pushed far negative, so every decode runs to its
               --max-len: the serving path, with no backward and no Adam.
* pipeline_v5k ``harness.run_pipeline`` in two_step mode (k=2, beam 1) on a
               generated SQuAD file whose vocabulary is capped at 5k: the
               only workload touching corpus, tokenizer, labeler, metrics
               and artifact writes, and the two_step selector path. At
               this vocabulary the transformer blocks dominate training.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import corpusgen
from jointqg import cli
from jointqg import corpus as C
from jointqg import decoding as D
from jointqg import harness as H
from jointqg import model as M
from jointqg import training as T
from jointqg.embedding import BackendSpec, create_backend
from jointqg.labeler import label_examples, question_type_of
from jointqg.tokenizer import EOS_ID, Vocabulary, assemble_model_input

# far enough below every other logit that EOS is never chosen
EOS_BIAS = -1.0e4


@dataclass
class OpResult:
    """One operation: its timed calls, outputs and check failures."""

    key: int                      # ops with equal keys must give equal outputs
    walls: dict[str, float] = field(default_factory=dict)
    work: float = 1.0             # items ops_per_s counts: optimizer steps, or 1
    loss_end: float = math.nan
    fingerprint: str = ""
    failures: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


class Timer:
    """Times the jointqg calls of an operation, tracing them when asked.

    The tracer is installed before the clock starts and removed after it
    stops, so patching costs nothing inside the measured wall.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.walls: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, label: str):
        patch = self.tracer.install() if self.tracer is not None else contextlib.nullcontext()
        with patch:
            start = time.perf_counter()
            try:
                yield
            finally:
                self.walls[label] = self.walls.get(label, 0.0) + time.perf_counter() - start


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


class TrainV30k:
    name = "train_v30k"
    min_ops = 1

    def __init__(self, seed: int, work_dir: str, corpus_examples: int = 2000,
                 train_examples: int = 32, epochs: int = 2, vocab_max: int = 30000,
                 model: dict | None = None):
        self.seed = seed
        self.work_dir = work_dir
        self.corpus_examples = corpus_examples
        self.train_examples = train_examples
        self.epochs = epochs
        self.vocab_max = vocab_max
        self.model = model or {}

    def setup(self) -> None:
        corpus = corpusgen.make_examples(self.seed, self.corpus_examples, "train")
        self.vocab = Vocabulary.build(corpus, self.vocab_max)
        self.examples = corpus[:self.train_examples]
        self.labels = label_examples(self.examples, create_backend(BackendSpec()), 4)
        self.qtypes = [question_type_of(ex.document.question) for ex in self.examples]
        self.model_cfg = M.ModelConfig(vocab_size=len(self.vocab), **self.model)
        self.train_cfg = T.TrainConfig(mode="joint", batch_size=16, epochs=self.epochs,
                                       seed=self.seed)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def run_op(self, index: int, timer: Timer) -> OpResult:
        with timer("train"):
            result = T.train(self.examples, self.labels, self.qtypes, self.vocab,
                             self.model_cfg, self.train_cfg)
        history = [{k: v for k, v in rec.items() if k != "seconds"} for rec in result.history]
        # no finite-loss check here: train() raises NumericError on a
        # non-finite batch loss, and Session.run counts that as a failure
        return OpResult(key=0, walls=dict(timer.walls), work=float(result.steps),
                        loss_end=history[-1]["loss_total"],
                        fingerprint=_digest(json.dumps(history, sort_keys=True).encode()))

    def summarize(self, ops: list[OpResult]) -> dict[str, tuple[float, str]]:
        return summarize(ops)

    def report_lines(self, ops: list[OpResult]) -> dict[str, tuple[float, str]]:
        s = summarize(ops)
        return {"train.steps_per_s": s["ops_per_s"], "train.loss_end": s["loss_end"]}


class DecodeV30k:
    name = "decode_v30k"
    # (beam, --max-len): operations alternate between these two generate
    # calls. Beam 1 runs the decoder up to prefix 31. Beam 4 costs about
    # four times as much per token, so it decodes 8 tokens. Each operation
    # then takes a few seconds and a run holds several of each kind.
    decodes = ((1, 32), (4, 8))
    min_ops = len(decodes)

    def __init__(self, seed: int, work_dir: str, corpus_examples: int = 2000,
                 vocab_max: int = 30000, model: dict | None = None):
        self.seed = seed
        self.work_dir = work_dir
        self.corpus_examples = corpus_examples
        self.vocab_max = vocab_max
        self.model = model or {}
        self._ckpt = None

    def setup(self) -> None:
        corpus = corpusgen.make_examples(self.seed, self.corpus_examples, "decode")
        self.vocab = Vocabulary.build(corpus, self.vocab_max)
        cfg = M.ModelConfig(vocab_size=len(self.vocab), **self.model)
        params = M.Parameters.init(cfg, seed=self.seed)
        params["out.b"].data[EOS_ID] = EOS_BIAS
        self.ckpt_path = os.path.join(self.work_dir, "model.ckpt")
        self.vocab_path = os.path.join(self.work_dir, "vocab.txt")
        M.save_checkpoint(self.ckpt_path, params, cfg, self.vocab, seed=self.seed)
        self.vocab.save(self.vocab_path)
        # every example has the same shape, so one fixed example is decoded
        self.example = corpus[-1]
        self.data_path = os.path.join(self.work_dir, "example.jsonl")
        C.write_corpus_jsonl([self.example], self.data_path)
        self._ckpt = None

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def run_op(self, index: int, timer: Timer) -> OpResult:
        beam, max_len = self.decodes[index % len(self.decodes)]
        out = os.path.join(self.work_dir, f"pred-beam{beam}.jsonl")
        argv = ["generate", self.ckpt_path, "--data", self.data_path,
                "--vocab", self.vocab_path, "--out", out, "--beam", str(beam),
                "--max-len", str(max_len)]
        with timer(f"beam{beam}"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"jointqg generate exited with {code}")
        with open(out, "rb") as fh:
            raw = fh.read()
        record = json.loads(raw)
        op = OpResult(key=beam, walls=dict(timer.walls), loss_end=-record["score"],
                      fingerprint=_digest(raw))
        op.failures.extend(_length_failures([(f"beam {beam}", record)], max_len))
        if beam == 1:
            if self._ckpt is None:
                self._ckpt = M.load_checkpoint(self.ckpt_path, expected_vocab=self.vocab)
            mi = assemble_model_input(self.example, self.vocab, self._ckpt.config.max_len)
            greedy = D.greedy_decode(D.make_scorer(self._ckpt, mi), max_len)
            if record["prediction"] != self.vocab.decode(greedy):
                op.failures.append("beam-1 prediction differs from greedy_decode")
        return op

    def mean_walls(self, ops: list[OpResult]) -> dict[int, float]:
        """Mean wall of one decode at each beam."""
        return {beam: statistics.fmean(op.wall for op in ops if op.key == beam)
                for beam, _ in self.decodes}

    def summarize(self, ops: list[OpResult]) -> dict[str, tuple[float, str]]:
        # one example through both beams; loss_end is minus the beam-4 score
        return {"ops_per_s": (1.0 / sum(self.mean_walls(ops).values()), "1/s"),
                "loss_end": (statistics.median(op.loss_end for op in ops if op.key == 4),
                             "nats")}

    def report_lines(self, ops: list[OpResult]) -> dict[str, tuple[float, str]]:
        lines = {f"decode.beam{beam}_examples_per_s": (1.0 / wall, "1/s")
                 for beam, wall in self.mean_walls(ops).items()}
        lines["decode.examples_per_s"] = self.summarize(ops)["ops_per_s"]
        return lines


class PipelineV5k:
    name = "pipeline_v5k"
    min_ops = 1
    artifacts = ("corpus.jsonl", "vocab.txt", "labels.jsonl", "train_log.jsonl",
                 "model.ckpt", "selector.ckpt", "predictions.jsonl", "report.json")
    # byte-identical across reruns of one config (criterion 9)
    deterministic = ("predictions.jsonl", "report.json", "model.ckpt", "selector.ckpt")

    def __init__(self, seed: int, work_dir: str, train_examples: int = 128,
                 eval_examples: int = 1, vocab_max: int = 5000,
                 model: dict | None = None):
        self.seed = seed
        self.work_dir = work_dir
        self.train_examples = train_examples
        self.eval_examples = eval_examples
        self.vocab_max = vocab_max
        self.model = model or {}

    def setup(self) -> None:
        train = corpusgen.make_examples(self.seed, self.train_examples, "train")
        evals = corpusgen.make_examples(self.seed + 1_000_003, self.eval_examples, "eval")
        train_path = os.path.join(self.work_dir, "train.json")
        eval_path = os.path.join(self.work_dir, "eval.json")
        for path, exs in ((train_path, train), (eval_path, evals)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(corpusgen.squad_json(exs))
        self.expected_vocab = len(Vocabulary.build(train, self.vocab_max))
        # lr 2e-3 lets the single epoch make 'the' (a third of every
        # question) the argmax at every position, so each eval example
        # decodes the full 32 tokens whatever the seed
        self.cfg = H.ExperimentConfig(
            train_data=train_path, eval_data=eval_path,
            out_dir=os.path.join(self.work_dir, "runs"), seed=self.seed, k=2,
            vocab_max_size=self.vocab_max, model=dict(self.model),
            train={"mode": "two_step", "epochs": 1, "batch_size": 16,
                   "learning_rate": 2e-3},
            beam_size=1)

    @property
    def vocab_size(self) -> int:
        return self.expected_vocab

    def run_op(self, index: int, timer: Timer) -> OpResult:
        with timer("pipeline"):
            report, run_dir = H.run_pipeline(self.cfg)
        op = OpResult(key=0, walls=dict(timer.walls))
        missing = [a for a in self.artifacts if not os.path.isfile(os.path.join(run_dir, a))]
        if missing:
            op.failures.append(f"missing artifacts: {missing}")
        else:
            blobs = {}
            for name in self.deterministic:
                with open(os.path.join(run_dir, name), "rb") as fh:
                    blobs[name] = fh.read()
            op.fingerprint = _digest(*blobs.values())
            # the wall time is comparable only while every prediction is full length
            records = [json.loads(line) for line in blobs["predictions.jsonl"].splitlines()]
            op.failures.extend(_length_failures(
                ((rec["id"], rec) for rec in records), self.cfg.max_decode_len))
            with open(os.path.join(run_dir, "train_log.jsonl"), encoding="utf-8") as fh:
                op.loss_end = json.loads(fh.read().splitlines()[-1])["loss_total"]
            with open(os.path.join(run_dir, "report.json"), encoding="utf-8") as fh:
                vocab_size = json.load(fh)["vocab_size"]
            if vocab_size != self.expected_vocab:
                op.failures.append(f"vocab size {vocab_size}, expected {self.expected_vocab}")
        shutil.rmtree(run_dir)
        return op

    def summarize(self, ops: list[OpResult]) -> dict[str, tuple[float, str]]:
        return summarize(ops)

    def report_lines(self, ops: list[OpResult]) -> dict[str, tuple[float, str]]:
        return {"pipeline.wall_s": (statistics.fmean(op.wall for op in ops), "s"),
                "pipeline.loss_end": summarize(ops)["loss_end"]}


def _length_failures(labelled_records, expected: int) -> list[str]:
    """A failure for each prediction that is not expected tokens long."""
    failures = []
    for label, rec in labelled_records:
        n = len(rec["prediction"].split())
        if n != expected:
            failures.append(f"{label}: prediction has {n} tokens, expected {expected}")
    return failures


WORKLOADS = {w.name: w for w in (TrainV30k, DecodeV30k, PipelineV5k)}


def summarize(ops: list[OpResult]) -> dict[str, tuple[float, str]]:
    """The workload-independent end-to-end metrics.

    Throughput is the work of all operations over their summed wall time.
    On a shared host the fastest operation depends on whether a run
    happened to catch a fast spell, and it spread twice as much from run to
    run as this mean did.
    """
    return {
        "ops_per_s": (sum(op.work for op in ops) / sum(op.wall for op in ops), "1/s"),
        "loss_end": (statistics.median(op.loss_end for op in ops), "nats"),
    }

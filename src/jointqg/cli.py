"""Command-line entry points.

Subcommands map onto the library pipeline:

    prepare        SQuAD JSON -> corpus.jsonl
    label          corpus.jsonl -> labels.jsonl (relevance + question type)
    train          full pipeline run from an experiment config
    generate       decode a corpus with a checkpoint (and selector.ckpt beside it)
    evaluate       score a predictions file -> report.json
    sweep-k        pipeline once per k, collecting a CSV
    compare-modes  pipeline once per training mode, with metric deltas

A command exits 0 when done and 2 when it refuses its input (a file it
cannot read, a bad setting), with one ``<command>: <message>`` line on
stderr; other failures exit 1.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus as C
from . import decoding as D
from . import metrics as MX
from .embedding import BACKEND_KINDS, BackendSpec, create_backend
from .errors import SchemaError
from .harness import ExperimentConfig, check_modes, compare_modes, run_pipeline, sweep_top_k
from .labeler import label_examples, write_labels_jsonl
from .tokenizer import Vocabulary
from .training import TRAIN_MODES


# ExperimentConfig.from_file override keys, each the dest of one override flag
_OVERRIDES = ("seed", "out_dir", "mode", "k", "lambda_weight", "beam_size", "backend")


def _add_config_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", dest="out_dir", default=None, help="output directory override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jointqg",
                                     description="selector-generator question generation workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="convert SQuAD-format JSON to corpus JSONL")
    p.add_argument("input", help="SQuAD-format JSON file")
    p.add_argument("--out", required=True, help="corpus JSONL to write")

    p = sub.add_parser("label", help="write weak relevance labels for a corpus")
    p.add_argument("corpus", help="corpus JSONL from prepare")
    p.add_argument("--out", required=True, help="labels JSONL to write")
    p.add_argument("--backend", default="bag_mean", choices=BACKEND_KINDS,
                   help="embedding backend")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=256)
    p.add_argument("--source", default=None, help="vector table for precomputed_file")

    p = sub.add_parser("train", help="run the full pipeline from a config")
    _add_config_overrides(p)
    p.add_argument("--mode", default=None, choices=TRAIN_MODES)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--lambda", dest="lambda_weight", type=float, default=None)
    p.add_argument("--beam", dest="beam_size", type=int, default=None)
    p.add_argument("--backend", default=None, choices=BACKEND_KINDS)

    p = sub.add_parser("generate", help="decode a corpus with a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--data", required=True, help="corpus JSONL to decode")
    p.add_argument("--vocab", required=True, help="vocab.txt saved with the checkpoint")
    p.add_argument("--out", required=True, help="predictions JSONL to write")
    p.add_argument("--beam", dest="beam_size", type=int, default=1)
    p.add_argument("--max-len", type=int, default=32)
    p.add_argument("--alpha", type=float, default=0.7)

    p = sub.add_parser("evaluate", help="score predictions against gold questions")
    p.add_argument("predictions", help="predictions JSONL from generate")
    p.add_argument("--out", required=True, help="report JSON to write")

    p = sub.add_parser("sweep-k", help="run the pipeline for each k")
    _add_config_overrides(p)
    p.add_argument("--k-list", required=True,
                   help="comma-separated k values, e.g. 1,2,3,4,5")

    p = sub.add_parser("compare-modes", help="run the pipeline per training mode")
    _add_config_overrides(p)
    p.add_argument("--modes", default="joint,two_step",
                   help="comma-separated training modes")
    return parser


def _load_config(args) -> ExperimentConfig:
    """The config file with its flag overrides, resolved: a file that cannot
    be read, a bad setting or a missing input file raises before any run
    directory exists."""
    cfg = ExperimentConfig.from_file(
        args.config, **{key: getattr(args, key, None) for key in _OVERRIDES})
    try:
        cfg.resolved()
    except TypeError as e:  # a mistyped value, such as "k": "2"
        raise SchemaError(f"{args.config}: a setting has the wrong type ({e})") from e
    inputs = {"train_data": cfg.train_data}
    if cfg.eval_data:  # no eval_data means the training examples
        inputs["eval_data"] = cfg.eval_data
    if cfg.backend.kind == "precomputed_file":
        inputs["backend.source"] = cfg.backend.source
    for name, path in inputs.items():
        if not os.path.isfile(path):
            raise SchemaError(f"{args.config}: {name} {path!r} is not a file")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # only train, sweep-k and compare-modes take a config
        cfg = _load_config(args) if hasattr(args, "config") else None
    except (OSError, ValueError) as e:  # a SchemaError is a ValueError
        print(f"--config: {e}", file=sys.stderr)
        return 2
    try:
        return _run(args, cfg)
    except (OSError, ValueError) as e:  # as is a VocabMismatchError
        print(f"{args.command}: {e}", file=sys.stderr)
        return 2


def _run(args, cfg: ExperimentConfig | None) -> int:
    if args.command == "prepare":
        examples = C.load_squad_json(args.input)
        C.write_corpus_jsonl(examples, args.out)
        print(f"wrote {len(examples)} examples to {args.out}")
        return 0

    if args.command == "label":
        examples = C.read_corpus_jsonl(args.corpus)
        spec = BackendSpec(kind=args.backend, dim=args.dim, seed=args.seed,
                           source=args.source)
        backend = create_backend(spec)
        labels = label_examples(examples, backend, args.k)
        write_labels_jsonl(examples, labels, args.out)
        print(f"wrote labels for {len(examples)} examples to {args.out}")
        return 0

    if args.command == "train":
        report, run_dir = run_pipeline(cfg)
        print(f"run dir: {run_dir}")
        print(json.dumps(report.summary(), indent=1))
        return 0

    if args.command == "generate":
        records = D.generate_file(args.checkpoint, C.read_corpus_jsonl(args.data),
                                  Vocabulary.load(args.vocab), args.out,
                                  args.beam_size, args.max_len, args.alpha)
        print(f"wrote {len(records)} predictions to {args.out}")
        return 0

    if args.command == "evaluate":
        report = MX.score_predictions(D.read_predictions_jsonl(args.predictions))
        MX.write_report_json(report, args.out)
        print(json.dumps(report.summary(), indent=1))
        return 0

    if args.command == "sweep-k":
        try:
            k_list = [int(x) for x in args.k_list.split(",") if x.strip()]
        except ValueError:
            k_list = []
        if not k_list or min(k_list) < 1:
            print("--k-list must be comma-separated integers of at least 1", file=sys.stderr)
            return 2
        rows, errors = sweep_top_k(cfg, k_list)
        for row in rows:
            print(row)
        if errors:
            print(f"{len(errors)} k value(s) failed; see sweep_k_errors.csv",
                  file=sys.stderr)
        return 0

    if args.command == "compare-modes":
        modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
        try:
            check_modes(modes)
        except ValueError as e:
            print(f"--modes: {e}", file=sys.stderr)
            return 2
        rows = compare_modes(cfg, modes)
        for row in rows:
            print(row)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())

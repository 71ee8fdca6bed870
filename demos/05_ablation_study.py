"""Run the full experiment harness: sweep k, then compare training modes.

Everything an experiment produces lands in a run directory: the corpus,
the vocabulary, the weak labels, the training log, the checkpoint, the
decoded predictions and the scored report with its config hash. The sweep
and the mode comparison write one CSV each on top. This demo runs the
whole thing on a synthetic eight-paragraph corpus at toy scale, so the
scores themselves mean nothing; the point is the artifact trail.

    python3 demos/05_ablation_study.py
"""
import json
import pathlib
import tempfile

from jointqg.harness import ExperimentConfig, compare_modes, sweep_top_k

PLACES = ["harbor", "granary", "mill", "archive", "foundry", "orchard",
          "quarry", "lighthouse"]


def write_corpus(path: pathlib.Path) -> str:
    paragraphs = []
    for i, place in enumerate(PLACES):
        keeper = f"warden {chr(ord('A') + i)}"
        context = (
            f"Travelers reach the {place} by the north road. "
            f"The {place} was rebuilt after the flood of 1844. "
            f"Records say the {place} is kept by {keeper}. "
            f"Most villagers pass it on market days. "
            f"A bell rings there at dusk."
        )
        paragraphs.append({
            "context": context,
            "qas": [{
                "id": f"{place}-1",
                "question": f"Who keeps the {place}?",
                "answers": [{"text": keeper,
                             "answer_start": context.index(keeper)}],
            }],
        })
    path.write_text(json.dumps({"data": [{"paragraphs": paragraphs}]}))
    return str(path)


def main():
    work = pathlib.Path(tempfile.mkdtemp(prefix="ablation-"))
    data = write_corpus(work / "corpus.json")

    cfg = ExperimentConfig(
        train_data=data, out_dir=str(work / "sweep"), seed=0, k=2,
        backend={"kind": "bag_mean", "dim": 32},
        model={"d_model": 16, "encoder_layers": 1, "decoder_layers": 1,
               "attention_heads": 2, "feedforward_dim": 32,
               "selector_hidden": 8, "max_len": 128},
        train={"epochs": 2, "batch_size": 8, "max_question_len": 10},
        beam_size=2, max_decode_len=10, length_alpha=0.7)
    print(f"experiment hash {cfg.config_hash()}, artifacts under {work}\n")

    rows, errors = sweep_top_k(cfg, [1, 2, 3])
    print("sweep over k (sentences kept by the weak labeler):")
    for row in rows:
        print(f"  k={row['k']}  bleu4={row['bleu4']:.3f}  "
              f"rouge_l={row['rouge_l']:.3f}  meteor={row['meteor_lite']:.3f}")
    if errors:
        print(f"  {len(errors)} cells failed, see sweep_k_errors.csv")

    cmp_cfg = cfg.with_overrides(out_dir=str(work / "modes"))
    print("\njoint training against the two-step pipeline:")
    rows, errors = compare_modes(cmp_cfg, modes=("joint", "two_step"))
    for row in rows:
        print(f"  {row['mode']:<10} bleu4={row['bleu4']:.3f}  "
              f"delta={row['delta_bleu4']:+.3f}")
    if errors:
        print(f"  {len(errors)} modes failed, see compare_modes_errors.csv")

    run_dir = next((work / "modes" / "mode-two_step").glob("run-*"))
    print(f"\none run directory, fully inspectable: {run_dir.name}")
    for artifact in sorted(p.name for p in run_dir.iterdir()):
        print(f"  {artifact}")


if __name__ == "__main__":
    main()

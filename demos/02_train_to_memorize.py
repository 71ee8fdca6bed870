"""Train the generator until it memorizes a tiny corpus.

A model that cannot drive its training loss to zero on twenty examples has
a bug somewhere, so this is the first experiment worth running after any
change to the model or the optimizer. The corpus pairs market-stall
paragraphs with one question each; generation_only mode trains just the
decoder path.

Takes a few seconds on a laptop CPU.

    python3 demos/02_train_to_memorize.py
"""
from jointqg.corpus import RawDocument, build_example
from jointqg.decoding import beam_search_decode, make_scorer
from jointqg.embedding import BagMeanBackend
from jointqg.labeler import label_examples, question_type_of
from jointqg.metrics import score_corpus
from jointqg.model import Checkpoint, ModelConfig
from jointqg.tokenizer import Vocabulary, assemble_model_input, tokenize
from jointqg.training import TrainConfig, train

NAMES = ["Mira", "Anselm", "Tilda", "Rook", "Petra"]
WARES = ["copper kettles", "dried figs", "wool blankets", "glass beads"]


def build_corpus():
    out = []
    for name in NAMES:
        for ware in WARES:
            ctx = f"{name} runs a market stall. The stall mostly sells {ware}."
            q = f"What does the stall of {name} mostly sell?"
            out.append(build_example(RawDocument(
                id=f"{name}-{ware.split()[1]}", context=ctx, question=q,
                answer_text=ware, answer_start=ctx.index(ware))))
    return out


def main():
    examples = build_corpus()
    vocab = Vocabulary.build(examples)
    print(f"{len(examples)} examples, vocabulary of {len(vocab)} tokens")

    model_cfg = ModelConfig(vocab_size=len(vocab), d_model=32,
                            encoder_layers=1, decoder_layers=1,
                            attention_heads=2, feedforward_dim=64,
                            selector_hidden=16, max_len=64)
    # weight decay off: on a memorization run it fights convergence
    train_cfg = TrainConfig(mode="generation_only", epochs=150,
                            learning_rate=2e-3, weight_decay=0.0,
                            batch_size=16, seed=0, k=1)

    labels = label_examples(examples, BagMeanBackend(dim=32, seed=0), k=1)
    qtypes = [question_type_of(ex.document.question) for ex in examples]

    result = train(examples, labels, qtypes, vocab, model_cfg, train_cfg)
    for rec in result.history[::25] + [result.history[-1]]:
        print(f"  epoch {rec['epoch']:3d}  generation loss {rec['loss_gen']:.4f}")

    ckpt = Checkpoint(result.params, model_cfg, vocab.sha256())
    cands, refs = [], []
    for ex in examples:
        mi = assemble_model_input(ex, vocab, model_cfg.max_len)
        ids = beam_search_decode(make_scorer(ckpt, mi), beam_size=1, max_len=16,
                                 length_alpha=0.0)
        cands.append(tokenize(vocab.decode(ids)))
        refs.append(tokenize(ex.document.question))

    report = score_corpus(cands, refs)
    print(f"\ntrain-set BLEU-4 after memorization: {report.bleu4:.3f}")
    print("\nThree decoded questions next to their gold targets:")
    for ex, cand in list(zip(examples, cands))[::7][:3]:
        print(f"  gold:    {ex.document.question}")
        print(f"  decoded: {' '.join(cand)}")


if __name__ == "__main__":
    main()

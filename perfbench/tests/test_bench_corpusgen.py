"""The synthetic generator is seeded and reaches the workloads' vocabularies."""
import pytest

import corpusgen
from jointqg.tokenizer import Vocabulary, assemble_model_input


def _records(examples):
    return [(ex.document.id, ex.document.context, ex.document.question,
             ex.document.answer_text, ex.document.answer_start, ex.answer_sentence)
            for ex in examples]


def test_same_seed_same_examples_other_seed_other_examples():
    a = corpusgen.make_examples(5, 40)
    assert _records(a) == _records(corpusgen.make_examples(5, 40))
    b = corpusgen.make_examples(6, 40)
    assert [r[1:] for r in _records(a)] != [r[1:] for r in _records(b)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reaches_target_vocabulary_sizes(seed):
    big = corpusgen.make_examples(seed, 2000, "train")
    assert len(Vocabulary.build(big, 30000)) == 30000 + 6
    small = corpusgen.make_examples(seed, 128, "train")
    assert len(Vocabulary.build(small, 5000)) == 5000 + 6


def test_every_example_has_the_same_shape():
    examples = corpusgen.make_examples(3, 50)
    vocab = Vocabulary.build(examples, 30000)
    lengths = {assemble_model_input(ex, vocab).length for ex in examples}
    questions = {len(vocab.encode(ex.document.question)) for ex in examples}
    sentences = {len(ex.sentences) for ex in examples}
    assert lengths == {113}
    assert questions == {15}
    assert sentences == {corpusgen.SENTENCES}

"""Vocabulary, encode/decode, and model-input assembly."""
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointqg.errors import InputTooLongError, SchemaError
from jointqg.tokenizer import (
    BOS_ID, CLS_ID, EOS_ID, PAD_ID, SEP_ID, UNK_ID, N_SPECIALS,
    Vocabulary, assemble_model_input, pad_batch, pad_rows, tokenize,
)

import synth
from oracles import assemble_over_keep, vocab_order_tuple_key


def vocab_of(*texts: str) -> Vocabulary:
    examples = [synth.make_example(f"v{i}", t + " End marker.", "Is this it?", t.split()[0])
                for i, t in enumerate(texts)]
    return Vocabulary.build(examples)


# ---------------------------------------------------------------- vocab

def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("What does IBM stand for?") == ["what", "does", "ibm", "stand", "for", "?"]


def test_frequency_order():
    ex = synth.make_example("f", "a a b.", "a?", "a")
    v = Vocabulary.build([ex])
    assert v.token_to_id["a"] < v.token_to_id["b"]
    assert v.token_to_id["a"] >= N_SPECIALS


def test_fifty_example_vocab_size_bound():
    examples = synth.memorization_examples()
    v = Vocabulary.build(examples, max_size=200)
    assert len(v) <= 206
    tally = Counter()
    for ex in examples:
        d = ex.document
        for text in (d.context, d.question, d.answer_text):
            tally.update(tokenize(text))
    assert len(v) == N_SPECIALS + min(len(tally), 200)


def test_max_size_truncates_by_frequency():
    ex = synth.make_example("f", "x x x y y z.", "x?", "x")
    v = Vocabulary.build([ex], max_size=2)
    assert "x" in v.token_to_id and "y" in v.token_to_id
    assert "z" not in v.token_to_id


# Tokens whose str order differs from other plausible orders: digits that
# sort "10" < "9", a non-ASCII letter, punctuation, prefixes of each other.
_VOCAB_POOL = ["a", "ab", "b", "10", "9", "\u00e9", "z", ",", "_x", "\u0663"]


@settings(max_examples=200)
@given(st.lists(st.lists(st.sampled_from(_VOCAB_POOL), min_size=1, max_size=12),
                min_size=1, max_size=4),
       st.integers(1, len(_VOCAB_POOL) + 2))
@example([["b", "a", "c", "b", "a", "c", "d"]], 2)  # the cut falls inside a tie
def test_vocab_order_matches_the_tuple_key_sort(contexts, max_size):
    examples = [synth.make_example(f"t{i}", " ".join(words), "?", words[0])
                for i, words in enumerate(contexts)]
    counts = Counter()
    for ex in examples:
        d = ex.document
        for text in (d.context, d.question, d.answer_text):
            counts.update(tokenize(text))
    v = Vocabulary.build(examples, max_size=max_size)
    assert v.id_to_token[N_SPECIALS:] == vocab_order_tuple_key(counts, 1, max_size)


_ROCKS = synth.make_example("e", "Crews kept rocks.", "What?", "rocks")


@pytest.mark.parametrize("build,message", [
    (lambda: Vocabulary(["a", "b"]), "vocabulary must start with the special tokens"),
    (lambda: Vocabulary.build([_ROCKS], max_size=0), "max_size must be positive"),
    (lambda: assemble_model_input(_ROCKS, Vocabulary.build([_ROCKS]), max_len=7),
     "max_len must be at least 8"),
    (lambda: assemble_model_input(synth.make_example("w", "Crews kept rocks.", "What?", " "),
                                  Vocabulary.build([_ROCKS])),
     "w: answer has no tokens"),
], ids=["no-special-tokens", "max-size-0", "max-len-7", "whitespace-answer"])
def test_vocab_and_assembly_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_build_requires_examples():
    with pytest.raises(ValueError):
        Vocabulary.build([])


# -------------------------------------------------------- encode/decode

def test_round_trip(tiny_vocab):
    ids = tiny_vocab.encode("What is IBM ?")
    assert tiny_vocab.decode(ids) == "what is ibm ?"


def test_unknown_token_maps_to_unk(tiny_vocab):
    ids = tiny_vocab.encode("what zzzunseen ?")
    assert ids[1] == UNK_ID


def test_decode_stops_at_eos(tiny_vocab):
    a, b = tiny_vocab.encode("what is")
    assert tiny_vocab.decode([a, EOS_ID, b]) == tiny_vocab.id_to_token[a]


def test_decode_skips_pad_and_bos(tiny_vocab):
    a, b = tiny_vocab.encode("what is")
    assert tiny_vocab.decode([PAD_ID, BOS_ID, a, b]) == "what is"


def test_decode_range_checked(tiny_vocab):
    with pytest.raises(ValueError):
        tiny_vocab.decode([len(tiny_vocab)])


def test_save_load_round_trip(tmp_path, tiny_vocab):
    p = str(tmp_path / "vocab.txt")
    tiny_vocab.save(p)
    back = Vocabulary.load(p)
    assert back.id_to_token == tiny_vocab.id_to_token
    assert back.sha256() == tiny_vocab.sha256()


def test_load_rejects_missing_header(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_text("just\nwords\n")
    with pytest.raises(SchemaError):
        Vocabulary.load(str(p))


@pytest.mark.parametrize("body", ["apple\nbanana\napple\n", "apple\n<pad>\n"])
def test_load_rejects_duplicate_token_naming_the_file(tmp_path, tiny_vocab, body):
    p = tmp_path / "vocab.txt"
    header = tiny_vocab.serialize().splitlines()[0]
    p.write_text(f"{header}\n{body}", encoding="utf-8")
    with pytest.raises(SchemaError, match="duplicate token") as exc:
        Vocabulary.load(str(p))
    assert str(p) in str(exc.value)


# ------------------------------------------------------ input assembly

def test_ibm_input_has_four_ordinals(ibm_example, tiny_vocab):
    mi = assemble_model_input(ibm_example, tiny_vocab, max_len=256)
    ctx_ordinals = set(mi.sentence_index[mi.sentence_index >= 0])
    assert ctx_ordinals == {0, 1, 2, 3}
    assert mi.kept_sentences.index(ibm_example.answer_sentence) == 1


def test_layout_and_masks(ibm_example, tiny_vocab):
    mi = assemble_model_input(ibm_example, tiny_vocab, max_len=256)
    ids = list(mi.token_ids)
    assert ids[0] == CLS_ID
    assert ids.count(CLS_ID) == 1
    assert ids.count(SEP_ID) == 2
    assert ids[-1] == SEP_ID
    answer_ids = tiny_vocab.encode(ibm_example.document.answer_text)
    assert answer_ids
    # answer segment sits between the two SEPs, off every sentence
    first_sep = ids.index(SEP_ID)
    assert ids[first_sep + 1:-1] == answer_ids
    assert all(mi.sentence_index[first_sep:] == -1)


def test_single_sentence_all_ordinal_zero(tiny_vocab):
    ex = synth.make_example("s", "Water boils at one hundred degrees", "What boils?", "Water")
    mi = assemble_model_input(ex, tiny_vocab)
    ctx = mi.sentence_index[mi.sentence_index >= 0]
    assert set(ctx) == {0}


def test_context_ordinals_non_decreasing(tiny_examples, tiny_vocab):
    for ex in tiny_examples:
        mi = assemble_model_input(ex, tiny_vocab)
        ctx = [o for o in mi.sentence_index if o >= 0]
        assert ctx == sorted(ctx)
        assert ctx[0] == 0 and set(ctx) == set(range(max(ctx) + 1))


def _four_sentence_example(answer_sentence: int):
    sents = ["Alpha alpha alpha.", "Bravo bravo bravo.",
             "Charlie charlie charlie.", "Delta delta delta."]
    ctx = " ".join(sents)
    answer = sents[answer_sentence].split()[1].rstrip(".")
    return synth.make_example("4s", ctx, "Which word?", answer)


def test_truncation_drops_farthest_sentence_first():
    ex = _four_sentence_example(answer_sentence=1)
    v = Vocabulary.build([ex])
    full = assemble_model_input(ex, v, max_len=256)
    assert full.kept_sentences == [0, 1, 2, 3]
    # room for three sentences only: distances from s1 are (1,0,1,2) -> s3 goes
    trimmed = assemble_model_input(ex, v, max_len=full.length - 1)
    assert trimmed.kept_sentences == [0, 1, 2]
    assert trimmed.kept_sentences.index(ex.answer_sentence) == 1


def test_truncation_distance_tie_drops_larger_index():
    ex = _four_sentence_example(answer_sentence=1)
    v = Vocabulary.build([ex])
    full = assemble_model_input(ex, v, max_len=256)
    # each sentence is 4 tokens; allow exactly one more drop after s3:
    # distances from s1 are then (1, -, 1), tie, so the larger index s2 goes
    twice = assemble_model_input(ex, v, max_len=full.length - 8)
    assert twice.kept_sentences == [0, 1]


def test_answer_segment_never_truncated():
    ex = _four_sentence_example(answer_sentence=0)
    v = Vocabulary.build([ex])
    mi = assemble_model_input(ex, v, max_len=8)
    answer_ids = v.encode(ex.document.answer_text)
    assert len(answer_ids) == 1
    assert list(mi.token_ids[-3:]) == [SEP_ID, *answer_ids, SEP_ID]
    with pytest.raises(InputTooLongError):
        long_ans = synth.make_example(
            "la", "One two three four five six seven eight nine ten.",
            "What?", "One two three four five six seven eight nine ten")
        assemble_model_input(long_ans, Vocabulary.build([long_ans]), max_len=8)


def test_keep_filters_sentences(ibm_example, tiny_vocab):
    mi = assemble_model_input(ibm_example, tiny_vocab).restrict([1, 2])
    assert mi.kept_sentences == [1, 2]
    assert set(mi.sentence_index[mi.sentence_index >= 0]) == {0, 1}
    # the answer sentence 1 is re-based to ordinal 0
    assert mi.kept_sentences.index(ibm_example.answer_sentence) == 0


def test_keep_out_of_range_rejected(ibm_example, tiny_vocab):
    with pytest.raises(ValueError):
        assemble_model_input(ibm_example, tiny_vocab).restrict([9])


def test_restrict_refuses_a_sentence_truncation_dropped():
    ex = _four_sentence_example(answer_sentence=1)
    v = Vocabulary.build([ex])
    trimmed = assemble_model_input(ex, v, max_len=assemble_model_input(ex, v).length - 1)
    assert trimmed.kept_sentences == [0, 1, 2]
    with pytest.raises(ValueError, match="does not hold"):
        trimmed.restrict([1, 3])


_RESTRICT_POOL = (synth.selector_examples(n=8)[0] + synth.sweep_examples(4)
                  + synth.memorization_examples()[:4]
                  + [_four_sentence_example(a) for a in range(4)])
_RESTRICT_VOCAB = Vocabulary.build(_RESTRICT_POOL)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_restrict_equals_reassembly_over_keep(data):
    ex = data.draw(st.sampled_from(_RESTRICT_POOL))
    full = assemble_model_input(ex, _RESTRICT_VOCAB)
    overhead = int(np.sum(full.sentence_index < 0))
    # from the answer segment alone up to the full length: most draws truncate
    max_len = data.draw(st.integers(max(8, overhead), full.length))
    mi = assemble_model_input(ex, _RESTRICT_VOCAB, max_len)
    keep = (data.draw(st.lists(st.sampled_from(mi.kept_sentences), max_size=6))
            if mi.kept_sentences else [])
    cut = mi.restrict(keep)
    want = assemble_over_keep(ex, _RESTRICT_VOCAB, max_len, keep)
    for f in ("token_ids", "sentence_index"):
        got, expected = getattr(cut, f), getattr(want, f)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), f
    assert cut.kept_sentences == want.kept_sentences


# ------------------------------------------------------------ batching

def test_pad_batch_shapes(tiny_examples, tiny_vocab):
    inputs = [assemble_model_input(ex, tiny_vocab) for ex in tiny_examples]
    batch = pad_batch(inputs)
    tmax = max(mi.length for mi in inputs)
    assert batch["token_ids"].shape == (len(inputs), tmax)
    for b, mi in enumerate(inputs):
        t = mi.length
        assert np.array_equal(batch["token_ids"][b, :t], mi.token_ids)
        assert np.all(batch["token_ids"][b, t:] == PAD_ID)
        assert np.all(batch["nonpad"][b, :t] == 1)
        assert np.all(batch["nonpad"][b, t:] == 0)
        assert np.all(batch["sentence_index"][b, t:] == -1)


def test_pad_rows_keeps_one_column_for_empty_rows():
    padded, mask = pad_rows([np.zeros(0, dtype=np.int64)] * 2, 7)
    assert padded.tolist() == [[7], [7]] and mask.tolist() == [[0], [0]]
    padded, mask = pad_rows([[4, 5], [], [6]], -1)
    assert padded.tolist() == [[4, 5], [-1, -1], [6, -1]]
    assert mask.dtype == np.int64 and mask.tolist() == [[1, 1], [0, 0], [1, 0]]


def test_pad_batch_rejects_empty():
    with pytest.raises(ValueError):
        pad_batch([])

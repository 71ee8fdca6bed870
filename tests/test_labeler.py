"""Weak-supervision labeling: ranking, top-k labels, question types."""
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jointqg.embedding import BagMeanBackend, PrecomputedBackend
from jointqg.errors import SchemaError
from jointqg.labeler import (
    QUESTION_TYPES,
    RelevanceLabels,
    label_examples,
    make_relevance_labels,
    question_type_index,
    question_type_of,
    rank_sentences,
    read_labels_jsonl,
    write_labels_jsonl,
)
from synth import make_example


class FirstTokenBackend:
    """Stub: the embedding of a token list is a fixed vector keyed by the
    first token. Gives exact, hand-checkable cosine scores."""

    def __init__(self, table):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}

    def embed_tokens(self, tokens):
        return self.table[tokens[0]]


# 3-4-5 triangles: cosines against [1, 0] are exactly 0.8, 0.6, 0.0
_STUB = FirstTokenBackend({
    "one": [1.0, 0.0],
    "bravo": [4.0, 3.0],
    "alpha": [3.0, 4.0],
    "charlie": [0.0, 1.0],
})


# ---------------------------------------------------------------- ranking

def test_rank_descending():
    assert rank_sentences([0.1, 0.9, 0.5]) == [1, 2, 0]


def test_rank_tie_keeps_earlier_first():
    assert rank_sentences([0.2, 0.9, 0.9]) == [1, 2, 0]
    assert rank_sentences([0.5, 0.5, 0.5]) == [0, 1, 2]


def test_rank_empty():
    assert rank_sentences([]) == []


@given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False),
                min_size=1, max_size=8))
def test_rank_is_sorted_permutation(scores):
    order = rank_sentences(scores)
    assert sorted(order) == list(range(len(scores)))
    for a, b in zip(order, order[1:]):
        assert scores[a] > scores[b] or (scores[a] == scores[b] and a < b)


@given(st.permutations(list(range(6))))
def test_rank_equivariant_for_unique_scores(perm):
    base = [0.9, 0.7, 0.5, 0.3, 0.1, -0.2]
    scores = [base[p] for p in perm]
    order = rank_sentences(scores)
    # unique scores: position j in the ranking holds the j-th largest
    assert [scores[i] for i in order] == sorted(base, reverse=True)


# ---------------------------------------------------------- top-k labels

def _stub_example(context):
    return make_example("stub-1", context, "Where is it?", "one")


def test_topk_labels_hand_scores():
    ex = _stub_example("Bravo one. Alpha two. Charlie three.")
    lab = make_relevance_labels(ex, _STUB, 2)
    assert lab.scores == (0.8, 0.6, 0.0)
    assert lab.labels == (1, 1, 0)


def test_topk_tie_prefers_earlier_sentence():
    ex = _stub_example("Alpha one. Alpha two. Charlie three.")
    lab = make_relevance_labels(ex, _STUB, 1)
    assert lab.scores[0] == lab.scores[1]
    assert lab.positive_indices() == [0]


def test_k_at_least_sentence_count_marks_all():
    ex = _stub_example("Bravo one. Alpha two. Charlie three.")
    lab = make_relevance_labels(ex, _STUB, 7)
    assert lab.labels == (1, 1, 1)
    assert sum(lab.labels) == min(7, 3)


def test_k_below_one_rejected():
    ex = _stub_example("Bravo one. Alpha two.")
    with pytest.raises(ValueError):
        make_relevance_labels(ex, _STUB, 0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_label_count_invariant_bag_mean(tiny_examples, k):
    backend = BagMeanBackend(dim=32, seed=0)
    for lab in label_examples(tiny_examples, backend, k):
        assert sum(lab.labels) == min(k, len(lab.labels))
        assert all(y in (0, 1) for y in lab.labels)


def test_labels_validation():
    with pytest.raises(ValueError):
        RelevanceLabels((1, 0), (0.5, 0.4, 0.3), k=1)  # length mismatch
    with pytest.raises(ValueError):
        RelevanceLabels((1, 1, 0), (0.5, 0.4, 0.3), k=1)  # sum != min(k, n)


def test_table_lookup_vectors_pick_paraphrase_sentence(ibm_example, data_dir):
    # the sentence naming the initialism shares no content word with the
    # answer phrase; lookup vectors built for that pairing still rank it
    # inside the k=2 cut, alongside the renaming sentence
    backend = PrecomputedBackend(str(data_dir / "vectors_ibm.tsv"))
    lab = make_relevance_labels(ibm_example, backend, 2)
    assert lab.positive_indices() == [1, 2]
    assert lab.labels[ibm_example.answer_sentence] == 1


# ------------------------------------------------------- question types

def test_question_type_inventory():
    assert QUESTION_TYPES == ("what", "who", "when", "where",
                              "why", "how", "which", "other")
    for i, q in enumerate(QUESTION_TYPES):
        assert question_type_index(q) == i
    with pytest.raises(ValueError):
        question_type_index("whence")


@pytest.mark.parametrize("question,expected", [
    ("What does IBM stand for?", "what"),
    ("In what year was CTR renamed?", "what"),
    ("To whom was the letter sent?", "who"),
    ("Whose signature is on the deed?", "who"),
    ("Who founded the firm?", "who"),
    ("When did trading begin?", "when"),
    ("Where was Marie Curie born?", "where"),
    ("Why did the market close?", "why"),
    ("How large is the river basin?", "how"),
    ("Which country contains most of the basin?", "which"),
    ("Name the longest river.", "other"),
])
def test_question_type_of(question, expected):
    assert question_type_of(question) == expected


def test_question_type_empty_rejected():
    with pytest.raises(ValueError):
        question_type_of("")


# ------------------------------------------------------------ jsonl io

def test_labels_jsonl_round_trip(tiny_examples, tmp_path):
    backend = BagMeanBackend(dim=16, seed=3)
    labels = label_examples(tiny_examples, backend, 2)
    path = tmp_path / "labels.jsonl"
    write_labels_jsonl(tiny_examples, labels, str(path))

    records = read_labels_jsonl(str(path))
    assert set(records) == {ex.document.id for ex in tiny_examples}
    for ex, lab in zip(tiny_examples, labels):
        rec = records[ex.document.id]
        assert rec["labels"].labels == lab.labels
        assert rec["labels"].scores == lab.scores  # json floats round-trip
        assert rec["labels"].k == lab.k
        assert rec["qtype"] == question_type_of(ex.document.question)


def test_labels_jsonl_write_length_mismatch(tiny_examples, tmp_path):
    with pytest.raises(ValueError):
        write_labels_jsonl(tiny_examples, [], str(tmp_path / "x.jsonl"))


def test_labels_jsonl_bad_record(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "a", "relevance": [1]}) + "\n")
    with pytest.raises(SchemaError, match="bad.jsonl:1"):
        read_labels_jsonl(str(path))


def test_labels_jsonl_non_json_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "a", "relevance": [1], "scores": [0.5],
                                "k": 1, "qtype": "what"}) + "\n[1,\n")
    with pytest.raises(SchemaError, match="bad.jsonl:2: not valid JSON"):
        read_labels_jsonl(str(path))


def test_labels_jsonl_repeated_id_is_refused(tmp_path):
    rec = {"id": "a", "relevance": [1], "scores": [0.5], "k": 1, "qtype": "what"}
    other = dict(rec, id="b")
    path = tmp_path / "dup.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in (rec, other, dict(rec, k=2))))
    with pytest.raises(SchemaError, match=r"dup.jsonl:3: repeats id 'a' of line 1"):
        read_labels_jsonl(str(path))


def test_labels_jsonl_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(SchemaError):
        read_labels_jsonl(str(path))

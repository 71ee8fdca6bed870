"""Loader, sentence splitter and answer alignment."""
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointqg.corpus import (
    _ABBREVIATIONS, _QUOTES, _TERMINATORS,
    AlignmentError, EmptyDatasetError, QAExample, RawDocument, SchemaError,
    SentenceSpan, align_answer, build_example, load_squad_json, read_corpus_jsonl,
    split_sentences, write_corpus_jsonl,
)

import synth
from oracles import split_sentences_char_scan


def collapse(s: str) -> str:
    return re.sub(r"\s+", " ", s).strip()


# ------------------------------------------------------------- loading

def test_fixture_loads_five_examples(tiny_examples):
    assert len(tiny_examples) == 5
    assert [e.document.id for e in tiny_examples] == [
        "ibm-1", "curie-1", "curie-2", "amazon-1", "amazon-2"]


def test_loaded_answers_verify_by_substring(tiny_examples):
    for ex in tiny_examples:
        d = ex.document
        assert d.context[d.answer_start:d.answer_start + len(d.answer_text)] == d.answer_text


def test_empty_data_list_is_an_error(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"data": []}))
    with pytest.raises(EmptyDatasetError):
        load_squad_json(str(p))


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        load_squad_json(str(tmp_path / "nope.json"))


def test_schema_error_names_offending_path(tmp_path):
    bad = {"data": [{"paragraphs": [{"context": "Some text.", "qas": [
        {"question": "Why?"}  # answers missing
    ]}]}]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(SchemaError, match=r"data\[0\].paragraphs\[0\].qas\[0\]"):
        load_squad_json(str(p))


def _one_qa(qa=None, context="The sky is blue today."):
    qa = qa or {"id": "q", "question": "What is blue?",
                "answers": [{"text": "sky", "answer_start": 4}]}
    return {"data": [{"paragraphs": [{"context": context, "qas": [qa]}]}]}


_QA0 = r"data\[0\]\.paragraphs\[0\]\.qas\[0\]"


@pytest.mark.parametrize("payload,message", [
    ([], r"expected a top-level object with a 'data' list"),
    ({"data": {}}, r"expected a top-level object with a 'data' list"),
    ({"data": [{"title": "t"}]}, r"data\[0\] lacks a 'paragraphs' list"),
    ({"data": [{"paragraphs": [{"qas": []}]}]},
     r"data\[0\]\.paragraphs\[0\] needs 'context' and 'qas'"),
    ({"data": [{"paragraphs": [{"context": "C.", "qas": {}}]}]},
     r"data\[0\]\.paragraphs\[0\] needs 'context' and 'qas'"),
    (_one_qa({"answers": [{"text": "sky", "answer_start": 4}]}), _QA0 + " lacks a question"),
    (_one_qa({"question": "Q?", "answers": []}), _QA0 + " lacks answers"),
    (_one_qa({"question": "Q?", "answers": [{"text": "sky"}]}),
     _QA0 + " answer needs text and answer_start"),
    (_one_qa({"question": "Q?", "answers": ["sky"]}), _QA0 + " answer needs text and answer_start"),
    (_one_qa({"question": "Q?", "answers": [{"text": "sky", "answer_start": "four"}]}),
     _QA0 + " answer_start is not an integer"),
    (_one_qa({"question": "Q?", "answers": [{"text": "sky", "answer_start": None}]}),
     _QA0 + " answer_start is not an integer"),
], ids=["top-level-list", "data-not-a-list", "no-paragraphs", "no-context", "qas-not-a-list",
        "no-question", "empty-answers", "no-answer-start", "answer-not-an-object",
        "answer-start-text", "answer-start-null"])
def test_squad_structure_error_names_its_entry(tmp_path, payload, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match=r"bad\.json: " + message):
        load_squad_json(str(p))


def test_refused_document_is_dropped_with_its_reason(tmp_path):
    # an empty question aligns, but RawDocument refuses it
    data = _one_qa()
    data["data"][0]["paragraphs"][0]["qas"].append(
        {"id": "blank", "question": "", "answers": [{"text": "sky", "answer_start": 4}]})
    p = tmp_path / "blank.json"
    p.write_text(json.dumps(data))
    examples, stats = load_squad_json(str(p), return_stats=True)
    assert [e.document.id for e in examples] == ["q"]
    assert stats.total == 2 and stats.loaded == 1 and stats.dropped == 1
    assert stats.drop_reasons == ["blank: blank: empty question"]


def test_repeated_squad_id_is_refused(tmp_path):
    qa = {"id": "q1", "question": "What is blue?",
          "answers": [{"text": "sky", "answer_start": 4}]}
    data = {"data": [{"paragraphs": [
        {"context": "The sky is blue today.", "qas": [qa]},
        {"context": "The sky is grey now.", "qas": [dict(qa, id="q2"), qa]},
    ]}]}
    p = tmp_path / "dup.json"
    p.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=r"data\[0\].paragraphs\[1\].qas\[1\] repeats id "
                                          r"'q1' of data\[0\].paragraphs\[0\].qas\[0\]"):
        load_squad_json(str(p))


def test_not_json_is_schema_error(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{nope")
    with pytest.raises(SchemaError):
        load_squad_json(str(p))


def test_unalignable_answer_dropped_and_counted(tmp_path):
    data = {"data": [{"paragraphs": [{"context": "The sky is blue today.", "qas": [
        {"id": "ok", "question": "What is blue?",
         "answers": [{"text": "sky", "answer_start": 4}]},
        {"id": "gone", "question": "What is red?",
         "answers": [{"text": "strawberry", "answer_start": 4}]},
    ]}]}]}
    p = tmp_path / "drop.json"
    p.write_text(json.dumps(data))
    examples, stats = load_squad_json(str(p), return_stats=True)
    assert [e.document.id for e in examples] == ["ok"]
    assert stats.total == 2 and stats.loaded == 1 and stats.dropped == 1
    assert "gone" in stats.drop_reasons[0]


def test_wrong_offset_is_realigned(tmp_path):
    ctx = "Alpha beta gamma. Beta comes second."
    data = {"data": [{"paragraphs": [{"context": ctx, "qas": [
        {"id": "shift", "question": "What comes second?",
         "answers": [{"text": "Beta", "answer_start": 3}]},
    ]}]}]}
    p = tmp_path / "shifted.json"
    p.write_text(json.dumps(data))
    examples, stats = load_squad_json(str(p), return_stats=True)
    assert stats.realigned == 1
    d = examples[0].document
    assert d.answer_start == ctx.index("Beta")


def test_load_is_deterministic(data_dir):
    path = str(data_dir / "squad_tiny.json")
    assert load_squad_json(path) == load_squad_json(path)


# ----------------------------------------------------- sentence splitting

def test_ibm_context_splits_into_four(ibm_example):
    ctx = ibm_example.document.context
    texts = [s.text(ctx) for s in ibm_example.sentences]
    assert len(texts) == 4
    assert texts[1].startswith("CTR was renamed")
    assert texts[2] == "The initialism IBM followed."


def test_no_terminator_is_one_sentence():
    spans = split_sentences("Hello world")
    assert len(spans) == 1
    assert (spans[0].start, spans[0].end) == (0, len("Hello world"))


def test_middle_initial_does_not_split():
    text = "A name which Thomas J. Watson used. It stuck."
    spans = split_sentences(text)
    assert len(spans) == 2
    assert spans[0].text(text).endswith("used.")


def test_abbreviation_stoplist_holds():
    text = "Dr. Smith arrived late. Mr. Jones left early."
    spans = split_sentences(text)
    assert [s.text(text) for s in spans] == [
        "Dr. Smith arrived late.", "Mr. Jones left early."]


def test_split_requires_following_capital():
    # lowercase after the period: no boundary
    assert len(split_sentences("pi is 3.14 about. roughly so")) == 1


def test_split_before_digit_and_quote():
    text = 'Prices rose. 30 percent was the peak. "Quite high." He nodded.'
    texts = [s.text(text) for s in split_sentences(text)]
    assert texts[0] == "Prices rose."
    assert texts[1] == "30 percent was the peak."
    assert texts[2] == '"Quite high."'
    assert texts[3] == "He nodded."


def test_empty_text_rejected():
    with pytest.raises(ValueError):
        split_sentences(None)
    with pytest.raises(ValueError):
        split_sentences("")


def test_spans_sorted_and_disjoint(tiny_examples):
    for ex in tiny_examples:
        spans = ex.sentences
        for a, b in zip(spans, spans[1:]):
            assert a.end <= b.start


def test_spans_cover_context_modulo_whitespace(tiny_examples):
    for ex in tiny_examples:
        ctx = ex.document.context
        joined = " ".join(s.text(ctx) for s in ex.sentences)
        assert collapse(joined) == collapse(ctx)


@given(st.text(alphabet="abZ .!?\"'9\n", min_size=1, max_size=60))
def test_split_covers_any_text(text):
    spans = split_sentences(text)
    joined = " ".join(text[s.start:s.end] for s in spans)
    assert collapse(joined) == collapse(text)


# Characters that each rule of the splitter reads: terminators, every quote,
# ASCII and non-ASCII whitespace, capitals (ASCII, accented, single-letter
# initials), a titlecase letter that is not upper, ASCII and non-ASCII
# digits (Arabic-Indic, a superscript that isdigit but not isdecimal).
_SPLIT_CHARS = sorted(_TERMINATORS | _QUOTES) + list("\t\n\xa0 \u2003\x1c"
                                                    "ÉAJZǅabzß09٣²")


def _mixed_case(word, flips):
    return "".join(c.upper() if f else c for c, f in zip(word, flips))


_SPLIT_TEXT = st.lists(
    st.one_of(
        st.sampled_from(_SPLIT_CHARS),
        st.builds(_mixed_case, st.sampled_from(sorted(_ABBREVIATIONS)),
                  st.lists(st.booleans(), min_size=6, max_size=6)),
    ),
    min_size=1, max_size=40,
).map("".join)


@settings(max_examples=400)  # each example takes microseconds
@given(_SPLIT_TEXT)
@example("Thomas J. Watson met Dr. Ada. \u201cYes!\u201d 3 cats. ETC. Done.")
@example("a.'. B")  # the second period starts its own run after the quote
@example("a.\"' B")  # only one closing quote belongs to a boundary
@example("a.B c. ² d. ǅ")  # no whitespace; a digit that is not decimal; titlecase
@example("Hi?!\u2019 \xa0\u0663 x. É")
def test_split_matches_the_character_scan(text):
    want = split_sentences_char_scan(text, _TERMINATORS, _QUOTES, _ABBREVIATIONS)
    assert [(s.start, s.end) for s in split_sentences(text)] == want


# ------------------------------------------------------------ alignment

def test_ibm_answer_aligns_to_sentence_one(ibm_example):
    assert ibm_example.answer_sentence == 1
    assert ibm_example.multi_sentence is False


def test_answer_at_offset_zero():
    ex = synth.make_example("t", "Water boils at one hundred degrees.",
                            "What boils?", "Water")
    assert ex.answer_sentence == 0


def test_answer_crossing_boundary_is_flagged():
    ctx = "The old mill stands. It grinds grain daily."
    doc = RawDocument("x", ctx, "What stands?", "stands. It grinds",
                      ctx.index("stands."))
    ex = build_example(doc)
    assert ex.answer_sentence == 0
    assert ex.multi_sentence is True


def test_offset_outside_spans_errors():
    spans = split_sentences("One. Two.")
    with pytest.raises(AlignmentError):
        align_answer(spans, 200, 203)


def test_raw_document_invariants_enforced():
    with pytest.raises(ValueError):
        RawDocument("b", "short", "q?", "missing", 0)
    with pytest.raises(ValueError):
        RawDocument("b", "short", "q?", "short", -1)


_DOC = RawDocument("d", "One. Two.", "Which?", "Two", 5)


def _blank_lines_only(tmp_path):
    path = tmp_path / "blank.jsonl"
    path.write_text("\n  \n\t\n")
    return read_corpus_jsonl(str(path))


@pytest.mark.parametrize("build,error,message", [
    (lambda tmp_path: SentenceSpan(3, 3), ValueError, r"bad span \[3, 3\)"),
    (lambda tmp_path: RawDocument("d", "", "q?", "a", 0), ValueError, "d: empty context"),
    (lambda tmp_path: RawDocument("d", "abc", "q?", "", 0), ValueError, "d: empty answer"),
    (lambda tmp_path: RawDocument("d", "abc", "q?", "bc", 0), ValueError,
     "d: answer text does not match context slice"),
    (lambda tmp_path: QAExample(_DOC, (), 0), ValueError, "d: no sentences"),
    (lambda tmp_path: QAExample(_DOC, (SentenceSpan(0, 4), SentenceSpan(5, 9)), 2),
     ValueError, "d: answer sentence index out of range"),
    (lambda tmp_path: align_answer(split_sentences("One. Two."), 5, 5), ValueError,
     "empty answer span"),
    (lambda tmp_path: build_example(RawDocument("w", " \t ", "q?", " ", 0)), AlignmentError,
     "w: context has no sentences"),
    (_blank_lines_only, EmptyDatasetError, r"blank\.jsonl: no records"),
], ids=["empty-span", "empty-context", "empty-answer", "slice-mismatch",
        "no-sentences", "answer-sentence-out-of-range", "empty-answer-span",
        "whitespace-context", "blank-lines-only"])
def test_corpus_refusals_name_the_problem(tmp_path, build, error, message):
    with pytest.raises(error, match=message):
        build(tmp_path)


# ----------------------------------------------------------- round trip

def test_corpus_jsonl_round_trip(tmp_path, tiny_examples):
    path = str(tmp_path / "corpus.jsonl")
    write_corpus_jsonl(tiny_examples, path)
    back = read_corpus_jsonl(path)
    assert back == tiny_examples
    with open(path, encoding="utf-8") as fh:
        rec = json.loads(fh.readline())
    assert set(rec) == {"id", "context", "question", "answer_text",
                        "answer_start", "sentences", "answer_sentence"}


def test_corpus_jsonl_bad_lines_name_path_and_line(tmp_path, tiny_examples):
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(tiny_examples[:1], str(path))
    good = path.read_text()
    path.write_text(good + "\n{not json\n")
    with pytest.raises(SchemaError, match=r"corpus.jsonl:3: not valid JSON"):
        read_corpus_jsonl(str(path))
    rec = json.loads(good)
    del rec["question"]
    path.write_text(good + json.dumps(rec) + "\n")
    with pytest.raises(SchemaError, match=r"corpus.jsonl:2: bad corpus record"):
        read_corpus_jsonl(str(path))


def test_corpus_jsonl_repeated_id_is_refused(tmp_path, tiny_examples):
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(tiny_examples[:2], str(path))
    first = path.read_text().splitlines()[0]
    path.write_text(path.read_text() + first + "\n")
    with pytest.raises(SchemaError, match=r"corpus.jsonl:3: repeats id .* of line 1"):
        read_corpus_jsonl(str(path))


# A 38-character, three-sentence context with its answer in sentence 2.
_THREE = synth.make_example("three", "Ann ran. Bob sat down. Cyd ate a pear.",
                            "What did Cyd eat?", "a pear")


@pytest.mark.parametrize("field,value,problem", [
    ("answer_sentence", 0, r"answer_sentence 0, but the answer starts in sentence 2"),
    ("sentences", [[0, 8], [9, 22], [25, 380]], r"span \[25, 380\) ends past"),
    ("sentences", [[9, 22], [0, 8], [23, 38]], r"span \[0, 8\) does not follow \[9, 22\)"),
    ("sentences", [[0, 10], [9, 22], [23, 38]], r"span \[9, 22\) does not follow \[0, 10\)"),
], ids=["wrong-answer-sentence", "span-past-context", "spans-out-of-order",
        "spans-overlap"])
def test_corpus_jsonl_self_contradicting_record_is_refused(tmp_path, field, value, problem):
    assert len(_THREE.document.context) == 38
    assert [[s.start, s.end] for s in _THREE.sentences] == [[0, 8], [9, 22], [23, 38]]
    assert _THREE.answer_sentence == 2
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl([_THREE], str(path))
    rec = json.loads(path.read_text())
    rec[field] = value
    path.write_text(path.read_text() + json.dumps(rec | {"id": "bad"}) + "\n")
    with pytest.raises(SchemaError, match=r"corpus.jsonl:2: bad corpus record: " + problem):
        read_corpus_jsonl(str(path))

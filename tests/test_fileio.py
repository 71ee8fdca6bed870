"""Run artifacts are written whole or not at all: each writer serialises its
payload first and renames a temp file beside the target into place."""
import dataclasses
import json
import os

import pytest

from jointqg import harness as H
from jointqg.corpus import example_to_record, read_corpus_jsonl, write_corpus_jsonl
from jointqg.decoding import read_predictions_jsonl
from jointqg.errors import SchemaError
from jointqg.fileio import read_jsonl, read_keyed_jsonl, write_atomic, write_jsonl
from jointqg.labeler import RelevanceLabels, read_labels_jsonl, write_labels_jsonl
from jointqg.metrics import score_corpus, write_report_json

import synth


def test_write_atomic_writes_text_as_utf8_and_bytes_as_given(tmp_path):
    path = tmp_path / "a.txt"
    write_atomic(str(path), "één\n")
    assert path.read_bytes() == "één\n".encode("utf-8")
    write_atomic(str(path), b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    assert os.listdir(tmp_path) == ["a.txt"]


def test_jsonl_round_trip_skips_blank_lines_and_counts_them(tmp_path):
    path = tmp_path / "a.jsonl"
    write_jsonl(str(path), [{"q": "één"}, [1, 2]])
    assert path.read_text(encoding="utf-8") == '{"q": "één"}\n[1, 2]\n'
    path.write_text(path.read_text(encoding="utf-8") + "\n  \n7\n", encoding="utf-8")
    assert list(read_jsonl(str(path))) == [(1, {"q": "één"}), (2, [1, 2]), (5, 7)]
    path.write_text('{"q": 1}\n{"q":\n', encoding="utf-8")
    with pytest.raises(SchemaError, match="a.jsonl:2: not valid JSON"):
        list(read_jsonl(str(path)))


def _parse_even(rec):
    if rec["n"] % 2:
        raise ValueError(f"odd n {rec['n']}")
    return rec["id"], rec["n"]


def test_keyed_jsonl_skips_blanks_names_bad_lines_and_first_ids(tmp_path):
    path = tmp_path / "k.jsonl"
    path.write_text('{"id": "a", "n": 0}\n\n{"id": "b", "n": 2}\n')
    assert read_keyed_jsonl(str(path), _parse_even) == {"a": 0, "b": 2}
    path.write_text('{"id": "a", "n": 0}\n\n{"id": "b", "n": 3}\n')
    with pytest.raises(SchemaError, match=r"k\.jsonl:3: odd n 3") as info:
        read_keyed_jsonl(str(path), _parse_even)
    assert isinstance(info.value.__cause__, ValueError)
    path.write_text('{"id": "a", "n": 0}\n{"id": "b", "n": 2}\n\n{"id": "a", "n": 4}\n')
    with pytest.raises(SchemaError, match=r"k\.jsonl:4: repeats id 'a' of line 1"):
        read_keyed_jsonl(str(path), _parse_even)
    path.write_text('{"n": 0}\n')
    with pytest.raises(KeyError):  # only a ValueError names the line
        read_keyed_jsonl(str(path), _parse_even)


# reader, one record for an id, and the ids of what the reader returns
_KEYED_READERS = {
    "corpus": (read_corpus_jsonl,
               lambda key: example_to_record(
                   synth.make_example(key, "Ann ran. Bob sat.", "Who ran?", "Ann")),
               lambda examples: [ex.document.id for ex in examples]),
    "labels": (read_labels_jsonl,
               lambda key: {"id": key, "relevance": [1, 0], "scores": [0.5, 0.1],
                            "k": 1, "qtype": "who"},
               list),
    "predictions": (read_predictions_jsonl,
                    lambda key: {"id": key, "prediction": "x", "gold": "y",
                                 "beam_size": 1, "score": -1.0},
                    lambda records: [rec["id"] for rec in records]),
}


# Only the reader/case pairs no reader-specific test covers: each reader's
# non-JSON line and repeated id are tested beside it, and the corpus
# reader's blank line only through the line number of a later error.
@pytest.mark.parametrize("reader", list(_KEYED_READERS))
def test_keyed_readers_skip_blank_lines(tmp_path, reader):
    read, record, ids_of = _KEYED_READERS[reader]
    path = tmp_path / "r.jsonl"
    path.write_text(f"{json.dumps(record('a'))}\n\n  \n{json.dumps(record('b'))}\n")
    assert ids_of(read(str(path))) == ["a", "b"]


def test_write_atomic_failed_rename_leaves_no_temp_file(tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()
    with pytest.raises(OSError):
        write_atomic(str(taken), "x")
    assert os.listdir(tmp_path) == ["taken"] and taken.is_dir()


def _report_writer(examples, bad):
    report = score_corpus([["a", "b"]], [["a", "b"]], ids=["x"])
    extra = {"config": {"seed": object() if bad else 0}}
    return lambda path: write_report_json(report, path, extra=extra)


def _labels_writer(examples, bad):
    labels = [RelevanceLabels((1,) + (0,) * (len(ex.sentences) - 1),
                              (0.5,) * len(ex.sentences), 1) for ex in examples]
    if bad:  # the last record cannot be serialised
        labels[-1] = dataclasses.replace(labels[-1],
                                         scores=(object(),) * len(labels[-1].scores))
    return lambda path: write_labels_jsonl(examples, labels, path)


def _corpus_writer(examples, bad):
    if bad:
        last = examples[-1]
        examples = examples[:-1] + [dataclasses.replace(
            last, document=dataclasses.replace(last.document, id=object()))]
    return lambda path: write_corpus_jsonl(examples, path)


@pytest.mark.parametrize("make_writer", [_report_writer, _labels_writer, _corpus_writer],
                         ids=["report", "labels", "corpus"])
def test_unserialisable_value_leaves_no_file_and_keeps_the_old_one(
        tmp_path, tiny_examples, make_writer):
    fresh, old = str(tmp_path / "fresh"), str(tmp_path / "old")
    make_writer(tiny_examples, bad=False)(old)
    with open(old, "rb") as fh:
        before = fh.read()
    for path in (fresh, old):
        with pytest.raises(TypeError):
            make_writer(tiny_examples, bad=True)(path)
    assert not os.path.exists(fresh)
    with open(old, "rb") as fh:
        assert fh.read() == before
    assert sorted(os.listdir(tmp_path)) == ["old"]


def test_csv_with_a_bad_row_leaves_the_old_file(tmp_path):
    path = str(tmp_path / "sweep_k.csv")
    H._write_csv(path, ["k"], [{"k": 1}, {"k": 2}])
    with pytest.raises(ValueError):
        H._write_csv(path, ["k"], [{"k": 1}, {"other": 3}])
    with open(path, "rb") as fh:
        assert fh.read() == b"k\r\n1\r\n2\r\n"
    assert os.listdir(tmp_path) == ["sweep_k.csv"]

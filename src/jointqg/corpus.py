"""Dataset ingestion: SQuAD-style JSON, sentence spans, answer alignment.

All text is NFC-normalized on entry so every character offset downstream
refers to the normalized string. Sentence spans are half-open [start, end)
indices into the normalized context, trimmed of surrounding whitespace.
"""
from __future__ import annotations

import json
import logging
import re
import unicodedata
from dataclasses import dataclass, field

from .errors import AlignmentError, EmptyDatasetError, SchemaError
from .fileio import read_keyed_jsonl, write_jsonl

log = logging.getLogger(__name__)

_TERMINATORS = frozenset(".!?")
_QUOTES = frozenset("\"'“”‘’")
# Common abbreviations that end with a period mid-sentence. Lowercased,
# period excluded. Single capital letters (middle initials) are guarded
# separately.
_ABBREVIATIONS = frozenset({
    "mr", "mrs", "ms", "dr", "prof", "rev", "gen", "sen", "rep", "st",
    "jr", "sr", "vs", "etc", "inc", "ltd", "co", "corp", "mt", "no",
    "vol", "fig", "al", "ca", "approx", "dept", "est", "min", "max",
})
# One candidate boundary: a run of terminators, at most one closing quote,
# then any whitespace (regex \s and str.isspace agree on every code point).
# The whitespace holds no terminator, so each search may resume after it.
_BOUNDARY = re.compile(r"([{}]+[{}]?)\s*".format(
    re.escape("".join(sorted(_TERMINATORS))), re.escape("".join(sorted(_QUOTES)))))


def normalize_text(text: str) -> str:
    """NFC-normalize; offsets elsewhere assume this has been applied."""
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class SentenceSpan:
    """Half-open character span of one sentence within its context."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad span [{self.start}, {self.end})")

    def text(self, context: str) -> str:
        return context[self.start:self.end]


@dataclass(frozen=True)
class RawDocument:
    """One (context, question, answer) triple as loaded from disk."""

    id: str
    context: str
    question: str
    answer_text: str
    answer_start: int

    def __post_init__(self):
        if not self.context:
            raise ValueError(f"{self.id}: empty context")
        if not self.question:
            raise ValueError(f"{self.id}: empty question")
        if not self.answer_text:
            raise ValueError(f"{self.id}: empty answer")
        end = self.answer_start + len(self.answer_text)
        if self.answer_start < 0 or end > len(self.context):
            raise ValueError(f"{self.id}: answer span outside context")
        if self.context[self.answer_start:end] != self.answer_text:
            raise ValueError(f"{self.id}: answer text does not match context slice")

    @property
    def answer_end(self) -> int:
        return self.answer_start + len(self.answer_text)


@dataclass(frozen=True)
class QAExample:
    """A document plus its sentence segmentation and answer location."""

    document: RawDocument
    sentences: tuple[SentenceSpan, ...]
    answer_sentence: int
    multi_sentence: bool = False

    def __post_init__(self):
        if not self.sentences:
            raise ValueError(f"{self.document.id}: no sentences")
        if not 0 <= self.answer_sentence < len(self.sentences):
            raise ValueError(f"{self.document.id}: answer sentence index out of range")

    def sentence_texts(self) -> list[str]:
        return [s.text(self.document.context) for s in self.sentences]


def _is_abbreviation(text: str, period_idx: int) -> bool:
    """True when the period at period_idx ends a known abbreviation."""
    j = period_idx
    while j > 0 and (text[j - 1].isalpha()):
        j -= 1
    word = text[j:period_idx]
    if not word:
        return False
    if len(word) == 1 and word.isupper():
        return True  # middle initial, e.g. "Thomas J. Watson"
    return word.lower() in _ABBREVIATIONS


def split_sentences(text: str) -> list[SentenceSpan]:
    """Rule-based sentence segmentation over a normalized context.

    A split happens after '.', '!' or '?' when followed by whitespace and
    then an uppercase letter, an opening quote, or a digit. Periods that
    close a known abbreviation or a single capital letter never split.
    Spans are trimmed and jointly cover every non-whitespace character.
    The text is scanned by one regex from one run of terminators to the
    next, so Python runs once per candidate boundary, not per character.
    """
    if not isinstance(text, str) or not text:
        raise ValueError("text must be a non-empty string")
    spans: list[SentenceSpan] = []
    start = 0
    n = len(text)

    def emit(lo: int, hi: int) -> None:
        while lo < hi and text[lo].isspace():
            lo += 1
        while hi > lo and text[hi - 1].isspace():
            hi -= 1
        if lo < hi:
            spans.append(SentenceSpan(lo, hi))

    for m in _BOUNDARY.finditer(text):
        i, j = m.span(1)  # the terminators and their closing quote
        k = m.end()  # the first character after the whitespace
        if j - i == 1 and text[i] == "." and _is_abbreviation(text, i):
            continue
        if j < k < n and (text[k].isupper() or text[k] in _QUOTES or text[k].isdigit()):
            emit(start, j)
            start = k
    emit(start, n)
    return spans


def align_answer(sentences: list[SentenceSpan] | tuple[SentenceSpan, ...],
                 answer_start: int, answer_end: int) -> tuple[int, bool]:
    """Locate the sentence containing answer_start.

    Returns (sentence index, multi_sentence flag); the flag is set when the
    answer continues past the end of that sentence.
    """
    if answer_end <= answer_start:
        raise ValueError("empty answer span")
    for idx, span in enumerate(sentences):
        if span.start <= answer_start < span.end:
            return idx, answer_end > span.end
    raise AlignmentError(
        f"answer offset {answer_start} falls outside every sentence span")


def build_example(doc: RawDocument) -> QAExample:
    """Segment one document and align its answer."""
    spans = split_sentences(doc.context)
    if not spans:
        raise AlignmentError(f"{doc.id}: context has no sentences")
    idx, multi = align_answer(spans, doc.answer_start, doc.answer_end)
    return QAExample(doc, tuple(spans), idx, multi)


@dataclass
class LoadStats:
    """Counters accumulated while loading a dataset file."""

    total: int = 0
    loaded: int = 0
    realigned: int = 0
    dropped: int = 0
    drop_reasons: list[str] = field(default_factory=list)


def _realign(context: str, answer_text: str, answer_start: int) -> int | None:
    """Nearest occurrence of answer_text to the claimed offset, or None."""
    best = None
    pos = context.find(answer_text)
    while pos >= 0:
        if best is None or abs(pos - answer_start) < abs(best - answer_start):
            best = pos
        pos = context.find(answer_text, pos + 1)
    return best


def load_squad_json(path: str, return_stats: bool = False):
    """Load a SQuAD-format JSON file into QAExamples, in file order.

    One example is produced per (paragraph, qa) pair using the first answer.
    Examples whose answer cannot be aligned are dropped and counted; a file
    yielding zero usable examples raises EmptyDatasetError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{path}: not valid JSON ({e})") from e

    if not isinstance(payload, dict) or not isinstance(payload.get("data"), list):
        raise SchemaError(f"{path}: expected a top-level object with a 'data' list")

    stats = LoadStats()
    examples: list[QAExample] = []
    first_seen: dict[str, str] = {}
    for ai, article in enumerate(payload["data"]):
        if not isinstance(article, dict) or not isinstance(article.get("paragraphs"), list):
            raise SchemaError(f"{path}: data[{ai}] lacks a 'paragraphs' list")
        for pi, para in enumerate(article["paragraphs"]):
            if not isinstance(para, dict) or "context" not in para or not isinstance(para.get("qas"), list):
                raise SchemaError(f"{path}: data[{ai}].paragraphs[{pi}] needs 'context' and 'qas'")
            context = normalize_text(str(para["context"]))
            for qi, qa in enumerate(para["qas"]):
                where = f"data[{ai}].paragraphs[{pi}].qas[{qi}]"
                if not isinstance(qa, dict) or "question" not in qa:
                    raise SchemaError(f"{path}: {where} lacks a question")
                answers = qa.get("answers")
                if not isinstance(answers, list) or not answers:
                    raise SchemaError(f"{path}: {where} lacks answers")
                stats.total += 1
                qa_id = str(qa.get("id", where))
                if qa_id in first_seen:
                    raise SchemaError(f"{path}: {where} repeats id {qa_id!r} "
                                      f"of {first_seen[qa_id]}")
                first_seen[qa_id] = where
                answer = answers[0]
                if not isinstance(answer, dict) or "text" not in answer or "answer_start" not in answer:
                    raise SchemaError(f"{path}: {where} answer needs text and answer_start")
                text = normalize_text(str(answer["text"]))
                try:
                    start = int(answer["answer_start"])
                except (TypeError, ValueError) as e:
                    raise SchemaError(f"{path}: {where} answer_start is not an integer") from e

                if context[start:start + len(text)] != text:
                    # NFC can shift offsets; recover by proximity search
                    found = _realign(context, text, start)
                    if found is None:
                        stats.dropped += 1
                        stats.drop_reasons.append(f"{qa_id}: answer not found in context")
                        continue
                    start = found
                    stats.realigned += 1
                try:
                    doc = RawDocument(qa_id, context, normalize_text(str(qa["question"])), text, start)
                    examples.append(build_example(doc))
                    stats.loaded += 1
                except (ValueError, AlignmentError) as e:
                    stats.dropped += 1
                    stats.drop_reasons.append(f"{qa_id}: {e}")

    if not examples:
        raise EmptyDatasetError(f"{path}: no usable examples")
    if stats.dropped or stats.realigned:
        log.warning("%s: loaded %d/%d examples (%d realigned, %d dropped)",
                    path, stats.loaded, stats.total, stats.realigned, stats.dropped)
    return (examples, stats) if return_stats else examples


def example_to_record(ex: QAExample) -> dict:
    return {
        "id": ex.document.id,
        "context": ex.document.context,
        "question": ex.document.question,
        "answer_text": ex.document.answer_text,
        "answer_start": ex.document.answer_start,
        "sentences": [[s.start, s.end] for s in ex.sentences],
        "answer_sentence": ex.answer_sentence,
    }


def example_from_record(rec: dict) -> QAExample:
    try:
        doc = RawDocument(str(rec["id"]), rec["context"], rec["question"],
                          rec["answer_text"], int(rec["answer_start"]))
        spans = tuple(SentenceSpan(int(s), int(e)) for s, e in rec["sentences"])
        idx = int(rec["answer_sentence"])
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad corpus record: {e}") from e
    for span in spans:
        if span.end > len(doc.context):
            raise SchemaError(f"bad corpus record: span [{span.start}, {span.end}) ends "
                              f"past the {len(doc.context)}-character context")
    for a, b in zip(spans, spans[1:]):
        if b.start < a.end:
            raise SchemaError(f"bad corpus record: span [{b.start}, {b.end}) does not "
                              f"follow [{a.start}, {a.end})")
    aligned, multi = align_answer(spans, doc.answer_start, doc.answer_end)
    if idx != aligned:
        raise SchemaError(f"bad corpus record: answer_sentence {idx}, but the answer "
                          f"starts in sentence {aligned}")
    return QAExample(doc, spans, idx, multi)


def write_corpus_jsonl(examples: list[QAExample], path: str) -> None:
    """One JSON object per line; inverse of read_corpus_jsonl."""
    write_jsonl(path, (example_to_record(ex) for ex in examples))


def _keyed_example(rec) -> tuple[str, QAExample]:
    ex = example_from_record(rec)
    return ex.document.id, ex


def read_corpus_jsonl(path: str) -> list[QAExample]:
    examples = list(read_keyed_jsonl(path, _keyed_example).values())
    if not examples:
        raise EmptyDatasetError(f"{path}: no records")
    return examples

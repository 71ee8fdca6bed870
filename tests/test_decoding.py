"""Greedy and beam decoding against exhaustive enumeration."""
import dataclasses
import json

import numpy as np
import pytest

from jointqg.decoding import (
    DecodeResult,
    beam_search_decode,
    beam_search_nbest,
    generate_file,
    generate_predictions,
    greedy_decode,
    make_scorer,
    read_predictions_jsonl,
    write_predictions_jsonl,
)
from jointqg.errors import NumericError, SchemaError
from jointqg import model as M
from jointqg.model import Checkpoint, Parameters, save_checkpoint
from jointqg.tokenizer import assemble_model_input
from conftest import rng_scorer
from oracles import beam_nbest_tuple_sort, best_decode_oracle, enumerate_decodes

EOS = 3


def peaked_scorer(target, vocab_size, eos_bonus=-0.001):
    """Prefers the scripted target sequence, then EOS."""
    def scorer(prefix):
        lp = np.full(vocab_size, -20.0)
        pos = len(prefix)
        want = target[pos] if pos < len(target) else EOS
        lp[want] = eos_bonus
        return lp
    return scorer


# ---------------------------------------------------------------- greedy

def test_greedy_spells_scripted_sequence():
    scorer = peaked_scorer([7, 5, 9], vocab_size=12)
    assert greedy_decode(scorer, max_len=10) == [7, 5, 9, EOS]


def test_greedy_respects_max_len():
    scorer = peaked_scorer([7] * 50, vocab_size=12)
    out = greedy_decode(scorer, max_len=4)
    assert out == [7, 7, 7, 7]


def test_greedy_tie_takes_lower_id():
    def scorer(prefix):
        lp = np.full(12, -10.0)
        if not prefix:
            lp[7] = lp[9] = -0.5
        else:
            lp[EOS] = -0.1
        return lp
    assert greedy_decode(scorer, max_len=5) == [7, EOS]


def test_greedy_never_emits_pad_or_bos():
    def scorer(prefix):
        lp = np.full(8, -30.0)
        lp[0] = lp[2] = 0.0  # rigged to tempt the suppressed ids
        lp[EOS] = -1.0
        lp[5] = -2.0
        return lp
    out = greedy_decode(scorer, max_len=6)
    assert 0 not in out and 2 not in out
    assert out == [EOS]


def test_greedy_validates_arguments():
    with pytest.raises(ValueError):
        greedy_decode(peaked_scorer([5], 8), max_len=0)
    with pytest.raises(ValueError):
        greedy_decode(lambda prefix: np.zeros((2, 4)), max_len=3)


# ------------------------------------------------------------ beam search

def test_beam_one_alpha_zero_equals_greedy_on_random_models():
    for seed in range(20):
        scorer = rng_scorer(seed, vocab_size=9)
        greedy = greedy_decode(scorer, max_len=8)
        beam = beam_search_nbest(scorer, beam_size=1, max_len=8,
                                 length_alpha=0.0)
        assert list(beam[0].ids) == greedy, seed


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.0])
def test_wide_beam_matches_exhaustive_search(alpha):
    # vocab 5 leaves ids {1, 3, 4} usable; 3 steps reach at most 12 live
    # candidates, so beam 27 never prunes and must find the global optimum
    for seed in range(12):
        scorer = rng_scorer(seed, vocab_size=5)
        best = beam_search_nbest(scorer, beam_size=27, max_len=3,
                                 length_alpha=alpha)[0]
        want = best_decode_oracle(scorer, vocab_size=5, max_len=3, alpha=alpha)
        assert list(best.ids) == want, (seed, alpha)


def test_wide_beam_nbest_is_the_whole_finished_set():
    scorer = rng_scorer(3, vocab_size=5)
    results = beam_search_nbest(scorer, beam_size=27, max_len=3,
                                length_alpha=0.7)
    finished, _ = enumerate_decodes(scorer, vocab_size=5, max_len=3, alpha=0.7)
    assert len(results) == len(finished) == 7
    assert all(r.finished for r in results)
    want = sorted(((lp / len(ids) ** 0.7, ids) for ids, lp in finished),
                  key=lambda s: (-s[0], s[1]))
    assert [list(r.ids) for r in results] == [list(ids) for _, ids in want]
    for r in results:
        assert abs(r.score - r.logp / len(r.ids) ** 0.7) < 1e-12


def test_beam_results_sorted_and_well_formed():
    for seed in range(8):
        results = beam_search_nbest(rng_scorer(seed, vocab_size=9),
                                    beam_size=4, max_len=6, length_alpha=0.7)
        assert len(results) <= 4 * 6  # pool can only grow by beam per step
        for a, b in zip(results, results[1:]):
            assert a.score > b.score or (a.score == b.score
                                         and list(a.ids) <= list(b.ids))
        flags = {r.finished for r in results}
        assert len(flags) == 1  # finished pool or all-unfinished, never mixed
        for r in results:
            assert r.logp <= 0.0  # scorer returns log-probabilities
            assert 0 not in r.ids and 2 not in r.ids
            assert EOS not in r.ids[:-1]
            if r.finished:
                assert r.ids[-1] == EOS


def test_unfinished_fallback_at_max_len():
    scorer = peaked_scorer([5, 6, 5, 6, 5, 6], vocab_size=8)
    results = beam_search_nbest(scorer, beam_size=2, max_len=4,
                                length_alpha=0.7)
    assert not results[0].finished
    assert list(results[0].ids) == [5, 6, 5, 6]


def test_score_tie_breaks_to_smaller_ids():
    def scorer(prefix):
        lp = np.full(12, -30.0)
        if not prefix:
            lp[7] = lp[9] = -0.5  # exactly tied branches
        else:
            lp[EOS] = -0.25
        return lp
    results = beam_search_nbest(scorer, beam_size=3, max_len=4,
                                length_alpha=0.7)
    assert list(results[0].ids) == [7, EOS]
    assert list(results[1].ids) == [9, EOS]
    assert results[0].score == results[1].score


def test_beam_validates_arguments():
    scorer = peaked_scorer([5], 8)
    with pytest.raises(ValueError):
        beam_search_nbest(scorer, beam_size=0)
    with pytest.raises(ValueError):
        beam_search_nbest(scorer, beam_size=2, max_len=0)
    with pytest.raises(ValueError):
        beam_search_nbest(scorer, beam_size=2, length_alpha=-0.5)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_beam_rejects_a_non_finite_length_alpha(alpha):
    with pytest.raises(ValueError, match="length_alpha"):
        beam_search_nbest(peaked_scorer([5], 8), beam_size=2, length_alpha=alpha)


def test_beam_search_decode_returns_top_ids():
    scorer = rng_scorer(5, vocab_size=7)
    top = beam_search_nbest(scorer, beam_size=3, max_len=5, length_alpha=0.7)
    assert beam_search_decode(scorer, beam_size=3, max_len=5,
                              length_alpha=0.7) == list(top[0].ids)


def quantised_scorer(seed, vocab_size, levels, hole_rate):
    """Log-probabilities on a 0.25 grid, so sums tie exactly, with random
    -inf holes; one usable token per row always stays finite."""
    usable = [t for t in range(vocab_size) if t not in (0, 2)]

    def scorer(prefix):
        key = np.random.SeedSequence([seed, len(prefix)] + [int(i) for i in prefix])
        rng = np.random.default_rng(key)
        lp = -0.25 * rng.integers(0, levels, size=vocab_size)
        lp[rng.random(vocab_size) < hole_rate] = -np.inf
        lp[usable[rng.integers(len(usable))]] = -0.25 * rng.integers(levels)
        return lp
    return scorer


def as_tuples(results):
    for r in results:
        assert type(r.ids) is tuple and all(type(t) is int for t in r.ids)
        assert type(r.logp) is float and type(r.score) is float
        assert type(r.finished) is bool
    return [(r.ids, r.logp, r.score, r.finished) for r in results]


def test_beam_expansion_matches_tuple_sort_reference():
    rng = np.random.default_rng(20221)
    for case in range(400):
        beam, vocab_size = int(rng.integers(1, 8)), int(rng.integers(5, 41))
        max_len = int(rng.integers(1, 7))
        alpha = float(rng.choice([0.0, 0.7, 1.0]))
        scorer = quantised_scorer(case, vocab_size, levels=int(rng.integers(2, 9)),
                                  hole_rate=float(rng.choice([0.0, 0.3, 0.7])))
        got = beam_search_nbest(scorer, beam, max_len, alpha)
        assert as_tuples(got) == beam_nbest_tuple_sort(scorer, beam, max_len, alpha), case


def test_beam_expansion_matches_reference_at_full_vocabulary():
    # ~15 tokens share each level at V=30006, so exact ties straddle the
    # beam-4 cut within and across hypotheses
    scorer = quantised_scorer(7, 30006, levels=2000, hole_rate=0.2)
    top = np.sort(scorer([])[3:])
    assert top[-4] == top[-5]
    got = beam_search_nbest(scorer, 4, max_len=3, length_alpha=0.7)
    assert as_tuples(got) == beam_nbest_tuple_sort(scorer, 4, 3, 0.7)


# --------------------------------------------------------- model plumbing

# -------------------------------------------------------- bad scorer rows

DECODERS = {
    "greedy": lambda scorer: greedy_decode(scorer, max_len=5),
    "beam": lambda scorer: list(beam_search_nbest(scorer, 3, max_len=5)[0].ids),
}


def row_at_step(step, row, vocab_size=8):
    """Prefers token 7 until the given step, where it returns row."""
    def scorer(prefix):
        if len(prefix) == step:
            return np.asarray(row, dtype=np.float64)
        lp = np.full(vocab_size, -5.0)
        lp[7] = -0.1
        return lp
    return scorer


@pytest.mark.parametrize("decoder", sorted(DECODERS))
@pytest.mark.parametrize("row, error, message", [
    pytest.param([np.nan] * 8, NumericError, "decoding step 2", id="all-nan"),
    pytest.param([-1.0] * 7 + [np.nan], NumericError, "decoding step 2",
                 id="one-nan"),
    pytest.param([-1.0] * 7 + [np.inf], NumericError, "decoding step 2",
                 id="plus-inf"),
    pytest.param([-np.inf] * 8, ValueError,
                 "no finite token left at decoding step 2", id="all-minus-inf"),
    pytest.param([0.0, -np.inf, 0.0] + [-np.inf] * 5, ValueError,
                 "no finite token left at decoding step 2",
                 id="only-pad-and-bos-finite"),
])
def test_bad_scorer_row_fails_loudly(decoder, row, error, message):
    with pytest.raises(error, match=message) as exc:
        DECODERS[decoder](row_at_step(2, row))
    if error is NumericError:
        assert exc.value.where == "decoding step 2"


@pytest.mark.parametrize("decoder", sorted(DECODERS))
def test_partly_infinite_row_still_decodes(decoder):
    row = [-np.inf] * 8
    row[EOS] = -0.5
    assert DECODERS[decoder](row_at_step(2, row)) == [7, 7, EOS]


def test_make_scorer_returns_log_distribution(ibm_example, tiny_vocab,
                                              tiny_checkpoint):
    mi = assemble_model_input(ibm_example, tiny_vocab,
                              tiny_checkpoint.config.max_len)
    scorer = make_scorer(tiny_checkpoint, mi)
    lp = scorer([])
    assert lp.shape == (len(tiny_vocab),)
    assert abs(np.exp(lp).sum() - 1.0) < 1e-9
    assert np.array_equal(lp, scorer([]))


def test_decode_example_paths_agree(ibm_example, tiny_vocab, tiny_checkpoint):
    mi = assemble_model_input(ibm_example, tiny_vocab,
                              tiny_checkpoint.config.max_len)
    # each decode gets a fresh scorer, as generate_predictions gives it
    greedy_ids = beam_search_decode(make_scorer(tiny_checkpoint, mi), beam_size=1,
                                    max_len=8, length_alpha=0.0)
    scorer = make_scorer(tiny_checkpoint, mi)
    assert greedy_ids == greedy_decode(scorer, max_len=8)
    beam_ids = beam_search_decode(make_scorer(tiny_checkpoint, mi), beam_size=3,
                                  max_len=8, length_alpha=0.7)
    want = beam_search_nbest(scorer, beam_size=3, max_len=8, length_alpha=0.7)
    assert beam_ids == list(want[0].ids)
    assert beam_search_decode(make_scorer(tiny_checkpoint, mi), beam_size=3, max_len=8,
                              length_alpha=0.7) == beam_ids


# ------------------------------------------------------------ predictions

def test_generate_predictions_record_matches_decode_example(ibm_example, tiny_vocab,
                                                             tiny_checkpoint):
    rec, = generate_predictions(tiny_checkpoint, [ibm_example], tiny_vocab,
                                beam_size=2, max_len=4, length_alpha=0.0)
    mi = assemble_model_input(ibm_example, tiny_vocab, tiny_checkpoint.config.max_len)
    ids = beam_search_decode(make_scorer(tiny_checkpoint, mi), beam_size=2, max_len=4,
                             length_alpha=0.0)
    assert rec == {"id": "ibm-1", "prediction": tiny_vocab.decode(ids),
                   "gold": ibm_example.document.question, "beam_size": 2,
                   "score": rec["score"]}


def test_predictions_jsonl_round_trip(tmp_path):
    records = [
        {"id": "a-1", "prediction": "what is it ?", "gold": "what is it ?",
         "beam_size": 4, "score": -0.25},
        {"id": "b-2", "prediction": "", "gold": "why ?", "beam_size": 1,
         "score": -9.5},
    ]
    path = tmp_path / "pred.jsonl"
    write_predictions_jsonl(records, str(path))
    assert read_predictions_jsonl(str(path)) == records


@pytest.mark.parametrize("line,match", [
    pytest.param("{oops", "not valid JSON", id="not-json"),
    pytest.param("[1, 2]", r"missing \['id', 'prediction'", id="list"),
    pytest.param('{"id": "b", "prediction": "x", "gold": "y", "beam_size": 1}',
                 r"missing \['score'\]", id="missing-key"),
])
def test_predictions_jsonl_bad_line_rejected(tmp_path, line, match):
    path = tmp_path / "pred.jsonl"
    write_predictions_jsonl([{"id": "a", "prediction": "x", "gold": "y",
                              "beam_size": 1, "score": -1.0}], str(path))
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(SchemaError, match="pred.jsonl:2: ") as info:
        read_predictions_jsonl(str(path))
    assert info.match(match)


def test_predictions_jsonl_repeated_id_rejected(tmp_path):
    rec = {"id": "a", "prediction": "x", "gold": "y", "beam_size": 1, "score": -1.0}
    other = dict(rec, id="b")
    path = tmp_path / "pred.jsonl"
    write_predictions_jsonl([rec, other, rec], str(path))
    with pytest.raises(SchemaError, match=r"pred\.jsonl:3: repeats id 'a' of line 1"):
        read_predictions_jsonl(str(path))


@pytest.mark.parametrize("field, value", [("prediction", None), ("gold", 7),
                                          ("prediction", ["x"])])
def test_predictions_jsonl_non_string_text_rejected(tmp_path, field, value):
    path = tmp_path / "pred.jsonl"
    write_predictions_jsonl([{"id": "a", "prediction": "x", "gold": "y",
                              "beam_size": 1, "score": -1.0}], str(path))
    bad = {"id": "b", "prediction": "x", "gold": "y", "beam_size": 1, "score": -1.0,
           field: value}
    path.write_text(path.read_text() + json.dumps(bad) + "\n")
    with pytest.raises(SchemaError, match=rf"pred\.jsonl:2: .*'{field}'.* strings"):
        read_predictions_jsonl(str(path))


@pytest.mark.parametrize("setting", [{"beam_size": 0}, {"max_len": 0},
                                     {"length_alpha": float("nan")}])
def test_generate_file_refuses_bad_settings_before_loading(tmp_path, tiny_examples,
                                                           tiny_vocab, setting):
    with pytest.raises(ValueError):
        generate_file(str(tmp_path / "absent.ckpt"), tiny_examples, tiny_vocab,
                      str(tmp_path / "pred.jsonl"), **setting)
    assert not (tmp_path / "pred.jsonl").exists()


def test_generate_file_refuses_a_length_past_the_checkpoint(tmp_path, tiny_examples,
                                                           tiny_vocab, tiny_checkpoint):
    ckpt_path = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt_path, tiny_checkpoint.params, tiny_checkpoint.config, tiny_vocab)
    (tmp_path / "selector.ckpt").write_bytes(b"not a checkpoint")  # never read
    limit = tiny_checkpoint.config.max_len
    with pytest.raises(ValueError, match=f"max_len {limit + 1} exceeds .* {limit}"):
        generate_file(ckpt_path, tiny_examples, tiny_vocab, str(tmp_path / "pred.jsonl"),
                      max_len=limit + 1)
    assert not (tmp_path / "pred.jsonl").exists()


def test_generate_refuses_a_selector_shorter_than_the_generator(
        tmp_path, monkeypatch, ibm_example, tiny_vocab, tiny_checkpoint):
    # each input is assembled at the generator's max_len, which a shorter
    # selector cannot encode: both checkpoints are named before any encoding
    short_cfg = dataclasses.replace(tiny_checkpoint.config, max_len=16)
    short = Checkpoint(Parameters.init(short_cfg, seed=0), short_cfg,
                       tiny_vocab.sha256(), selector_k=2)

    def no_encoding(*args, **kw):
        raise AssertionError("an input was encoded")

    monkeypatch.setattr(M, "encoder_states", no_encoding)
    limit = tiny_checkpoint.config.max_len
    with pytest.raises(ValueError, match=f"selector max_len 16 is below .* max_len {limit}"):
        generate_predictions(tiny_checkpoint, [ibm_example], tiny_vocab, selector=short)

    ckpt_path = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt_path, tiny_checkpoint.params, tiny_checkpoint.config, tiny_vocab)
    short_selector = Parameters({n: short.params[n] for n in M.selector_shapes(short_cfg)})
    save_checkpoint(str(tmp_path / "selector.ckpt"), short_selector, short_cfg, tiny_vocab,
                    selector_k=2)
    with pytest.raises(ValueError, match=rf"selector\.ckpt: selector max_len 16 .* {limit}"):
        generate_file(ckpt_path, [ibm_example], tiny_vocab, str(tmp_path / "pred.jsonl"))
    assert not (tmp_path / "pred.jsonl").exists()


def test_generate_refuses_a_full_shape_selector_before_encoding(
        tmp_path, monkeypatch, ibm_example, tiny_vocab, tiny_checkpoint):
    # a selector.ckpt that also holds the decoder, output and question-type
    # tensors is refused by name, not decoded with
    def no_encoding(*args, **kw):
        raise AssertionError("an input was encoded")

    monkeypatch.setattr(M, "encoder_states", no_encoding)
    ckpt_path = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt_path, tiny_checkpoint.params, tiny_checkpoint.config, tiny_vocab)
    save_checkpoint(str(tmp_path / "selector.ckpt"), tiny_checkpoint.params,
                    tiny_checkpoint.config, tiny_vocab, selector_k=2)
    with pytest.raises(SchemaError, match=r"selector\.ckpt: tensor names do not match"):
        generate_file(ckpt_path, [ibm_example], tiny_vocab, str(tmp_path / "pred.jsonl"))
    assert not (tmp_path / "pred.jsonl").exists()


def test_predictions_jsonl_missing_key_rejected(tmp_path):
    with pytest.raises(ValueError, match="score"):
        write_predictions_jsonl([{"id": "a", "prediction": "x", "gold": "y",
                                  "beam_size": 1}], str(tmp_path / "p.jsonl"))


@pytest.mark.parametrize("bad, error", [
    ({"id": "b"}, ValueError),
    ({"id": "b", "prediction": "x", "gold": "y", "beam_size": 1, "score": object()},
     TypeError),
], ids=["missing-key", "unserialisable"])
def test_predictions_jsonl_bad_record_writes_nothing(tmp_path, bad, error):
    good = {"id": "a", "prediction": "x", "gold": "y", "beam_size": 1, "score": -1.0}
    fresh, old = tmp_path / "fresh.jsonl", tmp_path / "old.jsonl"
    write_predictions_jsonl([good], str(old))
    before = old.read_bytes()
    for path in (fresh, old):
        with pytest.raises(error):
            write_predictions_jsonl([good, bad], str(path))
    assert not fresh.exists()
    assert old.read_bytes() == before


def test_decode_result_is_frozen():
    r = DecodeResult((5, EOS), -1.0, -0.5, True)
    with pytest.raises(AttributeError):
        r.logp = 0.0

"""Overlap metrics pinned to frozen values and independent oracles."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jointqg.metrics import (
    _align,
    bleu4,
    meteor_lite,
    rouge_l,
    score_corpus,
    sentence_bleu4,
    write_report_json,
)
from oracles import (bleu4_oracle, meteor_align_two_loops, meteor_lite_oracle, rouge_l_oracle,
                     stem_oracle)

CAT = "the cat sat on the mat".split()
CAT_REF = "the cat is on the mat".split()

_token = st.sampled_from(["the", "a", "cat", "dog", "sat", "ran", "on",
                          "mat", "rug", "walked", "walking", "quickly", "?"])
_sentence = st.lists(_token, min_size=1, max_size=9)


# ------------------------------------------------------------------ bleu

def test_bleu_identity_is_one():
    assert bleu4([CAT], [CAT]) == 1.0
    assert bleu4([CAT, CAT_REF], [CAT, CAT_REF]) == 1.0


def test_bleu_disjoint_is_zero():
    assert bleu4([["aa", "bb"]], [["cc", "dd"]]) == 0.0


def test_bleu_frozen_cat_mat_value():
    # precisions 5/6, 3/5, 1/4, smoothed 1/4; brevity penalty 1
    want = (5 / 6 * 3 / 5 * 1 / 4 * 1 / 4) ** 0.25
    got = sentence_bleu4(CAT, CAT_REF)
    assert abs(got - want) < 1e-12
    assert abs(got - 0.42044820762685725) < 1e-15


def test_bleu_unigram_zero_short_circuits():
    # the 4-gram order would smooth, unigrams must not
    assert bleu4([["xx"]], [["yy"]]) == 0.0


def test_bleu_brevity_penalty_sides():
    # longer candidate: no penalty; shorter: exp(1 - r/c)
    # precisions: 2/5 unigram, 1/4 bigram, smoothed 1/4 and 1/3 above
    long_c = bleu4([["the", "cat", "sat", "down", "low"]], [["the", "cat"]])
    assert abs(long_c - (2 / 5 * (1 / 4) * (1 / 4) * (1 / 3)) ** 0.25) < 1e-12
    # two-token candidate has no 3/4-grams, so those orders smooth to 1/1
    # and the whole score is the brevity penalty
    short = bleu4([["the", "cat"]], [["the", "cat", "sat", "down"]])
    assert abs(short - math.exp(1.0 - 4 / 2)) < 1e-12


def test_bleu_clipping_counts():
    # "the the the" against one "the": clipped unigram matches = 1
    got = sentence_bleu4(["the", "the", "the"], ["the", "cat", "sat"])
    want = (1 / 3 * 1 / 3 * 1 / 2 * 1) ** 0.25  # orders 2..4 all smoothed
    assert abs(got - want) < 1e-12


def test_bleu_corpus_is_not_mean_of_sentences():
    cands = [CAT, ["completely", "different"]]
    refs = [CAT_REF, ["another", "thing", "entirely"]]
    corpus = bleu4(cands, refs)
    mean = (sentence_bleu4(*p) for p in zip(cands, refs))
    assert corpus != sum(mean) / 2


def test_bleu_validation():
    with pytest.raises(ValueError):
        bleu4([CAT], [])
    with pytest.raises(ValueError):
        bleu4([], [])
    with pytest.raises(ValueError):
        bleu4([[1, 2]], [[1, 2]])
    assert bleu4([[]], [["a"]]) == 0.0  # empty candidate scores zero


# ----------------------------------------------------------------- rouge

def test_rouge_identity_and_disjoint():
    assert rouge_l(CAT, CAT) == 1.0
    assert rouge_l(["aa"], ["bb"]) == 0.0
    assert rouge_l([], CAT) == 0.0 and rouge_l(CAT, []) == 0.0


def test_rouge_frozen_value():
    # lcs("a b c", "a x c") = 2; P = R = 2/3 so F collapses to 2/3
    assert abs(rouge_l(["a", "b", "c"], ["a", "x", "c"]) - 2 / 3) < 1e-12


def test_rouge_beta_weighting_is_asymmetric():
    cand, ref = ["a", "b"], ["a", "b", "c", "d"]
    p, r = 2 / 2, 2 / 4
    b2 = 1.2 ** 2
    want = (1 + b2) * p * r / (r + b2 * p)
    assert abs(rouge_l(cand, ref) - want) < 1e-12
    # beta > 1 favors recall, so swapping the pair changes the score
    assert rouge_l(cand, ref) != rouge_l(ref, cand)


def test_rouge_subsequence_not_substring():
    assert abs(rouge_l(["a", "z", "b", "z", "c"], ["a", "b", "c"])
               - (1 + 1.44) * (3 / 5) * 1.0 / (1.0 + 1.44 * 3 / 5)) < 1e-12


# ---------------------------------------------------------------- meteor

def test_meteor_identity_closed_form():
    # perfect single-chunk alignment: F = 1, penalty = 0.5 / m^3
    for toks in (["what"], ["what", "is"], CAT):
        m = len(toks)
        assert abs(meteor_lite(toks, toks) - (1.0 - 0.5 / m ** 3)) < 1e-12


def test_meteor_no_overlap_and_empties():
    assert meteor_lite(["aa"], ["bb"]) == 0.0
    assert meteor_lite([], ["x"]) == 0.0 and meteor_lite(["x"], []) == 0.0


def test_meteor_frozen_hand_case():
    cand = ["what", "is", "ibm"]
    ref = ["what", "is", "the", "ibm"]
    # m=3, P=1, R=3/4, chunks=2 -> F = 7.5/9.75, penalty = 0.5*(2/3)^3
    want = (7.5 / 9.75) * (1.0 - 0.5 * (2 / 3) ** 3)
    assert abs(meteor_lite(cand, ref) - want) < 1e-9


def test_meteor_stem_stage_matches_inflections():
    # walking/walked share the stem "walk"
    with_stem = meteor_lite(["she", "walked", "home"], ["she", "walking", "home"])
    no_match = meteor_lite(["she", "ran", "home"], ["she", "walking", "home"])
    assert with_stem > no_match
    # all three pairs align contiguously: one chunk, m = 3
    assert abs(with_stem - (1.0 - 0.5 * (1 / 3) ** 3)) < 1e-12


def test_stem_oracle_spot_checks():
    assert stem_oracle("walking") == "walk" and stem_oracle("walked") == "walk"
    assert stem_oracle("is") == "is"          # remainder would be too short
    assert stem_oracle("quickly") == "quick"
    assert stem_oracle("boxes") == "box"
    assert stem_oracle("cats") == "cat"


def test_meteor_chunk_penalty_orders_scrambled_below_fluent():
    fluent = meteor_lite(CAT, CAT)
    scrambled = meteor_lite(["mat", "the", "on", "sat", "cat", "the"], CAT)
    assert scrambled < fluent


# -------------------------------------------------------- oracle sweeps

def test_random_pairs_match_oracles():
    rng = np.random.default_rng(0)
    pool = ["the", "a", "cat", "dog", "sat", "ran", "on", "mat", "walked",
            "walking", "quickly", "green", "?", "is"]
    for _ in range(200):
        cand = [pool[i] for i in rng.integers(0, len(pool), rng.integers(1, 10))]
        ref = [pool[i] for i in rng.integers(0, len(pool), rng.integers(1, 10))]
        assert abs(sentence_bleu4(cand, ref) - bleu4_oracle([cand], [ref])) < 1e-9
        assert abs(rouge_l(cand, ref) - rouge_l_oracle(cand, ref)) < 1e-9
        assert abs(meteor_lite(cand, ref) - meteor_lite_oracle(cand, ref)) < 1e-9


def test_align_gives_the_two_loop_pairs():
    rng = np.random.default_rng(2)
    # inflections of a few stems, so exact and stem matches compete for slots
    pool = ["walk", "walks", "walked", "walking", "box", "boxes", "cat", "cats",
            "is", "the", "quick", "quickly"]
    for _ in range(500):
        cand = [pool[i] for i in rng.integers(0, len(pool), rng.integers(0, 9))]
        ref = [pool[i] for i in rng.integers(0, len(pool), rng.integers(0, 9))]
        assert _align(cand, ref) == meteor_align_two_loops(cand, ref)
    # the exact stage compares the tokens themselves, not their text
    assert _align([1.0, 2], [2, 1]) == meteor_align_two_loops([1.0, 2], [2, 1]) == [(0, 1), (1, 0)]


def test_random_corpora_match_bleu_oracle():
    rng = np.random.default_rng(1)
    pool = ["q", "w", "e", "r", "t", "y", "u"]
    for _ in range(30):
        n = int(rng.integers(1, 5))
        cands = [[pool[i] for i in rng.integers(0, 7, rng.integers(1, 8))]
                 for _ in range(n)]
        refs = [[pool[i] for i in rng.integers(0, 7, rng.integers(1, 8))]
                for _ in range(n)]
        assert abs(bleu4(cands, refs) - bleu4_oracle(cands, refs)) < 1e-9


@given(_sentence, _sentence)
def test_scores_bounded(cand, ref):
    for metric in (rouge_l, meteor_lite):
        assert 0.0 <= metric(cand, ref) <= 1.0
    assert 0.0 <= sentence_bleu4(cand, ref) <= 1.0


@given(_sentence)
def test_identity_scores_are_maximal(toks):
    assert sentence_bleu4(toks, toks) == 1.0
    assert rouge_l(toks, toks) == 1.0
    m = len(toks)
    assert abs(meteor_lite(toks, toks) - (1.0 - 0.5 / m ** 3)) < 1e-12


# ----------------------------------------------------------- corpus API

def test_score_corpus_report_fields():
    cands = [CAT, ["what", "is", "ibm"]]
    refs = [CAT_REF, ["what", "is", "the", "ibm"]]
    report = score_corpus(cands, refs, ids=["x", "y"])
    assert report.n_examples == 2
    assert report.bleu4 == bleu4(cands, refs)
    want_rouge = (rouge_l(cands[0], refs[0]) + rouge_l(cands[1], refs[1])) / 2
    assert report.rouge_l == want_rouge
    want_meteor = (meteor_lite(cands[0], refs[0]) + meteor_lite(cands[1], refs[1])) / 2
    assert report.meteor_lite == want_meteor
    assert [r["id"] for r in report.per_example] == ["x", "y"]
    for row in report.per_example:
        assert set(row) == {"id", "bleu4", "rouge_l", "meteor_lite"}
    assert report.summary() == {"bleu4": report.bleu4, "rouge_l": report.rouge_l,
                                "meteor_lite": report.meteor_lite, "n_examples": 2}


def test_score_corpus_mean_invariant_under_order():
    cands = [CAT, ["a", "b"], ["what", "is", "ibm"]]
    refs = [CAT_REF, ["a", "c"], ["what", "is", "the", "ibm"]]
    fwd = score_corpus(cands, refs)
    rev = score_corpus(cands[::-1], refs[::-1])
    assert abs(fwd.rouge_l - rev.rouge_l) < 1e-12
    assert abs(fwd.meteor_lite - rev.meteor_lite) < 1e-12
    assert abs(fwd.bleu4 - rev.bleu4) < 1e-12


def test_default_ids_are_positions():
    report = score_corpus([CAT], [CAT_REF])
    assert report.per_example[0]["id"] == "0"


def test_write_report_json(tmp_path):
    report = score_corpus([CAT], [CAT_REF], ids=["cat-1"])
    path = tmp_path / "report.json"
    write_report_json(report, str(path), extra={"config_hash": "abc123"})
    payload = json.loads(path.read_text())
    assert payload["bleu4"] == report.bleu4
    assert payload["n_examples"] == 1
    assert payload["bleu_smoothing"] == "add-one only on zero-match orders >= 2"
    assert payload["config_hash"] == "abc123"
    assert payload["per_example"][0]["id"] == "cat-1"


# ---------------------------------------- trained-model report (shared)

def test_memorization_report_is_near_perfect(memorization_run):
    report = memorization_run["report"]
    assert report.bleu4 >= 0.9
    assert report.rouge_l >= 0.9
    assert report.meteor_lite >= 0.9

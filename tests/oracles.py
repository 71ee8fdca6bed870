"""Independent reference implementations used as test oracles.

Everything here is written from the stated formulas, deliberately not
sharing code or structure with the package: metrics use plain dicts and
recursion where the package uses Counters and iterative DP, the decoder
oracle enumerates the whole sequence tree, and gradients come from central
finite differences. Slow is fine; these only run on tiny inputs.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

EOS = 3
SUPPRESSED = (0, 2)  # PAD, BOS


# ---------------------------------------------------------------- BLEU-4

def _ngram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i:i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def bleu4_oracle(candidates, references):
    """Corpus BLEU, product form. Add-one smoothing only on an order with
    zero matches and never on unigrams; BP = exp(1 - r/c) when c <= r."""
    c_len = sum(len(c) for c in candidates)
    r_len = sum(len(r) for r in references)
    if c_len == 0:
        return 0.0
    product = 1.0
    for n in (1, 2, 3, 4):
        match = 0
        total = 0
        for cand, ref in zip(candidates, references):
            cg = _ngram_counts(cand, n)
            rg = _ngram_counts(ref, n)
            for g, cnt in cg.items():
                match += min(cnt, rg.get(g, 0))
                total += cnt
        if match == 0:
            if n == 1:
                return 0.0
            product *= (match + 1) / (total + 1)
        else:
            product *= match / total
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return bp * product ** 0.25


# --------------------------------------------------------------- ROUGE-L

def lcs_recursive(a, b):
    """Memoized top-down LCS length."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def rouge_l_oracle(candidate, reference, beta=1.2):
    if not candidate or not reference:
        return 0.0
    lcs = lcs_recursive(candidate, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return (1 + beta * beta) * p * r / (r + beta * beta * p)


# ------------------------------------------------------------ METEOR-lite

def stem_oracle(token):
    for suf in ("ing", "ed", "es", "ly", "s"):
        if token.endswith(suf) and len(token) - len(suf) >= 3:
            return token[:-len(suf)]
    return token


def meteor_alignment_oracle(candidate, reference):
    """(matches, chunks) per the two-stage greedy-leftmost rule: exact
    matches claim reference slots first, stem matches fill in after."""
    ref_used = set()
    cand_to_ref = {}
    for stage in ("exact", "stem"):
        for ci, tok in enumerate(candidate):
            if ci in cand_to_ref:
                continue
            for ri, rtok in enumerate(reference):
                if ri in ref_used:
                    continue
                hit = tok == rtok if stage == "exact" else stem_oracle(tok) == stem_oracle(rtok)
                if hit:
                    cand_to_ref[ci] = ri
                    ref_used.add(ri)
                    break
    pairs = sorted(cand_to_ref.items())
    chunks = 0
    for idx, (ci, ri) in enumerate(pairs):
        if idx == 0 or pairs[idx - 1] != (ci - 1, ri - 1):
            chunks += 1
    return len(pairs), chunks


def meteor_lite_oracle(candidate, reference):
    if not candidate or not reference:
        return 0.0
    m, chunks = meteor_alignment_oracle(candidate, reference)
    if m == 0:
        return 0.0
    p = m / len(candidate)
    r = m / len(reference)
    f = 10 * p * r / (r + 9 * p)
    return f * (1 - 0.5 * (chunks / m) ** 3)


# ------------------------------------------------- decoding enumeration

def enumerate_decodes(scorer, vocab_size, max_len, alpha):
    """Every reachable sequence: EOS is absorbing, everything else extends
    until max_len. Returns (finished, unfinished) lists of (ids, logp)."""
    usable = [t for t in range(vocab_size) if t not in SUPPRESSED]
    finished = []
    unfinished = []

    def walk(ids, logp):
        lp = np.asarray(scorer(list(ids)), dtype=np.float64)
        for tok in usable:
            child = ids + (tok,)
            child_lp = logp + float(lp[tok])
            if tok == EOS:
                finished.append((child, child_lp))
            elif len(child) == max_len:
                unfinished.append((child, child_lp))
            else:
                walk(child, child_lp)

    walk((), 0.0)
    return finished, unfinished


def best_decode_oracle(scorer, vocab_size, max_len, alpha):
    """Global optimum under the declared preference: finished hypotheses
    beat unfinished ones; rank by logp / len**alpha; ties go to the
    lexicographically smaller id tuple."""
    finished, unfinished = enumerate_decodes(scorer, vocab_size, max_len, alpha)
    pool = finished if finished else unfinished
    scored = [(lp / (len(ids) ** alpha) if alpha != 0.0 else lp, ids)
              for ids, lp in pool]
    scored.sort(key=lambda s: (-s[0], s[1]))
    return list(scored[0][1])


def beam_nbest_tuple_sort(scorer, beam_size, max_len, alpha):
    """Frozen tuple-sort beam expansion: one (ids, logp) candidate per
    finite vocabulary entry of every live hypothesis, sorted by
    (-logp, ids), the first beam_size kept. Returns the final
    (ids, logp, score, finished) tuples, best first, for valid scorers."""
    active = [((), 0.0)]
    pool = []
    for _ in range(max_len):
        candidates = []
        for ids, logp in active:
            lp = np.asarray(scorer(list(ids)), dtype=np.float64).copy()
            lp[list(SUPPRESSED)] = -np.inf
            for tok in range(lp.shape[0]):
                if np.isfinite(lp[tok]):
                    candidates.append((ids + (tok,), logp + float(lp[tok])))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        active = []
        for ids, logp in candidates[:beam_size]:
            (pool if ids[-1] == EOS else active).append((ids, logp))
        if not active:
            break
    finished = bool(pool)
    finals = [(ids, logp, logp / (len(ids) ** alpha) if alpha != 0.0 else logp,
               finished) for ids, logp in (pool or active)]
    finals.sort(key=lambda r: (-r[2], r[0]))
    return finals


# ------------------------------------------------------ numeric helpers

def central_difference(f, arr, h=1e-4):
    """d f / d arr entry by entry; f is a closure reading arr in place."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = f()
        flat[i] = keep - h
        lo = f()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def grouped_mean_oracle(token_states, sentence_index):
    """Mean of rows per sentence ordinal, plain loops."""
    states = np.asarray(token_states, dtype=np.float64)
    idx = list(sentence_index)
    n = max([i for i in idx if i >= 0], default=-1) + 1
    out = np.zeros((n, states.shape[1]))
    for s in range(n):
        rows = [states[t] for t, o in enumerate(idx) if o == s]
        assert rows, f"ordinal {s} empty"
        out[s] = sum(rows) / len(rows)
    return out


# ------------------------------------------------------------ optimizer

def adam_eager_oracle(init, grads_per_step, lr, beta1=0.9, beta2=0.999,
                      eps=1e-8, weight_decay=0.0):
    """Adam with decoupled decay whose moments start as zero arrays for
    every parameter and take an explicit zero array for a missing
    gradient. The expression order is the optimizer's, so results compare
    bitwise. Returns (data, m, v), each a dict by name."""
    data = {k: np.array(v, dtype=np.float64) for k, v in init.items()}
    m = {k: np.zeros_like(v) for k, v in data.items()}
    v = {k: np.zeros_like(x) for k, x in data.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for k in data:
            g = grads.get(k)
            g = np.zeros_like(data[k]) if g is None else np.asarray(g, dtype=np.float64)
            m[k] = beta1 * m[k] + (1.0 - beta1) * g
            v[k] = beta2 * v[k] + (1.0 - beta2) * (g * g)
            update = (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)
            data[k] = data[k] - lr * update - weight_decay * data[k]
    return data, m, v

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


def meteor_align_two_loops(candidate, reference):
    """The package's alignment pairs as they were before one loop ran both
    stages: an exact-match loop, then a stem-match loop over the leftovers."""
    pairs = []
    taken = [False] * len(reference)
    matched = [False] * len(candidate)
    for ci, tok in enumerate(candidate):
        for ri, ref_tok in enumerate(reference):
            if not taken[ri] and ref_tok == tok:
                pairs.append((ci, ri))
                taken[ri] = True
                matched[ci] = True
                break
    for ci, tok in enumerate(candidate):
        if matched[ci]:
            continue
        stem = stem_oracle(tok)
        for ri, ref_tok in enumerate(reference):
            if not taken[ri] and stem_oracle(ref_tok) == stem:
                pairs.append((ci, ri))
                taken[ri] = True
                break
    return sorted(pairs)


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


# ------------------------------------------------------------ ingestion

def split_sentences_char_scan(text, terminators, quotes, abbreviations):
    """The sentence splitter as a character-by-character scan, frozen from
    the package before it moved to a regex. Returns (start, end) pairs."""
    if not isinstance(text, str) or not text:
        raise ValueError("text must be a non-empty string")

    def is_abbreviation(period_idx):
        j = period_idx
        while j > 0 and text[j - 1].isalpha():
            j -= 1
        word = text[j:period_idx]
        if not word:
            return False
        if len(word) == 1 and word.isupper():
            return True
        return word.lower() in abbreviations

    spans = []

    def emit(lo, hi):
        while lo < hi and text[lo].isspace():
            lo += 1
        while hi > lo and text[hi - 1].isspace():
            hi -= 1
        if lo < hi:
            spans.append((lo, hi))

    start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in terminators:
            j = i + 1
            while j < n and text[j] in terminators:
                j += 1
            trailing_quote = j < n and text[j] in quotes
            if trailing_quote:
                j += 1
            if ch == "." and j == i + 1 and not trailing_quote and is_abbreviation(i):
                i += 1
                continue
            k = j
            while k < n and text[k].isspace():
                k += 1
            if k > j and k < n and (text[k].isupper() or text[k] in quotes or text[k].isdigit()):
                emit(start, j)
                start = k
                i = k
                continue
            i = j
            continue
        i += 1
    emit(start, n)
    return spans


def vocab_order_tuple_key(counts, min_freq, max_size):
    """Tokens with count >= min_freq, most frequent first, ties by token,
    cut to max_size: one (-count, token) key tuple per type."""
    return sorted((t for t, c in counts.items() if c >= min_freq),
                  key=lambda t: (-counts[t], t))[:max_size]


def assemble_over_keep(example, vocab, max_len, keep):
    """The model-input assembly with its ``keep=`` option, frozen from the
    package before the two_step cut became a slice of the assembled input:
    the example is tokenised again over the sentences in keep, then laid
    out and truncated as usual."""
    from jointqg.errors import InputTooLongError
    from jointqg.tokenizer import CLS_ID, SEP_ID, ModelInput

    if max_len < 8:
        raise ValueError("max_len must be at least 8")
    sent_ids = [vocab.encode(text) for text in example.sentence_texts()]
    answer_ids = vocab.encode(example.document.answer_text)
    if not answer_ids:
        raise ValueError(f"{example.document.id}: answer has no tokens")
    n = len(sent_ids)
    kept = sorted(set(keep))
    if any(i < 0 or i >= n for i in kept):
        raise ValueError("keep contains an out-of-range sentence index")
    kept = [i for i in kept if sent_ids[i]]
    overhead = 3 + len(answer_ids)
    if overhead > max_len:
        raise InputTooLongError(f"{example.document.id}: answer segment too long")
    ans = example.answer_sentence
    while kept and overhead + sum(len(sent_ids[i]) for i in kept) > max_len:
        kept.remove(max(kept, key=lambda i: (abs(i - ans), i)))
    ids, ordinals = [CLS_ID], [-1]
    for ordinal, i in enumerate(kept):
        ids.extend(sent_ids[i])
        ordinals.extend([ordinal] * len(sent_ids[i]))
    ids.extend([SEP_ID, *answer_ids, SEP_ID])
    ordinals.extend([-1] * (len(answer_ids) + 2))
    return ModelInput(np.asarray(ids, dtype=np.int64),
                      np.asarray(ordinals, dtype=np.int64), kept)


# ----------------------------------------------------------- checkpoint

def save_checkpoint_bytesio(path, params, cfg, vocab, step=0, seed=0, selector_k=None):
    """The checkpoint writer as it was before entries were streamed: each
    tensor is serialised into a BytesIO and handed to ``writestr`` whole."""
    import io
    import json
    import zipfile

    from jointqg.model import CHECKPOINT_VERSION

    meta = {
        "version": CHECKPOINT_VERSION,
        "config": cfg.to_dict(),
        "vocab_sha256": vocab.sha256(),
        "step": int(step),
        "seed": int(seed),
        "tensors": params.names(),
    }
    if selector_k is not None:
        meta["selector_k"] = int(selector_k)

    def entry(name):
        info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
        info.compress_type = zipfile.ZIP_STORED
        return info

    with open(path, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
        zf.writestr(entry("meta.json"), json.dumps(meta, indent=1, sort_keys=True))
        for name, tensor in params.items():
            buf = io.BytesIO()
            np.save(buf, tensor.data.astype("<f4"), allow_pickle=False)
            zf.writestr(entry(f"tensors/{name}.npy"), buf.getvalue())


# ------------------------------------------------------------ batching

def pad_batch_loop(inputs):
    """The encoder-batch padder as it was before every batch array came from
    one padding routine: one Python loop over the inputs."""
    from jointqg.tokenizer import PAD_ID

    if not inputs:
        raise ValueError("empty batch")
    tmax = max(mi.length for mi in inputs)
    bsz = len(inputs)
    ids = np.full((bsz, tmax), PAD_ID, dtype=np.int64)
    nonpad = np.zeros((bsz, tmax), dtype=np.int64)
    sent = np.full((bsz, tmax), -1, dtype=np.int64)
    for b, mi in enumerate(inputs):
        t = mi.length
        ids[b, :t] = mi.token_ids
        nonpad[b, :t] = 1
        sent[b, :t] = mi.sentence_index
    return {"token_ids": ids, "nonpad": nonpad, "sentence_index": sent}


def decoder_batch_loop(batch):
    """Teacher-forcing arrays of a batch of prepared examples, frozen from the
    training loop's own padder: dec_in is BOS plus the gold ids but the last,
    with a float 0/1 mask."""
    from jointqg.tokenizer import BOS_ID, PAD_ID

    u = max(len(pe.gold_ids) for pe in batch)
    bsz = len(batch)
    dec_in = np.full((bsz, u), PAD_ID, dtype=np.int64)
    targets = np.full((bsz, u), PAD_ID, dtype=np.int64)
    nonpad = np.zeros((bsz, u))
    for b, pe in enumerate(batch):
        n = len(pe.gold_ids)
        dec_in[b, 0] = BOS_ID
        dec_in[b, 1:n] = pe.gold_ids[:-1]
        targets[b, :n] = pe.gold_ids
        nonpad[b, :n] = 1.0
    return {"dec_in": dec_in, "targets": targets, "nonpad": nonpad}


def selector_batch_loop(batch):
    """Relevance labels and float mask of a batch, frozen from the training
    loop's own padder; at least one column even with no sentence at all."""
    smax = max(pe.model_input.n_sentences for pe in batch)
    bsz = len(batch)
    labels = np.zeros((bsz, max(smax, 1)))
    mask = np.zeros((bsz, max(smax, 1)))
    for b, pe in enumerate(batch):
        n = pe.model_input.n_sentences
        labels[b, :n] = pe.relevance
        mask[b, :n] = 1.0
    return {"labels": labels, "mask": mask}


def group_matrix_loop(sentence_index, n_sentences):
    """Row-normalised sentence membership as it was built before one array
    comparison did it: one Python loop per (example, sentence) pair."""
    bsz, t = sentence_index.shape
    s_max = max(n_sentences) if n_sentences else 0
    g = np.zeros((bsz, max(s_max, 1), t))
    for b in range(bsz):
        for s in range(n_sentences[b]):
            members = sentence_index[b] == s
            count = int(members.sum())
            if count == 0:
                raise ValueError(f"sentence ordinal {s} has no tokens in example {b}")
            g[b, s, members] = 1.0 / count
    return g

"""Joint selector-generator model on the shared encoder.

The encoder reads ``[CLS] context [SEP] answer [SEP]`` and produces token
states. Sentence vectors are grouped means of token states by sentence
ordinal; the selector scores each sentence vector with two feed-forward
layers and maps the output o to a probability p = 1 / (1 + exp(o)), so a
large positive o means irrelevant. The decoder generates the question with
causal self-attention plus cross-attention over all encoder token states,
so it reads the whole context through the encoder it shares with the
selector. An auxiliary head classifies the question type from the mean of
the token states.

Attention masking adds -1e9 to blocked score positions before softmax,
which underflows to an exact zero weight, so padding cannot leak into real
positions.
"""
from __future__ import annotations

import io
import json
import math
import zipfile
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import NumericError, SchemaError, VocabMismatchError
from .fileio import atomic_file
from .labeler import QUESTION_TYPES
from .tokenizer import BOS_ID, ModelInput, Vocabulary

_MASK_BIAS = -1e9
_LOGIT_CLAMP = 36.0  # keeps sigmoid strictly inside (0, 1) in float64
_LN_EPS = 1e-5


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    encoder_layers: int = 2
    decoder_layers: int = 2
    attention_heads: int = 4
    feedforward_dim: int = 256
    selector_hidden: int = 128
    max_len: int = 256

    def validate(self) -> None:
        if self.vocab_size < 7:
            raise ValueError("vocab_size must cover the special tokens")
        # counts first: a zero head count must not reach the modulo below
        if min(self.encoder_layers, self.decoder_layers, self.attention_heads,
               self.feedforward_dim, self.selector_hidden) < 1:
            raise ValueError("layer, head and width counts must be positive")
        if self.d_model < 1 or self.d_model % self.attention_heads != 0:
            raise ValueError("d_model must be a positive multiple of attention_heads")
        if self.max_len < 8:
            raise ValueError("max_len must be at least 8")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        cfg = cls(**d)
        cfg.validate()
        return cfg


def _attn_shapes(prefix: str, d: int) -> dict[str, tuple]:
    out = {}
    for w in ("wq", "wk", "wv", "wo"):
        out[f"{prefix}.{w}"] = (d, d)
    for b in ("bq", "bk", "bv", "bo"):
        out[f"{prefix}.{b}"] = (d,)
    return out


def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """Every parameter tensor name and shape implied by a config."""
    d, ff, hid, v = cfg.d_model, cfg.feedforward_dim, cfg.selector_hidden, cfg.vocab_size
    shapes: dict[str, tuple] = {
        "tok_emb": (v, d),
        "pos_enc": (cfg.max_len, d),
        "pos_dec": (cfg.max_len, d),
    }
    for i in range(cfg.encoder_layers):
        shapes.update(_attn_shapes(f"enc{i}.attn", d))
        shapes.update({
            f"enc{i}.ln1.g": (d,), f"enc{i}.ln1.b": (d,),
            f"enc{i}.ln2.g": (d,), f"enc{i}.ln2.b": (d,),
            f"enc{i}.ff.w1": (d, ff), f"enc{i}.ff.b1": (ff,),
            f"enc{i}.ff.w2": (ff, d), f"enc{i}.ff.b2": (d,),
        })
    shapes.update({"enc_ln_f.g": (d,), "enc_ln_f.b": (d,)})
    for i in range(cfg.decoder_layers):
        shapes.update(_attn_shapes(f"dec{i}.self", d))
        shapes.update(_attn_shapes(f"dec{i}.cross", d))
        shapes.update({
            f"dec{i}.ln1.g": (d,), f"dec{i}.ln1.b": (d,),
            f"dec{i}.ln2.g": (d,), f"dec{i}.ln2.b": (d,),
            f"dec{i}.ln3.g": (d,), f"dec{i}.ln3.b": (d,),
            f"dec{i}.ff.w1": (d, ff), f"dec{i}.ff.b1": (ff,),
            f"dec{i}.ff.w2": (ff, d), f"dec{i}.ff.b2": (d,),
        })
    shapes.update({"dec_ln_f.g": (d,), "dec_ln_f.b": (d,)})
    shapes.update({
        "sel.w1": (d, hid), "sel.b1": (hid,),
        "sel.w2": (hid, 1), "sel.b2": (1,),
        "qt.w1": (d, hid), "qt.b1": (hid,),
        "qt.w2": (hid, len(QUESTION_TYPES)), "qt.b2": (len(QUESTION_TYPES),),
        "out.w": (d, v), "out.b": (v,),
    })
    return shapes


# name prefixes of a two_step selector's tensors: the encoder with its token
# and position embeddings and final norm, and the selector head
SELECTOR_TENSORS = ("tok_emb", "pos_enc", "enc", "sel.")


def selector_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """The param_shapes entries a two_step selector holds."""
    return {n: s for n, s in param_shapes(cfg).items() if n.startswith(SELECTOR_TENSORS)}


class Parameters:
    """Named parameter tensors; iteration order is name-sorted and fixed."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = dict(sorted(tensors.items()))

    @classmethod
    def init(cls, cfg: ModelConfig, seed: int | np.random.SeedSequence = 0,
             shapes: dict[str, tuple] | None = None) -> "Parameters":
        """Fresh tensors for `shapes` (default: all of param_shapes(cfg)).
        Gains start at one, biases at zero, and every other tensor draws
        N(0, 0.02^2) from its own stream, keyed by the seed (an int or a
        SeedSequence) and the CRC-32 of its name. A tensor's start depends
        only on (seed, name, shape), so any subset equals the full draw's
        entries and the vocabulary size moves only the tensors it shapes."""
        cfg.validate()
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        tensors: dict[str, Tensor] = {}
        for name, shape in (param_shapes(cfg) if shapes is None else shapes).items():
            if name.endswith(".g"):
                data = np.ones(shape)
            elif name.endswith((".b", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo")):
                data = np.zeros(shape)
            else:
                stream = np.random.SeedSequence(
                    root.entropy, spawn_key=(*root.spawn_key, zlib.crc32(name.encode())))
                data = np.random.default_rng(stream).normal(0.0, 0.02, size=shape)
            tensors[name] = Tensor(data, requires_grad=True)
        return cls(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def names(self) -> list[str]:
        return list(self.tensors)

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def copy(self) -> "Parameters":
        return Parameters({k: Tensor(v.data.copy(), requires_grad=True)
                           for k, v in self.tensors.items()})


@dataclass
class EncoderOutput:
    """Per-example encoder products, batch dimension stripped."""

    token_states: np.ndarray      # (T, d)
    sentence_vectors: np.ndarray  # (n_sentences, d)


def _check_finite(x: Tensor, where: str) -> None:
    if not np.isfinite(x.data).all():
        raise NumericError("non-finite activation", where=where)


def _layer_norm(x: Tensor, p: Parameters, prefix: str) -> Tensor:
    mu = ad.tmean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = ad.tmean(xc * xc, axis=-1, keepdims=True)
    inv = ad.power(var + _LN_EPS, -0.5)
    return xc * inv * p[f"{prefix}.g"] + p[f"{prefix}.b"]


def _split_heads(x: Tensor, heads: int) -> Tensor:
    """(B, T, d) -> (B, heads, T, d / heads)."""
    bsz, t, d = x.shape
    return x.reshape((bsz, t, heads, d // heads)).transpose(0, 2, 1, 3)


def _attention_kv(kv_in: Tensor, p: Parameters, prefix: str,
                  heads: int) -> tuple[Tensor, Tensor]:
    """Keys and values of an attention block over kv_in, split into heads."""
    k = _split_heads(kv_in @ p[f"{prefix}.wk"] + p[f"{prefix}.bk"], heads)
    v = _split_heads(kv_in @ p[f"{prefix}.wv"] + p[f"{prefix}.bv"], heads)
    return k, v


def _attend(q_in: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | None,
            p: Parameters, prefix: str, heads: int) -> Tensor:
    """Attention of the rows of q_in over keys and values from _attention_kv."""
    bsz, tq, d = q_in.shape
    q = _split_heads(q_in @ p[f"{prefix}.wq"] + p[f"{prefix}.bq"], heads)
    scores = (q @ k.transpose(0, 1, 3, 2)) * ((d // heads) ** -0.5)
    if bias is not None:
        scores = scores + Tensor(bias)
    weights = ad.softmax(scores, axis=-1)
    ctx = (weights @ v).transpose(0, 2, 1, 3).reshape((bsz, tq, d))
    return ctx @ p[f"{prefix}.wo"] + p[f"{prefix}.bo"]


def _ffn(x: Tensor, p: Parameters, prefix: str) -> Tensor:
    return ad.relu(x @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"]) @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"]


def key_padding_bias(nonpad: np.ndarray) -> np.ndarray:
    """(B, T) 0/1 array of real positions -> (B, 1, 1, T) additive bias."""
    return (1.0 - nonpad.astype(np.float64))[:, None, None, :] * _MASK_BIAS


def causal_bias(t: int) -> np.ndarray:
    """(1, 1, T, T) additive bias hiding future positions."""
    upper = np.triu(np.ones((t, t)), k=1)
    return (upper * _MASK_BIAS)[None, None, :, :]


def encoder_states(token_ids: np.ndarray, nonpad: np.ndarray, p: Parameters,
                   cfg: ModelConfig) -> Tensor:
    """Batched encoder forward; returns final token states (B, T, d)."""
    bsz, t = token_ids.shape
    if t > cfg.max_len:
        raise ValueError(f"input length {t} exceeds max_len {cfg.max_len}")
    x = ad.getitem(p["tok_emb"], token_ids) * (cfg.d_model ** 0.5)
    x = x + ad.getitem(p["pos_enc"], np.arange(t))
    bias = key_padding_bias(nonpad)
    for i in range(cfg.encoder_layers):
        h = _layer_norm(x, p, f"enc{i}.ln1")
        k, v = _attention_kv(h, p, f"enc{i}.attn", cfg.attention_heads)
        x = x + _attend(h, k, v, bias, p, f"enc{i}.attn", cfg.attention_heads)
        x = x + _ffn(_layer_norm(x, p, f"enc{i}.ln2"), p, f"enc{i}.ff")
        _check_finite(x, f"encoder layer {i}")
    return _layer_norm(x, p, "enc_ln_f")


def pooled_vector(token_states: Tensor, nonpad: np.ndarray) -> Tensor:
    """Mean of non-pad token states, batched: (B, T, d) -> (B, d); the
    one-group case of group_matrix, with every real token in group 0."""
    bsz, _, d = token_states.shape
    return (Tensor(group_matrix(nonpad - 1, [1] * bsz)) @ token_states).reshape((bsz, d))


def group_matrix(sentence_index: np.ndarray, n_sentences: list[int]) -> np.ndarray:
    """(B, T) ordinals -> (B, S, T) row-normalized membership matrix.

    Row s of example b averages the tokens of sentence s; rows past the
    example's sentence count are zero.
    """
    ordinals = np.arange(max([1, *n_sentences]))
    wanted = ordinals < np.reshape(n_sentences, (-1, 1))  # (B, S)
    members = (sentence_index[:, None, :] == ordinals[:, None]) & wanted[:, :, None]  # (B, S, T)
    counts = members.sum(axis=2)
    empty = np.argwhere(wanted & (counts == 0))
    if len(empty):
        b, s = empty[0]
        raise ValueError(f"sentence ordinal {s} has no tokens in example {b}")
    return np.where(members, 1.0 / np.maximum(counts, 1)[:, :, None], 0.0)


def sentence_vectors_from_states(token_states: Tensor, gmat: np.ndarray) -> Tensor:
    return Tensor(gmat) @ token_states  # (B, S, d)


def selector_logits(sent_vecs: Tensor, p: Parameters) -> Tensor:
    h = ad.relu(sent_vecs @ p["sel.w1"] + p["sel.b1"])
    o = h @ p["sel.w2"] + p["sel.b2"]
    return ad.clip(o.reshape(o.shape[:-1]), -_LOGIT_CLAMP, _LOGIT_CLAMP)


def selector_probs(sent_vecs: Tensor, p: Parameters) -> Tensor:
    """p = 1 / (1 + exp(o)): probability of relevance decreases in o."""
    return ad.sigmoid(selector_logits(sent_vecs, p) * -1.0)


def qtype_logits(pooled: Tensor, p: Parameters) -> Tensor:
    return ad.relu(pooled @ p["qt.w1"] + p["qt.b1"]) @ p["qt.w2"] + p["qt.b2"]


def _check_target_length(u: int, cfg: ModelConfig) -> None:
    if u > cfg.max_len:
        raise ValueError(f"target length {u} exceeds max_len {cfg.max_len}")


def _decoder_embed(dec_ids: np.ndarray, start: int, p: Parameters,
                   cfg: ModelConfig) -> Tensor:
    """Token plus position embedding of dec_ids at positions start, start + 1, ..."""
    y = ad.getitem(p["tok_emb"], dec_ids) * (cfg.d_model ** 0.5)
    return y + ad.getitem(p["pos_dec"], np.arange(start, start + dec_ids.shape[1]))


def _decoder_layer(y: Tensor, i: int, past_kv: tuple[Tensor, Tensor] | None,
                   self_bias: np.ndarray | None, cross_kv: tuple[Tensor, Tensor],
                   cross_bias: np.ndarray | None, p: Parameters,
                   cfg: ModelConfig) -> tuple[Tensor, tuple[Tensor, Tensor]]:
    """Decoder block i over the rows of y. Self-attention sees past_kv (the
    keys and values of earlier positions, or None) followed by the rows'
    own; returns the new rows and those extended keys and values. The
    extension carries no gradient, so past_kv is for gradient-free use."""
    heads = cfg.attention_heads
    h = _layer_norm(y, p, f"dec{i}.ln1")
    k, v = _attention_kv(h, p, f"dec{i}.self", heads)
    if past_kv is not None:
        k, v = (Tensor(np.concatenate([old.data, new.data], axis=2))
                for old, new in zip(past_kv, (k, v)))
    y = y + _attend(h, k, v, self_bias, p, f"dec{i}.self", heads)
    y = y + _attend(_layer_norm(y, p, f"dec{i}.ln2"), *cross_kv, cross_bias,
                    p, f"dec{i}.cross", heads)
    y = y + _ffn(_layer_norm(y, p, f"dec{i}.ln3"), p, f"dec{i}.ff")
    _check_finite(y, f"decoder layer {i}")
    return y, (k, v)


def _decoder_head(y: Tensor, p: Parameters) -> Tensor:
    """Final layer norm and vocabulary projection: logits (B, U, V)."""
    logits = _layer_norm(y, p, "dec_ln_f") @ p["out.w"] + p["out.b"]
    _check_finite(logits, "output projection")
    return logits


def decoder_logits(dec_ids: np.ndarray, memory: Tensor,
                   cross_bias: np.ndarray | None, p: Parameters,
                   cfg: ModelConfig) -> Tensor:
    """Teacher-forced decoder forward; returns logits (B, U, V)."""
    u = dec_ids.shape[1]
    _check_target_length(u, cfg)
    y = _decoder_embed(dec_ids, 0, p, cfg)
    self_bias = causal_bias(u)
    for i in range(cfg.decoder_layers):
        cross_kv = _attention_kv(memory, p, f"dec{i}.cross", cfg.attention_heads)
        y, _ = _decoder_layer(y, i, None, self_bias, cross_kv, cross_bias, p, cfg)
    return _decoder_head(y, p)


# single-example convenience API


def encode_token_ids(token_ids: np.ndarray, p: Parameters, cfg: ModelConfig) -> np.ndarray:
    """Token states (T, d) for a raw id sequence, gradient-free."""
    with ad.no_grad():
        states = encoder_states(token_ids[None, :], np.ones((1, len(token_ids)), dtype=np.int64),
                                p, cfg)
    return states.data[0]


def reconstruct_sentence_vectors(token_states: np.ndarray,
                                 sentence_index: np.ndarray) -> np.ndarray:
    """Grouped mean of token states by sentence ordinal; group_matrix of one example.

    Ordinals must be exactly 0..n-1 (positions marked -1 are skipped); an
    ordinal with no tokens is an error.
    """
    token_states = np.asarray(token_states, dtype=np.float64)
    sentence_index = np.asarray(sentence_index)
    if token_states.ndim != 2 or sentence_index.shape != (token_states.shape[0],):
        raise ValueError("token_states must be (T, d) with matching sentence_index")
    n = int(sentence_index.max(initial=-1)) + 1
    if n == 0:
        return np.zeros((0, token_states.shape[1]))
    return group_matrix(sentence_index[None], [n])[0] @ token_states


def encoder_forward(model_input: ModelInput, p: Parameters, cfg: ModelConfig) -> EncoderOutput:
    """Run the encoder on one assembled input, gradient-free."""
    token_states = encode_token_ids(model_input.token_ids, p, cfg)
    return EncoderOutput(
        token_states=token_states,
        sentence_vectors=reconstruct_sentence_vectors(token_states, model_input.sentence_index),
    )


def selector_forward(sentence_vectors: np.ndarray, p: Parameters) -> np.ndarray:
    """Relevance probabilities, one per sentence vector, each in (0, 1)."""
    sv = np.asarray(sentence_vectors, dtype=np.float64)
    if sv.ndim != 2:
        raise ValueError("sentence_vectors must be (n, d)")
    if sv.shape[0] == 0:
        return np.zeros(0)
    with ad.no_grad():
        probs = selector_probs(Tensor(sv[None]), p)
    return probs.data[0]


class DecoderSession:
    """Incremental decoding context for one encoded example.

    The cross-attention keys and values of the memory are projected once,
    here. The memory is one unpadded example, so cross-attention takes no
    mask. The state of a prefix is every decoder layer's self-attention
    keys and values over [BOS] + prefix plus the last position's output
    row, and it is always built from its parent prefix's state by one
    one-row step through the same blocks as ``decoder_logits``. A prefix's
    log-probabilities are therefore a pure function of the prefix: bitwise
    the same whatever the call order or cache contents. Only the states at
    the last requested prefix length and the one before it are kept, which
    is what a beam step needs to extend its live hypotheses. The session
    reads the parameters as they were when it was built.
    """

    def __init__(self, enc: EncoderOutput, p: Parameters, cfg: ModelConfig):
        self.p = p
        self.cfg = cfg
        memory = Tensor(enc.token_states[None])
        with ad.no_grad():
            self.cross_kv = [_attention_kv(memory, p, f"dec{i}.cross", cfg.attention_heads)
                             for i in range(cfg.decoder_layers)]
        # [BOS] + prefix ids -> (per-layer self-attention (k, v), last output row)
        self._states: dict[tuple[int, ...], tuple[list, Tensor]] = {}

    def _extend(self, kv: list | None, token: int, position: int) -> tuple[list, Tensor]:
        """The state after appending token at position to the state kv."""
        y = _decoder_embed(np.array([[token]], dtype=np.int64), position, self.p, self.cfg)
        new_kv = []
        for i in range(self.cfg.decoder_layers):
            y, layer_kv = _decoder_layer(y, i, kv[i] if kv else None, None, self.cross_kv[i],
                                         None, self.p, self.cfg)
            new_kv.append(layer_kv)
        return new_kv, y

    def step_logprobs(self, prefix_ids) -> np.ndarray:
        """Log-probabilities of the next token after the generated prefix."""
        ids = (BOS_ID,) + tuple(int(t) for t in prefix_ids)
        u = len(ids)
        _check_target_length(u, self.cfg)
        n = u  # length of the longest cached ancestor
        while n and ids[:n] not in self._states:
            n -= 1
        kv, y = self._states[ids[:n]] if n else (None, None)
        try:
            with ad.no_grad():
                for t in range(n, u):
                    kv, y = self._extend(kv, ids[t], t)
                    self._states[ids[:t + 1]] = (kv, y)
                lp = ad.log_softmax(_decoder_head(y, self.p)[0, -1], axis=-1)
        finally:
            self._states = {key: s for key, s in self._states.items()
                            if u - 1 <= len(key) <= u}
        return lp.data


def decoder_step(enc: EncoderOutput, prefix_ids, p: Parameters,
                 cfg: ModelConfig) -> np.ndarray:
    """Distribution over the next token given generated prefix ids."""
    return np.exp(DecoderSession(enc, p, cfg).step_logprobs(prefix_ids))


# checkpoint container: zip of meta.json plus one .npy per tensor, each a
# version 1.0 header and a C-ordered float32 array; the loader reads no other layout.
# A checkpoint that records selector_k is a two_step selector and holds only
# the selector_shapes tensors; any other holds every param_shapes tensor.
# Entries are stored uncompressed: float32 weights barely deflate (about 8%)
# and inflating them dominated load time. The loader also reads deflated
# entries, so both kinds of checkpoint load. It streams each entry in fixed
# chunks straight into the tensor's preallocated float64 array, so no copy
# of an entry's raw bytes is held, and reads every entry to its end, where
# the zip reader checks its CRC.

CHECKPOINT_VERSION = "1"


@dataclass
class Checkpoint:
    params: Parameters
    config: ModelConfig
    vocab_sha256: str
    step: int = 0
    seed: int = 0
    selector_k: int | None = None  # top-k fallback of a two_step selector


def save_checkpoint(path: str, params: Parameters, cfg: ModelConfig,
                    vocab: Vocabulary, step: int = 0, seed: int = 0,
                    selector_k: int | None = None) -> None:
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
    def entry(name: str) -> zipfile.ZipInfo:
        # fixed timestamp keeps checkpoint bytes identical across reruns
        info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
        info.compress_type = zipfile.ZIP_STORED
        return info

    # streamed into the temp file entry by entry, each as np.save writes a
    # C-ordered array (a version 1.0 header, then the data) but from arr's
    # own buffer: the container, or a second copy of an entry, in memory
    # would add its size (~31 MB, or ~15 MB for tok_emb at V=30k) to the peak
    with atomic_file(path) as fh, zipfile.ZipFile(fh, "w") as zf:
        zf.writestr(entry("meta.json"), json.dumps(meta, indent=1, sort_keys=True))
        for name, tensor in params.items():
            arr = np.ascontiguousarray(tensor.data, dtype="<f4")
            header = io.BytesIO()
            np.lib.format.write_array_header_1_0(
                header, np.lib.format.header_data_from_array_1_0(arr))
            info = entry(f"tensors/{name}.npy")
            # the size writestr would set: zf.open decides zip64 from it
            info.file_size = header.tell() + arr.nbytes
            with zf.open(info, "w") as out:
                out.write(header.getvalue())
                out.write(arr.data)


_READ_CHUNK = 1 << 18  # bytes of a tensor entry read at a time


def _drain(fh) -> None:
    """Read a zip entry stream to its end, where the zip reader checks its CRC."""
    while fh.read(_READ_CHUNK):
        pass


def _read_tensor(fh, shape: tuple, where: str) -> tuple[np.ndarray, bool]:
    """The float64 tensor stored in one ``.npy`` entry stream, and whether
    all its values are finite. The entry must have the layout
    save_checkpoint writes: a version 1.0 header declaring a C-ordered
    float32 array of the expected shape. The header is checked before any
    payload is read, but a mismatch is raised only after the stream has
    been read to its end, so a damaged entry fails its CRC first."""
    version = np.lib.format.read_magic(fh)
    if version != (1, 0):
        raise ValueError(f"unsupported .npy format version {version}")
    stored, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    if dtype != np.dtype("<f4"):
        problem = SchemaError(f"{where} has dtype {dtype}, expected float32")
    elif fortran_order:
        problem = SchemaError(f"{where} is stored in Fortran order, expected C order")
    elif stored != shape:
        problem = SchemaError(f"{where} has shape {stored}, expected {shape}")
    else:
        problem = None
    if problem is not None:
        _drain(fh)
        raise problem
    count = math.prod(shape)
    out = np.empty(count)
    finite = True
    per_chunk = _READ_CHUNK // 4
    for start in range(0, count, per_chunk):
        n = min(per_chunk, count - start)
        raw = fh.read(4 * n)
        if len(raw) != 4 * n:
            raise EOFError(f"payload ends after {4 * start + len(raw)} "
                           f"of {4 * count} bytes")
        chunk = np.frombuffer(raw, dtype="<f4")
        finite = finite and bool(np.isfinite(chunk).all())
        out[start:start + n] = chunk
    _drain(fh)
    return out.reshape(shape), finite


def _meta_value(meta: dict, key: str, kind: type):
    value = meta[key]
    # bool is an int subclass, so a recorded `true` would pass as 1
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{key} must be {kind.__name__}, not {value!r}")
    return value


def load_checkpoint(path: str, expected_vocab: Vocabulary | None = None) -> Checkpoint:
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile as e:
        raise SchemaError(f"{path}: not a checkpoint container ({e})") from e
    with zf:
        try:
            meta = json.loads(zf.read("meta.json"))
            cfg = ModelConfig.from_dict(meta["config"])
            names = list(meta["tensors"])
            fields = (_meta_value(meta, "vocab_sha256", str),
                      _meta_value(meta, "step", int), _meta_value(meta, "seed", int),
                      _meta_value(meta, "selector_k", int) if "selector_k" in meta else None)
        except (KeyError, ValueError, TypeError, zipfile.BadZipFile) as e:
            raise SchemaError(f"{path}: bad checkpoint metadata ({e})") from e
        if meta.get("version") != CHECKPOINT_VERSION:
            raise SchemaError(f"{path}: unsupported checkpoint version {meta.get('version')}")
        expected = selector_shapes(cfg) if "selector_k" in meta else param_shapes(cfg)
        if set(names) != set(expected):
            raise SchemaError(f"{path}: tensor names do not match the stored config")
        tensors = {}
        for name in names:
            where = f"{path}: tensor {name}"
            try:
                with zf.open(f"tensors/{name}.npy") as fh:
                    data, finite = _read_tensor(fh, expected[name], where)
            except SchemaError:
                raise
            except (KeyError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as e:
                raise SchemaError(f"{where} is missing or corrupt "
                                  f"({type(e).__name__}: {e})") from e
            # only now: the CRC has passed, so a corrupt entry reads as corrupt
            if not finite:
                raise SchemaError(f"{where} holds non-finite values")
            tensors[name] = Tensor(data, requires_grad=True)
    ckpt = Checkpoint(Parameters(tensors), cfg, *fields)
    if expected_vocab is not None and expected_vocab.sha256() != ckpt.vocab_sha256:
        raise VocabMismatchError(
            f"{path}: checkpoint was built with a different vocabulary")
    return ckpt

"""Outside-in span tracer for the jointqg modules.

The tracer never edits the package: ``Tracer.install()`` replaces public
functions of the jointqg modules with timing wrappers and puts the
originals back on exit. A name imported by value into another module
(``from .labeler import label_examples``) is a separate binding, so every
binding of the same function object across ``jointqg.*`` is replaced.
Tensor operators look up ``autodiff.add``, ``autodiff.matmul`` and the
rest as module globals at call time, which is why wrapping the module
functions also catches ``+``, ``*`` and ``@``. The backward time of an op
is caught by wrapping the ``_vjp`` callback of each tensor the op returns.

A span's self time is its duration minus the time covered by its child
spans; the self times of all spans plus the time spent outside any span
add up to the traced wall time.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("corpus", "tokenizer", "embedding", "labeler", "autodiff", "model",
          "training", "decoding", "metrics", "harness", "cli")

OPS = ("add", "mul", "div", "matmul", "power", "exp", "log", "relu", "sigmoid",
       "clip", "tsum", "reshape", "transpose", "getitem")
# ops whose vocabulary-sized calls (output projection, embedding lookup,
# NLL gather) are reported apart from the transformer blocks
VOCAB_SPLIT_OPS = ("matmul", "getitem")

STAGES = ("prepare", "vocab", "label", "train", "generate", "evaluate")
STEP_PREFIXES = (0, 15, 31)


class SpanStats:
    __slots__ = ("count", "total", "self_time")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Nested span timer with per-name totals, self times and samples."""

    def __init__(self, clock=time.perf_counter, vocab_size: int | None = None):
        self.clock = clock
        self.vocab_size = vocab_size
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, list[int]] = defaultdict(list)
        self.io_by_root: dict[str, float] = defaultdict(float)
        self.root_time = 0.0
        self._stack: list[list] = []  # [name, start, child time]

    # span bookkeeping

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def end(self, io: bool = False) -> float:
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        st = self.stats[name]
        st.count += 1
        st.total += dur
        st.self_time += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_time += dur
        if io:
            root = self._stack[0][0] if self._stack else name
            self.io_by_root[root] += dur
        return dur

    def self_by_layer(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_time
        return out

    def total(self, name: str) -> float:
        return self.stats[name].total if name in self.stats else 0.0

    def count(self, name: str) -> int:
        return self.stats[name].count if name in self.stats else 0

    # wrappers

    def wrap(self, fn, name: str, io: bool = False, sample=None, on_result=None):
        """Timing wrapper; ``sample(args)`` names a list that also keeps
        each duration, ``on_result(result)`` sees every return value."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.end(io)
            if sample is not None:
                tracer.samples[sample(args)].append(dur)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_op(self, fn, op: str):
        tracer = self
        split = op in VOCAB_SPLIT_OPS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = op
            operands = args[:2] if op == "matmul" else args[:1]
            if split and tracer.vocab_size is not None and any(
                    tracer.vocab_size in np.shape(getattr(a, "data", a)) for a in operands):
                name = f"{op}_vocab"
            tracer.begin(f"autodiff.fwd.{name}")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end()
            vjp = out._vjp
            if vjp is not None:
                def timed_vjp(g):
                    tracer.begin(f"autodiff.vjp.{name}")
                    try:
                        return vjp(g)
                    finally:
                        tracer.end()
                out._vjp = timed_vjp
            return out

        return wrapper

    def wrap_backward(self, fn):
        tracer = self
        timed = self.wrap(fn, "autodiff.backward")

        @functools.wraps(fn)
        def wrapper(out, *args, **kwargs):
            tracer.counters["autodiff.graph_nodes"].append(graph_nodes(out))
            return timed(out, *args, **kwargs)

        return wrapper

    def wrap_stage(self, fn):
        """harness._stage returns a context manager; time the block it guards."""
        tracer = self

        class _Timed:
            def __init__(self, name):
                self.name = name
                self.inner = fn(name)

            def __enter__(self):
                tracer.begin(f"harness.stage.{self.name}")
                return self.inner.__enter__()

            def __exit__(self, *exc):
                try:
                    return self.inner.__exit__(*exc)
                finally:
                    tracer.end()

        return _Timed

    def install(self) -> "_Installed":
        return _Installed(self)


def graph_nodes(out) -> int:
    """Tensors that backward() visits from out: it and every ancestor that
    requires grad, parameters included."""
    seen: set[int] = set()
    stack = [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in node._parents if p.requires_grad)
    return len(seen)


def _bindings(fn) -> list[tuple[object, str]]:
    """Every jointqg module attribute bound to fn."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "jointqg" or modname.startswith("jointqg.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, attr))
    return out


class _Installed:
    """Context manager that swaps wrappers in and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _patch_function(self, module, attr: str, make) -> None:
        fn = getattr(module, attr)
        new = make(fn)
        for owner, name in _bindings(fn):
            self._undo.append((owner, name, fn))
            setattr(owner, name, new)

    def _patch_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def __enter__(self) -> Tracer:
        from jointqg import (autodiff, cli, corpus, decoding, embedding, harness,
                             labeler, metrics, model, tokenizer, training)

        t = self.tracer
        fn = self._patch_function
        meth = self._patch_method

        def span(name, **kw):
            return lambda f: t.wrap(f, name, **kw)

        fn(corpus, "load_squad_json", span("corpus.load", io=True))
        fn(corpus, "read_corpus_jsonl", span("corpus.load", io=True))
        fn(corpus, "write_corpus_jsonl", span("corpus.write", io=True))

        meth(tokenizer.Vocabulary, "build", span("tokenizer.vocab_build"))
        meth(tokenizer.Vocabulary, "load", span("tokenizer.vocab_io", io=True))
        meth(tokenizer.Vocabulary, "save", span("tokenizer.vocab_io", io=True))
        fn(tokenizer, "assemble_model_input", span("tokenizer.assemble"))
        fn(tokenizer, "pad_batch", span("tokenizer.pad_batch"))

        fn(embedding, "embed_tokens", span("embedding.embed"))
        fn(labeler, "label_examples", span("labeler.label"))
        fn(labeler, "write_labels_jsonl", span("labeler.write", io=True))

        for op in OPS:
            fn(autodiff, op, lambda f, op=op: t.wrap_op(f, op))
        fn(autodiff, "backward", t.wrap_backward)

        fn(model, "encoder_states", span("model.encoder_states"))
        fn(model, "decoder_logits", span("model.decoder_logits"))
        fn(model, "encoder_forward", span("model.encoder_forward"))
        fn(model, "selector_forward", span("model.selector_forward"))
        fn(model, "save_checkpoint", span("model.save_checkpoint", io=True))
        fn(model, "load_checkpoint", span("model.load_checkpoint", io=True))
        meth(model.Parameters, "init", span("model.params_init"))
        meth(model.DecoderSession, "step_logprobs",
             span("model.step", sample=lambda args: f"model.step.p{len(args[1])}"))

        fn(training, "train", span("training.train"))
        fn(training, "prepare_examples", span("training.prepare"))
        fn(training, "_batch_losses", span("training.forward"))
        fn(training, "selector_predictions", span("training.selector_predictions"))
        meth(training.Adam, "step", span("training.adam"))

        def count_tokens(results):
            t.counters["decoding.tokens"].append(len(results[0].ids))

        fn(decoding, "make_scorer", span("decoding.make_scorer"))
        fn(decoding, "beam_search_nbest", span("decoding.search", on_result=count_tokens))
        fn(decoding, "write_predictions_jsonl", span("decoding.write", io=True))

        fn(metrics, "score_corpus", span("metrics.score"))
        fn(metrics, "write_report_json", span("metrics.write", io=True))

        fn(harness, "run_pipeline", span("harness.run_pipeline"))
        fn(harness, "_stage", t.wrap_stage)
        fn(harness, "_file_sha256", span("harness.hash", io=True))

        fn(cli, "main", span("cli.main"))
        return t

    def __exit__(self, *exc) -> bool:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def layer_metrics(t: Tracer, traced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced phase: name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    def sec(name, span):
        m[name] = (t.total(span), "s")

    def cnt(name, value):
        m[name] = (float(value), "count")

    sec("corpus.load_s", "corpus.load")
    sec("corpus.write_s", "corpus.write")
    sec("tokenizer.vocab_build_s", "tokenizer.vocab_build")
    sec("tokenizer.vocab_io_s", "tokenizer.vocab_io")
    sec("tokenizer.assemble_s", "tokenizer.assemble")
    cnt("tokenizer.assemble_calls", t.count("tokenizer.assemble"))
    sec("tokenizer.pad_batch_s", "tokenizer.pad_batch")
    cnt("embedding.embed_calls", t.count("embedding.embed"))
    sec("embedding.embed_s", "embedding.embed")
    sec("labeler.label_s", "labeler.label")

    for op in OPS + tuple(f"{o}_vocab" for o in VOCAB_SPLIT_OPS):
        sec(f"autodiff.fwd_s.{op}", f"autodiff.fwd.{op}")
        sec(f"autodiff.vjp_s.{op}", f"autodiff.vjp.{op}")
        cnt(f"autodiff.calls.{op}", t.count(f"autodiff.fwd.{op}"))
    sec("autodiff.backward_s", "autodiff.backward")
    cnt("autodiff.graph_nodes", _median(t.counters["autodiff.graph_nodes"]))

    for fn in ("encoder_states", "decoder_logits", "encoder_forward",
               "selector_forward", "save_checkpoint", "load_checkpoint", "params_init"):
        sec(f"model.{fn}_s", f"model.{fn}")
    for p in STEP_PREFIXES:
        m[f"model.step_ms.p{p}"] = (1000.0 * _median(t.samples[f"model.step.p{p}"]), "ms")

    sec("training.adam_s", "training.adam")
    sec("training.forward_s", "training.forward")
    cnt("training.steps", t.count("training.forward"))

    calls = t.count("model.step")
    tokens = sum(t.counters["decoding.tokens"])
    cnt("decoding.scorer_calls", calls)
    sec("decoding.scorer_s", "model.step")
    m["decoding.search_self_s"] = (t.stats["decoding.search"].self_time
                                   if "decoding.search" in t.stats else 0.0, "s")
    m["decoding.scorer_calls_per_token"] = (calls / tokens if tokens else 0.0, "ratio")

    sec("metrics.score_s", "metrics.score")

    stage_total = 0.0
    for stage in STAGES:
        sec(f"harness.stage_s.{stage}", f"harness.stage.{stage}")
        stage_total += t.total(f"harness.stage.{stage}")
    m["harness.io_s"] = (t.io_by_root.get("harness.run_pipeline", 0.0), "s")
    m["harness.unattributed_s"] = (t.total("harness.run_pipeline") - stage_total, "s")
    sec("cli.generate_s", "cli.main")

    for layer, value in t.self_by_layer().items():
        m[f"trace.self_s.{layer}"] = (value, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.unattributed_s"] = (traced_wall - sum(t.self_by_layer().values()), "s")
    return m

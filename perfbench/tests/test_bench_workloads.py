"""Workloads at toy sizes: traced runs reproduce untraced outputs, the
per-layer accounting closes, and the runner refuses to run without the
package sources."""
import os
import shutil
import subprocess
import sys

import pytest

from run import Session
from spans import Tracer, layer_metrics
from workloads import DecodeV30k, OpResult, PipelineV5k, Timer, TrainV30k, _length_failures

TINY = dict(d_model=16, encoder_layers=1, decoder_layers=1, attention_heads=2,
            feedforward_dim=32, selector_hidden=16)


def _untraced_then_traced(workload):
    workload.setup()
    plain = workload.run_op(0, Timer())
    tracer = Tracer(vocab_size=workload.vocab_size)
    traced = workload.run_op(0, Timer(tracer))
    return plain, traced, tracer


def _assert_accounting_closes(tracer, wall):
    m = layer_metrics(tracer, wall)
    attributed = sum(v for k, (v, _) in m.items() if k.startswith("trace.self_s."))
    assert attributed + m["trace.unattributed_s"][0] == pytest.approx(wall, abs=1e-9)
    assert 0.0 <= m["trace.unattributed_s"][0] < 0.05 * wall + 1e-3
    return m


def test_train_traced_matches_untraced(tmp_path):
    wl = TrainV30k(3, str(tmp_path), corpus_examples=60, train_examples=16, epochs=2,
                   vocab_max=400, model=TINY)
    plain, traced, tracer = _untraced_then_traced(wl)
    assert not plain.failures and not traced.failures
    assert traced.loss_end == plain.loss_end
    assert traced.fingerprint == plain.fingerprint
    m = _assert_accounting_closes(tracer, traced.wall)
    assert m["training.steps"][0] == 2
    assert m["autodiff.calls.matmul_vocab"][0] > 0
    assert m["autodiff.vjp_s.getitem_vocab"][0] > 0


def test_decode_traced_matches_untraced(tmp_path):
    wl = DecodeV30k(4, str(tmp_path), corpus_examples=30, vocab_max=400, model=TINY)
    wl.setup()
    # operations alternate between beam 1 and beam 4
    plain = [wl.run_op(i, Timer()) for i in range(2)]
    tracer = Tracer(vocab_size=wl.vocab_size)
    traced = [wl.run_op(i, Timer(tracer)) for i in range(2)]
    assert [op.key for op in traced] == [1, 4]
    for p, t in zip(plain, traced):
        assert not p.failures and not t.failures
        assert t.fingerprint == p.fingerprint
    m = _assert_accounting_closes(tracer, sum(op.wall for op in traced))
    # beam 1 scores once per token over 32 tokens, beam 4 four times a
    # token after the first over 8
    assert m["decoding.scorer_calls"][0] == 32 + 1 + 4 * 7
    assert m["model.step_ms.p31"][0] > 0
    assert m["autodiff.backward_s"][0] == 0.0
    assert wl.summarize(plain)["ops_per_s"][0] == pytest.approx(
        1.0 / (plain[0].wall + plain[1].wall))


def test_pipeline_traced_matches_untraced(tmp_path):
    wl = PipelineV5k(5, str(tmp_path), train_examples=24, eval_examples=1,
                     vocab_max=300, model=TINY)
    plain, traced, tracer = _untraced_then_traced(wl)
    assert not plain.failures and not traced.failures
    assert traced.fingerprint == plain.fingerprint
    m = _assert_accounting_closes(tracer, traced.wall)
    stages = sum(m[f"harness.stage_s.{s}"][0] for s in
                 ("prepare", "vocab", "label", "train", "generate", "evaluate"))
    assert stages + m["harness.unattributed_s"][0] == pytest.approx(
        tracer.total("harness.run_pipeline"), abs=1e-9)
    assert m["model.selector_forward_s"][0] > 0 and m["harness.io_s"][0] > 0


def test_default_config_training_step_has_485_graph_nodes(tmp_path):
    wl = TrainV30k(1, str(tmp_path), corpus_examples=20, train_examples=16, epochs=1,
                   vocab_max=300)
    _, _, tracer = _untraced_then_traced(wl)
    assert tracer.counters["autodiff.graph_nodes"] == [485]


def test_length_check_names_each_short_prediction():
    records = [("a", {"prediction": "x y z"}), ("b", {"prediction": "x y"}),
               ("c", {"prediction": ""})]
    failures = _length_failures(records, 3)
    assert failures == ["b: prediction has 2 tokens, expected 3",
                        "c: prediction has 0 tokens, expected 3"]


class _FlakyWorkload:
    name = "flaky"
    min_ops = 1

    def run_op(self, index, timer):
        if index == 2:
            raise RuntimeError("boom")
        return OpResult(key=0, walls={"x": 0.01},
                        fingerprint="same" if index == 0 else "other")


def test_session_counts_check_failures_and_stops_on_errors(capsys):
    session = Session(_FlakyWorkload())
    ops = session.measure(budget=100.0)
    assert len(ops) == 2                  # the third op raised, which ends the loop
    assert session.attempted == 3
    assert session.failed == 2            # op 1 changed its output, op 2 raised
    assert "differs from an earlier run" in capsys.readouterr().err


def test_refuses_to_run_without_package_sources(tmp_path):
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_v30k",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Span bookkeeping and patching of the outside-in tracer."""
from spans import LAYERS, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    t = Tracer(clock=clock)
    t.begin("training.train")          # 0
    clock.advance(1.0)
    t.begin("model.encoder_states")    # 1
    clock.advance(2.0)
    t.begin("autodiff.fwd.matmul")     # 3
    clock.advance(4.0)
    t.end()                            # 7
    clock.advance(0.5)
    t.end()                            # 7.5
    t.begin("autodiff.backward")       # 7.5
    clock.advance(3.0)
    t.end()                            # 10.5
    clock.advance(0.25)
    t.end()                            # 10.75
    clock.advance(5.0)                 # outside any span

    assert t.stats["autodiff.fwd.matmul"].total == 4.0
    assert t.stats["autodiff.fwd.matmul"].self_time == 4.0
    assert t.stats["model.encoder_states"].total == 6.5
    assert t.stats["model.encoder_states"].self_time == 2.5
    assert t.stats["training.train"].total == 10.75
    assert t.stats["training.train"].self_time == 1.25
    assert t.root_time == 10.75

    layers = t.self_by_layer()
    assert set(layers) == set(LAYERS)
    assert layers["autodiff"] == 7.0 and layers["model"] == 2.5 and layers["training"] == 1.25
    assert sum(layers.values()) == t.root_time


def test_repeated_spans_accumulate_and_io_goes_to_the_root():
    clock = FakeClock()
    t = Tracer(clock=clock)
    for _ in range(3):
        t.begin("harness.run_pipeline")
        t.begin("model.save_checkpoint")
        clock.advance(0.5)
        t.end(io=True)
        clock.advance(1.0)
        t.end()
    assert t.count("model.save_checkpoint") == 3
    assert t.total("model.save_checkpoint") == 1.5
    assert t.io_by_root["harness.run_pipeline"] == 1.5
    assert t.stats["harness.run_pipeline"].self_time == 3.0
    assert t.total("never.seen") == 0.0 and t.count("never.seen") == 0


def test_install_patches_every_binding_and_restores_it():
    from jointqg import autodiff, cli, harness, labeler, tokenizer

    originals = (labeler.label_examples, harness.label_examples, cli.label_examples,
                 autodiff.matmul, tokenizer.Vocabulary.__dict__["build"])
    t = Tracer(vocab_size=11)
    with t.install():
        assert harness.label_examples is labeler.label_examples is cli.label_examples
        assert labeler.label_examples is not originals[0]
        a = autodiff.Tensor([[1.0] * 11], requires_grad=True)
        b = autodiff.Tensor([[2.0]] * 11)
        out = (a @ b).sum()
        autodiff.backward(out)
    assert (labeler.label_examples, harness.label_examples, cli.label_examples,
            autodiff.matmul, tokenizer.Vocabulary.__dict__["build"]) == originals
    assert t.count("autodiff.fwd.matmul_vocab") == 1
    assert t.count("autodiff.vjp.matmul_vocab") == 1
    assert t.count("autodiff.fwd.matmul") == 0
    assert t.count("autodiff.fwd.tsum") == 1
    assert t.counters["autodiff.graph_nodes"] == [3]
    assert a.grad.tolist() == [[2.0] * 11]

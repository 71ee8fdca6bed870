"""Reverse-mode autodiff: every op against central finite differences."""
import gc
import itertools
import weakref

import numpy as np
import pytest

from jointqg import autodiff as ad
from jointqg import training as T
from jointqg.embedding import BagMeanBackend
from jointqg.labeler import label_examples, question_type_of
from jointqg.model import Parameters
from oracles import central_difference


def _check(build, shapes, seed, tol=1e-6, h=1e-5):
    """Compare backward() grads on every input against central differences.

    build maps Tensors to one output Tensor; the output is scalarized with
    a fixed random weighting so non-scalar outputs are covered too.
    """
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    w = rng.standard_normal(out.shape)
    loss = ad.tsum(ad.mul(out, w))
    ad.backward(loss)

    def f():
        return float((build(*tensors).data * w).sum())

    for t, arr in zip(tensors, arrays):
        # Tensor shares the float64 array, so mutating arr re-evaluates f
        assert t.data is arr
        fd = central_difference(f, arr, h=h)
        scale = max(1.0, np.abs(fd).max())
        assert np.abs(t.grad - fd).max() / scale < tol, build


# ------------------------------------------------------- per-op gradients

def test_add_broadcast_grad():
    _check(lambda a, b: ad.add(a, b), [(3, 1), (4,)], seed=0)


def test_mul_broadcast_grad():
    _check(lambda a, b: ad.mul(a, b), [(2, 3), (3,)], seed=1)


def test_div_grad():
    _check(lambda a, b: ad.div(a, ad.add(ad.mul(b, b), 1.0)),
           [(2, 3), (2, 3)], seed=2)


def test_matmul_grad():
    _check(lambda a, b: ad.matmul(a, b), [(3, 4), (4, 2)], seed=3)


def test_matmul_batched_broadcast_grad():
    _check(lambda a, b: ad.matmul(a, b), [(2, 3, 4), (4, 5)], seed=4)


def test_matmul_4d_batched_broadcast_grad():
    _check(lambda a, b: ad.matmul(a, b), [(2, 3, 4, 5), (5, 3)], seed=26)


def _per_batch_matmul_grads(a, b, g):
    """The weight and input gradients of a @ b, one batch row at a time."""
    d, e = b.shape
    a3, g3 = a.reshape(-1, a.shape[-2], d), g.reshape(-1, g.shape[-2], e)
    gb = sum(ab.T @ gg for ab, gg in zip(a3, g3))
    ga = np.stack([gg @ b.T for gg in g3]).reshape(a.shape)
    return ga, gb


@pytest.mark.parametrize("case", ["vocab-head", "4d", "transposed-view"])
def test_matmul_folded_grads_match_per_batch_sum(case):
    # a batched projection folds its batch dims into one GEMM per gradient;
    # only the summation order may differ from the per-batch products
    rng = np.random.default_rng(27)
    if case == "vocab-head":
        a, b = rng.standard_normal((16, 16, 128)), rng.standard_normal((128, 5006))
    elif case == "4d":
        a, b = rng.standard_normal((3, 4, 5, 6)), rng.standard_normal((6, 7))
    else:
        a = rng.standard_normal((5, 6, 4)).transpose(0, 2, 1)
        b = rng.standard_normal((6, 3))
        assert not a.flags.c_contiguous
    ta, tb = ad.Tensor(a, requires_grad=True), ad.Tensor(b, requires_grad=True)
    out = ad.matmul(ta, tb)
    g = rng.standard_normal(out.shape)
    ad.backward(out, seed=g)
    ga, gb = _per_batch_matmul_grads(a, b, g)
    assert ta.grad.shape == a.shape and tb.grad.shape == b.shape
    assert np.abs(ta.grad - ga).max() <= 1e-12 * np.abs(ga).max()
    assert np.abs(tb.grad - gb).max() <= 1e-12 * np.abs(gb).max()


_BINARY_OPS = [
    ("add", ad.add, (3, 4), (4,)),
    ("mul", ad.mul, (3, 4), (3, 1)),
    ("mul-scalar", ad.mul, (3, 4), ()),
    ("div", ad.div, (3, 4), (3, 4)),
    ("matmul", ad.matmul, (3, 4), (4, 2)),
    ("matmul-folded", ad.matmul, (2, 3, 4), (4, 2)),
    ("matmul-batched", ad.matmul, (2, 3, 4), (2, 4, 5)),
]


@pytest.mark.parametrize("name, op, shape_a, shape_b", _BINARY_OPS,
                         ids=[c[0] for c in _BINARY_OPS])
@pytest.mark.parametrize("const", [0, 1])
def test_constant_operand_gets_no_gradient(name, op, shape_a, shape_b, const):
    rng = np.random.default_rng(28)
    arrays = [rng.standard_normal(shape_a), rng.standard_normal(shape_b)]
    if name == "div":
        arrays[1] = arrays[1] ** 2 + 1.0
    out_shape = op(ad.Tensor(arrays[0]), ad.Tensor(arrays[1])).shape
    g = rng.standard_normal(out_shape)
    # reference: both operands need a gradient
    both = [ad.Tensor(x, requires_grad=True) for x in arrays]
    ad.backward(op(*both), seed=g)
    # the same op with one operand a constant
    mixed = [ad.Tensor(x, requires_grad=i != const) for i, x in enumerate(arrays)]
    out = op(*mixed)
    assert out._vjp(g)[const] is None
    ad.backward(out, seed=g)
    assert mixed[const].grad is None
    var = 1 - const
    assert mixed[var].grad.tobytes() == both[var].grad.tobytes()


def test_matmul_vector_grad():
    _check(lambda a, b: ad.matmul(a, b), [(5,), (5, 3)], seed=5)
    _check(lambda a, b: ad.matmul(a, b), [(3, 4), (4,)], seed=24)
    _check(lambda a, b: ad.matmul(a, b), [(6,), (6,)], seed=25)


def test_power_grad():
    _check(lambda a: ad.power(a, 3.0), [(4,)], seed=6)
    # fractional exponent needs positive inputs
    _check(lambda a: ad.power(ad.add(ad.mul(a, a), 0.5), 0.5), [(4,)], seed=7)


def test_exp_log_grad():
    _check(lambda a: ad.exp(a), [(3, 2)], seed=8)
    _check(lambda a: ad.log(ad.add(ad.mul(a, a), 1.0)), [(3, 2)], seed=9)


def test_relu_grad_off_kink():
    def build(a):
        # shift values away from zero so finite differences stay one-sided
        return ad.relu(ad.add(a, 0.25))
    rng = np.random.default_rng(10)
    arr = rng.standard_normal((4, 3))
    arr[np.abs(arr + 0.25) < 0.05] += 0.2
    t = ad.Tensor(arr, requires_grad=True)
    out = ad.tsum(build(t))
    ad.backward(out)
    fd = central_difference(lambda: float(build(t).data.sum()), arr)
    assert np.abs(t.grad - fd).max() < 1e-6


def test_sigmoid_grad():
    _check(lambda a: ad.sigmoid(a), [(5,)], seed=11)


def test_sigmoid_extremes_stable():
    out = ad.sigmoid(ad.Tensor([-1000.0, 0.0, 1000.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == 0.0 and out.data[1] == 0.5 and out.data[2] == 1.0


def test_clip_grad_masks_saturated_entries():
    arr = np.array([-2.0, -0.5, 0.3, 1.7])
    t = ad.Tensor(arr, requires_grad=True)
    out = ad.tsum(ad.clip(t, -1.0, 1.0))
    ad.backward(out)
    assert np.array_equal(t.grad, [0.0, 1.0, 1.0, 0.0])


def test_sum_axis_keepdims_grad():
    _check(lambda a: ad.tsum(a, axis=1, keepdims=True), [(3, 4)], seed=12)
    _check(lambda a: ad.tsum(a, axis=0), [(3, 4)], seed=13)
    _check(lambda a: ad.tsum(a), [(3, 4)], seed=14)


def test_mean_axis_grad():
    _check(lambda a: ad.tmean(a, axis=1), [(2, 5)], seed=15)
    _check(lambda a: ad.tmean(a), [(2, 5)], seed=16)
    t = ad.Tensor(np.ones((2, 4)), requires_grad=True)
    ad.backward(ad.tmean(t))
    assert np.allclose(t.grad, 1.0 / 8.0)


def test_reshape_transpose_grad():
    _check(lambda a: ad.reshape(a, (6,)), [(2, 3)], seed=17)
    _check(lambda a: ad.transpose(a, (1, 2, 0)), [(2, 3, 4)], seed=18)


@pytest.mark.parametrize("axes", list(itertools.permutations(range(4))),
                         ids=lambda axes: "".join(map(str, axes)))
def test_transpose_grad_is_the_inverse_permutation(axes):
    a = ad.Tensor(np.arange(120.0).reshape(2, 3, 4, 5), requires_grad=True)
    out = ad.transpose(a, axes)
    seed = np.random.default_rng(0).normal(size=out.shape)
    ad.backward(out, seed)
    assert np.array_equal(a.grad, seed.transpose(np.argsort(axes)))


def test_getitem_slice_grad():
    _check(lambda a: a[1:3], [(5, 2)], seed=19)


def test_getitem_repeated_index_accumulates():
    arr = np.arange(4.0)
    t = ad.Tensor(arr, requires_grad=True)
    out = ad.tsum(t[np.array([0, 2, 0, 0])])
    ad.backward(out)
    assert np.array_equal(t.grad, [3.0, 0.0, 1.0, 0.0])
    fd = central_difference(
        lambda: float(arr[np.array([0, 2, 0, 0])].sum()), arr)
    assert np.array_equal(t.grad, fd.round(6))


def test_log_softmax_grad_and_stability():
    _check(lambda a: ad.log_softmax(a, axis=-1), [(3, 5)], seed=20)
    big = ad.log_softmax(ad.Tensor([[1000.0, 999.0, 0.0]]))
    assert np.all(np.isfinite(big.data))
    assert abs(np.exp(big.data).sum() - 1.0) < 1e-12


def test_softmax_grad_and_rows_sum_to_one():
    _check(lambda a: ad.softmax(a, axis=-1), [(2, 4)], seed=21, tol=5e-6)
    rng = np.random.default_rng(22)
    sm = ad.softmax(ad.Tensor(rng.standard_normal((6, 9)) * 5))
    assert np.allclose(sm.data.sum(axis=-1), 1.0, atol=1e-12)


def test_operator_sugar_grad():
    def build(a, b):
        return (a * b + 2.0) / (b * b + 1.0) - a ** 2.0
    _check(build, [(3,), (3,)], seed=23)


# ---------------------------------------------------------- graph plumbing

def test_reused_node_accumulates():
    t = ad.Tensor([3.0], requires_grad=True)
    out = ad.tsum(ad.add(ad.mul(t, t), ad.mul(t, t)))
    ad.backward(out)
    assert np.allclose(t.grad, 12.0)  # d/dt of 2 t^2


def test_second_backward_accumulates_into_leaf():
    t = ad.Tensor([2.0], requires_grad=True)
    out = ad.tsum(ad.mul(t, t))
    ad.backward(out)
    ad.backward(out)
    assert np.allclose(t.grad, 8.0)
    t.zero_grad()
    assert t.grad is None


def test_backward_seed_weighting():
    t = ad.Tensor(np.arange(3.0), requires_grad=True)
    out = ad.mul(t, t)
    ad.backward(out, seed=np.array([1.0, 0.0, 10.0]))
    assert np.array_equal(t.grad, [0.0, 0.0, 40.0])


def test_backward_refuses_a_seed_of_another_shape():
    t = ad.Tensor(np.arange(3.0), requires_grad=True)
    out = ad.mul(t, t)
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(3,\)"):
        ad.backward(out, seed=np.ones((2, 3)))
    assert t.grad is None


def test_backward_copies_the_seed():
    # add passes a same-shape gradient through, so the seed reaches the leaf
    t = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    s = np.ones(2)
    ad.backward(ad.add(t, 1.0), seed=s)
    s[0] = 5.0
    assert t.grad.tolist() == [1.0, 1.0]
    t.grad[1] = 7.0
    assert s.tolist() == [5.0, 1.0]


def test_backward_gives_each_leaf_its_own_grad_array():
    a = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = ad.Tensor(np.array([3.0, 4.0]), requires_grad=True)
    ad.backward(ad.add(a, b))
    a.grad[0] = 9.0
    assert b.grad.tolist() == [1.0, 1.0]
    assert a.grad.tolist() == [9.0, 1.0]


def test_no_grad_blocks_graph():
    t = ad.Tensor([1.0], requires_grad=True)
    with ad.no_grad():
        out = ad.mul(t, t)
    assert not out.requires_grad
    with pytest.raises(ValueError):
        ad.backward(out)
    assert ad.grad_enabled()


def test_constant_graph_requires_no_grad():
    out = ad.add(ad.Tensor([1.0]), ad.Tensor([2.0]))
    assert not out.requires_grad
    with pytest.raises(ValueError):
        ad.backward(out)


def test_deep_chain_iterative_topo():
    t = ad.Tensor([1.0], requires_grad=True)
    x = t
    for _ in range(2000):
        x = ad.add(x, 1.0)
    ad.backward(ad.tsum(x))
    assert np.allclose(t.grad, 1.0)
    assert np.allclose(x.data, 2001.0)


def test_diamond_graph_grad():
    # two paths from the same leaf must sum: d/dx (x*x + 3x) = 2x + 3
    t = ad.Tensor([4.0], requires_grad=True)
    out = ad.tsum(ad.add(ad.mul(t, t), ad.mul(t, 3.0)))
    ad.backward(out)
    assert np.allclose(t.grad, 11.0)


# ------------------------------------------------- what a graph keeps alive

def _unary(op):
    return lambda a, b: op(a)


# every op, on operands that both need a gradient where it has two
_ALL_OPS = [
    ("add", ad.add), ("mul", ad.mul), ("div", ad.div), ("matmul", ad.matmul),
    ("power", _unary(lambda a: ad.power(a, 3.0))), ("exp", _unary(ad.exp)),
    ("log", _unary(lambda a: ad.log(ad.mul(a, a)))),
    ("relu", _unary(ad.relu)), ("sigmoid", _unary(ad.sigmoid)),
    ("clip", _unary(lambda a: ad.clip(a, -0.5, 0.5))), ("tsum", _unary(ad.tsum)),
    ("tsum-axis", _unary(lambda a: ad.tsum(a, axis=1))),
    ("reshape", _unary(lambda a: ad.reshape(a, (9,)))),
    ("transpose", _unary(lambda a: ad.transpose(a, (1, 0)))),
    ("getitem", _unary(lambda a: ad.getitem(a, np.array([0, 2, 0])))),
]


def _closure_values(vjp):
    """What a VJP closure captures, with tuples opened one level."""
    for cell in vjp.__closure__ or ():
        value = cell.cell_contents
        yield from value if isinstance(value, tuple) else (value,)


def _operands(grads=(True, True)):
    rng = np.random.default_rng(30)
    return [ad.Tensor(rng.standard_normal((3, 3)), requires_grad=g) for g in grads]


@pytest.mark.parametrize("name, op", _ALL_OPS, ids=[c[0] for c in _ALL_OPS])
@pytest.mark.parametrize("grads", [(True, True), (True, False), (False, True)],
                         ids=["both", "a-only", "b-only"])
def test_no_vjp_closure_holds_a_tensor(name, op, grads):
    out = op(*_operands(grads))
    if not out.requires_grad:
        return  # a unary op on a constant records nothing
    assert not any(isinstance(v, (ad.Tensor, ad._Node)) for v in _closure_values(out._vjp))


@pytest.mark.parametrize("name, op", _ALL_OPS, ids=[c[0] for c in _ALL_OPS])
def test_no_grad_and_constant_ops_record_no_vjp(name, op):
    with ad.no_grad():
        out = op(*_operands())
    assert out._vjp is None and out._parents == () and not out.requires_grad
    out = op(*_operands((False, False)))
    assert out._vjp is None and not out.requires_grad


def test_intermediate_value_is_freed_once_the_chain_moves_past_it():
    rng = np.random.default_rng(31)
    arr = rng.standard_normal((3, 4))
    t = ad.Tensor(arr, requires_grad=True)

    def build(x):
        h = ad.add(x, 1.0)
        build.ref = weakref.ref(h.data)
        return ad.exp(ad.mul(h, 2.0))

    out = build(t)
    # mul by a constant keeps only the constant and exp keeps its output,
    # so nothing in the live graph reads add's value
    assert build.ref() is None
    w = rng.standard_normal(out.shape)
    ad.backward(out, seed=w)
    fd = central_difference(lambda: float((build(t).data * w).sum()), arr)
    assert np.abs(t.grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-6


def _live_nodes() -> int:
    return sum(isinstance(o, ad._Node) for o in gc.get_objects())


def _graph_arrays(out):
    """Every array held in a VJP closure of out's graph."""
    arrays, seen, stack = [], set(), [out._node]
    while stack:
        node = stack.pop()
        if id(node) in seen or not isinstance(node, ad._Node):
            continue
        seen.add(id(node))
        arrays.extend(v for v in _closure_values(node._vjp) if isinstance(v, np.ndarray))
        stack.extend(node._parents)
    return arrays


def test_dropping_a_step_graph_frees_it_without_the_cycle_collector(
        tiny_examples, tiny_vocab, tiny_model_cfg):
    examples = tiny_examples[:4]
    labels = label_examples(examples, BagMeanBackend(dim=16, seed=0), k=1)
    qtypes = [question_type_of(ex.document.question) for ex in examples]
    prepared, _ = T.prepare_examples(examples, labels, qtypes, tiny_vocab,
                                     tiny_model_cfg, T.TrainConfig(k=1))
    params = Parameters.init(tiny_model_cfg, seed=5)
    gc.collect()
    gc.disable()
    try:
        before = _live_nodes()
        total, sel_l, gen_l = T._batch_losses(prepared, params, tiny_model_cfg,
                                              "joint", 0.5, None)
        ad.backward(total)
        assert _live_nodes() > before
        param_ids = {id(p.data) for _, p in params.items()}
        held = [weakref.ref(a) for a in _graph_arrays(total) if id(a) not in param_ids]
        assert held
        # refcounting alone must free every node and every saved array; a
        # reference cycle anywhere, leaves included, would keep them alive
        del total, sel_l, gen_l
        assert _live_nodes() == before
        assert all(r() is None for r in held)
    finally:
        gc.enable()


def test_backward_frees_each_upstream_gradient_before_accumulating_its_vjp():
    rng = np.random.default_rng(33)
    t = ad.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    y = ad.log_softmax(ad.mul(t, t), axis=-1)
    out = ad.tsum(ad.mul(y, rng.standard_normal((4, 6))))
    ad.backward(out)
    want, t.grad = t.grad, None
    dead_at_accumulation = []

    def probe(vjp):
        def wrapped(g):
            ref = weakref.ref(g)
            results = vjp(g)
            # a result that shares g's memory keeps it alive by right
            shared = any(r is not None and np.shares_memory(r, g) for r in results)
            del g

            def accumulated():
                # backward takes each result as it accumulates it
                for r in results:
                    if not shared:
                        dead_at_accumulation.append(ref() is None)
                    yield r
            return accumulated()
        return wrapped

    seen, stack = set(), [out._node]
    while stack:
        node = stack.pop()
        if id(node) in seen or not isinstance(node, ad._Node):
            continue
        seen.add(id(node))
        node._vjp = probe(node._vjp)
        stack.extend(node._parents)
    ad.backward(out)
    # the two muls, exp, tsum (twice) and log never pass g through
    assert len(dead_at_accumulation) >= 6
    assert all(dead_at_accumulation)
    assert t.grad.tobytes() == want.tobytes()


def test_tensor_casts_to_float64():
    t = ad.Tensor(np.array([1, 2], dtype=np.int64))
    assert t.data.dtype == np.float64
    assert ad.Tensor(np.float32(1.5)).data.dtype == np.float64


def test_item_and_shape():
    t = ad.Tensor([[1.0, 2.0]])
    assert t.shape == (1, 2) and t.ndim == 2
    assert ad.tsum(t).item() == 3.0

"""Minimal reverse-mode automatic differentiation over numpy arrays.

A differentiable operation on a tensor that requires grad returns a Tensor
whose graph node holds only its parents' nodes and a vector-Jacobian
callback; a leaf Tensor is its own node. The callback keeps just the
arrays its rule reads (an operand only when the other side needs a
gradient, the output of exp and sigmoid, the input of log and power, a
mask for relu and clip, shapes for the rest), never a Tensor, so an
intermediate value is freed as soon as the code that made it moves on.
backward() walks the nodes once in reverse topological order and
accumulates gradients into leaf tensors. A consumed gradient is freed at
once: a node's upstream gradient as soon as its VJP returns, and the VJP's
results once they are accumulated. A VJP returns None for an operand
that needs no gradient (a constant such as a mask or a scale), so no
arithmetic is spent on it. Under no_grad, or with only constant operands,
an op records nothing. All computation runs in float64. The op set is
exactly what the encoder, decoder, heads and losses in this package need.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_GRAD_ENABLED = [True]


@contextmanager
def no_grad():
    """Disable graph construction inside the block."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


class _Node:
    """The graph record of one op result: its parents' nodes and its VJP."""
    __slots__ = ("_parents", "_vjp")
    requires_grad = True

    def __init__(self, parents: tuple, vjp):
        self._parents = parents
        self._vjp = vjp


class _Constant:
    """The node of every operand that needs no gradient."""
    __slots__ = ()
    requires_grad = False
    _parents = ()
    _vjp = None


_CONSTANT = _Constant()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: _Node | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _vjp(self):
        return None if self._node is None else self._node._vjp

    @_vjp.setter
    def _vjp(self, vjp) -> None:
        self._node._vjp = vjp

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; functions below do the work
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(as_tensor(other), mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], tuple) else shape)

    def transpose(self, *axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the pre-broadcast shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _tracked(*operands: Tensor) -> bool:
    """Whether an op on these operands records a graph node."""
    return _GRAD_ENABLED[-1] and any(t.requires_grad for t in operands)


def _node_of(t: Tensor):
    if t._node is not None:
        return t._node
    return t if t.requires_grad else _CONSTANT


def _record(out: Tensor, operands: tuple, vjp) -> None:
    """Make out an op result that tracks a gradient through vjp."""
    out.requires_grad = True
    out._node = _Node(tuple(_node_of(t) for t in operands), vjp)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)
    if _tracked(a, b):
        need_a, need_b = a.requires_grad, b.requires_grad
        a_shape, b_shape = a.shape, b.shape

        def vjp(g):
            return (_unbroadcast(g, a_shape) if need_a else None,
                    _unbroadcast(g, b_shape) if need_b else None)

        _record(out, (a, b), vjp)
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)
    if _tracked(a, b):
        need_a, need_b = a.requires_grad, b.requires_grad
        a_shape, b_shape = a.shape, b.shape
        # each side's gradient reads only the other side's value
        a_data = a.data if need_b else None
        b_data = b.data if need_a else None

        def vjp(g):
            return (_unbroadcast(g * b_data, a_shape) if need_a else None,
                    _unbroadcast(g * a_data, b_shape) if need_b else None)

        _record(out, (a, b), vjp)
    return out


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data / b.data)
    if _tracked(a, b):
        need_a, need_b = a.requires_grad, b.requires_grad
        a_shape, b_shape = a.shape, b.shape
        a_data = a.data if need_b else None
        b_data = b.data

        def vjp(g):
            return (_unbroadcast(g / b_data, a_shape) if need_a else None,
                    _unbroadcast(-g * a_data / (b_data * b_data), b_shape)
                    if need_b else None)

        _record(out, (a, b), vjp)
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data @ b.data)
    if _tracked(a, b):
        need_a, need_b = a.requires_grad, b.requires_grad
        a_shape, b_shape = a.shape, b.shape
        a_data = a.data if need_b else None
        b_data = b.data if need_a else None

        def vjp(g):
            if len(b_shape) == 2 and len(a_shape) > 2:
                # a batched projection: fold the batch dims into the rows so
                # the weight gradient is one (d, N) @ (N, e) GEMM, not B
                # products summed over a (B, d, e) temporary
                d, e = b_shape
                g2 = np.asarray(g).reshape(-1, e)
                return ((g2 @ b_data.T).reshape(a_shape) if need_a else None,
                        a_data.reshape(-1, d).T @ g2 if need_b else None)
            # promote 1-D operands to matrices, mirroring numpy @ semantics
            a_mat = a_shape if len(a_shape) > 1 else (1,) + a_shape
            b_mat = b_shape if len(b_shape) > 1 else b_shape + (1,)
            batch = np.broadcast_shapes(a_mat[:-2], b_mat[:-2])
            gg = np.asarray(g).reshape(batch + (a_mat[-2], b_mat[-1]))
            ga = gb = None
            if need_a:
                bm = b_data if b_data.ndim > 1 else b_data.reshape(-1, 1)
                ga = _unbroadcast(gg @ np.swapaxes(bm, -1, -2), a_mat).reshape(a_shape)
            if need_b:
                am = a_data if a_data.ndim > 1 else a_data.reshape(1, -1)
                gb = _unbroadcast(np.swapaxes(am, -1, -2) @ gg, b_mat).reshape(b_shape)
            return ga, gb

        _record(out, (a, b), vjp)
    return out


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    p = float(p)
    out = Tensor(a.data ** p)
    if _tracked(a):
        x = a.data

        def vjp(g):
            return (g * p * x ** (p - 1.0),)

        _record(out, (a,), vjp)
    return out


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.exp(a.data))
    if _tracked(a):
        y = out.data

        def vjp(g):
            return (g * y,)

        _record(out, (a,), vjp)
    return out


def log(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.log(a.data))
    if _tracked(a):
        x = a.data

        def vjp(g):
            return (g / x,)

        _record(out, (a,), vjp)
    return out


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0))
    if _tracked(a):
        positive = a.data > 0.0

        def vjp(g):
            return (g * positive,)

        _record(out, (a,), vjp)
    return out


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(_sigmoid_np(a.data))
    if _tracked(a):
        y = out.data

        def vjp(g):
            return (g * y * (1.0 - y),)

        _record(out, (a,), vjp)
    return out


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only through the unclamped region."""
    a = as_tensor(a)
    out = Tensor(np.clip(a.data, lo, hi))
    if _tracked(a):
        inside = (a.data >= lo) & (a.data <= hi)

        def vjp(g):
            return (g * inside,)

        _record(out, (a,), vjp)
    return out


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    if _tracked(a):
        a_shape = a.shape

        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a_shape).copy(),)

        _record(out, (a,), vjp)
    return out


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis, keepdims), 1.0 / count)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    if _tracked(a):
        a_shape = a.shape

        def vjp(g):
            return (g.reshape(a_shape),)

        _record(out, (a,), vjp)
    return out


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes))
    if _tracked(a):
        def vjp(g):
            # the inverse permutation, computed only when a gradient flows
            return (g.transpose(sorted(range(len(axes)), key=axes.__getitem__)),)

        _record(out, (a,), vjp)
    return out


def getitem(a, idx) -> Tensor:
    """Constant-index slicing/gather; gradients scatter-add back."""
    a = as_tensor(a)
    out = Tensor(a.data[idx])
    if _tracked(a):
        a_shape = a.shape

        def vjp(g):
            full = np.zeros(a_shape)
            np.add.at(full, idx, g)
            return (full,)

        _record(out, (a,), vjp)
    return out


def log_softmax(x, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax; the max shift is a constant."""
    x = as_tensor(x)
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    z = x - shift
    lse = log(tsum(exp(z), axis=axis, keepdims=True))
    return z - lse


def softmax(x, axis: int = -1) -> Tensor:
    return exp(log_softmax(x, axis))


def backward(out: Tensor, seed: np.ndarray | None = None) -> None:
    """Accumulate d(out)/d(leaf) into .grad over the whole graph."""
    if not out.requires_grad:
        raise ValueError("output does not require grad")
    if seed is not None and np.shape(seed) != out.shape:
        raise ValueError(f"seed shape {np.shape(seed)} does not match "
                         f"output shape {out.shape}")
    root = _node_of(out)
    topo: list = []
    visited: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    # the seed is copied, so no .grad aliases the caller's array
    grads: dict[int, np.ndarray] = {
        id(root): np.ones_like(out.data) if seed is None else np.array(seed, dtype=np.float64)
    }
    # memory owners already handed to a leaf's .grad by this call; a VJP can
    # pass one gradient through to two leaves (add of two same-shape leaves)
    handed: set[int] = set()
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            # a leaf Tensor, which is its own node
            if node.grad is not None:
                node.grad = node.grad + g
                continue
            owner = id(g if g.base is None else g.base)
            if owner in handed:
                g = g.copy()
            else:
                handed.add(owner)
            node.grad = g
            continue
        pgs = node._vjp(g)
        # a consumed gradient is freed at once: g before the accumulation,
        # and the VJP's results after it, so none outlives its use
        del g
        for p, pg in zip(node._parents, pgs):
            if pg is None or not p.requires_grad:
                continue
            key = id(p)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
        pgs = pg = None
    # interior nodes do not retain grads

"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every differentiable operation returns a Tensor holding its parents and a
vector-Jacobian callback; backward() walks the graph once in reverse
topological order and accumulates gradients into leaf tensors. A VJP
returns None for an operand that needs no gradient (a constant such as a
mask or a scale), so no arithmetic is spent on it. All computation runs
in float64. The op set is exactly what the encoder, decoder, heads and
losses in this package need.
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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

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


def _make(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    if grad_enabled() and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _vjp=vjp)
    return Tensor(data)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def vjp(g):
        return (_unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
                if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data

    def vjp(g):
        if b.data.ndim == 2 and a.data.ndim > 2:
            # a batched projection: fold the batch dims into the rows so the
            # weight gradient is one (d, N) @ (N, e) GEMM, not B products
            # summed over a (B, d, e) temporary
            d, e = b.data.shape
            g2 = np.asarray(g).reshape(-1, e)
            return ((g2 @ b.data.T).reshape(a.data.shape) if a.requires_grad else None,
                    a.data.reshape(-1, d).T @ g2 if b.requires_grad else None)
        # promote 1-D operands to matrices, mirroring numpy @ semantics
        a_mat = a.data if a.data.ndim > 1 else a.data.reshape(1, -1)
        b_mat = b.data if b.data.ndim > 1 else b.data.reshape(-1, 1)
        batch = np.broadcast_shapes(a_mat.shape[:-2], b_mat.shape[:-2])
        gg = np.asarray(g).reshape(batch + (a_mat.shape[-2], b_mat.shape[-1]))
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(gg @ np.swapaxes(b_mat, -1, -2), a_mat.shape).reshape(a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a_mat, -1, -2) @ gg, b_mat.shape).reshape(b.data.shape)
        return ga, gb

    return _make(out, (a, b), vjp)


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    p = float(p)
    out = a.data ** p

    def vjp(g):
        return (g * p * a.data ** (p - 1.0),)

    return _make(out, (a,), vjp)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return _make(out, (a,), vjp)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def vjp(g):
        return (g / a.data,)

    return _make(out, (a,), vjp)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (a.data > 0.0),)

    return _make(out, (a,), vjp)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid_np(a.data)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), vjp)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only through the unclamped region."""
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)

    def vjp(g):
        return (g * ((a.data >= lo) & (a.data <= hi)),)

    return _make(out, (a,), vjp)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _make(out, (a,), vjp)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.data.shape[i] for i in axis]))
    else:
        count = a.data.shape[axis]
    return mul(tsum(a, axis, keepdims), 1.0 / count)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.data.shape),)

    return _make(out, (a,), vjp)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out = a.data.transpose(axes)

    def vjp(g):
        # the inverse permutation, computed only when a gradient flows
        return (g.transpose(sorted(range(len(axes)), key=axes.__getitem__)),)

    return _make(out, (a,), vjp)


def getitem(a, idx) -> Tensor:
    """Constant-index slicing/gather; gradients scatter-add back."""
    a = as_tensor(a)
    out = a.data[idx]

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(out, (a,), vjp)


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
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
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

    grads: dict[int, np.ndarray] = {
        id(out): np.ones_like(out.data) if seed is None else np.asarray(seed, dtype=np.float64)
    }
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for p, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            key = id(p)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    # leaves that appear only as graph roots with vjp=None were handled in
    # the loop; interior nodes do not retain grads

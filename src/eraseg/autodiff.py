"""Reverse-mode automatic differentiation over 2D float64 arrays.

Graphs are built define-by-run: every op returns a new Tensor built from
its value, its parent tensors, and a closure that takes the op's output
gradient and pushes it back to the parents.  The closure never refers to
its own output tensor, so a graph holds no reference cycle and is freed by
reference counting as soon as its root is dropped.  backward() walks the
graph once in reverse topological order.  Graphs are rebuilt per example;
only leaf tensors (parameters) survive between runs, accumulating into
.grad until zero_grad().  An op's output gets its .grad buffer only when a
backward pass reaches it, so forward-only graphs allocate none.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


class Tensor:
    """One node: a 2D float64 value plus gradient plumbing."""

    __slots__ = ("value", "grad", "_parents", "_backward", "_backward_done")

    def __init__(
        self,
        value,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
    ):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2D, got shape {arr.shape}")
        self.value = arr
        self.grad = None if parents else np.zeros(arr.shape)
        self._parents = parents
        self._backward = backward
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self) -> None:
        """Accumulate dself/dleaf into every reachable tensor's .grad."""
        if self.value.shape != (1, 1):
            raise ValueError(f"backward starts from a scalar, got {self.value.shape}")
        if self._backward_done:
            raise RuntimeError("backward already ran for this graph root")
        self._backward_done = True
        order = _topo_order(self)
        for node in order:
            if node.grad is None:
                node.grad = np.zeros(node.value.shape)
        self.grad[...] = 1.0
        for node in reversed(order):
            fn = node._backward
            if fn is not None:
                fn(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape})"


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS: per-sentence graphs run long chains (hundreds of
    # timestep ops) that would blow the recursion limit.
    # Tensors hash by identity.
    order: list[Tensor] = []
    visited: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    pop, push, mark = stack.pop, stack.append, visited.add
    while stack:
        node, expanded = pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        mark(node)
        push((node, True))
        for parent in node._parents:
            if parent not in visited:
                push((parent, False))
    return order


def const(value) -> Tensor:
    """Wrap a scalar, vector, or matrix as a leaf tensor.

    Scalars become (1,1), flat sequences become single rows.
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return Tensor(arr)


INIT_RANGE = 0.1


def uniform(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """A leaf drawn uniformly from [-INIT_RANGE, INIT_RANGE): every parameter's initial value."""
    return Tensor(rng.uniform(-INIT_RANGE, INIT_RANGE, size=(rows, cols)))


def named_tensors(tree, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
    """Every Tensor in a tree of dataclasses and tuples, with its dotted path.

    Depth-first in field order, a tuple's items named by their index.
    Checkpoints store a model's tensors in this order, under these names.
    """
    if isinstance(tree, Tensor):
        yield prefix, tree
        return
    if is_dataclass(tree):
        children = [(f.name, getattr(tree, f.name)) for f in fields(tree)]
    else:  # a tuple
        children = enumerate(tree)
    for name, child in children:
        yield from named_tensors(child, f"{prefix}.{name}" if prefix else str(name))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum out axes that numpy broadcasting expanded."""
    if grad.shape == shape:
        return grad
    out = grad
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    if out.shape != shape:
        raise ValueError(f"cannot reduce grad {grad.shape} to {shape}")
    return out


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    if a.value.shape == b.value.shape:
        return
    for da, db in zip(a.shape, b.shape):
        if da != db and da != 1 and db != 1:
            raise ValueError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; size-1 axes broadcast."""
    _check_broadcast(a, b, "add")

    def backward(g):
        a.grad += _unbroadcast(g, a.shape)
        b.grad += _unbroadcast(g, b.shape)

    return Tensor(a.value + b.value, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference; size-1 axes broadcast."""
    _check_broadcast(a, b, "sub")

    def backward(g):
        a.grad += _unbroadcast(g, a.shape)
        b.grad -= _unbroadcast(g, b.shape)

    return Tensor(a.value - b.value, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; size-1 axes broadcast."""
    _check_broadcast(a, b, "mul")

    def backward(g):
        a.grad += _unbroadcast(g * b.value, a.shape)
        b.grad += _unbroadcast(g * a.value, b.shape)

    return Tensor(a.value * b.value, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python float (not part of the graph)."""
    c = float(c)

    def backward(g):
        a.grad += g * c

    return Tensor(a.value * c, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

    def backward(g):
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g

    return Tensor(a.value @ b.value, (a, b), backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Stack side by side: (n,c1)...(n,ck) -> (n, c1+...+ck)."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("concat_cols of nothing")
    rows = parts[0].shape[0]
    if any(p.shape[0] != rows for p in parts):
        raise ValueError(f"concat_cols: row counts differ: {[p.shape for p in parts]}")

    def backward(g):
        col = 0
        for p in parts:
            w = p.shape[1]
            p.grad += g[:, col : col + w]
            col += w

    return Tensor(np.concatenate([p.value for p in parts], axis=1), parts, backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack top to bottom: (r1,m)...(rk,m) -> (r1+...+rk, m)."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("concat_rows of nothing")
    cols = parts[0].shape[1]
    if any(p.shape[1] != cols for p in parts):
        raise ValueError(f"concat_rows: column counts differ: {[p.shape for p in parts]}")

    def backward(g):
        row = 0
        for p in parts:
            h = p.shape[0]
            p.grad += g[row : row + h, :]
            row += h

    return Tensor(np.concatenate([p.value for p in parts], axis=0), parts, backward)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= a.shape[1]):
        raise ValueError(f"slice_cols[{start}:{stop}] out of range for {a.shape}")

    def backward(g):
        a.grad[:, start:stop] += g

    return Tensor(a.value[:, start:stop].copy(), (a,), backward)


def gather_rows(a: Tensor, indices: Sequence[int]) -> Tensor:
    """Select rows by index, duplicates allowed: (n,m) -> (len(indices), m)."""
    idx = list(indices)
    if not idx:
        raise ValueError("gather_rows with no indices")
    n = a.shape[0]
    if any(not (0 <= i < n) for i in idx):
        raise ValueError(f"gather_rows: index out of range for {a.shape}: {idx}")

    def backward(g):
        np.add.at(a.grad, idx, g)

    return Tensor(a.value[idx, :], (a,), backward)


def pick(a: Tensor, i: int, j: int) -> Tensor:
    """Extract one entry as a (1,1) tensor."""
    n, m = a.shape
    if not (0 <= i < n and 0 <= j < m):
        raise ValueError(f"pick({i},{j}) out of range for {a.shape}")

    def backward(g):
        a.grad[i, j] += g[0, 0]

    return Tensor(a.value[i : i + 1, j : j + 1].copy(), (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        a.grad += g[0, 0]

    return Tensor(np.array([[a.value.sum()]]), (a,), backward)


def tanh(a: Tensor) -> Tensor:
    val = np.tanh(a.value)

    def backward(g):
        a.grad += g * (1.0 - val * val)

    return Tensor(val, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    # Piecewise form keeps exp() off large positive arguments: with
    # e = exp(-|x|), x >= 0 gives 1 / (1 + exp(-x)) and x < 0 gives
    # exp(x) / (1 + exp(x)).
    e = np.exp(-np.abs(a.value))
    val = np.where(a.value >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        a.grad += g * val * (1.0 - val)

    return Tensor(val, (a,), backward)


def _row_softmax(values: np.ndarray) -> np.ndarray:
    shifted = values - values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_row(a: Tensor) -> Tensor:
    """Softmax across the columns of each row."""
    p = _row_softmax(a.value)

    def backward(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        a.grad += p * (g - dot)

    return Tensor(p, (a,), backward)


def log_softmax_row(a: Tensor) -> Tensor:
    """Log-softmax across the columns of each row (stable)."""
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    p = _row_softmax(a.value)

    def backward(g):
        a.grad += g - p * g.sum(axis=1, keepdims=True)

    return Tensor(shifted - lse, (a,), backward)


def grad_check(
    fn: Callable[[], Tensor],
    tensors: Iterable[Tensor],
    h: float = 1e-5,
) -> float:
    """Compare reverse-mode gradients with central differences.

    fn must rebuild its graph on every call and return a (1,1) loss.  The
    leaf values are perturbed in place.  Returns the worst relative error
    |a - n| / max(1, |a|, |n|) over every entry of every given tensor; the
    unit floor keeps near-zero gradients from inflating the ratio.
    """
    tensors = list(tensors)
    for t in tensors:
        t.zero_grad()
    fn().backward()
    analytic = [t.grad.copy() for t in tensors]

    worst = 0.0
    for t, grads in zip(tensors, analytic):
        flat = t.value.reshape(-1)
        flat_grads = grads.reshape(-1)
        for k in range(flat.size):
            saved = flat[k]
            flat[k] = saved + h
            up = float(fn().value[0, 0])
            flat[k] = saved - h
            down = float(fn().value[0, 0])
            flat[k] = saved
            numeric = (up - down) / (2.0 * h)
            a = flat_grads[k]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > worst:
                worst = err
    return worst

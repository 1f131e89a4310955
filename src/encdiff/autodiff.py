"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray and records the op that produced it; backward() walks
the recorded graph once, in reverse topological order.  Every parent is made
before its children, so sorting the reachable nodes by creation number gives
a topological order.  The ops are what the training losses need: add,
subtract and multiply with numpy-style broadcasting, square, sum/mean
reductions and row slices.  A whole network call is one node with a
hand-written backward (nets.MLP records one per call); matmul, tanh and
concatenation remain as the ops that network's composed reference is built
from.

grad() returns the gradients of all requested parameters in one flat buffer,
each parameter's raveled gradient in its span, in the order given; for a
ParamStore's tensors that is the layout of ParamStore.flat.  backward() writes
each parameter's first contribution into its span and adds later ones, and
marks it written; a parameter left unmarked after the walk was never on the
record, which is how grad() finds unused parameters.

Every op checks its result for NaN/Inf and raises NumericsError naming the op,
so a numerical blow-up is caught at the first offending node rather than after
it has propagated through the whole loss.  The check sums the result: a finite
sum proves every entry finite, and only a non-finite sum (a NaN or Inf entry,
or finite entries whose sum overflows) falls back to the exact elementwise test.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import NumericsError, UnusedParameterError

# creation numbers: a node's parents always carry smaller ones than the node
_node_ids = itertools.count(1)
_by_node_id = attrgetter("node_id")


def all_finite(data: np.ndarray) -> bool:
    """True when no entry of data is NaN or Inf.

    Entries near the float64 limit can make the sum overflow, or +Inf and −Inf
    make it NaN; numpy then warns about the sum before the exact test decides.
    """
    return math.isfinite(np.add.reduce(data, axis=None)) or bool(np.isfinite(data).all())


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes that numpy broadcasting expanded."""
    if grad.shape == shape:
        return grad
    # leading axes added by broadcasting
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # axes of size 1 that were stretched
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Shaped float64 array with an optional place in the computation record."""

    __slots__ = ("data", "requires_grad", "node_id", "name", "_parents", "_backward", "_op")

    # defer mixed ndarray/Tensor arithmetic to the Tensor operators
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 _parents: tuple = (), _op: str = "leaf", _backward=None):
        data = np.asarray(data, dtype=np.float64)
        if not all_finite(data):
            raise NumericsError(f"non-finite values produced by op '{_op}'"
                                + (f" (tensor '{name}')" if name else ""))
        self.data = data
        self.requires_grad = requires_grad
        self.node_id = next(_node_ids)
        self.name = name
        self._parents = _parents
        self._backward = _backward
        self._op = _op

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self):
        tag = f" '{self.name}'" if self.name else ""
        return f"Tensor{tag}(shape={self.shape}, op={self._op})"

    # --- graph construction helpers ------------------------------------

    @staticmethod
    def as_tensor(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def _make(self, data, parents, op, backward) -> "Tensor":
        return Tensor(data, _parents=parents, _op=op, _backward=backward)

    # --- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = Tensor.as_tensor(other)
        out_data = self.data + other.data

        def backward(g, a=self, b=other):
            return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

        return self._make(out_data, (self, other), "add", backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor.as_tensor(other)
        out_data = self.data - other.data

        def backward(g, a=self, b=other):
            return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))

        return self._make(out_data, (self, other), "sub", backward)

    def __rsub__(self, other):
        return Tensor.as_tensor(other) - self

    def __mul__(self, other):
        other = Tensor.as_tensor(other)
        out_data = self.data * other.data

        def backward(g, a=self, b=other):
            return (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape))

        return self._make(out_data, (self, other), "mul", backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = Tensor.as_tensor(other)
        out_data = self.data @ other.data

        def backward(g, a=self, b=other):
            return (g @ b.data.T, a.data.T @ g)

        return self._make(out_data, (self, other), "matmul", backward)

    # --- nonlinearities and reductions -----------------------------------

    def tanh(self):
        y = np.tanh(self.data)

        def backward(g, y=y):
            return (g * (1.0 - y * y),)

        return self._make(y, (self,), "tanh", backward)

    def square(self):
        def backward(g, a=self):
            return (2.0 * g * a.data,)

        return self._make(self.data * self.data, (self,), "square", backward)

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g, a=self, axis=axis, keepdims=keepdims):
            full = np.empty(a.shape)
            full[...] = g if axis is None or keepdims else np.expand_dims(g, axis)
            return (full,)

        return self._make(out_data, (self,), "sum", backward)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    @staticmethod
    def concat(parts: Sequence["Tensor | np.ndarray"], axis: int = -1) -> "Tensor":
        parts = [Tensor.as_tensor(p) for p in parts]
        out_data = np.concatenate([p.data for p in parts], axis=axis)
        spans = []
        start = 0
        for p in parts:
            index = [slice(None)] * out_data.ndim
            index[axis] = slice(start, start + p.data.shape[axis])
            spans.append(tuple(index))
            start += p.data.shape[axis]

        def backward(g, spans=spans):
            return tuple(g[span] for span in spans)

        return Tensor(out_data, _parents=tuple(parts), _op="concat", _backward=backward)

    def rows(self, start: int, stop: int) -> "Tensor":
        """Rows start:stop along the first axis; the gradient lands in those rows."""
        def backward(g, a=self, start=start, stop=stop):
            full = np.zeros_like(a.data)
            full[start:stop] = g
            return (full,)

        return self._make(self.data[start:stop], (self,), "rows", backward)

    # --- backward pass ----------------------------------------------------

    def _toposort(self) -> list["Tensor"]:
        """Every node this one depends on, itself included, parents first."""
        seen = {self}
        stack = [self]
        while stack:
            for parent in stack.pop()._parents:
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return sorted(seen, key=_by_node_id)

    def backward(self, slots: dict["Tensor", np.ndarray]) -> set["Tensor"]:
        """Write the gradient of this scalar into slots[node] for each node of slots.

        A slot takes its node's first contribution as is and adds any later
        ones in place, so its bits are those of the summed contributions (a
        zero-filled slot would turn a −0.0 gradient into +0.0).  Returns the
        nodes whose slot was written; the others are not on the record.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        written: set[Tensor] = set()
        grads: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        for node in reversed(self._toposort()):
            g = grads.pop(node, None)
            if g is None or node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                slot = slots.get(parent)
                if slot is not None:
                    if parent in written:
                        np.add(slot, pg, out=slot)
                    else:
                        slot[...] = pg
                        written.add(parent)
                if parent._backward is None:
                    # a leaf: nothing flows further back
                    continue
                if parent in grads:
                    grads[parent] = grads[parent] + pg
                else:
                    grads[parent] = pg
        if self in slots:
            slots[self][...] = 1.0
            written.add(self)
        return written

    def reachable_ids(self) -> set[int]:
        return {node.node_id for node in self._toposort()}


def grad(loss: Tensor, params: Sequence[Tensor]) -> np.ndarray:
    """Reverse-mode gradients of a scalar loss, in one flat buffer.

    The buffer holds each parameter's raveled gradient in turn, in the order
    of params.  A parameter that never entered the recorded computation is an
    UnusedParameterError, never a silent zero gradient; a parameter that is on
    the record but does not influence the loss gets exact zeros.  Every
    parameter must have requires_grad set.
    """
    params = list(params)
    for p in params:
        if not p.requires_grad:
            raise ValueError(f"parameter {p.name or f'<node {p.node_id}>'} "
                             "does not have requires_grad set")
    flat = np.empty(sum(p.data.size for p in params))
    slots = {}
    start = 0
    for p in params:
        slots[p] = flat[start:start + p.data.size].reshape(p.data.shape)
        start += p.data.size
    written = loss.backward(slots)
    missing = [p for p in params if p not in written]
    if missing:
        raise UnusedParameterError(
            "parameters not on the computation record: "
            + ", ".join(p.name or f"<node {p.node_id}>" for p in missing)
        )
    return flat

"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray and records the op that produced it; backward() walks
the recorded graph once, in reverse topological order.  Every parent is made
before its children, so sorting the reachable nodes by creation number gives
a topological order.  No network call is a node: each training loss is one
node over the parameters, whose hand-written backward composes the networks'
vector-Jacobian functions (objective.py, nets.MLP.forward), and so is the
trainable encoder's x_t at t = 1 (encoder.py).  The one op left is `+` of two
Tensors of one shape, which adds the latent term to the v-loss.  A node none
of whose parents is on the record (requires a gradient, or was made by a node
that keeps its backward) is a constant: it drops its backward, so no consumer
computes a gradient for it.

grad() returns the gradients of all requested parameters in one flat buffer,
each parameter's raveled gradient in its span, in the order given; for a
ParamStore's tensors that is the layout of ParamStore.flat.  backward() writes
each parameter's first contribution into its span and adds later ones, and
marks it written; a parameter left unmarked after the walk was never on the
record, which is how grad() finds unused parameters.

Every Tensor checks its data for NaN/Inf when it is made and raises
NumericsError naming the op that made it, so a numerical blow-up is caught at
the first offending node rather than after it has propagated through the
whole loss.  The check sums the data: a finite sum proves every entry finite,
and only a non-finite sum (a NaN or Inf entry, or finite entries whose sum
overflows) falls back to the exact elementwise test.
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


class Tensor:
    """Shaped float64 array with an optional place in the computation record."""

    __slots__ = ("data", "requires_grad", "node_id", "name", "_parents", "_backward", "_op")

    # numpy raises on mixed ndarray/Tensor arithmetic instead of making object arrays
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
        # a node with no parent on the record is a constant
        self._backward = _backward if any(
            p._backward is not None or p.requires_grad for p in _parents) else None
        self._op = _op

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self):
        tag = f" '{self.name}'" if self.name else ""
        return f"Tensor{tag}(shape={self.shape}, op={self._op})"

    def __add__(self, other: "Tensor") -> "Tensor":
        """Sum of two Tensors of one shape, such as two scalar losses."""
        if self.shape != other.shape:
            raise ValueError(f"add needs equal shapes, got {self.shape} and {other.shape}")
        return Tensor(self.data + other.data, _parents=(self, other), _op="add",
                      _backward=lambda g: (g, g))

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

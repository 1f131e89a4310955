"""The training losses' gradients, as (parameter, gradient) pairs.

A Tensor is a checked float64 value and, when it depends on parameters, a map
from its gradient g to the list of (parameter, gradient) pairs it sends to
them.  There is no graph: each training loss is one Tensor whose map composes
the networks' vector-Jacobian functions by hand (objective.py,
nets.MLP.forward), and so is the trainable encoder's x_t at t = 1
(encoder.py).  A Tensor without a map is a constant.  The one op is `+` of
two Tensors of one shape, which adds the latent term to the v-loss: its map
lists both summands' pairs, the v-loss's first.

grad() returns the gradients of all requested parameters in one flat buffer,
each parameter's raveled gradient in its span, in the order given; for a
ParamStore's parameters that is the layout of ParamStore.flat.  backward()
writes each parameter's first gradient into its span and adds a later one;
a parameter that no pair names is unused, which grad() reports.

Every Tensor checks its data for NaN/Inf when it is made and raises
NumericsError naming the op that made it, so a numerical blow-up is caught at
the loss that produced it.  The check sums the data: a finite sum proves every
entry finite, and only a non-finite sum (a NaN or Inf entry, or finite entries
whose sum overflows) falls back to the exact elementwise test.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericsError, UnusedParameterError

# creation numbers, which count the Tensors made
_node_ids = itertools.count(1)


def all_finite(data: np.ndarray) -> bool:
    """True when no entry of data is NaN or Inf.

    Entries near the float64 limit can make the sum overflow, or +Inf and −Inf
    make it NaN; numpy then warns about the sum before the exact test decides.
    """
    return math.isfinite(np.add.reduce(data, axis=None)) or bool(np.isfinite(data).all())


class Tensor:
    """Shaped float64 value with an optional map from its gradient to the
    parameters' (parameter, gradient) pairs."""

    __slots__ = ("data", "node_id", "op", "param_grads")

    # numpy raises on mixed ndarray/Tensor arithmetic instead of making object arrays
    __array_ufunc__ = None

    def __init__(self, data, op: str = "leaf", param_grads: Callable | None = None):
        data = np.asarray(data, dtype=np.float64)
        if not all_finite(data):
            raise NumericsError(f"non-finite values produced by op '{op}'")
        self.data = data
        self.node_id = next(_node_ids)
        self.op = op
        self.param_grads = param_grads

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op})"

    def __add__(self, other: "Tensor") -> "Tensor":
        """Sum of two Tensors of one shape, such as two scalar losses."""
        if self.data.shape != other.data.shape:
            raise ValueError(f"add needs equal shapes, got {self.data.shape} and "
                             f"{other.data.shape}")
        maps = [f for f in (self.param_grads, other.param_grads) if f is not None]
        return Tensor(self.data + other.data, "add",
                      (lambda g: [pair for f in maps for pair in f(g)]) if maps else None)

    def backward(self, slots: dict) -> set:
        """Write the gradient of this scalar into slots[p] for each parameter p
        of slots.

        A slot takes its parameter's first gradient as is and adds a later one
        in place, so its bits are those of the summed gradients (a zero-filled
        slot would turn a −0.0 gradient into +0.0).  Returns the parameters
        whose slot was written.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.data.shape}")
        written = set()
        for param, pg in self.param_grads(np.ones_like(self.data)) if self.param_grads else ():
            slot = slots.get(param)
            if slot is None:
                continue
            if param in written:
                np.add(slot, pg, out=slot)
            else:
                slot[...] = pg
                written.add(param)
        return written

    def reachable_ids(self) -> set[int]:
        return {self.node_id}


def grad(loss: Tensor, params: Sequence) -> np.ndarray:
    """Reverse-mode gradients of a scalar loss, in one flat buffer.

    The buffer holds each parameter's raveled gradient in turn, in the order
    of params (nets.Parameter).  A parameter to which the loss sends no
    gradient is an UnusedParameterError, never a silent zero gradient; a
    parameter that is sent one but does not influence the loss gets exact
    zeros.
    """
    params = list(params)
    flat = np.empty(sum(p.data.size for p in params))
    slots = {}
    start = 0
    for p in params:
        slots[p] = flat[start:start + p.data.size].reshape(p.data.shape)
        start += p.data.size
    written = loss.backward(slots)
    missing = [p.name for p in params if p not in written]
    if missing:
        raise UnusedParameterError("parameters the loss sends no gradient: " + ", ".join(missing))
    return flat

"""The composed-graph reference: a small reverse-mode engine of its own with
generic elementwise ops, and the MLP, v-loss and latent term built from them
one op per node; and the discrete loss one layer at a time.

encdiff runs an MLP as values plus a vector-Jacobian function, and makes each
loss one Tensor whose map sends its gradient straight to (parameter,
gradient) pairs, composing those functions and repeating the composed graph's
arithmetic in its order.  The tests compare them with the graphs built here,
value and gradient, bit for bit where the order is kept.  Every MLP here is
`mlp_forward`'s, so the reference calls no network of encdiff's, and `Ref`
and `grad` share no graph code with encdiff.  Likewise encdiff runs the
discrete loss's Gaussian algebra once over all layers, and the tests compare
it with `discrete_step_terms` here, which calls the scalar process helpers
layer by layer.

An encdiff Parameter used as an operand becomes a fresh leaf keyed by the
Parameter, so `grad(loss, store.parameters())` sums every use's gradient in
the Parameter's span.  `grad` walks the nodes in reverse creation order (a
node's parents are always made before it): each variable's first gradient is
assigned and later ones added, a node with no variable behind it is a
constant and passes no gradient, and a node used several times sums its
consumers' gradients before passing them on.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Sequence

import numpy as np

from encdiff.autodiff import all_finite
from encdiff.encoder import FD_REL_STEP, IdentityEncoder, NonTrainableEncoder
from encdiff.errors import NumericsError, UnusedParameterError
from encdiff.nets import N_HIDDEN, MLP, Parameter, sinusoidal_embedding
from encdiff.objective import StepTerm
from encdiff.process import (OPTIMAL, GaussianParams, generative_mean, kl_isotropic,
                             optimal_sigma_p, reverse_posterior, weighting_penalty)
from encdiff.verify import AnalyticPredictor

# creation numbers: a node's parents always carry smaller ones than the node
_node_ids = itertools.count(1)
_by_node_id = attrgetter("node_id")


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


def lift(x) -> "Ref":
    """x as a node: a Ref as is, a Parameter as a variable keyed by it, and
    anything else as a constant."""
    if isinstance(x, Ref):
        return x
    if isinstance(x, Parameter):
        return Ref(x.data, requires_grad=True, name=x.name, key=x)
    return Ref(x)


class Ref:
    """One node: a float64 array, the nodes it was made from and the rule that
    maps its gradient to theirs, with numpy-style broadcasting.  A leaf with
    requires_grad is a variable, looked up in grad's slots by `key`: itself,
    or the Parameter it was lifted from.  A node is checked for NaN/Inf when
    it is made, and a non-finite one is a NumericsError naming its op."""

    __slots__ = ("data", "requires_grad", "name", "key", "node_id", "_parents", "_backward")

    # numpy raises on mixed ndarray/Ref arithmetic instead of making object arrays
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 _parents: tuple = (), _op: str = "leaf", _backward=None, key=None):
        data = np.asarray(data, dtype=np.float64)
        if not all_finite(data):
            raise NumericsError(f"non-finite values produced by op '{_op}'")
        self.data = data
        self.requires_grad = requires_grad
        self.name = name
        self.key = self if key is None else key
        self.node_id = next(_node_ids)
        self._parents = _parents
        # a node with no variable behind it is a constant
        self._backward = _backward if any(
            p._backward is not None or p.requires_grad for p in _parents) else None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def _make(self, data, parents, op, backward) -> "Ref":
        return Ref(data, _parents=parents, _op=op, _backward=backward)

    def __add__(self, other):
        other = lift(other)

        def backward(g, a=self, b=other):
            return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

        return self._make(self.data + other.data, (self, other), "add", backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = lift(other)

        def backward(g, a=self, b=other):
            return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))

        return self._make(self.data - other.data, (self, other), "sub", backward)

    def __rsub__(self, other):
        return lift(other) - self

    def __mul__(self, other):
        other = lift(other)

        def backward(g, a=self, b=other):
            return (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape))

        return self._make(self.data * other.data, (self, other), "mul", backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = lift(other)

        def backward(g, a=self, b=other):
            return (g @ b.data.T, a.data.T @ g)

        return self._make(self.data @ other.data, (self, other), "matmul", backward)

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
        def backward(g, a=self, axis=axis, keepdims=keepdims):
            full = np.empty(a.shape)
            full[...] = g if axis is None or keepdims else np.expand_dims(g, axis)
            return (full,)

        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum", backward)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def rows(self, start: int, stop: int) -> "Ref":
        """Rows start:stop along the first axis; the gradient lands in those rows."""
        def backward(g, a=self, start=start, stop=stop):
            full = np.zeros_like(a.data)
            full[start:stop] = g
            return (full,)

        return self._make(self.data[start:stop], (self,), "rows", backward)

    def backward(self, slots: dict) -> set:
        """Write the gradient of this scalar into slots[key] for each variable
        key of slots, in one walk over the nodes it depends on, newest first.
        Returns the keys whose slot was written."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        seen = {self}
        stack = [self]
        while stack:
            for parent in stack.pop()._parents:
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        written = set()
        grads = {self: np.ones_like(self.data)}
        for node in sorted(seen, key=_by_node_id, reverse=True):
            g = grads.pop(node, None)
            if g is None or node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                slot = slots.get(parent.key)
                if slot is not None:
                    if parent.key in written:
                        np.add(slot, pg, out=slot)
                    else:
                        slot[...] = pg
                        written.add(parent.key)
                if parent._backward is None:
                    # a leaf: nothing flows further back
                    continue
                grads[parent] = grads[parent] + pg if parent in grads else pg
        return written


def grad(loss: Ref, params: Sequence) -> np.ndarray:
    """The gradients of a scalar Ref loss in one flat buffer, laid out like
    encdiff's grad(): each of params (variables, or Parameters) in turn.  A
    variable that the loss does not depend on is an UnusedParameterError."""
    params = list(params)
    flat = np.empty(sum(p.data.size for p in params))
    slots = {}
    start = 0
    for p in params:
        slots[p] = flat[start:start + p.data.size].reshape(p.data.shape)
        start += p.data.size
    written = loss.backward(slots)
    missing = [p.name or f"<node {p.node_id}>" for p in params if p not in written]
    if missing:
        raise UnusedParameterError("parameters not on the graph: " + ", ".join(missing))
    return flat


def concat(parts: Sequence, axis: int = -1) -> Ref:
    parts = [lift(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    spans = []
    start = 0
    for p in parts:
        index = [slice(None)] * out.ndim
        index[axis] = slice(start, start + p.data.shape[axis])
        spans.append(tuple(index))
        start += p.data.shape[axis]
    return Ref(out, _parents=tuple(parts), _op="concat",
               _backward=lambda g: tuple(g[span] for span in spans))


# --- composed graphs ---------------------------------------------------------

def mlp_forward(net: MLP, x: Ref, lam) -> Ref:
    """The MLP as a graph of generic ops, one node per matmul, add and tanh."""
    emb = sinusoidal_embedding(lam)
    if emb.shape[0] == 1 and x.data.shape[0] > 1:
        emb = np.broadcast_to(emb, (x.data.shape[0], emb.shape[1]))
    p = net.params
    h = (concat([x, emb], axis=1) @ p[0] + p[1]).tanh()
    for k in range(1, N_HIDDEN):
        h = h + (h @ p[2 * k] + p[2 * k + 1]).tanh()
    return h @ p[-2] + p[-1]


def loss_terms(encoder, x2, p):
    """x_enc as a node and the extra residual as a function of the x̂ node, at
    the point p of (B, 1) columns."""
    if isinstance(encoder, IdentityEncoder):
        return Ref(x2), None
    if isinstance(encoder, NonTrainableEncoder):
        x_enc = Ref(p.alpha_sq * x2)
        return x_enc, lambda x_hat: x_hat - x_enc
    n = len(x2)
    lam = p.lam[:, 0]
    h = FD_REL_STEP * abs(p.lam_prime)
    stacked = mlp_forward(encoder.inner.net, Ref(np.concatenate([x2] * 3)),
                          np.concatenate([lam, lam + h, lam - h]))
    y, y_up, y_down = (stacked.rows(k * n, (k + 1) * n) for k in range(3))
    dy = (y_up - y_down) * (0.5 / h)
    x_enc = p.alpha_sq * Ref(x2) + p.sigma_sq * y
    return x_enc, lambda x_hat: x_hat - x_enc + y - dy


def vloss_per_item(x2, model, encoder, ts, eps2, schedule) -> Ref:
    """Per-item diffusion integrand, shape (B, 1)."""
    p = schedule.columns(ts)
    lam, alpha, sigma = p.lam[:, 0], p.alpha, p.sigma
    x_enc, extra = loss_terms(encoder, x2, p)
    z = alpha * x_enc + sigma * eps2
    if isinstance(model, AnalyticPredictor):
        v_hat = Ref(model.forward(z.data, lam, None))  # a constant: it has no graph form
    else:
        v_hat = mlp_forward(model.net, z, lam)
    v = alpha * eps2 - sigma * x_enc
    resid = v - v_hat
    if extra is not None:
        resid = resid + sigma * extra(alpha * z - sigma * v_hat)
    weight = -0.5 * p.lam_prime * p.alpha_sq
    return resid.square().sum(axis=1, keepdims=True) * weight


def encode_t(encoder, x2, point) -> Ref:
    if isinstance(encoder, (IdentityEncoder, NonTrainableEncoder)):
        return Ref(encoder.encode(x2, point))
    return point.alpha_sq * Ref(x2) + point.sigma_sq * mlp_forward(encoder.inner.net, Ref(x2),
                                                                   point.lam)


def latent(x2, encoder, schedule) -> Ref:
    p1 = schedule.at(1.0)
    const = x2.shape[1] * (p1.sigma_sq - p1.log_sigma_sq - 1.0)
    sq = encode_t(encoder, x2, p1).square().sum(axis=1, keepdims=True)
    return (0.5 * p1.alpha_sq) * sq.mean() + 0.5 * const


def discrete_step_terms(x, T, model, encoder, schedule, w) -> list[StepTerm]:
    """The discrete loss's per-layer KL terms, one layer at a time through the
    scalar process helpers: each point encoded once, the model's x̂ at
    z_t = α_t x_t, the counterterm when the encoder's is on, σ_P² = σ_Q²/w or
    the layer's optimum."""
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    terms = []
    points = schedule.grid(T)
    x_t = encoder.encode(x, points[0])
    for sp, tp in zip(points, points[1:]):
        x_s, x_t = x_t, encoder.encode(x, tp)
        z_t = tp.alpha * x_t
        x_hat = model.predict_x(z_t, tp.lam)
        q = reverse_posterior(z_t, x_t, x_s, sp, tp)
        mu_p = generative_mean(z_t, x_hat, sp, tp, counterterm=encoder.counterterm)
        sigma2_p = (optimal_sigma_p(q.var, float(np.sum((mu_p - q.mean) ** 2)), d)
                    if w == OPTIMAL else q.var / w)
        w_layer = q.var / sigma2_p
        kl = kl_isotropic(q, GaussianParams(mean=mu_p, var=sigma2_p), d)
        terms.append(StepTerm(s=sp.t, t=tp.t, kl=kl, penalty=weighting_penalty(w_layer, d),
                              w=w_layer))
    return terms

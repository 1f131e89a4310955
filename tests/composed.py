"""The composed-graph reference: generic elementwise Tensor ops, and the MLP,
v-loss and latent term built from them one op per node; and the discrete loss
one layer at a time.

encdiff records each of those as one node with a hand-written backward that
repeats the composed graph's arithmetic in its order.  The tests compare the
fused nodes with the graphs built here, value and gradient, bit for bit where
the order is kept.  Likewise encdiff runs the discrete loss's Gaussian algebra
once over all layers, and the tests compare it with `discrete_step_terms`
here, which calls the scalar process helpers layer by layer.

`Ref` is a Tensor with the operators; wrap a Tensor that encdiff made (a
network's node, a parameter) with `ref` before using it as a left operand.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from encdiff.autodiff import Tensor
from encdiff.encoder import FD_REL_STEP, IdentityEncoder, NonTrainableEncoder
from encdiff.nets import N_HIDDEN, MLP, sinusoidal_embedding
from encdiff.objective import StepTerm
from encdiff.process import (OPTIMAL, GaussianParams, generative_mean, kl_isotropic,
                             optimal_sigma_p, reverse_posterior, weighting_penalty)
from encdiff.verify import AnalyticPredictor


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


def lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Ref(x)


def as_ref(x) -> "Ref":
    return x if isinstance(x, Ref) else ref(x) if isinstance(x, Tensor) else Ref(x)


def ref(t: Tensor) -> "Ref":
    """t as a Ref: one node that passes its gradient on to t unchanged."""
    return Ref(t.data, _parents=(t,), _op="ref", _backward=lambda g: (g,))


class Ref(Tensor):
    """A Tensor with the generic ops, each one node with numpy-style broadcasting."""

    __slots__ = ()

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
        return as_ref(other) - self

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

def mlp_forward(net: MLP, x: Tensor, lam) -> Ref:
    """The MLP as a graph of generic ops, one node per matmul, add and tanh."""
    emb = sinusoidal_embedding(lam)
    if emb.shape[0] == 1 and x.data.shape[0] > 1:
        emb = np.broadcast_to(emb, (x.data.shape[0], emb.shape[1]))
    p = net.params
    h = (concat([x, emb], axis=1) @ p[0] + p[1]).tanh()
    for k in range(1, N_HIDDEN):
        h = h + (h @ p[2 * k] + p[2 * k + 1]).tanh()
    return h @ p[-2] + p[-1]


def loss_terms(encoder, x2, lam, alpha_sq, sigma_sq, lam_prime):
    """x_enc as a node and the extra residual as a function of the x̂ node."""
    if isinstance(encoder, IdentityEncoder):
        return Ref(x2), None
    if isinstance(encoder, NonTrainableEncoder):
        x_enc = Ref(alpha_sq * x2)
        return x_enc, lambda x_hat: x_hat - x_enc
    n = len(x2)
    h = FD_REL_STEP * abs(lam_prime)
    stacked = ref(encoder.inner.forward(np.concatenate([x2] * 3),
                                        np.concatenate([lam, lam + h, lam - h])))
    y, y_up, y_down = (stacked.rows(k * n, (k + 1) * n) for k in range(3))
    dy = (y_up - y_down) * (0.5 / h)
    x_enc = alpha_sq * Ref(x2) + sigma_sq * y
    return x_enc, lambda x_hat: x_hat - x_enc + y - dy


def vloss_per_item(x2, model, encoder, ts, eps2, schedule) -> Ref:
    """Per-item diffusion integrand, shape (B, 1)."""
    lam, alpha, sigma, alpha_sq, sigma_sq = schedule.columns(ts)
    x_enc, extra = loss_terms(encoder, x2, lam, alpha_sq, sigma_sq, schedule.lam_prime)
    z = alpha * x_enc + sigma * eps2
    if isinstance(model, AnalyticPredictor):
        v_hat = Ref(model.forward(z.data, lam, None))  # a constant: it has no graph form
    else:
        v_hat = ref(model.forward(z, lam))
    v = alpha * eps2 - sigma * x_enc
    resid = v - v_hat
    if extra is not None:
        resid = resid + sigma * extra(alpha * z - sigma * v_hat)
    weight = -0.5 * schedule.lam_prime * alpha_sq
    return resid.square().sum(axis=1, keepdims=True) * weight


def encode_t(encoder, x2, point) -> Ref:
    if isinstance(encoder, (IdentityEncoder, NonTrainableEncoder)):
        return Ref(encoder.encode(x2, point))
    return point.alpha_sq * Ref(x2) + point.sigma_sq * ref(encoder.inner.forward(x2, point.lam))


def latent(x2, encoder, schedule) -> Ref:
    p1 = schedule.at(1.0)
    const = x2.shape[1] * (p1.sigma_sq - p1.log_sigma_sq - 1.0)
    sq = encode_t(encoder, x2, p1).square().sum(axis=1, keepdims=True)
    return (0.5 * p1.alpha_sq) * sq.mean() + 0.5 * const


def discrete_step_terms(x, T, model, encoder, schedule, w, counterterm) -> list[StepTerm]:
    """The discrete loss's per-layer KL terms, one layer at a time through the
    scalar process helpers: each point encoded once, the model's x̂ at
    z_t = α_t x_t, σ_P² = σ_Q²/w or the layer's optimum."""
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
        mu_p = generative_mean(z_t, x_hat, sp, tp, counterterm=counterterm)
        sigma2_p = (optimal_sigma_p(q.var, float(np.sum((mu_p - q.mean) ** 2)), d)
                    if w == OPTIMAL else q.var / w)
        w_layer = q.var / sigma2_p
        kl = kl_isotropic(q, GaussianParams(mean=mu_p, var=sigma2_p), d)
        terms.append(StepTerm(s=sp.t, t=tp.t, kl=kl, penalty=weighting_penalty(w_layer, d),
                              w=w_layer))
    return terms

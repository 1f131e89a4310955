"""Time-dependent data encoders producing x_t and its λ-derivative.

Three parameterizations:

    identity       x_t = x                                  (plain diffusion)
    nt             x_t = α_t² x                             (non-trainable)
    trainable      x_t = α_t² x + σ_t² y(x, λ_t)            (inner network y)

The trainable encoder's output layer is zero-initialized, so at initialization
it coincides with the non-trainable one bit-for-bit.  Exact λ-derivatives
(using dα²/dλ = α²σ²):

    d x_nt / dλ = α² σ² x
    d x_tr / dλ = α² σ² x + σ² dy/dλ − α² σ² y

dy/dλ is realized as a symmetric finite difference of the inner network with
step h = 1e-3 · |dλ/dt|, built from ordinary forward values so that the
training loss's gradient flows through the estimator by the inner net's
vector-Jacobian function, with no second-order machinery.  The rows at λ,
λ + h and λ − h go through the inner network as one stacked pass (`_fd_pass`,
the only one) whose output is split back into row blocks; the v-loss terms,
encode_dlambda and dy_dlambda all read their y and dy/dλ from it.  It embeds
its λ rows once, and `Terms.emb` hands the λ rows' part to the denoiser.
Given the latent point, `loss_terms` also encodes the first row there, after
the 3·B stacked rows, for elbo_bpd's latent term.  Training's latent term
(batch_latent_graph) and latent_loss stay their own pass, through encode_t
and encode, so that the training gradients keep their bits.

Each encoder carries its role in the v-loss (see objective.py) as `Terms`,
which `loss_terms(x2, point)` returns for rows x2 at one schedule point (a
float point, or `columns`' point of per-row columns): the encoded data x_enc,
the extra residual as a function of the x-prediction x̂, and for training
the encoder's parameters with the backward that the v-loss's map
calls:

    identity     None  (no extra term)
    nt           x̂ − x_enc
    trainable    x̂ − x_enc + y − dy/dλ

Only the trainable encoder's x_enc and extra depend on parameters, through
its inner net's stacked pass, which with buffers from `buffers(rows)` runs
into them for the values alone, as evaluation calls it.  Training's latent
term reads the encoded data at t = 1 from `encode_t`, a Tensor whose map
sends its gradient to the inner net's parameters.  No loss differentiates
any other view: `encode`, `y` and the dλ views are numpy values, the same
bits as `encode_t`'s data, and `y_t` and the dλ views' `_t` forms are
constant Tensors of them, as `encode_t` is for the other encoders.

`counterterm` says whether the generative mean carries the counterterm: the
discrete loss follows it, and the sampler by default.  It is off for identity
and on for the encoders that move x_t.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError
from .nets import EncoderInnerNet, Parameter, sinusoidal_embedding
from .schedule import LogLinearSchedule, SchedulePoint

FD_REL_STEP = 1e-3


class Terms(NamedTuple):
    """An encoder's part in the v-loss.

    x_enc is the encoded data, (B, d).  extra maps the x-prediction x̂ (an
    array) to the encoder's extra residual, x̂ − x_enc plus terms of the
    encoder's own (None: no extra term).  For training, the trainable encoder
    also gives the parameters both depend on, params, and backward(g_x,
    g_extra), their gradients from the gradients on x_enc and on the extra.
    emb is the rows' λ-embedding when the encoder computed it (the trainable
    one's stacked pass), for the denoiser to reuse, and x1 the first row
    encoded at the latent point, (1, d), when `loss_terms` was given one.
    """

    x_enc: np.ndarray
    extra: Callable[[np.ndarray], np.ndarray] | None = None
    params: tuple[Parameter, ...] = ()
    backward: Callable[[np.ndarray, np.ndarray], list[np.ndarray]] | None = None
    emb: np.ndarray | None = None
    x1: np.ndarray | None = None


class IdentityEncoder:
    """x_t = x for all t; the λ-derivative vanishes."""

    trainable = False
    counterterm = False

    def buffers(self, rows: int) -> None:
        return None

    def loss_terms(self, x2: np.ndarray, point: SchedulePoint, buffers: None = None,
                   p1: SchedulePoint | None = None) -> Terms:
        return Terms(x2, x1=None if p1 is None else x2[:1])

    def encode(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        return np.asarray(x, dtype=np.float64).copy()

    def encode_dlambda(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    def encode_t(self, x: np.ndarray, point: SchedulePoint) -> Tensor:
        return Tensor(self.encode(x, point))

    def encode_dlambda_t(self, x: np.ndarray, point: SchedulePoint) -> Tensor:
        return Tensor(self.encode_dlambda(x, point))


class NonTrainableEncoder:
    """x_t = α_t² x: damps the data towards zero as t -> 1."""

    trainable = False
    counterterm = True

    def buffers(self, rows: int) -> None:
        return None

    def loss_terms(self, x2: np.ndarray, point: SchedulePoint, buffers: None = None,
                   p1: SchedulePoint | None = None) -> Terms:
        x_enc = point.alpha_sq * x2
        return Terms(x_enc, lambda x_hat: x_hat - x_enc,
                     x1=None if p1 is None else p1.alpha_sq * x2[:1])

    def encode(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        return point.alpha_sq * np.asarray(x, dtype=np.float64)

    def encode_dlambda(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        return point.alpha_sq * point.sigma_sq * np.asarray(x, dtype=np.float64)

    def encode_t(self, x: np.ndarray, point: SchedulePoint) -> Tensor:
        return Tensor(self.encode(x, point))

    def encode_dlambda_t(self, x: np.ndarray, point: SchedulePoint) -> Tensor:
        return Tensor(self.encode_dlambda(x, point))


class TrainableEncoder:
    """x_t = α_t² x + σ_t² y(x, λ_t) with a learned inner network y."""

    trainable = True
    counterterm = True

    def __init__(self, inner_net: EncoderInnerNet):
        if inner_net is None:
            raise ConfigError("trainable encoder requires an inner network")
        self.inner = inner_net

    def buffers(self, rows: int) -> tuple[np.ndarray, ...]:
        """Arrays for loss_terms' value form on up to `rows` rows: the inner
        net's, for its stacked pass over 3·rows and the latent row."""
        return self.inner.buffers(3 * rows + 1)

    def loss_terms(self, x2: np.ndarray, point: SchedulePoint,
                   buffers: tuple | None = None, p1: SchedulePoint | None = None) -> Terms:
        """The terms with the inner net's parameters and their backward; with
        buffers from `buffers(rows)`, their values alone, computed in them,
        and with a float point p1 also x2's first row encoded at p1, from one
        more row of the same pass."""
        vjp, emb, y, dy, h, y1 = self._fd_pass(x2, point, buffers, p1)
        x_enc = _x_t(x2, y, point)
        extra = lambda x_hat: x_hat - x_enc + y - dy  # noqa: E731
        emb = emb[:len(x2)]  # the rows at λ, which the denoiser reads
        if buffers is not None:
            return Terms(x_enc, extra, emb=emb, x1=None if p1 is None else _x_t(x2[:1], y1, p1))

        def backward(g_x, g_extra):
            # the extra's own terms, y − dy/dλ, reach all three row blocks,
            # then x_enc = α² x + σ² y adds to the first
            g_up = (-g_extra) * (0.5 / h)
            g_x_rows = np.zeros((3 * len(x2), g_x.shape[1]))
            g_x_rows[:len(x2)] = g_x * point.sigma_sq
            return vjp(np.concatenate([g_extra, g_up, -g_up]) + g_x_rows, False)[0]

        return Terms(x_enc, extra, self.inner.net.params, backward, emb)

    def _fd_pass(self, x2: np.ndarray, point: SchedulePoint, buffers: tuple | None,
                 p1: SchedulePoint | None = None):
        """One pass over x2 stacked at λ, λ + h and λ − h (a float point's λ, or
        a column point's per row), then, with a float point p1, x2's first row
        at p1's λ: its vector-Jacobian function (None when it runs in buffers
        from `buffers(rows)`), the embedding of its λ rows, y, dy/dλ, h, and y
        at p1 (None without p1)."""
        h = _fd_step(point.lam_prime)
        lam = np.ravel(point.lam)
        n = len(x2)
        # the draw rows come first, so they keep the matmul kernel of a pass without the
        # latent row, and with it their bits when 3·n is a multiple of the kernel's 4 rows
        lam_rows = np.empty(3 * n + (p1 is not None))
        lam_rows[:n], lam_rows[n:2 * n], lam_rows[2 * n:3 * n] = lam, lam + h, lam - h
        x_rows = [x2] * 3
        if p1 is not None:
            lam_rows[3 * n] = p1.lam
            x_rows.append(x2[:1])
        emb = sinusoidal_embedding(lam_rows)
        out = self.inner.forward(np.concatenate(x_rows), lam_rows, buffers, emb)
        out, vjp = (out, None) if buffers is not None else out
        y, y_up, y_down = out[:3 * n].reshape(3, n, -1)
        return (vjp, emb, y, _central_difference(y_up, y_down, h), h,
                None if p1 is None else out[3 * n:])

    def y_t(self, x: np.ndarray, point: SchedulePoint) -> Tensor:
        return Tensor(self.y(np.atleast_2d(x), point))

    def y(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        """y(x, λ) as values, through buffers of this call."""
        x2 = np.atleast_2d(x)
        return _shaped_like(x, self.inner.forward(x2, point.lam, self.inner.buffers(len(x2))))

    def dy_dlambda(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        x2 = np.atleast_2d(x)
        return _shaped_like(x, self._fd_pass(x2, point, self.buffers(len(x2)))[3])

    def dy_dlambda_t(self, x: np.ndarray, point: SchedulePoint) -> Tensor:
        return Tensor(self.dy_dlambda(x, point))

    def encode_t(self, x: np.ndarray, point: SchedulePoint) -> Tensor:
        """x_t as a Tensor that maps its gradient to the inner net's parameters."""
        x2 = np.atleast_2d(x)
        y, vjp = self.inner.forward(x2, point.lam)
        return Tensor(_x_t(x2, y, point), "encode", lambda g: list(
            zip(self.inner.net.params, vjp(g * point.sigma_sq, False)[0])))

    def encode(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        x2 = np.atleast_2d(x)
        return _shaped_like(x, _x_t(x2, self.y(x2, point), point))

    def encode_dlambda(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        """dx_t/dλ = α²σ² x + σ² dy/dλ − α²σ² y, from one inner-net pass."""
        x2 = np.atleast_2d(x)
        _, _, y, dy, _, _ = self._fd_pass(x2, point, self.buffers(len(x2)))
        a2s2 = point.alpha_sq * point.sigma_sq
        return _shaped_like(x, a2s2 * x2 + point.sigma_sq * dy - a2s2 * y)

    def encode_dlambda_t(self, x: np.ndarray, point: SchedulePoint) -> Tensor:
        return Tensor(self.encode_dlambda(x, point))


def _x_t(x2: np.ndarray, y: np.ndarray, point: SchedulePoint) -> np.ndarray:
    """The trainable encoder's x_t = α² x + σ² y."""
    return x2 * point.alpha_sq + y * point.sigma_sq


Encoder = IdentityEncoder | NonTrainableEncoder | TrainableEncoder


def _shaped_like(x, out: np.ndarray) -> np.ndarray:
    """Rows out, (B, d), in the shape of the input x: (d,) for a 1-D x."""
    return out[0] if np.ndim(x) == 1 else out


def _fd_step(lam_prime: float) -> float:
    """Finite-difference step in λ for dy/dλ: FD_REL_STEP of the λ span."""
    h = FD_REL_STEP * abs(lam_prime)
    return h if h > 0 else FD_REL_STEP


def _central_difference(y_up: np.ndarray, y_down: np.ndarray, h: float) -> np.ndarray:
    """dy/dλ ≈ (y(λ + h) − y(λ − h)) / 2h."""
    return (y_up - y_down) * (0.5 / h)


# the one list of encoder kinds, read by RunConfig.validate, the --encoder
# choices, make_encoder and train.build_model
ENCODERS = {"identity": IdentityEncoder, "nt": NonTrainableEncoder, "trainable": TrainableEncoder}


def make_encoder(kind: str, inner_net: EncoderInnerNet | None = None) -> Encoder:
    if kind not in ENCODERS:
        raise ConfigError(f"unknown encoder kind '{kind}'; expected one of {', '.join(ENCODERS)}")
    cls = ENCODERS[kind]
    return cls(inner_net) if cls.trainable else cls()


def change_heatmap(
    encoder: Encoder,
    x: np.ndarray,
    schedule: LogLinearSchedule,
    s: float,
    t: float,
) -> np.ndarray:
    """Finite-difference rate of change of the encoded data, (x_t − x_s)/(t − s)."""
    if not s < t:
        raise ValueError(f"change_heatmap requires s < t, got s={s}, t={t}")
    x_s = encoder.encode(x, schedule.at(s))
    x_t = encoder.encode(x, schedule.at(t))
    return (x_t - x_s) / (t - s)

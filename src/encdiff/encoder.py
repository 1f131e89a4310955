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
step h = 1e-3 · |dλ/dt|, built from ordinary forward values so that
reverse-mode differentiation of any loss flows through the estimator without
second-order machinery.  The rows at λ, λ + h and λ − h go through the inner
network as one stacked pass whose output is split back into row blocks.  The
latent term's rows at t = 1 are a separate pass: batch_latent_graph
(objective.py) is its own loss function, evaluated only in training, while
loss_terms also serves evaluation, which has no latent term.

Each encoder also carries its role in the continuous-time v-loss (see
objective.py).  `loss_terms` returns the encoded data x_enc as a graph node
and the encoder's extra residual as a function of the x-prediction x̂:

    identity     None  (no extra term)
    nt           x̂ − x_enc
    trainable    x̂ − x_enc + y − dy/dλ

`counterterm` says whether the generative mean carries the counterterm by
default: off for identity, on for the encoders that move x_t.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError
from .nets import EncoderInnerNet
from .schedule import LogLinearSchedule, SchedulePoint

FD_REL_STEP = 1e-3

# loss_terms' extra residual: x̂ -> extra, or None when there is no extra term
Extra = Callable[[Tensor], Tensor] | None


class IdentityEncoder:
    """x_t = x for all t; the λ-derivative vanishes."""

    trainable = False
    counterterm = False

    def __init__(self):
        self.calls = 0

    def loss_terms(self, x2: np.ndarray, lam: np.ndarray, alpha_sq: np.ndarray,
                   sigma_sq: np.ndarray, lam_prime: float) -> tuple[Tensor, Extra]:
        return Tensor(x2), None

    def encode(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        self.calls += 1
        return np.asarray(x, dtype=np.float64).copy()

    def encode_dlambda(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        self.calls += 1
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    def encode_t(self, x: np.ndarray, point: SchedulePoint) -> Tensor:
        return Tensor(self.encode(x, point))

    def encode_dlambda_t(self, x: np.ndarray, point: SchedulePoint) -> Tensor:
        return Tensor(self.encode_dlambda(x, point))


class NonTrainableEncoder:
    """x_t = α_t² x: damps the data towards zero as t -> 1."""

    trainable = False
    counterterm = True

    def __init__(self):
        self.calls = 0

    def loss_terms(self, x2: np.ndarray, lam: np.ndarray, alpha_sq: np.ndarray,
                   sigma_sq: np.ndarray, lam_prime: float) -> tuple[Tensor, Extra]:
        x_enc = Tensor(alpha_sq * x2)
        return x_enc, lambda x_hat: x_hat - x_enc

    def encode(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        self.calls += 1
        return point.alpha_sq * np.asarray(x, dtype=np.float64)

    def encode_dlambda(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        self.calls += 1
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
        self.calls = 0

    def loss_terms(self, x2: np.ndarray, lam: np.ndarray, alpha_sq: np.ndarray,
                   sigma_sq: np.ndarray, lam_prime: float) -> tuple[Tensor, Extra]:
        h = _fd_step(lam_prime)
        y, y_up, y_down = self._inner_at(x2, (lam, lam + h, lam - h))
        dy = _central_difference(y_up, y_down, h)
        x_enc = alpha_sq * Tensor(x2) + sigma_sq * y
        return x_enc, lambda x_hat: x_hat - x_enc + y - dy

    # --- inner-network views -------------------------------------------

    def _inner_at(self, x2: np.ndarray, lams) -> list[Tensor]:
        """y(x2, λ) for each λ (scalar or per row) of lams, from one pass over stacked rows."""
        n = len(x2)
        lam_rows = np.empty(len(lams) * n)
        for k, lam in enumerate(lams):
            lam_rows[k * n:(k + 1) * n] = lam
        y = self.inner.forward(np.concatenate([x2] * len(lams)), lam_rows)
        return [y.rows(k * n, (k + 1) * n) for k in range(len(lams))]

    def y_t(self, x: np.ndarray, point: SchedulePoint) -> Tensor:
        return self.inner.forward(np.atleast_2d(np.asarray(x, dtype=np.float64)), point.lam)

    def dy_dlambda_t(self, x: np.ndarray, point: SchedulePoint) -> Tensor:
        x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
        h = _fd_step(point.lam_prime)
        return _central_difference(*self._inner_at(x2, (point.lam + h, point.lam - h)), h)

    def y(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        out = self.y_t(x, point).data
        return out[0] if np.asarray(x).ndim == 1 else out

    def dy_dlambda(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        out = self.dy_dlambda_t(x, point).data
        return out[0] if np.asarray(x).ndim == 1 else out

    # --- encoder surface --------------------------------------------------

    def encode(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        self.calls += 1
        x = np.asarray(x, dtype=np.float64)
        return point.alpha_sq * x + point.sigma_sq * self.y(x, point)

    def encode_dlambda(self, x: np.ndarray, point: SchedulePoint) -> np.ndarray:
        self.calls += 1
        x = np.asarray(x, dtype=np.float64)
        a2s2 = point.alpha_sq * point.sigma_sq
        return a2s2 * x + point.sigma_sq * self.dy_dlambda(x, point) - a2s2 * self.y(x, point)

    def encode_t(self, x: np.ndarray, point: SchedulePoint) -> Tensor:
        self.calls += 1
        x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = point.alpha_sq * Tensor(x2) + point.sigma_sq * self.y_t(x2, point)
        return out

    def encode_dlambda_t(self, x: np.ndarray, point: SchedulePoint) -> Tensor:
        self.calls += 1
        x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
        a2s2 = point.alpha_sq * point.sigma_sq
        return (a2s2 * Tensor(x2)
                + point.sigma_sq * self.dy_dlambda_t(x2, point)
                - a2s2 * self.y_t(x2, point))


Encoder = IdentityEncoder | NonTrainableEncoder | TrainableEncoder


def _fd_step(lam_prime: float) -> float:
    """Finite-difference step in λ for dy/dλ: FD_REL_STEP of the λ span."""
    h = FD_REL_STEP * abs(lam_prime)
    return h if h > 0 else FD_REL_STEP


def _central_difference(y_up: Tensor, y_down: Tensor, h: float) -> Tensor:
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

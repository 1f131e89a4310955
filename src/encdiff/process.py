"""Closed-form Gaussian algebra of the forward, reverse-posterior and generative
transitions, generalized for a time-dependent encoder.

All covariances are isotropic (scalar variance times identity).  With encoder
outputs x_s, x_t at times s < t the transitions have a mean-shift term on top
of the classic variance-preserving algebra:

    q(z_t | x)         = N(α_t x_t,  σ_t² I)
    q(z_t | z_s, x)    = N(α_{t|s} z_s + α_t (x_t − x_s),  σ²_{t|s} I)
    q(z_s | z_t, x)    = N(μ_Q, σ_Q² I)
    μ_Q = (α_{t|s} σ_s²/σ_t²) z_t + (α_s σ²_{t|s}/σ_t²) x_t + α_s (x_s − x_t)

with α_{t|s} = α_t/α_s, σ²_{t|s} = σ_t² − α²_{t|s} σ_s², σ_Q² = σ²_{t|s} σ_s²/σ_t².
The identity encoder (x_s = x_t = x) recovers the standard equations.

Every helper takes one transition or many at once.  One is scalar points, (d,)
vectors and float variances; many carry a leading layer axis: points whose
fields are (n, 1) columns (`schedule.stack`), (n, d) rows, and variances,
weights and KL terms as (n, 1) columns.  Either way the arithmetic is the same
elementwise operations in the same order, so each layer of the layer-axis form
is the scalar form's bits, and a check fails when any layer fails it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import SchedulePoint

# Clamps α_s in the ratio α_{t|s} = α_t/α_s.  Since α ≈ e^{λ/2} for very
# negative λ, it engages whenever λ_s < −138.2, well inside double range (not
# only where α would underflow), and the α_{t|s} it gives there, with the
# forward and reverse means built on it, is then inexact.
_ALPHA_FLOOR = 1e-30


def _every(flags) -> bool:
    """Whether flags, a bool or a bool array over a layer axis, holds everywhere."""
    return flags is True or (flags is not False and bool(np.all(flags)))


def _any(flags) -> bool:
    """Whether flags, a bool or a bool array over a layer axis, holds anywhere."""
    return flags is True or (flags is not False and bool(np.any(flags)))


def _first(values, bad):
    """The first entry of values (a float, or an array over a layer axis) where bad holds."""
    return np.extract(bad, values)[0] if isinstance(values, np.ndarray) else values


@dataclass(frozen=True)
class GaussianParams:
    """Isotropic Gaussian: mean vector plus a single scalar variance (or, over a
    layer axis, (n, d) means and an (n, 1) column of variances)."""

    mean: np.ndarray
    var: float | np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("Gaussian mean must be finite")
        invalid = ~((self.var > 0) & np.isfinite(self.var))
        if _any(invalid):
            raise ValueError(f"Gaussian variance must be positive and finite, got "
                             f"{_first(self.var, invalid)}")


@dataclass(frozen=True)
class TransitionCoefficients:
    """Coefficients of the s -> t transition: α_{t|s}, σ²_{t|s}, σ_Q², and the
    weights of the reverse means: z_weight = α_{t|s}σ_s²/σ_t² on z_t and
    x_weight = α_s σ²_{t|s}/σ_t² on the (predicted) data.  Floats, or (n, 1)
    columns for points over a layer axis."""

    alpha_ts: float | np.ndarray
    sigma2_ts: float | np.ndarray
    sigma2_q: float | np.ndarray
    z_weight: float | np.ndarray
    x_weight: float | np.ndarray


def transition_coefficients(s_point: SchedulePoint, t_point: SchedulePoint) -> TransitionCoefficients:
    if not _every(s_point.t < t_point.t):
        raise ValueError(f"transition requires s < t, got s={s_point.t}, t={t_point.t}")
    s2_s, s2_t = s_point.sigma_sq, t_point.sigma_sq
    alpha_s = s_point.alpha
    alpha_s = (np.maximum(alpha_s, _ALPHA_FLOOR) if isinstance(alpha_s, np.ndarray)
               else max(alpha_s, _ALPHA_FLOOR))
    alpha_ts = t_point.alpha / alpha_s
    sigma2_ts = s2_t - alpha_ts * alpha_ts * s2_s
    return TransitionCoefficients(alpha_ts, sigma2_ts, sigma2_ts * s2_s / s2_t,
                                  alpha_ts * s2_s / s2_t, s_point.alpha * sigma2_ts / s2_t)


def marginal(x_enc: np.ndarray, point: SchedulePoint) -> GaussianParams:
    """q(z_t | x) for the encoded data x_enc at time t."""
    return GaussianParams(mean=point.alpha * np.asarray(x_enc, dtype=np.float64),
                          var=point.sigma_sq)


def forward_transition(
    z_s: np.ndarray,
    x_t: np.ndarray,
    x_s: np.ndarray,
    s_point: SchedulePoint,
    t_point: SchedulePoint,
) -> GaussianParams:
    """q(z_t | z_s, x): forward step with the encoder mean-shift term."""
    c = transition_coefficients(s_point, t_point)
    mean = c.alpha_ts * np.asarray(z_s) + t_point.alpha * (np.asarray(x_t) - np.asarray(x_s))
    return GaussianParams(mean=mean, var=c.sigma2_ts)


def reverse_posterior(
    z_t: np.ndarray,
    x_t: np.ndarray,
    x_s: np.ndarray,
    s_point: SchedulePoint,
    t_point: SchedulePoint,
) -> GaussianParams:
    """q(z_s | z_t, x): reverse posterior with the encoder mean-shift term."""
    c = transition_coefficients(s_point, t_point)
    mean = (c.z_weight * np.asarray(z_t) + c.x_weight * np.asarray(x_t)
            + s_point.alpha * (np.asarray(x_s) - np.asarray(x_t)))
    return GaussianParams(mean=mean, var=c.sigma2_q)


def generative_mean(
    z_t: np.ndarray,
    x_hat: np.ndarray,
    s_point: SchedulePoint,
    t_point: SchedulePoint,
    counterterm: bool = False,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Mean μ_P of the generative transition p(z_s | z_t).

    With `counterterm` enabled, adds α_s (λ_s − λ_t) σ_t² x̂, which in the
    continuous limit cancels the encoder's mean-shift contribution.  The mean
    is written into `out` (which may be z_t) and the x̂ terms into `scratch`;
    either left as None is allocated.
    """
    c = transition_coefficients(s_point, t_point)
    x_hat = np.asarray(x_hat)
    mean = np.multiply(z_t, c.z_weight, out=out)
    mean = np.add(mean, np.multiply(x_hat, c.x_weight, out=scratch), out=out)
    if counterterm:
        shift = s_point.alpha * (s_point.lam - t_point.lam) * t_point.sigma_sq
        mean = np.add(mean, np.multiply(x_hat, shift, out=scratch), out=out)
    return mean


def weighting_penalty(w: float, d: int) -> float:
    """(d/2)(w − 1 − log w): the KL cost of using unequal variances. Zero iff w = 1."""
    nonpositive = w <= 0
    if _any(nonpositive):
        raise ValueError(f"variance ratio must be positive, got {_first(w, nonpositive)}")
    return 0.5 * d * (w - 1.0 - np.log(w))


def squared_gap(a: np.ndarray, b: np.ndarray) -> float:
    """‖a − b‖² of two means: a float, or an (n, 1) column for (n, d) rows."""
    sq = (a - b) ** 2
    return float(np.sum(sq)) if sq.ndim == 1 else np.sum(sq, axis=-1, keepdims=True)


def kl_isotropic(q: GaussianParams, p: GaussianParams, d: int) -> float:
    """KL(q ‖ p) between isotropic Gaussians of dimension d.

    Equals (d/2)(w − 1 − log w) + (w / 2σ_Q²) ‖μ_P − μ_Q‖² with w = σ_Q²/σ_P².
    """
    if d <= 0:
        raise ValueError(f"dimension must be positive, got {d}")
    if q.mean.shape[-1:] != (d,) or p.mean.shape[-1:] != (d,):
        raise ValueError(f"mean dimension mismatch: expected {d}, got "
                         f"q:{q.mean.shape[-1:]} p:{p.mean.shape[-1:]}")
    w = q.var / p.var
    return weighting_penalty(w, d) + w / (2.0 * q.var) * squared_gap(p.mean, q.mean)


# the discrete loss's weight w = σ_Q²/σ_P² with σ_P² from optimal_sigma_p in
# every layer (the sampler steps with that σ_P² when given a gap_table)
OPTIMAL = "optimal"


def optimal_sigma_p(sigma2_q: float, mean_sq_gap: float, d: int) -> float:
    """Generative variance minimizing the expected KL: σ_Q² + E‖μ_P − μ_Q‖²/d."""
    nonpositive = sigma2_q <= 0
    if _any(nonpositive):
        raise ValueError(f"sigma2_q must be positive, got {_first(sigma2_q, nonpositive)}")
    negative = mean_sq_gap < 0
    if _any(negative):
        raise ValueError(f"mean_sq_gap must be nonnegative, got {_first(mean_sq_gap, negative)}")
    if d <= 0:
        raise ValueError(f"dimension must be positive, got {d}")
    return sigma2_q + mean_sq_gap / d

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import SchedulePoint

# alpha never underflows for the default endpoints; the clamp guards exotic
# configurations where sigma -> 1 pushes alpha below double-precision range.
_ALPHA_FLOOR = 1e-30


@dataclass(frozen=True)
class GaussianParams:
    """Isotropic Gaussian: mean vector plus a single scalar variance."""

    mean: np.ndarray
    var: float

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("Gaussian mean must be finite")
        if not (self.var > 0 and np.isfinite(self.var)):
            raise ValueError(f"Gaussian variance must be positive and finite, got {self.var}")


@dataclass(frozen=True)
class TransitionCoefficients:
    """Coefficients of the s -> t transition: α_{t|s}, σ²_{t|s}, σ_Q², and the
    weights of the reverse means: z_weight = α_{t|s}σ_s²/σ_t² on z_t and
    x_weight = α_s σ²_{t|s}/σ_t² on the (predicted) data."""

    alpha_ts: float
    sigma2_ts: float
    sigma2_q: float
    z_weight: float
    x_weight: float


def transition_coefficients(s_point: SchedulePoint, t_point: SchedulePoint) -> TransitionCoefficients:
    if not s_point.t < t_point.t:
        raise ValueError(f"transition requires s < t, got s={s_point.t}, t={t_point.t}")
    s2_s, s2_t = s_point.sigma_sq, t_point.sigma_sq
    alpha_ts = t_point.alpha / max(s_point.alpha, _ALPHA_FLOOR)
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
    if w <= 0:
        raise ValueError(f"variance ratio must be positive, got {w}")
    return 0.5 * d * (w - 1.0 - np.log(w))


def kl_isotropic(q: GaussianParams, p: GaussianParams, d: int) -> float:
    """KL(q ‖ p) between isotropic Gaussians of dimension d.

    Equals (d/2)(w − 1 − log w) + (w / 2σ_Q²) ‖μ_P − μ_Q‖² with w = σ_Q²/σ_P².
    """
    if d <= 0:
        raise ValueError(f"dimension must be positive, got {d}")
    if q.mean.size != d or p.mean.size != d:
        raise ValueError(
            f"mean dimension mismatch: expected {d}, got q:{q.mean.size} p:{p.mean.size}"
        )
    w = q.var / p.var
    gap = float(np.sum((p.mean - q.mean) ** 2))
    return weighting_penalty(w, d) + w / (2.0 * q.var) * gap


# the discrete loss's weight w = σ_Q²/σ_P² with σ_P² from optimal_sigma_p in
# every layer (the sampler steps with that σ_P² when given a gap_table)
OPTIMAL = "optimal"


def optimal_sigma_p(sigma2_q: float, mean_sq_gap: float, d: int) -> float:
    """Generative variance minimizing the expected KL: σ_Q² + E‖μ_P − μ_Q‖²/d."""
    if sigma2_q <= 0:
        raise ValueError(f"sigma2_q must be positive, got {sigma2_q}")
    if mean_sq_gap < 0:
        raise ValueError(f"mean_sq_gap must be nonnegative, got {mean_sq_gap}")
    if d <= 0:
        raise ValueError(f"dimension must be positive, got {d}")
    return sigma2_q + mean_sq_gap / d

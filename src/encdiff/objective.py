"""Diffusion, latent and reconstruction losses, in discrete and continuous time.

Continuous-time losses use the v-parameterization: with z = α x_enc + σ ε,

    v      = α ε − σ x_enc           (target)
    x̂      = α z − σ v̂               (x-prediction recovered from v̂)
    loss   = −½ λ' α² ‖v − v̂ + σ·extra‖²,      −λ' > 0

where `extra` is the encoder's residual term (`loss_terms`, encoder.py).
The x-parameterized form −½ λ' e^λ ‖x̂ − x_enc + σ² x̂ − dx_enc/dλ‖² is
algebraically identical (for the identity encoder, −½ λ' e^λ ‖x̂ − x‖²); both
are implemented and tested against each other.

The discrete-T loss sums per-layer KL divergences between the reverse
posterior and the generative transition, with an optional unequal-variance
weighting: a variance ratio w = σ_Q²/σ_P² contributes (d/2)(w − 1 − log w) per
layer on top of the mean-gap term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .encoder import Encoder
from .process import (
    GaussianParams,
    generative_mean,
    kl_isotropic,
    optimal_sigma_p,
    reverse_posterior,
    transition_coefficients,
    weighting_penalty,
)
from .schedule import LogLinearSchedule, SchedulePoint

LN2 = math.log(2.0)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample-mean estimate with its standard error."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")


def mc_estimate(values: np.ndarray) -> MonteCarloEstimate:
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MonteCarloEstimate(value=float(values.mean()), std_error=se, n_samples=n)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term loss decomposition in nats, plus the bits-per-dimension total."""

    diffusion: float
    latent: float
    reconstruction: float
    total_nats: float
    bpd: float
    diffusion_stderr: float = 0.0

    @classmethod
    def from_components(cls, diffusion: float, latent: float, reconstruction: float,
                        d: int, diffusion_stderr: float = 0.0) -> "LossBreakdown":
        total = diffusion + latent + reconstruction
        return cls(
            diffusion=diffusion,
            latent=latent,
            reconstruction=reconstruction,
            total_nats=total,
            bpd=total / (d * LN2),
            diffusion_stderr=diffusion_stderr,
        )


# ---------------------------------------------------------------------------
# Weighting policies for the discrete loss
# ---------------------------------------------------------------------------

class UnitWeight:
    """σ_P = σ_Q: the standard unweighted objective."""


@dataclass(frozen=True)
class FixedWeight:
    """Constant variance ratio w = σ_Q²/σ_P² across layers."""

    w: float

    def __post_init__(self):
        if self.w <= 0:
            raise ValueError(f"weight must be positive, got {self.w}")


class OptimalWeight:
    """σ_P² = σ_Q² + gap/d per layer, with the step's exact mean-square gap.

    The exact gap requires a prediction model whose output does not depend on z.
    """


# ---------------------------------------------------------------------------
# Continuous-time losses
# ---------------------------------------------------------------------------

def _model_vhat_graph(model, z: Tensor, lam: np.ndarray) -> Tensor:
    if hasattr(model, "forward"):
        return model.forward(z, lam)
    # analytic models take one scalar λ at a time and enter the graph as constants
    rows = [model.predict_v(z.data[i], float(lam_i)) for i, lam_i in enumerate(lam)]
    return Tensor(np.stack(rows))


def _vloss_per_item(
    x2: np.ndarray,
    model,
    encoder: Encoder,
    ts: np.ndarray,
    eps2: np.ndarray,
    schedule: LogLinearSchedule,
) -> Tensor:
    """Per-item diffusion integrand, shape (B, 1), for x2, eps2 of shape (B, d)."""
    lam, alpha, sigma, alpha_sq, sigma_sq = schedule.columns(ts)
    x_enc, extra = encoder.loss_terms(x2, lam, alpha_sq, sigma_sq, schedule.lam_prime)
    z = alpha * x_enc + sigma * eps2
    v_hat = _model_vhat_graph(model, z, lam)
    v = alpha * eps2 - sigma * x_enc
    resid = v - v_hat
    if extra is not None:
        resid = resid + sigma * extra(alpha * z - sigma * v_hat)
    weight = -0.5 * schedule.lam_prime * alpha_sq
    return resid.square().sum(axis=1, keepdims=True) * weight


def batch_vloss_graph(
    x: np.ndarray,
    model,
    encoder: Encoder,
    ts: np.ndarray,
    eps: np.ndarray,
    schedule: LogLinearSchedule,
) -> Tensor:
    """Mean single-sample diffusion loss over a batch; differentiable. x is (B, d)."""
    return _vloss_per_item(np.asarray(x, dtype=np.float64), model, encoder, np.asarray(ts),
                           np.asarray(eps, dtype=np.float64), schedule).mean()


def continuous_vloss(
    x: np.ndarray,
    model,
    encoder: Encoder,
    t: float,
    eps: np.ndarray,
    schedule: LogLinearSchedule,
) -> float:
    """Single-draw v-parameterized diffusion integrand at time t (nonnegative)."""
    per_item = _vloss_per_item(np.asarray(x, dtype=np.float64)[None, :], model, encoder,
                               np.array([t]), np.asarray(eps, dtype=np.float64)[None, :],
                               schedule)
    return float(per_item.data[0, 0])


# (t, ε) draws evaluated per _vloss_per_item call, so eval memory stays bounded for any n_mc
EVAL_ROWS = 256


def _vloss_draws(
    x: np.ndarray,
    model,
    encoder: Encoder,
    ts: np.ndarray,
    eps: np.ndarray,
    schedule: LogLinearSchedule,
) -> np.ndarray:
    """Diffusion integrand of one datapoint x (d,) at each draw (ts[j], eps[j]), shape (n,)."""
    out = np.empty(len(ts))
    for start in range(0, len(ts), EVAL_ROWS):
        rows = slice(start, start + EVAL_ROWS)
        x2 = np.broadcast_to(x, eps[rows].shape)
        out[rows] = _vloss_per_item(x2, model, encoder, ts[rows], eps[rows], schedule).data[:, 0]
    return out


def continuous_xloss(
    x: np.ndarray,
    model,
    encoder: Encoder,
    t: float,
    eps: np.ndarray,
    schedule: LogLinearSchedule,
) -> float:
    """x-parameterized twin of continuous_vloss, from the same v-prediction."""
    p = schedule.at(t)
    x = np.asarray(x, dtype=np.float64)
    x_enc = encoder.encode(x, p)
    z = p.alpha * x_enc + p.sigma * np.asarray(eps, dtype=np.float64)
    v_hat = model.predict_v(z, p.lam)
    x_hat = p.alpha * z - p.sigma * v_hat
    resid = x_hat - x_enc
    if encoder.counterterm:
        resid = resid + p.sigma_sq * x_hat - encoder.encode_dlambda(x, p)
    return float(-0.5 * p.lam_prime * p.snr * np.sum(resid * resid))


# ---------------------------------------------------------------------------
# Discrete-T diffusion loss
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepTerm:
    """One layer of the discrete loss: KL split into gap and weighting parts."""

    s: float
    t: float
    kl: float
    penalty: float
    mean_sq_gap: float
    sigma2_q: float
    w: float


def _resolve_counterterm(encoder: Encoder, counterterm: bool | None) -> bool:
    return encoder.counterterm if counterterm is None else counterterm


def discrete_step_terms(
    x: np.ndarray,
    T: int,
    model,
    encoder: Encoder,
    w_policy,
    schedule: LogLinearSchedule,
    rng: np.random.Generator | None = None,
    counterterm: bool | None = None,
    exact: bool = False,
) -> list[StepTerm]:
    """Per-layer KL terms of the discrete loss with s(i) = (i−1)/T, t(i) = i/T.

    With exact=True (requires a z-independent model) the z-expectation is
    closed-form and the result is deterministic; otherwise one z-draw per layer.
    """
    if T < 1:
        raise ValueError(f"T must be a positive integer, got {T}")
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    counterterm = _resolve_counterterm(encoder, counterterm)
    z_free = getattr(model, "z_independent", False)
    if exact and not z_free:
        raise ValueError("exact discrete loss requires a z-independent prediction model")
    if not exact and rng is None:
        raise ValueError("stochastic discrete loss requires an rng")
    terms: list[StepTerm] = []
    for i in range(1, T + 1):
        sp = schedule.at((i - 1) / T)
        tp = schedule.at(i / T)
        x_s = encoder.encode(x, sp)
        x_t = encoder.encode(x, tp)
        mean_t = tp.alpha * x_t
        z_t = mean_t if exact else mean_t + tp.sigma * rng.standard_normal(d)
        x_hat = model.predict_x(z_t, tp.lam)
        q = reverse_posterior(z_t, x_t, x_s, sp, tp)
        mu_p = generative_mean(z_t, x_hat, sp, tp, counterterm=counterterm)
        gap = float(np.sum((mu_p - q.mean) ** 2))
        if isinstance(w_policy, UnitWeight):
            sigma2_p = q.var
        elif isinstance(w_policy, FixedWeight):
            sigma2_p = q.var / w_policy.w
        elif isinstance(w_policy, OptimalWeight):
            if not z_free:
                raise ValueError("optimal weighting needs the exact gap of a z-independent model")
            sigma2_p = optimal_sigma_p(q.var, gap, d)
        else:
            raise TypeError(f"unknown weighting policy {w_policy!r}")
        w = q.var / sigma2_p
        kl = kl_isotropic(q, GaussianParams(mean=mu_p, var=sigma2_p), d)
        terms.append(StepTerm(s=sp.t, t=tp.t, kl=kl, penalty=weighting_penalty(w, d),
                              mean_sq_gap=gap, sigma2_q=q.var, w=w))
    return terms


def discrete_diffusion_loss(
    x: np.ndarray,
    T: int,
    model,
    encoder: Encoder,
    w_policy,
    rng: np.random.Generator | None,
    schedule: LogLinearSchedule,
    counterterm: bool | None = None,
    n_passes: int = 1,
    exact: bool = False,
) -> MonteCarloEstimate:
    """Sum over layers of the per-layer KL, one z-draw per layer per pass."""
    totals = []
    for _ in range(n_passes):
        terms = discrete_step_terms(x, T, model, encoder, w_policy, schedule,
                                    rng=rng, counterterm=counterterm, exact=exact)
        totals.append(sum(term.kl for term in terms))
    if exact or n_passes == 1:
        return MonteCarloEstimate(value=float(totals[0]), std_error=0.0, n_samples=1)
    return mc_estimate(np.array(totals))


# ---------------------------------------------------------------------------
# Latent and reconstruction losses
# ---------------------------------------------------------------------------

def latent_loss(x: np.ndarray, encoder: Encoder, schedule: LogLinearSchedule) -> float:
    """KL(q(z_1|x) ‖ N(0, I)) in closed form, using the encoded data at t = 1.

    x is one datapoint (d,) or a batch (B, d), whose items are encoded in one
    call and whose mean KL is returned.
    """
    p1 = schedule.at(1.0)
    x1 = encoder.encode(np.asarray(x, dtype=np.float64), p1)
    return latent_loss_from_point(x1, p1)


def latent_loss_from_point(x1: np.ndarray, p1: SchedulePoint) -> float:
    """½ Σ_i (α_1² x_{1,i}² + σ_1² − log σ_1² − 1) for an already-encoded x1.

    For a batch x1 of shape (B, d), the mean over its rows.
    """
    x1 = np.atleast_2d(x1)
    const = p1.sigma_sq - p1.log_sigma_sq - 1.0
    per_item = 0.5 * (p1.alpha_sq * np.sum(x1 * x1, axis=1) + x1.shape[1] * const)
    return float(np.mean(per_item))


def batch_latent_graph(x: np.ndarray, encoder: Encoder,
                       schedule: LogLinearSchedule) -> Tensor:
    """Differentiable batch-mean latent term; trains the encoder's t=1 output.

    Constant for non-trainable encoders, whose encode_t builds no graph.
    """
    p1 = schedule.at(1.0)
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    d = x2.shape[1]
    const = d * (p1.sigma_sq - p1.log_sigma_sq - 1.0)
    x1 = encoder.encode_t(x2, p1)
    sq = x1.square().sum(axis=1, keepdims=True)
    return (0.5 * p1.alpha_sq) * sq.mean() + 0.5 * const


def pixel_categorical_log_probs(z0: np.ndarray, alpha0: float, sigma2: float) -> np.ndarray:
    """Per-pixel 256-way categorical log-probs p(v | z_0) ∝ N(z_0; α_0·scale(v), σ_0²)."""
    from .data import scale_pixels

    levels = scale_pixels(np.arange(256))
    logits = -((np.asarray(z0, dtype=np.float64)[:, None] - alpha0 * levels[None, :]) ** 2) / (2.0 * sigma2)
    # log-sum-exp normalization per pixel
    m = logits.max(axis=1, keepdims=True)
    log_z = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    return logits - log_z


def reconstruction_loss(x_pixels: np.ndarray, z0: np.ndarray, schedule: LogLinearSchedule) -> float:
    """Negative log-likelihood of integer pixels under the per-pixel categorical."""
    x_pixels = np.asarray(x_pixels)
    if not np.issubdtype(x_pixels.dtype, np.integer):
        raise ValueError("reconstruction loss requires integer pixel values")
    if x_pixels.min() < 0 or x_pixels.max() > 255:
        raise ValueError("pixel values must lie in {0..255}")
    p0 = schedule.at(0.0)
    log_probs = pixel_categorical_log_probs(np.asarray(z0, dtype=np.float64).ravel(),
                                            p0.alpha, p0.sigma_sq)
    picked = log_probs[np.arange(x_pixels.size), x_pixels.ravel()]
    return float(-picked.sum())


# ---------------------------------------------------------------------------
# Full ELBO evaluation
# ---------------------------------------------------------------------------

def elbo_bpd(
    x,
    model,
    encoder: Encoder,
    schedule: LogLinearSchedule,
    n_mc: int,
    rng: np.random.Generator,
    pixel_data: bool = True,
) -> LossBreakdown:
    """Loss decomposition for one datapoint, diffusion term by n_mc (t, ε) draws.

    For integer pixel data the reconstruction term uses a single z_0 draw; for
    real-valued data it is zero (no quantized likelihood is defined).
    """
    from .data import scale_pixels

    if n_mc < 1:
        raise ValueError(f"n_mc must be positive, got {n_mc}")
    if pixel_data:
        x_pixels = np.asarray(x)
        x_real = scale_pixels(x_pixels)
    else:
        x_pixels = None
        x_real = np.asarray(x, dtype=np.float64)
    d = x_real.size
    ts = np.empty(n_mc)
    eps = np.empty((n_mc, d))
    # interleaved t then ε per draw: whole-array draws would change every seeded estimate
    for j in range(n_mc):
        ts[j] = rng.uniform()
        eps[j] = rng.standard_normal(d)
    draws = _vloss_draws(x_real, model, encoder, ts, eps, schedule)
    diff = mc_estimate(draws)
    latent = latent_loss(x_real, encoder, schedule)
    if pixel_data:
        p0 = schedule.at(0.0)
        x0 = encoder.encode(x_real, p0)
        z0 = p0.alpha * x0 + p0.sigma * rng.standard_normal(d)
        recon = reconstruction_loss(x_pixels, z0, schedule)
    else:
        recon = 0.0
    return LossBreakdown.from_components(
        diffusion=diff.value,
        latent=latent,
        reconstruction=recon,
        d=d,
        diffusion_stderr=diff.std_error,
    )


def t_profile(
    x: np.ndarray,
    model,
    encoder: Encoder,
    schedule: LogLinearSchedule,
    t_grid: np.ndarray,
    n_eps: int,
    rng: np.random.Generator,
) -> list[tuple[float, float, float, float]]:
    """Rows (t, λ, integrand mean, integrand stderr) of the diffusion integrand of real-valued x."""
    x_real = np.asarray(x, dtype=np.float64)
    t_grid = np.asarray(t_grid, dtype=np.float64)
    eps = rng.standard_normal((t_grid.size * n_eps, x_real.size))
    draws = _vloss_draws(x_real, model, encoder, np.repeat(t_grid, n_eps), eps, schedule)
    rows = []
    for t, vals in zip(t_grid, draws.reshape(t_grid.size, n_eps)):
        est = mc_estimate(vals)
        rows.append((float(t), schedule.at(float(t)).lam, est.value, est.std_error))
    return rows

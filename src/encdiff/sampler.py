"""Ancestral sampling through the learned reverse transitions, plus an
Euler–Maruyama integrator for the continuous-time formulation.

Generation is encoder-free: the chain needs only the x-prediction model, so a
trained encoder never runs at sampling time.  The chain draws z at t = 1 from
the standard-normal prior and applies

    z_s = μ_P(z_t, x̂) + σ_P ε

for i = T..2; the final layer is a direct x̂ readout at t = 1/T followed by the
categorical decode (argmax per pixel unless stochastic decoding is requested),
which avoids the degenerate last ancestral step.

The reverse SDE uses drift f − g²∇log p with f = (d log α/dt)·z,
g² = −λ'σ_t², and the score proxy ∇log p(z) = −ε̂/σ_t.  The forward SDE (with
the encoder's drift contribution α_t dx_t/dt) is available for analysis only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import Encoder
from .errors import NumericsError
from .process import generative_mean, optimal_sigma_p, transition_coefficients
from .schedule import LogLinearSchedule, SchedulePoint

SIGMA_Q = "sigma_q"
OPTIMAL = "optimal"


@dataclass
class SamplerConfig:
    steps: int = 256
    variance_mode: str = SIGMA_Q  # SIGMA_Q, or OPTIMAL with a gap table
    gap_table: object = None  # callable (s_point, t_point) -> E‖μ_P − μ_Q‖², for OPTIMAL
    counterterm: bool = False
    seed: int = 0
    stochastic_decode: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.variance_mode not in (SIGMA_Q, OPTIMAL):
            raise ValueError(f"unknown variance mode '{self.variance_mode}'")
        if self.variance_mode == OPTIMAL and self.gap_table is None:
            raise ValueError("optimal variance mode requires a gap table")


@dataclass
class SampleResult:
    x_out: np.ndarray  # (n, d) model-space outputs in (−1, 1) convention
    pixels: np.ndarray | None  # (n, d) uint8 when pixel decoding was requested
    latent_final: np.ndarray  # (n, d) latents right before the readout
    trajectory: list = field(default_factory=list)  # (t, mean latent norm) rows
    moment_snapshots: list = field(default_factory=list)  # (t, mean vec, var vec)


def decode_pixels(x_out: np.ndarray, rng: np.random.Generator | None = None,
                  stochastic: bool = False, sigma0_sq: float | None = None,
                  alpha0: float = 1.0) -> np.ndarray:
    """Map model-space values to pixels via the per-pixel categorical.

    The argmax of N(z; α_0·scale(v), σ_0²) over v is the nearest quantization
    level; stochastic decoding instead samples the categorical.
    """
    from .data import scale_pixels
    from .objective import pixel_categorical_log_probs

    if not stochastic:
        v = np.rint((np.clip(x_out, -1.0, 1.0) + 1.0) * 255.0 / 2.0)
        return v.astype(np.uint8)
    if rng is None or sigma0_sq is None:
        raise ValueError("stochastic decode requires an rng and sigma0_sq")
    flat = x_out.reshape(-1)
    log_probs = pixel_categorical_log_probs(alpha0 * flat, alpha0, sigma0_sq)
    u = rng.uniform(size=(flat.size, 1))
    cdf = np.cumsum(np.exp(log_probs), axis=1)
    v = (u > cdf).sum(axis=1)
    return np.clip(v, 0, 255).astype(np.uint8).reshape(x_out.shape)


def ancestral_sample(
    model,
    schedule: LogLinearSchedule,
    config: SamplerConfig,
    n_chains: int,
    d: int,
    pixel_decode: bool = False,
    trajectory_every: int = 0,
) -> SampleResult:
    """Run n_chains independent reverse chains; exactly `steps` model calls each."""
    rng = np.random.default_rng(config.seed)
    T = config.steps
    z = rng.standard_normal((n_chains, d))
    trajectory = []
    snapshots = []
    for i in range(T, 1, -1):
        sp = schedule.at((i - 1) / T)
        tp = schedule.at(i / T)
        x_hat = model.predict_x(z, tp.lam)
        mu_p = generative_mean(z, x_hat, sp, tp, counterterm=config.counterterm)
        sigma2_p = transition_coefficients(sp, tp).sigma2_q
        if config.variance_mode == OPTIMAL:
            sigma2_p = optimal_sigma_p(sigma2_p, float(config.gap_table(sp, tp)), d)
        z = mu_p + np.sqrt(sigma2_p) * rng.standard_normal((n_chains, d))
        if not np.all(np.isfinite(z)):
            raise NumericsError(f"non-finite latent at sampler step i={i} (t={tp.t:.6f})")
        if trajectory_every and (i % trajectory_every == 0):
            trajectory.append((sp.t, float(np.linalg.norm(z, axis=1).mean())))
            snapshots.append((sp.t, z.mean(axis=0), z.var(axis=0)))
    # final layer: direct x̂ readout at t(1) = 1/T, then decode
    p1 = schedule.at(1.0 / T)
    x_out = model.predict_x(z, p1.lam)
    pixels = None
    if pixel_decode:
        p0 = schedule.at(0.0)
        pixels = decode_pixels(x_out, rng=rng, stochastic=config.stochastic_decode,
                               sigma0_sq=p0.sigma_sq, alpha0=p0.alpha)
    return SampleResult(x_out=x_out, pixels=pixels, latent_final=z,
                        trajectory=trajectory, moment_snapshots=snapshots)


# ---------------------------------------------------------------------------
# SDE view
# ---------------------------------------------------------------------------

def sde_coefficients(point: SchedulePoint) -> tuple[float, float]:
    """Drift rate d log α/dt and squared diffusion coefficient g² = −λ' σ_t²."""
    dlog_alpha_dt = 0.5 * point.sigma_sq * point.lam_prime
    g_sq = -point.lam_prime * point.sigma_sq
    return dlog_alpha_dt, g_sq


def sde_step(
    z: np.ndarray,
    t: float,
    dt: float,
    model,
    schedule: LogLinearSchedule,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """One reverse-time Euler–Maruyama step (dt < 0); returns (z_new, t_new).

    The encoder drift is omitted: generation is encoder-free.  A step that
    would cross t = 0 is clamped to land exactly on it.
    """
    if dt >= 0:
        raise ValueError(f"reverse SDE step requires dt < 0, got {dt}")
    if t + dt < 0:
        dt = -t
    point = schedule.at(t)
    dlog_alpha_dt, g_sq = sde_coefficients(point)
    x_hat = model.predict_x(z, point.lam)
    eps_hat = (z - point.alpha * x_hat) / point.sigma
    score = -eps_hat / point.sigma
    drift = dlog_alpha_dt * z - g_sq * score
    z_new = z + drift * dt + np.sqrt(g_sq * abs(dt)) * rng.standard_normal(z.shape)
    if not np.all(np.isfinite(z_new)):
        raise NumericsError(f"non-finite latent in SDE step at t={t}")
    return z_new, t + dt


def sde_forward_step(
    z: np.ndarray,
    t: float,
    dt: float,
    encoder: Encoder,
    x: np.ndarray,
    schedule: LogLinearSchedule,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, float]:
    """Analysis-mode forward Euler–Maruyama step (dt > 0) with encoder drift.

    Pass rng=None for the deterministic (mean) part only.
    """
    if dt <= 0:
        raise ValueError(f"forward SDE step requires dt > 0, got {dt}")
    point = schedule.at(t)
    dlog_alpha_dt, g_sq = sde_coefficients(point)
    dx_dt = point.lam_prime * encoder.encode_dlambda(x, point)
    drift = dlog_alpha_dt * z + point.alpha * dx_dt
    z_new = z + drift * dt
    if rng is not None:
        z_new = z_new + np.sqrt(g_sq * dt) * rng.standard_normal(np.shape(z))
    return z_new, t + dt

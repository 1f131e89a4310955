"""Ancestral sampling through the learned reverse transitions, plus an
Euler–Maruyama integrator for the continuous-time formulation.

Generation is encoder-free: the chain needs only the x-prediction model, so a
trained encoder never runs at sampling time.  The chain draws z at t = 1 from
the standard-normal prior and applies

    z_s = μ_P(z_t, x̂) + σ_P ε

for layers i = T..2 of `LogLinearSchedule.grid(T)`; the final layer is a direct
x̂ readout at the grid's point 1, which avoids the degenerate last ancestral
step.  Pixels are then the per-pixel categorical's argmax (`unscale_pixels`),
or with stochastic decoding a draw from it at the grid's point 0
(`decode_pixels`).

The chain records nothing and allocates no array of its own size per step:
the model runs through its `predictor(rows)`, a DenoiserNet's into buffers
allocated once per call, and z is updated in place: `process.generative_mean`
writes μ_P over it and the noise is drawn into one buffer with
`standard_normal(out=...)`, which continues the generator's stream as a fresh
draw would.  The samples are the same bits as a chain of `predict_x` calls and
new arrays.

The reverse SDE uses drift f − g²∇log p with f = (d log α/dt)·z,
g² = −λ'σ_t², and the score proxy ∇log p(z) = −ε̂/σ_t.  The forward SDE has
drift f + α_t dx_t/dt, the second term being the encoder's; the mean of
q(z_t | z_s, x) solves dm/dt = drift(m, t).  sde_forward_step takes one
noise-free Euler step of that equation, which the sde_richardson oracle checks
against the closed-form mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import all_finite
from .data import unscale_pixels
from .encoder import Encoder
from .errors import NumericsError
from .objective import pixel_categorical_log_probs
from .process import generative_mean, optimal_sigma_p, transition_coefficients
from .schedule import LogLinearSchedule, SchedulePoint


@dataclass
class SamplerConfig:
    steps: int = 256
    # callable (s_point, t_point) -> E‖μ_P − μ_Q‖²: the chain steps with the
    # optimal σ_P² for that gap; None steps with σ_Q²
    gap_table: object = None
    counterterm: bool = False
    seed: int = 0
    stochastic_decode: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


@dataclass
class SampleResult:
    x_out: np.ndarray  # (n, d) model-space outputs in (−1, 1) convention
    pixels: np.ndarray | None  # (n, d) uint8 when pixel decoding was requested
    latent_final: np.ndarray  # (n, d) latents right before the readout
    trajectory: list  # (t, mean latent norm) rows


def decode_pixels(x_out: np.ndarray, rng: np.random.Generator, p0: SchedulePoint) -> np.ndarray:
    """Sample pixels from the per-pixel categorical N(α_0 x_out; α_0·scale(v), σ_0²)
    over v, at the schedule point p0 of t = 0.  Its argmax is the nearest
    quantization level, `unscale_pixels`."""
    flat = x_out.reshape(-1)
    log_probs = pixel_categorical_log_probs(p0.alpha * flat, p0.alpha, p0.sigma_sq)
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
    """Run n_chains independent reverse chains; exactly `steps` model calls each,
    through the model's `predictor(n_chains)`."""
    rng = np.random.default_rng(config.seed)
    T = config.steps
    z = rng.standard_normal((n_chains, d))
    noise = np.empty_like(z)
    predict_x = model.predictor(n_chains)
    trajectory = []
    points = schedule.grid(T)
    for i in range(T, 1, -1):
        sp, tp = points[i - 1], points[i]
        x_hat = predict_x(z, tp.lam)
        generative_mean(z, x_hat, sp, tp, config.counterterm, out=z, scratch=noise)
        sigma2_p = transition_coefficients(sp, tp).sigma2_q
        if config.gap_table is not None:
            sigma2_p = optimal_sigma_p(sigma2_p, float(config.gap_table(sp, tp)), d)
        np.multiply(rng.standard_normal(out=noise), np.sqrt(sigma2_p), out=noise)
        np.add(z, noise, out=z)
        if not all_finite(z):
            raise NumericsError(f"non-finite latent at sampler step i={i} (t={tp.t:.6f})")
        if trajectory_every and (i % trajectory_every == 0):
            trajectory.append((sp.t, float(np.linalg.norm(z, axis=1).mean())))
    # final layer: direct x̂ readout at the grid's point 1 (t = 1/T), then decode at
    # point 0; copied so that the result shares no memory with the predictor
    x_out = np.array(predict_x(z, points[1].lam))
    pixels = None
    if pixel_decode:
        pixels = (decode_pixels(x_out, rng, points[0]) if config.stochastic_decode
                  else unscale_pixels(x_out))
    return SampleResult(x_out=x_out, pixels=pixels, latent_final=z, trajectory=trajectory)


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
) -> tuple[np.ndarray, float]:
    """One noise-free Euler step (dt > 0) along the forward SDE's drift.

    The drift is (d log α/dt)·z + α_t dx_t/dt, encoder term included.  Started
    from z = z_s, the step lands within O(dt²) of the mean of q(z_{s+dt} | z_s, x).
    Returns (z_new, t_new).
    """
    if dt <= 0:
        raise ValueError(f"forward SDE step requires dt > 0, got {dt}")
    point = schedule.at(t)
    dlog_alpha_dt, _ = sde_coefficients(point)
    dx_dt = point.lam_prime * encoder.encode_dlambda(x, point)
    drift = dlog_alpha_dt * z + point.alpha * dx_dt
    return z + drift * dt, t + dt

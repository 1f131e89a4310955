"""Diffusion, latent and reconstruction losses, in discrete and continuous time.

Continuous-time losses use the v-parameterization: with z = α x_enc + σ ε,

    v      = α ε − σ x_enc           (target)
    x̂      = α z − σ v̂               (x-prediction recovered from v̂)
    loss   = −½ λ' α² ‖v − v̂ + σ·extra‖²,      −λ' > 0

where `extra` is the encoder's residual term (`loss_terms`, encoder.py).
The x-parameterized form −½ λ' e^λ ‖x̂ − x_enc + σ² x̂ − dx_enc/dλ‖² is
algebraically identical (for the identity encoder, −½ λ' e^λ ‖x̂ − x‖²); both
are implemented and tested against each other, the x-form with x̂ from the
model's `predict_x`.

For training, the v-loss of a batch is one node on the autodiff record, and
the latent term one more; neither builds elementwise ops.  Each computes its
value in numpy and has a hand-written backward that repeats the composed
elementwise graph's arithmetic in its order, so values and gradients are the
same bits as that graph's (kept as a reference in the tests).  The v-loss
node's parents are the denoiser's node, the z it was fed, and the encoder's
x_enc and extra-term nodes; the encoder answers for its own part through
`loss_terms` (arrays, nodes and a vector-Jacobian rule; see encoder.Terms),
so nothing here depends on the encoder's kind.  Evaluation reads the
per-item values of the same computation, and its latent term, `latent_loss`,
is the value of the latent node, `batch_latent_graph`.

Training draws t uniformly.  Evaluation (`elbo_bpd`) stratifies its n draws
of t in pairs: K = n // 2 strata of width n_k / n cover [0, 1] in order, each
holding n_k = 2 consecutive draws except the last, which holds n_k = 3 when n
is odd.  The value is the plain mean of the draws, which equals Σ_k w_k ȳ_k
for w_k = n_k / n, and its standard error is sqrt(Σ_k w_k² s_k² / n_k), with
s_k² the sample variance of stratum k.

The discrete-T loss sums, over the layers of `LogLinearSchedule.grid(T)`, KL
divergences between the reverse posterior and the generative transition, with
an optional unequal-variance weighting: a variance ratio w = σ_Q²/σ_P²
contributes (d/2)(w − 1 − log w) per layer on top of the mean-gap term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .data import scale_pixels, unscale_pixels
from .encoder import Encoder
from .process import (
    OPTIMAL,
    GaussianParams,
    generative_mean,
    kl_isotropic,
    optimal_sigma_p,
    reverse_posterior,
    weighting_penalty,
)
from .schedule import LogLinearSchedule

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


def _stratified_times(u: np.ndarray) -> np.ndarray:
    """Map n ≥ 2 uniforms u_j on [0, 1) into the paired strata of t (see the
    module docstring): t_j = lo_k + u_j (hi_k − lo_k) in draw j's stratum k."""
    n = u.size
    last = n - 2 - n % 2  # first draw of the last stratum
    # in units of 1/n, stratum k spans [2k, 2k + 2) and the last [last, n)
    t = (np.arange(n) & -2) + 2.0 * u
    t[last:] = last + (n - last) * u[last:]
    return t / n


def stratified_estimate(draws: np.ndarray) -> MonteCarloEstimate:
    """Mean of n ≥ 2 draws at _stratified_times, with the stratified standard
    error sqrt(Σ_k w_k² s_k² / n_k), s_k² the sample variance of stratum k.

    With w_k = n_k / n each stratum adds n_k s_k² / n², which for a pair
    (a, b) is (a − b)² / n².
    """
    n = draws.size
    last = n - 2 - n % 2  # first draw of the last stratum
    pairs = draws[:last].reshape(-1, 2)
    gaps = pairs[:, 0] - pairs[:, 1]
    tail = draws[last:]
    dev = tail - tail.mean()
    var = (gaps @ gaps + dev @ dev * tail.size / (tail.size - 1)) / (n * n)
    return MonteCarloEstimate(value=float(draws.mean()), std_error=math.sqrt(var), n_samples=n)


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
# Continuous-time losses
# ---------------------------------------------------------------------------

def _vloss_per_item(
    x2: np.ndarray,
    model,
    encoder: Encoder,
    ts: np.ndarray,
    eps2: np.ndarray,
    schedule: LogLinearSchedule,
) -> tuple[np.ndarray, Tensor]:
    """Per-item diffusion integrand, shape (B, 1), for x2, eps2 of shape (B, d),
    and one node whose value is the batch mean of the integrand.

    The node's parents are the denoiser's node, z, the encoder's x_enc and the
    nodes of the encoder's own extra terms (see encoder.Terms).  z is a node on
    x_enc, so the denoiser's input gradient reaches the encoder and adds to
    x_enc's gradient before x_enc's backward runs, as in the composed
    elementwise graph, whose arithmetic the value and the backward repeat in
    its order.
    """
    lam, alpha, sigma, alpha_sq, sigma_sq = schedule.columns(ts)
    terms = encoder.loss_terms(x2, lam, alpha_sq, sigma_sq, schedule.lam_prime)
    x_enc = terms.x_enc.data
    z = x_enc * alpha + sigma * eps2
    z_node = Tensor(z, _parents=(terms.x_enc,), _op="z", _backward=lambda g: (g * alpha,))
    v_hat_node = model.forward(z_node, lam)
    v_hat = v_hat_node.data
    resid = (alpha * eps2 - x_enc * sigma) - v_hat
    if terms.extra is not None:
        resid = resid + terms.extra(z * alpha - v_hat * sigma) * sigma
    weight = -0.5 * schedule.lam_prime * alpha_sq
    per_item = (resid * resid).sum(axis=1, keepdims=True) * weight
    n = len(per_item)

    def backward(g):
        g_resid = (2.0 * (g * (1.0 / n) * weight)) * resid
        # resid = α ε − σ x_enc − v̂ [+ σ·extra]
        g_v = -g_resid
        if terms.extra is None:
            return (g_v, None, g_v * sigma)
        # the extra is x̂ − x_enc plus the encoder's own terms, and x̂ = α z − σ v̂
        g_extra = g_resid * sigma
        return ((-g_extra) * sigma + g_v, g_extra * alpha, (-g_extra) + g_v * sigma,
                *terms.backward(g_extra))

    return per_item, Tensor(per_item.sum() * (1.0 / n),
                            _parents=(v_hat_node, z_node, terms.x_enc, *terms.parents),
                            _op="vloss", _backward=backward)


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
                           np.asarray(eps, dtype=np.float64), schedule)[1]


def continuous_vloss(
    x: np.ndarray,
    model,
    encoder: Encoder,
    t: float,
    eps: np.ndarray,
    schedule: LogLinearSchedule,
) -> float:
    """Single-draw v-parameterized diffusion integrand at time t (nonnegative)."""
    per_item, _ = _vloss_per_item(np.asarray(x, dtype=np.float64)[None, :], model, encoder,
                                  np.array([t]), np.asarray(eps, dtype=np.float64)[None, :],
                                  schedule)
    return float(per_item[0, 0])


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
        out[rows] = _vloss_per_item(x2, model, encoder, ts[rows], eps[rows], schedule)[0][:, 0]
    return out


def continuous_xloss(
    x: np.ndarray,
    model,
    encoder: Encoder,
    t: float,
    eps: np.ndarray,
    schedule: LogLinearSchedule,
) -> float:
    """x-parameterized twin of continuous_vloss, from the model's x-prediction."""
    p = schedule.at(t)
    x = np.asarray(x, dtype=np.float64)
    x_enc = encoder.encode(x, p)
    z = p.alpha * x_enc + p.sigma * np.asarray(eps, dtype=np.float64)
    x_hat = model.predict_x(z, p.lam)
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
    w: float


def _is_optimal(w) -> bool:
    """True for OPTIMAL, False for a positive finite number; anything else is a ValueError."""
    if w == OPTIMAL:
        return True
    try:
        if 0.0 < w < math.inf:
            return False
    except TypeError:
        pass
    raise ValueError(f"w must be a positive number or OPTIMAL, got {w!r}")


def discrete_step_terms(
    x: np.ndarray,
    T: int,
    model,
    encoder: Encoder,
    schedule: LogLinearSchedule,
    w: float | str = 1.0,
    rng: np.random.Generator | None = None,
    counterterm: bool | None = None,
) -> list[StepTerm]:
    """Per-layer KL terms of the discrete loss on schedule.grid(T), each point encoded once.

    w is the variance ratio σ_Q²/σ_P² of every layer, or OPTIMAL for each
    layer's optimum σ_P² = σ_Q² + gap/d, which needs the exact gap of a
    z-independent model.  With rng=None (z-independent models only) the
    z-expectation is closed-form and the result is deterministic; otherwise
    one z-draw per layer.  counterterm=None follows the encoder's.
    """
    if T < 1:
        raise ValueError(f"T must be a positive integer, got {T}")
    optimal = _is_optimal(w)
    if (rng is None or optimal) and not model.z_independent:
        raise ValueError("the exact sum and the optimal weight need a z-independent "
                         "prediction model")
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    if counterterm is None:
        counterterm = encoder.counterterm
    terms: list[StepTerm] = []
    points = schedule.grid(T)
    x_t = encoder.encode(x, points[0])
    for sp, tp in zip(points, points[1:]):
        x_s, x_t = x_t, encoder.encode(x, tp)
        mean_t = tp.alpha * x_t
        z_t = mean_t if rng is None else mean_t + tp.sigma * rng.standard_normal(d)
        x_hat = model.predict_x(z_t, tp.lam)
        q = reverse_posterior(z_t, x_t, x_s, sp, tp)
        mu_p = generative_mean(z_t, x_hat, sp, tp, counterterm=counterterm)
        sigma2_p = (optimal_sigma_p(q.var, float(np.sum((mu_p - q.mean) ** 2)), d)
                    if optimal else q.var / w)
        w_layer = q.var / sigma2_p
        kl = kl_isotropic(q, GaussianParams(mean=mu_p, var=sigma2_p), d)
        terms.append(StepTerm(s=sp.t, t=tp.t, kl=kl, penalty=weighting_penalty(w_layer, d),
                              w=w_layer))
    return terms


def discrete_diffusion_loss(
    x: np.ndarray,
    T: int,
    model,
    encoder: Encoder,
    schedule: LogLinearSchedule,
    w: float | str = 1.0,
    rng: np.random.Generator | None = None,
    counterterm: bool | None = None,
    n_passes: int = 1,
) -> MonteCarloEstimate:
    """Sum over layers of the per-layer KL, one z-draw per layer per pass.

    With rng=None the sum is exact and takes one pass, whatever n_passes.
    """
    totals = []
    for _ in range(1 if rng is None else n_passes):
        terms = discrete_step_terms(x, T, model, encoder, schedule, w, rng, counterterm)
        totals.append(sum(term.kl for term in terms))
    return mc_estimate(np.array(totals))


# ---------------------------------------------------------------------------
# Latent and reconstruction losses
# ---------------------------------------------------------------------------

def latent_loss(x: np.ndarray, encoder: Encoder, schedule: LogLinearSchedule) -> float:
    """KL(q(z_1|x) ‖ N(0, I)) in closed form: the value of batch_latent_graph.

    x is one datapoint (d,) or a batch (B, d), whose items are encoded in one
    call and whose mean KL is returned.
    """
    return float(batch_latent_graph(x, encoder, schedule).data)


def batch_latent_graph(x: np.ndarray, encoder: Encoder,
                       schedule: LogLinearSchedule) -> Tensor:
    """Differentiable batch-mean latent term; trains the encoder's t=1 output.

    One node on the encoder's encode_t node at t = 1, whose value and backward
    do the arithmetic of the composed elementwise graph in its order.  A
    constant for the encoders without parameters.
    """
    p1 = schedule.at(1.0)
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, d = x2.shape
    const = d * (p1.sigma_sq - p1.log_sigma_sq - 1.0)
    x1_node = encoder.encode_t(x2, p1)
    x1 = x1_node.data
    scale = 0.5 * p1.alpha_sq
    value = (x1 * x1).sum(axis=1, keepdims=True).sum() * (1.0 / n) * scale + 0.5 * const
    return Tensor(value, _parents=(x1_node,), _op="latent",
                  _backward=lambda g: ((2.0 * (g * scale * (1.0 / n))) * x1,))


def pixel_categorical_log_probs(z0: np.ndarray, alpha0: float, sigma2: float) -> np.ndarray:
    """Per-pixel 256-way categorical log-probs p(v | z_0) ∝ N(z_0; α_0·scale(v), σ_0²)."""
    levels = scale_pixels(np.arange(256))
    logits = -((np.asarray(z0, dtype=np.float64)[:, None] - alpha0 * levels[None, :]) ** 2) / (2.0 * sigma2)
    # log-sum-exp normalization per pixel
    m = logits.max(axis=1, keepdims=True)
    log_z = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    return logits - log_z


def reconstruction_loss(x_pixels: np.ndarray, z0: np.ndarray, schedule: LogLinearSchedule) -> float:
    """Negative log-likelihood of integer pixels under the per-pixel categorical.

    x_pixels and z0 are one item (d,) or a batch (B, d), whose mean NLL is returned.
    """
    x_pixels = np.asarray(x_pixels)
    if not np.issubdtype(x_pixels.dtype, np.integer):
        raise ValueError("reconstruction loss requires integer pixel values")
    if x_pixels.min() < 0 or x_pixels.max() > 255:
        raise ValueError("pixel values must lie in {0..255}")
    p0 = schedule.at(0.0)
    log_probs = pixel_categorical_log_probs(np.asarray(z0, dtype=np.float64).ravel(),
                                            p0.alpha, p0.sigma_sq)
    picked = log_probs[np.arange(x_pixels.size), x_pixels.ravel()]
    # each item's sum runs over its own row, as for that item alone
    return float(np.mean(-picked.reshape(-1, x_pixels.shape[-1]).sum(axis=1)))


def sampled_reconstruction_loss(x_real: np.ndarray, encoder: Encoder,
                                schedule: LogLinearSchedule, rng: np.random.Generator) -> float:
    """reconstruction_loss of pixel items x_real, (d,) or (B, d) in model space, at
    one z_0 ~ q(z_0 | x) draw each.  A (B, d) noise draw is the same stream as B
    draws of d normals.
    """
    p0 = schedule.at(0.0)
    z0 = p0.alpha * encoder.encode(x_real, p0) + p0.sigma * rng.standard_normal(x_real.shape)
    return reconstruction_loss(unscale_pixels(x_real), z0, schedule)


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
    """Loss decomposition for one datapoint, diffusion term by n_mc ≥ 2 (t, ε)
    draws: all n_mc uniforms, then all n_mc noise vectors.

    t is stratified in pairs: the n_mc // 2 strata of `_stratified_times` cover
    [0, 1], two draws each and three in the last when n_mc is odd, and draw j's
    uniform u_j becomes t_j = lo_k + u_j (hi_k − lo_k) in its stratum k.  The
    loss is an integral over t between fixed endpoints, so the strata change
    only the estimator's variance: the value is the plain mean of the draws and
    the standard error sqrt(Σ_k w_k² s_k² / n_k), w_k = n_k / n_mc
    (`stratified_estimate`).  n_mc = 2 or 3 is one stratum, that is, plain MC.

    For integer pixel data the reconstruction term uses a single z_0 draw; for
    real-valued data it is zero (no quantized likelihood is defined).
    """
    if n_mc < 2:
        raise ValueError(f"n_mc must be >= 2 for a standard error, got {n_mc}")
    x_real = scale_pixels(np.asarray(x)) if pixel_data else np.asarray(x, dtype=np.float64)
    d = x_real.size
    ts = _stratified_times(rng.uniform(size=n_mc))
    eps = rng.standard_normal((n_mc, d))
    draws = _vloss_draws(x_real, model, encoder, ts, eps, schedule)
    diff = stratified_estimate(draws)
    latent = latent_loss(x_real, encoder, schedule)
    recon = sampled_reconstruction_loss(x_real, encoder, schedule, rng) if pixel_data else 0.0
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
        rows.append((float(t), schedule.lam(float(t)), est.value, est.std_error))
    return rows

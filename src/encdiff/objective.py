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

Every prediction model (nets.DenoiserNet, verify's analytic ones) answers one
protocol on values: `z_independent`, `predict_v`, `predict_x`,
`predictor(rows)` for the sampler, and `buffers(rows)` with
`forward(z, λ, buffers)`, v̂ of a block of rows, with λ a (B,) array.  The
v-loss arithmetic is written once, in `_vloss_values`, and the latent term's
in `_latent_value`.  A block's schedule values are one `SchedulePoint` of
(B, 1) columns, `LogLinearSchedule.columns` at its times, which
`_vloss_values` and the encoder's `loss_terms` take whole.
Evaluation (`_vloss_draws`, and through it `elbo_bpd`, `t_profile` and
`continuous_vloss`; `latent_loss`) runs them on values, in EVAL_ROWS-row
blocks through buffers allocated once per call, and makes no Tensor; neither
do the x-form and discrete losses.  The denoiser reuses the encoder's
λ-embedding of the block when there is one (`Terms.emb`).  `elbo_bpd`'s
latent term is `_latent_value` of the item's t = 1 row, which rides the first
block's encoder pass: `latent_loss`'s bits for identity and nt, within a few
ulp of the inner net's t = 1 output for the trainable encoder (see README).
Only training calls the training form
`forward(z, λ)`, which a DenoiserNet alone has: v̂ and its vector-Jacobian
function.  The v-loss of a batch is one Tensor whose map sends its gradient
to the denoiser's and the encoder's parameters, and the latent term one
more; each wraps the same value computation, and its hand-written map
composes the networks' vector-Jacobian functions with the composed
elementwise graph's arithmetic in its order, so values and gradients are the
same bits as that graph's (kept as a reference in the tests).  The encoder
answers for its own part through `loss_terms` (see encoder.Terms), so nothing
here depends on the encoder's kind.  A non-finite v-loss or latent value is a
NumericsError naming op 'vloss' or 'latent' on either path.

Training draws t uniformly.  Evaluation (`elbo_bpd`) stratifies its n draws
of t in pairs: K = n // 2 strata of width n_k / n cover [0, 1] in order, each
holding n_k = 2 consecutive draws except the last, which holds n_k = 3 when n
is odd.  The value is the plain mean of the draws, which equals Σ_k w_k ȳ_k
for w_k = n_k / n, and its standard error is sqrt(Σ_k w_k² s_k² / n_k), with
s_k² the sample variance of stratum k.

The discrete-T loss sums, over the layers of `LogLinearSchedule.grid(T)`, KL
divergences between the reverse posterior and the generative transition, with
an optional unequal-variance weighting: a variance ratio w = σ_Q²/σ_P²
contributes (d/2)(w − 1 − log w) per layer on top of the mean-gap term.  Each
point is encoded once: `encode` runs per point and the model's `predict_x` per
layer, since both take one point (the analytic models' math.exp and math.tanh
are not numpy's bits).  The rest, the reverse-posterior and generative means,
σ_P², the KL and the penalty, runs once over all layers through the process
helpers' layer axis, on `columns` of the grid's times, the same bits as one
layer at a time.  The generative mean carries the counterterm when the
encoder's `counterterm` says so.  An error at layer k surfaces only when the
algebra of the layers before k raises none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, all_finite
from .data import scale_pixels, unscale_pixels
from .encoder import Encoder, Terms
from .errors import NumericsError
from .process import (
    OPTIMAL,
    GaussianParams,
    generative_mean,
    kl_isotropic,
    optimal_sigma_p,
    reverse_posterior,
    squared_gap,
    weighting_penalty,
)
from .schedule import LogLinearSchedule, SchedulePoint

LN2 = math.log(2.0)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample-mean estimate with its standard error."""

    value: float
    std_error: float

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def mc_estimate(values: np.ndarray) -> MonteCarloEstimate:
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MonteCarloEstimate(value=float(values.mean()), std_error=se)


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
    return MonteCarloEstimate(value=float(draws.mean()), std_error=math.sqrt(var))


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term loss decomposition in nats of d-dimensional data, with the
    total in nats and in bits per dimension."""

    diffusion: float
    latent: float
    reconstruction: float
    d: int
    diffusion_stderr: float = 0.0

    @property
    def total_nats(self) -> float:
        return self.diffusion + self.latent + self.reconstruction

    @property
    def bpd(self) -> float:
        return self.total_nats / (self.d * LN2)


# ---------------------------------------------------------------------------
# Continuous-time losses
# ---------------------------------------------------------------------------

def _vloss_values(terms: Terms, predict_v, eps2: np.ndarray,
                  p: SchedulePoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The v-loss arithmetic of one block of rows, for training and evaluation
    alike: the residual, the weight and the per-item integrand, shape (B, 1).

    p is the schedule's point of columns at the rows' times, terms the
    encoder's (encoder.Terms), and predict_v(z) gives v̂ at z = α x_enc + σ ε.
    A non-finite integrand is a NumericsError naming op 'vloss'.
    """
    z = terms.x_enc * p.alpha + p.sigma * eps2
    v_hat = predict_v(z)
    resid = (p.alpha * eps2 - terms.x_enc * p.sigma) - v_hat
    if terms.extra is not None:
        resid = resid + terms.extra(z * p.alpha - v_hat * p.sigma) * p.sigma
    weight = -0.5 * p.lam_prime * p.alpha_sq
    per_item = (resid * resid).sum(axis=1, keepdims=True) * weight
    if not all_finite(per_item):
        raise NumericsError("non-finite values produced by op 'vloss'")
    return resid, weight, per_item


def batch_vloss_graph(
    x: np.ndarray,
    model,
    encoder: Encoder,
    ts: np.ndarray,
    eps: np.ndarray,
    schedule: LogLinearSchedule,
) -> Tensor:
    """Mean single-sample diffusion loss over a batch; differentiable. x is (B, d).

    One Tensor whose value is `_vloss_values`' and whose map sends its gradient
    to the denoiser's parameters and the encoder's (see encoder.Terms).  Its map
    composes the denoiser's vector-Jacobian function with the encoder's and
    repeats the composed elementwise graph's arithmetic in its order: z's
    gradient is the v-loss's share plus the denoiser's input gradient, and it
    adds to x_enc's gradient before the encoder's backward runs.
    """
    x2 = np.asarray(x, dtype=np.float64)
    p = schedule.columns(np.asarray(ts))
    terms = encoder.loss_terms(x2, p)
    vjps = []

    def predict_v(z):
        v_hat, vjp = model.forward(z, p.lam[:, 0], emb=terms.emb)
        vjps.append(vjp)
        return v_hat

    resid, weight, per_item = _vloss_values(terms, predict_v, np.asarray(eps, dtype=np.float64), p)
    n = len(per_item)

    def backward(g):
        g_resid = (2.0 * (g * (1.0 / n) * weight)) * resid
        # resid = α ε − σ x_enc − v̂ [+ σ·extra]
        g_v = -g_resid
        if terms.extra is None:
            return vjps[0](g_v, False)[0]
        # the extra is x̂ − x_enc plus the encoder's own terms, and x̂ = α z − σ v̂
        g_extra = g_resid * p.sigma
        g_params, g_in = vjps[0]((-g_extra) * p.sigma + g_v, terms.backward is not None)
        if terms.backward is None:
            return g_params
        # z = α x_enc + σ ε gets the extra's share, then the denoiser's input gradient
        g_x = ((-g_extra) + g_v * p.sigma) + (g_extra * p.alpha + g_in) * p.alpha
        return (*g_params, *terms.backward(g_x, g_extra))

    return Tensor(per_item.sum() * (1.0 / n), "vloss",
                  lambda g: list(zip((*model.net.params, *terms.params), backward(g))))


def continuous_vloss(
    x: np.ndarray,
    model,
    encoder: Encoder,
    t: float,
    eps: np.ndarray,
    schedule: LogLinearSchedule,
) -> float:
    """Single-draw v-parameterized diffusion integrand at time t (nonnegative)."""
    return float(_vloss_draws(np.asarray(x, dtype=np.float64), model, encoder, np.array([t]),
                              np.asarray(eps, dtype=np.float64)[None, :], schedule)[0][0])


# (t, ε) draws evaluated per _vloss_values call, so eval memory stays bounded for any n_mc
EVAL_ROWS = 256


def _vloss_draws(
    x: np.ndarray,
    model,
    encoder: Encoder,
    ts: np.ndarray,
    eps: np.ndarray,
    schedule: LogLinearSchedule,
    p1: SchedulePoint | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Diffusion integrand of one datapoint x (d,) at each draw (ts[j], eps[j]),
    shape (n,), and with the latent point p1, x encoded at p1, (1, d).

    Values only: the model's and the encoder's buffers are allocated here,
    once, for EVAL_ROWS-row blocks, and each block's v̂ is the value form
    `model.forward(z, lam, buffers, emb)`; no Tensor is made.  The first
    block's `loss_terms` encodes x at p1 too, in the same pass.
    """
    rows = min(len(ts), EVAL_ROWS)
    model_buffers = model.buffers(rows)
    encoder_buffers = encoder.buffers(rows)
    out, x1 = np.empty(len(ts)), None
    for start in range(0, len(ts), EVAL_ROWS):
        block = slice(start, start + EVAL_ROWS)
        p = schedule.columns(ts[block])
        terms = encoder.loss_terms(np.broadcast_to(x, eps[block].shape), p, encoder_buffers,
                                   None if start else p1)
        if not start:
            x1 = terms.x1
        out[block] = _vloss_values(
            terms, lambda z: model.forward(z, p.lam[:, 0], model_buffers, terms.emb),
            eps[block], p)[2][:, 0]
    return out, x1


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
) -> list[StepTerm]:
    """Per-layer KL terms of the discrete loss on schedule.grid(T), each point encoded once.

    w is the variance ratio σ_Q²/σ_P² of every layer, or OPTIMAL for each
    layer's optimum σ_P² = σ_Q² + gap/d.  The model must be z-independent, so
    the z-expectation is closed-form (z_t = α_t x_t) and the terms exact.
    The generative mean carries the counterterm when the encoder's does.
    """
    if T < 1:
        raise ValueError(f"T must be a positive integer, got {T}")
    optimal = _is_optimal(w)
    if not model.z_independent:
        raise ValueError("the exact discrete loss needs a z-independent prediction model")
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    points = schedule.grid(T)
    ts = np.arange(T + 1) / T  # the grid's times
    x_enc, z, x_hat = np.empty((T + 1, d)), np.empty((T, d)), np.empty((T, d))

    def layer_terms(n: int) -> tuple[np.ndarray, ...]:
        """(kl, penalty, w), each (n, 1), of the first n layers, all at once."""
        sp, tp = schedule.columns(ts[:n]), schedule.columns(ts[1:n + 1])
        x_s, x_t, z_t = x_enc[:n], x_enc[1:n + 1], z[:n]
        q = reverse_posterior(z_t, x_t, x_s, sp, tp)
        mu_p = generative_mean(z_t, x_hat[:n], sp, tp, counterterm=encoder.counterterm)
        sigma2_p = optimal_sigma_p(q.var, squared_gap(mu_p, q.mean), d) if optimal else q.var / w
        w_layer = q.var / sigma2_p
        kl = kl_isotropic(q, GaussianParams(mean=mu_p, var=sigma2_p), d)
        return kl, weighting_penalty(w_layer, d), w_layer

    # the model and the encoder take one point at a time; the layer each call
    # belongs to decides, as for a loop over layers, which error surfaces first
    n = 0  # layers whose end points are encoded and whose x̂ is predicted
    try:
        x_enc[0] = encoder.encode(x, points[0])
        for n, tp in enumerate(points[1:]):
            x_enc[n + 1] = encoder.encode(x, tp)
            z[n] = tp.alpha * x_enc[n + 1]
            x_hat[n] = model.predict_x(z[n], tp.lam)
    except Exception:
        if n:
            layer_terms(n)  # a ValueError of an earlier layer comes first
        raise
    rows = np.hstack(layer_terms(T)).tolist()  # each layer's kl, penalty and w
    return [StepTerm(sp.t, tp.t, *row) for sp, tp, row in zip(points, points[1:], rows)]


def discrete_diffusion_loss(
    x: np.ndarray,
    T: int,
    model,
    encoder: Encoder,
    schedule: LogLinearSchedule,
    w: float | str = 1.0,
) -> float:
    """The exact sum over layers of the per-layer KL (discrete_step_terms)."""
    return float(sum(term.kl for term in discrete_step_terms(x, T, model, encoder, schedule, w)))


# ---------------------------------------------------------------------------
# Latent and reconstruction losses
# ---------------------------------------------------------------------------

def _latent_value(x1: np.ndarray, p1: SchedulePoint) -> float:
    """Mean over the rows of x1, the encoded data (B, d) at t = 1, of
    KL(q(z_1|x) ‖ N(0, I)) in closed form.  A non-finite value is a
    NumericsError naming op 'latent'."""
    n, d = x1.shape
    const = d * (p1.sigma_sq - p1.log_sigma_sq - 1.0)
    value = (x1 * x1).sum(axis=1, keepdims=True).sum() * (1.0 / n) * (0.5 * p1.alpha_sq) \
        + 0.5 * const
    if not math.isfinite(value):
        raise NumericsError("non-finite values produced by op 'latent'")
    return value


def latent_loss(x: np.ndarray, encoder: Encoder, schedule: LogLinearSchedule) -> float:
    """KL(q(z_1|x) ‖ N(0, I)) in closed form, as a value: the value of
    batch_latent_graph, from the encoder's numpy `encode`.

    x is one datapoint (d,) or a batch (B, d), whose items are encoded in one
    call and whose mean KL is returned.
    """
    p1 = schedule.at(1.0)
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return float(_latent_value(encoder.encode(x2, p1), p1))


def batch_latent_graph(x: np.ndarray, encoder: Encoder,
                       schedule: LogLinearSchedule) -> Tensor:
    """Differentiable batch-mean latent term; trains the encoder's t=1 output.

    One Tensor over the encoder's encode_t at t = 1, whose value is
    `_latent_value`'s and whose map hands x_1's gradient, from the composed
    elementwise graph's arithmetic in its order, to encode_t's map.  A
    constant for the encoders without parameters.
    """
    p1 = schedule.at(1.0)
    x1_t = encoder.encode_t(np.atleast_2d(np.asarray(x, dtype=np.float64)), p1)
    x1, x1_grads = x1_t.data, x1_t.param_grads
    scale = 0.5 * p1.alpha_sq
    n = len(x1)
    return Tensor(_latent_value(x1, p1), "latent", None if x1_grads is None else (
        lambda g: x1_grads((2.0 * (g * scale * (1.0 / n))) * x1)))


# exp(x) is exactly +0.0 for every double x below this
_EXP_ZERO_BELOW = -746.0


def _pixel_logits(z0: np.ndarray, alpha0: float, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Logits (n, 256) of the per-pixel categorical p(v | z_0) ∝ N(z_0; α_0·scale(v), σ_0²)
    and their log-normalizers (n, 1).

    The log-sum-exp evaluates exp only where it is not exactly +0.0, which at
    the usual σ_0² is most of the levels; the sum is the same bits.
    """
    levels = scale_pixels(np.arange(256))
    logits = -((np.asarray(z0, dtype=np.float64)[:, None] - alpha0 * levels[None, :]) ** 2) / (2.0 * sigma2)
    m = logits.max(axis=1, keepdims=True)
    shifted = logits - m
    terms = np.zeros_like(shifted)
    np.exp(shifted, out=terms, where=~(shifted <= _EXP_ZERO_BELOW))
    return logits, m + np.log(terms.sum(axis=1, keepdims=True))


def pixel_categorical_log_probs(z0: np.ndarray, alpha0: float, sigma2: float) -> np.ndarray:
    """Per-pixel 256-way categorical log-probs p(v | z_0) ∝ N(z_0; α_0·scale(v), σ_0²)."""
    logits, log_z = _pixel_logits(z0, alpha0, sigma2)
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
    logits, log_z = _pixel_logits(np.asarray(z0, dtype=np.float64).ravel(), p0.alpha, p0.sigma_sq)
    picked = logits[np.arange(x_pixels.size), x_pixels.ravel()] - log_z[:, 0]
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

    The latent term reads the item's t = 1 row of the first block's encoder
    pass (`_vloss_draws`).  For integer pixel data the reconstruction term uses a single z_0 draw; for
    real-valued data it is zero (no quantized likelihood is defined).
    """
    if n_mc < 2:
        raise ValueError(f"n_mc must be >= 2 for a standard error, got {n_mc}")
    x_real = scale_pixels(np.asarray(x)) if pixel_data else np.asarray(x, dtype=np.float64)
    d = x_real.size
    ts = _stratified_times(rng.uniform(size=n_mc))
    eps = rng.standard_normal((n_mc, d))
    p1 = schedule.at(1.0)
    draws, x1 = _vloss_draws(x_real, model, encoder, ts, eps, schedule, p1)
    diff = stratified_estimate(draws)
    latent = float(_latent_value(x1, p1))
    recon = sampled_reconstruction_loss(x_real, encoder, schedule, rng) if pixel_data else 0.0
    return LossBreakdown(diffusion=diff.value, latent=latent, reconstruction=recon, d=d,
                         diffusion_stderr=diff.std_error)


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
    draws = _vloss_draws(x_real, model, encoder, np.repeat(t_grid, n_eps), eps, schedule)[0]
    rows = []
    for t, vals in zip(t_grid, draws.reshape(t_grid.size, n_eps)):
        est = mc_estimate(vals)
        rows.append((float(t), schedule.lam(float(t)), est.value, est.std_error))
    return rows

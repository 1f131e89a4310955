"""Independent numerical oracles for the package's central identities.

Every oracle checks a closed-form code path against an independent route:
Monte-Carlo sampling for the Gaussian KL, high-order quadrature for the
continuous-time loss limit, central finite differences for reverse-mode
gradients, grid search for the optimal generative variance, and the exact
Gaussian posterior for sampler moments.  All runs are seed-deterministic.

A row that cannot measure is a FAIL reading "inconclusive: <cause>", decided in
_report alone; _measure turns the errors such a schedule raises into that cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import grad
from .config import RunConfig
from .encoder import Encoder, IdentityEncoder, NonTrainableEncoder
from .errors import NumericsError
from .objective import (batch_vloss_graph, continuous_xloss, discrete_diffusion_loss,
                        discrete_step_terms, mc_estimate)
from .process import (OPTIMAL, GaussianParams, forward_transition, kl_isotropic, optimal_sigma_p,
                      transition_coefficients, weighting_penalty)
from .sampler import SamplerConfig, ancestral_sample, sde_forward_step
from .schedule import LogLinearSchedule, SchedulePoint, logistic, point_from_lam
from .train import build_model


@dataclass(frozen=True)
class OracleReport:
    name: str
    measured: float
    expected: float
    tolerance: float
    passed: bool
    details: str = ""

    def row(self) -> tuple:
        return (self.name, self.measured, self.expected, self.tolerance,
                "pass" if self.passed else "FAIL", self.details)


def _measure(compute, schedule: LogLinearSchedule | None = None, layers=()):
    """(compute(), None), or (None, the cause) when compute stops on an error that says the
    schedule leaves nothing to measure: an overflowing loss sum, a non-finite loss, or a
    ValueError at the first layer i of schedule.grid(T), for (T, indices) in layers and i in
    indices, whose σ_Q² underflowed to 0 (a Gaussian needs a positive variance, σ_P² a
    positive σ_Q²).  Any other error, and a ValueError with no such layer, surfaces."""
    try:
        return compute(), None
    except OverflowError as err:
        return None, f"the loss sum overflowed ({err})"
    except NumericsError as err:
        return None, f"the loss is not finite ({err})"
    except ValueError:
        for T, indices in layers:
            points = schedule.grid(T)
            for i in indices:
                sp, tp = points[i - 1], points[i]
                sigma2_q = transition_coefficients(sp, tp).sigma2_q
                if not sigma2_q > 0:
                    return None, (f"degenerate transition s={sp.t:.6g} -> t={tp.t:.6g} "
                                  f"(T={T} layer {i}): sigma2_q={sigma2_q:.3g}")
        raise


def _report(name: str, measured: float, expected: float, tolerance: float,
            details: str = "", cause: str | None = None) -> OracleReport:
    """The one rule for a row that cannot measure: with a cause, or a measured value that
    is not finite (its cause is then details), the row FAILs as inconclusive."""
    measured = float(measured)
    cause = cause or (None if math.isfinite(measured) else details)
    passed = cause is None and bool(abs(measured - expected) <= tolerance)
    return OracleReport(name, measured, float(expected), float(tolerance), passed,
                        details if cause is None else f"inconclusive: {cause}")


# ---------------------------------------------------------------------------
# Analytic prediction models (all z-independent unless stated otherwise)
# ---------------------------------------------------------------------------

class AnalyticPredictor:
    """A closed-form x̂(z, λ); subclasses define predict_x.

    It answers DenoiserNet's inference protocol (objective.py), with no
    training form: v̂ follows from x̂ through x̂ = α z − σ v̂.
    """

    z_independent = True

    def predict_v(self, z: np.ndarray, lam: float) -> np.ndarray:
        p = point_from_lam(lam)
        return (p.alpha * np.asarray(z) - self.predict_x(z, lam)) / p.sigma

    def buffers(self, rows: int) -> None:
        """No buffers: `forward` makes its own arrays."""
        return None

    def forward(self, z: np.ndarray, lam: np.ndarray, buffers: None,
                emb: np.ndarray | None = None) -> np.ndarray:
        """v̂ of each row of z (B, d) at its own λ of lam (B,); a closed form
        reads λ itself, not its embedding emb."""
        # one scalar λ at a time: predict_x takes a scalar
        return np.stack([self.predict_v(z[i], float(lam_i)) for i, lam_i in enumerate(lam)])

    def predictor(self, rows: int):
        """x̂ for (rows, d) latents: predict_x itself."""
        return self.predict_x


class GaussianPosteriorOracle(AnalyticPredictor):
    """Exact posterior-mean predictor for data x ~ N(m, c·I) under the
    variance-preserving marginal:

        E[x | z_t] = (α_t c z_t + σ_t² m) / (α_t² c + σ_t²)

    Also provides the exact per-step mean-square gap E‖μ_P − μ_Q‖² needed by
    the optimal-variance sampler, which equals (α_s σ²_{t|s}/σ_t²)²·Var(x|z_t)·d.
    """

    z_independent = False

    def __init__(self, mean, cov_scale: float):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.cov_scale = float(cov_scale)
        self.calls = 0

    def _coeffs(self, lam: float) -> tuple[float, float, float]:
        a2 = logistic(lam)
        s2 = logistic(-lam)
        denom = a2 * self.cov_scale + s2
        return math.sqrt(a2), s2, denom

    def predict_x(self, z: np.ndarray, lam: float, out: np.ndarray | None = None) -> np.ndarray:
        """E[x | z] for z (d,) or (B, d), into out if given; σ² m is added one
        column at a time, cheaper than broadcasting its row over B rows."""
        self.calls += 1
        a, s2, denom = self._coeffs(lam)
        out = np.multiply(z, a * self.cov_scale, out=out)
        for j, m_j in enumerate(self.mean):
            out[..., j] += s2 * m_j
        return np.divide(out, denom, out=out)

    def predictor(self, rows: int):
        """predict_x for (rows, d) latents, into one buffer allocated here that
        each call overwrites."""
        out = np.empty((rows, self.mean.size))
        return lambda z, lam: self.predict_x(z, lam, out)

    def posterior_var(self, lam: float) -> float:
        """Var(x_i | z_t) = c·σ_t²/(α_t² c + σ_t²)."""
        _, s2, denom = self._coeffs(lam)
        return self.cov_scale * s2 / denom

    def gap_table(self, s_point: SchedulePoint, t_point: SchedulePoint) -> float:
        coeff = transition_coefficients(s_point, t_point).x_weight
        return coeff * coeff * self.posterior_var(t_point.lam) * self.mean.size


class SmoothVectorPredictor(AnalyticPredictor):
    """Fixed z-free prediction x̂(λ) = 0.9·tanh(λ/6)·x0 + 0.05, used as the
    'imperfect smooth model' in convergence demonstrations."""

    def __init__(self, x0: np.ndarray):
        self.x0 = np.asarray(x0, dtype=np.float64)

    def predict_x(self, z: np.ndarray, lam: float) -> np.ndarray:
        return 0.9 * math.tanh(lam / 6.0) * self.x0 + 0.05


EPS0 = 0.1  # ε₀ of ConstantEpsErrorPredictor


class ConstantEpsErrorPredictor(AnalyticPredictor):
    """x̂(λ) = x + ε₀ e^{−λ/2} u, ε₀ = EPS0: a predictor whose noise-space error
    is the constant vector ε₀·u at every λ.  Makes the per-layer
    optimal-variance ratio uniform across layers, the cleanest demonstration of
    the vanishing weighting penalty."""

    def __init__(self, x: np.ndarray, u: np.ndarray):
        self.x = np.asarray(x, dtype=np.float64)
        self.u = np.asarray(u, dtype=np.float64)

    def predict_x(self, z: np.ndarray, lam: float) -> np.ndarray:
        return self.x + EPS0 * math.exp(-lam / 2.0) * self.u


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

# draws mc_kl_oracle makes and scores at once, which bounds its working memory
MC_KL_ROWS = 4096
# the largest of sde_richardson_oracle's three forward steps
SDE_DT0 = 1e-2
# data dimension and network width of fd_gradient_suite's model
FD_D, FD_WIDTH = 2, 16


def mc_kl_oracle(q: GaussianParams, p: GaussianParams, n: int, seed: int) -> OracleReport:
    """Estimate KL(q‖p) by sampling from q; compare to the closed form at 4 SE.

    The n draws are made and scored MC_KL_ROWS rows at a time, in the order of
    one (n, d) draw, into one (n,) vector of log-density differences.
    """
    if n < 10_000:
        raise ValueError(f"mc_kl_oracle needs n >= 10^4 samples, got {n}")
    d = q.mean.size
    rng = np.random.default_rng(seed)

    def log_density(z: np.ndarray, params: GaussianParams) -> np.ndarray:
        sq = ((z - params.mean[None, :]) ** 2).sum(axis=1)
        return -0.5 * d * math.log(2.0 * math.pi * params.var) - sq / (2.0 * params.var)

    log_ratio = np.empty(n)
    for start in range(0, n, MC_KL_ROWS):
        rows = slice(start, min(start + MC_KL_ROWS, n))
        z = q.mean[None, :] + math.sqrt(q.var) * rng.standard_normal((rows.stop - start, d))
        log_ratio[rows] = log_density(z, q) - log_density(z, p)
    est = mc_estimate(log_ratio)
    return _report("mc_kl", est.value, kl_isotropic(q, p, d), 4.0 * est.std_error,
                   details=f"se={est.std_error:.3e} n={n}")


def optimal_variance_grid_oracle(sigma2_q: float, mean_sq_gap: float, d: int) -> OracleReport:
    """Grid-search check that the closed-form σ_P² minimizes the expected KL."""
    def expected_kl(sigma2_p: float) -> float:
        w = sigma2_q / sigma2_p
        return weighting_penalty(w, d) + mean_sq_gap / (2.0 * sigma2_p)

    best = optimal_sigma_p(sigma2_q, mean_sq_gap, d)
    kl_best = expected_kl(best)
    grid = np.linspace(0.5 * sigma2_q, 4.0 * best, 100)
    kl_grid = np.array([expected_kl(s) for s in grid])
    beats_grid = bool(np.all(kl_best <= kl_grid + 1e-15))
    # central-difference stationarity at the optimum
    h = 1e-6 * best
    deriv = (expected_kl(best + h) - expected_kl(best - h)) / (2.0 * h)
    rel_deriv = abs(deriv) * best / max(abs(kl_best), 1e-300)
    return OracleReport(
        "optimal_variance_grid", rel_deriv, 0.0, 1e-6, beats_grid and rel_deriv < 1e-6,
        f"beats_grid={beats_grid} min_grid_kl={kl_grid.min():.6e} kl_opt={kl_best:.6e}")


def _composite_gauss_legendre(f, n_panels: int) -> float:
    """∫₀¹ f by Gauss–Legendre quadrature with 64 nodes on each of n_panels equal panels."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    total = 0.0
    width = 1.0 / n_panels
    for k in range(n_panels):
        mid = (k + 0.5) * width
        ts = mid + 0.5 * width * nodes
        total += 0.5 * width * float(np.sum(weights * np.array([f(t) for t in ts])))
    return total


def continuous_loss_quadrature(model, encoder: Encoder, x: np.ndarray,
                               schedule: LogLinearSchedule, n_panels: int) -> float:
    """Continuous-time diffusion loss of a z-free model by composite quadrature."""
    zero_eps = np.zeros_like(np.asarray(x, dtype=np.float64))

    def integrand(t: float) -> float:
        return continuous_xloss(x, model, encoder, t, zero_eps, schedule)

    return _composite_gauss_legendre(integrand, n_panels)


def _slope_report(name: str, expected: float, tolerance: float, schedule: LogLinearSchedule,
                  T_list: list[int], total, details, cause: str | None = None) -> OracleReport:
    """The log-log slope of total(T), a sum over the discrete loss's T layers,
    over T_list, with details(totals); none when cause says there is nothing to measure."""
    if cause is None:
        totals, cause = _measure(lambda: [total(T) for T in T_list], schedule,
                                 [(T, range(1, T + 1)) for T in T_list])
    if cause:
        return _report(name, math.nan, expected, tolerance, cause=cause)
    slope = float(np.polyfit(np.log(T_list), np.log(totals), 1)[0])
    return _report(name, slope, expected, tolerance, details(totals))


def limit_convergence(model, encoder: Encoder, x: np.ndarray, T_list: list[int],
                      schedule: LogLinearSchedule) -> OracleReport:
    """Fit the log-log slope of |L_T − L_∞| for a fixed z-free model.

    L_T is the deterministic full sum of per-layer KLs; L_∞ comes from
    composite Gauss–Legendre quadrature (512 nodes), with a node-doubling
    stability requirement of 1e-8 relative.
    """
    if len(T_list) < 4 or list(T_list) != sorted(T_list):
        raise ValueError("T_list must be ascending with at least 4 entries")
    l_inf = continuous_loss_quadrature(model, encoder, x, schedule, 8)
    l_inf_2 = continuous_loss_quadrature(model, encoder, x, schedule, 16)
    return _slope_report(
        "limit_convergence", -1.0, 0.3, schedule, T_list,
        lambda T: abs(discrete_diffusion_loss(x, T, model, encoder, schedule) - l_inf),
        lambda errs: f"L_inf={l_inf:.6e} errs={['%.3e' % e for e in errs]}",
        cause=("quadrature unstable under node doubling"
               if abs(l_inf_2 - l_inf) > 1e-8 * abs(l_inf) else None))


def weighted_penalty_growth(x: np.ndarray, model, encoder: Encoder, w: float,
                            T_list: list[int], schedule: LogLinearSchedule) -> OracleReport:
    """Slope of the total weighting penalty vs T at fixed w ≠ 1 (expected +1)."""
    return _slope_report(
        "weighted_penalty_growth", 1.0, 0.05, schedule, T_list,
        lambda T: sum(term.penalty for term in discrete_step_terms(x, T, model, encoder,
                                                                   schedule, w)),
        lambda totals: f"w={w} totals={['%.3e' % p for p in totals]}")


def optimal_penalty_decay(x: np.ndarray, model, encoder: Encoder,
                          T_list: list[int], schedule: LogLinearSchedule) -> OracleReport:
    """Slope of the total weighting penalty vs T at the per-layer optimal w
    (expected −1: the penalty vanishes in the continuous limit).

    The 1/T law needs the per-layer log-SNR step Δλ = (λ_max − λ_min)/T well
    below 1; with the default endpoints that means T ≳ 64.
    """
    return _slope_report(
        "optimal_penalty_decay", -1.0, 0.3, schedule, T_list,
        lambda T: sum(term.penalty for term in discrete_step_terms(
            x, T, model, encoder, schedule, OPTIMAL)),
        lambda totals: f"totals={['%.3e' % p for p in totals]}")


def sampler_moment_oracle(mean, cov_scale: float, schedule: LogLinearSchedule,
                          T: int, n_chains: int, seed: int = 0) -> list[OracleReport]:
    """Ancestral sampling with the exact Gaussian predictor (optimal per-step variance)
    must reproduce its readout's moments within 4 standard errors: x̂ = (α c z + σ² m)/(α² c
    + σ²) at grid point 1 has mean m and covariance v·I, v = c − Var(x_i | z) there."""
    mean = np.asarray(mean, dtype=np.float64)
    d = mean.size
    oracle = GaussianPosteriorOracle(mean, cov_scale)
    config = SamplerConfig(steps=T, gap_table=oracle.gap_table, counterterm=False, seed=seed)
    out, stopped = _measure(
        lambda: ancestral_sample(oracle, schedule, config, n_chains=n_chains, d=d).x_out,
        schedule, [(T, range(T, 1, -1))])  # the chain steps through layers T..2
    out = np.full((2, d), math.nan) if out is None else out
    readout = schedule.grid(T)[1]
    v = cov_scale - oracle.posterior_var(readout.lam)
    # with α = 0 every chain reads out m: the rows would measure the predictor, not the chain
    cause = stopped or (f"alpha=0 at the readout point t={readout.t:.6g} (T={T} point 1), "
                        "so every chain reads out the data mean" if readout.alpha == 0.0 else None)
    reports = [_report(f"sampler_mean_{j}", out[:, j].mean(), mean[j],
                       4.0 * math.sqrt(v / n_chains), f"T={T} n={n_chains}", cause=cause)
               for j in range(d)]
    cov = np.cov(out.T)
    for j in range(d):
        for k in range(j, d):
            target, var = (v, 2.0 * v * v) if j == k else (0.0, v * v)
            reports.append(_report(f"sampler_cov_{j}{k}", cov[j, k], target,
                                   4.0 * math.sqrt(var / n_chains), cause=cause))
    reports.append(_report("sampler_model_calls", oracle.calls, T, 0.0,
                           "one prediction per layer", cause=stopped))
    return reports


def sde_richardson_oracle(schedule: LogLinearSchedule, seed: int = 0,
                          s: float = 0.37) -> OracleReport:
    """Richardson check: halving dt must quarter the forward-step mean error,
    over steps SDE_DT0, SDE_DT0/2 and SDE_DT0/4 from t = s."""
    rng = np.random.default_rng(seed)
    d = 3
    x = rng.uniform(-1.0, 1.0, size=d)
    z = rng.standard_normal(d)
    encoder = NonTrainableEncoder()
    errs = []
    for dt in (SDE_DT0, SDE_DT0 / 2.0, SDE_DT0 / 4.0):
        sp, tp = schedule.at(s), schedule.at(s + dt)
        exact = forward_transition(z, encoder.encode(x, tp), encoder.encode(x, sp), sp, tp).mean
        stepped, _ = sde_forward_step(z, s, dt, encoder, x, schedule)
        errs.append(float(np.linalg.norm(stepped - exact)))
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 is nan: nothing to measure
        ratios = np.divide(errs[:2], errs[1:])
    return _report("sde_richardson", ratios.mean(), 4.0, 0.5,
                   details=f"errs={['%.3e' % e for e in errs]} "
                           f"ratios={['%.3f' % r for r in ratios]}")


def fd_gradient_suite(schedule: LogLinearSchedule, encoder_kind: str, n_coords: int,
                      seed: int) -> OracleReport:
    """Central-difference check of reverse-mode gradients of the training loss.

    Probes >= n_coords randomly chosen parameter coordinates of a small model
    (data dimension FD_D, networks FD_WIDTH wide) with randomly initialized
    (non-zero) output layers, including the encoder path through the
    finite-difference dy/dλ estimator.  Each probe's central difference steps
    the coordinate by ±1e-5.  Coordinates below 1e-6 in magnitude are compared
    against that floor.  A loss that is not finite at this schedule
    (λ·frequency overflowing the embedding, say) makes an inconclusive FAIL
    row.
    """
    h = 1e-5
    rng = np.random.default_rng(seed)
    model, encoder, store = build_model(
        RunConfig(encoder=encoder_kind, denoiser_width=FD_WIDTH, encoder_width=FD_WIDTH,
                  seed=seed), FD_D)
    # zero-initialized output layers would zero out most gradients; randomize them
    for name, tensor in store.params.items():
        if name.endswith("out.w") or name.endswith("out.b"):
            tensor.data = 0.1 * rng.standard_normal(tensor.data.shape)

    B = 4
    x = rng.uniform(-1.0, 1.0, size=(B, FD_D))
    ts = rng.uniform(0.05, 0.95, size=B)
    eps = rng.standard_normal((B, FD_D))

    def loss_value() -> float:
        return float(batch_vloss_graph(x, model, encoder, ts, eps, schedule).data)

    loss, cause = _measure(lambda: batch_vloss_graph(x, model, encoder, ts, eps, schedule))
    if cause:
        return _report("fd_gradient", math.nan, 0.0, 1e-4, cause=f"{cause} encoder={encoder_kind}")
    grads = grad(loss, store.parameters())  # laid out like store.flat
    # each coordinate of store.flat as name(index), in its order
    coords = [f"{name}{idx}" for name, param in store.params.items()
              for idx in np.ndindex(param.data.shape)]
    on_encoder = np.array([coord.startswith("encoder") for coord in coords])
    # stratify so the loss path through the encoder's dλ estimator is probed: the
    # encoder's coordinates first, then the denoiser's up to n_coords in all
    probe: list[int] = []
    for span, share in ((np.flatnonzero(on_encoder), n_coords // 2),
                        (np.flatnonzero(~on_encoder), n_coords)):
        if span.size:
            k = min(share - len(probe), span.size)
            probe.extend(span[rng.choice(span.size, size=k, replace=False)])
    max_rel = 0.0
    worst = ""
    for i in probe:
        orig = store.flat[i]
        store.flat[i] = orig + h
        up = loss_value()
        store.flat[i] = orig - h
        down = loss_value()
        store.flat[i] = orig
        fd = (up - down) / (2.0 * h)
        rel = abs(fd - grads[i]) / max(abs(fd), abs(grads[i]), 1e-6)
        if rel > max_rel:
            max_rel = rel
            worst = coords[i]
    return _report("fd_gradient", max_rel, 0.0, 1e-4,
                   details=f"coords={len(probe)} encoder_coords={on_encoder[probe].sum()} "
                           f"worst={worst} encoder={encoder_kind}")


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------

def run_all(schedule: LogLinearSchedule | None = None, seed: int = 0,
            quick: bool = False) -> list[OracleReport]:
    """Run every oracle with moderate budgets; returns one report per check."""
    schedule = schedule or LogLinearSchedule()
    rng = np.random.default_rng(seed)
    reports: list[OracleReport] = []

    q = GaussianParams(mean=np.zeros(1), var=2.0)
    p = GaussianParams(mean=np.zeros(1), var=1.0)
    reports.append(mc_kl_oracle(q, p, n=100_000, seed=seed))
    q8 = GaussianParams(mean=rng.uniform(-1, 1, size=8), var=1.3)
    p8 = GaussianParams(mean=rng.uniform(-1, 1, size=8), var=0.7)
    reports.append(mc_kl_oracle(q8, p8, n=200_000, seed=seed + 1))

    reports.append(optimal_variance_grid_oracle(sigma2_q=1.0, mean_sq_gap=0.5 * 4, d=4))

    x = rng.uniform(-1, 1, size=3)
    nt = NonTrainableEncoder()
    smooth = SmoothVectorPredictor(x)
    T_list = [16, 32, 64, 128] if quick else [16, 32, 64, 128, 256, 512]
    reports.append(limit_convergence(smooth, nt, x, T_list, schedule))
    reports.append(weighted_penalty_growth(x, smooth, nt, 2.0, T_list, schedule))
    ceps = ConstantEpsErrorPredictor(x, rng.uniform(-1, 1, size=3))
    decay_T = [64, 128, 256, 512] if quick else [64, 128, 256, 512, 1024]
    reports.append(optimal_penalty_decay(x, ceps, IdentityEncoder(), decay_T, schedule))

    n_chains = 20_000 if quick else 100_000
    T = 128 if quick else 256
    reports.extend(sampler_moment_oracle([0.3, -0.2], 1.0, schedule, T=T,
                                         n_chains=n_chains, seed=seed))

    reports.append(sde_richardson_oracle(schedule, seed=seed))
    reports.append(fd_gradient_suite(n_coords=60 if quick else 200, seed=seed,
                                     schedule=schedule, encoder_kind="trainable"))
    reports.append(fd_gradient_suite(n_coords=40 if quick else 100, seed=seed + 1,
                                     schedule=schedule, encoder_kind="nt"))
    return reports

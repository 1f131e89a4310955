"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.  Budgets are modest (the whole suite completes in a few minutes on
one CPU core); seeds are fixed so failures reproduce exactly.
"""

import inspect
import math
import time

import numpy as np
import pytest

from encdiff.config import RunConfig
from encdiff.data import scale_pixels
from encdiff.encoder import IdentityEncoder, NonTrainableEncoder, make_encoder
from encdiff.nets import DenoiserNet, EncoderInnerNet, ParamStore
from encdiff.objective import (
    batch_vloss_graph,
    continuous_vloss,
    continuous_xloss,
    latent_loss,
    pixel_categorical_log_probs,
)
from encdiff.process import (
    GaussianParams,
    kl_isotropic,
    marginal,
    reverse_posterior,
    transition_coefficients,
    weighting_penalty,
)
from encdiff.sampler import SamplerConfig, ancestral_sample
from encdiff.schedule import LogLinearSchedule, logistic
from encdiff.train import build_model, train
from encdiff.verify import (
    ConstantEpsErrorPredictor,
    GaussianPosteriorOracle,
    SmoothVectorPredictor,
    fd_gradient_suite,
    limit_convergence,
    mc_kl_oracle,
    optimal_penalty_decay,
    optimal_variance_grid_oracle,
    sde_richardson_oracle,
    weighted_penalty_growth,
)

SCHEDULE = LogLinearSchedule()


def _line(n: int, ok: bool, text: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n:2d} [{status}] {text} ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {n} failed: {text}"


def _random_encoders(rng, d):
    inner = EncoderInnerNet(d=d, width=8, seed=17)
    for _name, t in inner.store.params.items():
        t.data = 0.05 * rng.standard_normal(t.data.shape)
    return [IdentityEncoder(), NonTrainableEncoder(),
            make_encoder("trainable", inner_net=inner)]


def test_criterion_1_gaussian_algebra_identities():
    """Marginal and reverse-posterior consistency, algebraic and Monte Carlo."""
    t0 = time.time()
    rng = np.random.default_rng(1)
    d = 3
    encoders = _random_encoders(rng, d)
    worst_marg = 0.0
    worst_rev = 0.0
    for _ in range(1000):
        s, t = np.sort(rng.uniform(0.0, 1.0, size=2))
        if not s < t:
            continue
        sp, tp = SCHEDULE.at(float(s)), SCHEDULE.at(float(t))
        enc = encoders[int(rng.integers(len(encoders)))]
        x = rng.uniform(-2, 2, size=d)
        x_s, x_t = enc.encode(x, sp), enc.encode(x, tp)
        c = transition_coefficients(sp, tp)
        # composing the marginal at s with the forward transition = marginal at t
        mean_gap = np.max(np.abs(c.alpha_ts * (sp.alpha * x_s) + tp.alpha * (x_t - x_s)
                                 - marginal(x_t, tp).mean))
        var_gap = abs(c.alpha_ts**2 * sp.sigma_sq + c.sigma2_ts - tp.sigma_sq)
        worst_marg = max(worst_marg, mean_gap, var_gap)
        # reverse posterior pushes the marginal at t back to the marginal at s
        mu = reverse_posterior(tp.alpha * x_t, x_t, x_s, sp, tp)
        rev_mean_gap = np.max(np.abs(mu.mean - sp.alpha * x_s))
        coeff_z = c.alpha_ts * sp.sigma_sq / tp.sigma_sq
        rev_var_gap = abs(coeff_z**2 * tp.sigma_sq + c.sigma2_q - sp.sigma_sq)
        worst_rev = max(worst_rev, rev_mean_gap, rev_var_gap)
    algebra_ok = worst_marg < 1e-10 and worst_rev < 1e-10

    # Monte Carlo at N = 10^6: sample moments of z_s within 4 standard errors
    n = 1_000_000
    s, t = 0.35, 0.75
    sp, tp = SCHEDULE.at(s), SCHEDULE.at(t)
    x = rng.uniform(-1, 1, size=d)
    enc = encoders[1]
    x_s, x_t = enc.encode(x, sp), enc.encode(x, tp)
    z_t = tp.alpha * x_t + tp.sigma * rng.standard_normal((n, d))
    post = reverse_posterior(z_t, x_t, x_s, sp, tp)
    z_s = post.mean + math.sqrt(post.var) * rng.standard_normal((n, d))
    se_mean = math.sqrt(sp.sigma_sq / n)
    mc_mean_ok = np.all(np.abs(z_s.mean(axis=0) - sp.alpha * x_s) < 4 * se_mean)
    se_var = sp.sigma_sq * math.sqrt(2.0 / n)
    mc_var_ok = np.all(np.abs(z_s.var(axis=0) - sp.sigma_sq) < 4 * se_var)

    _line(1, algebra_ok and mc_mean_ok and mc_var_ok,
          f"Gaussian algebra: algebraic gaps {max(worst_marg, worst_rev):.2e} < 1e-10, "
          f"MC moments within 4 SE at N=10^6", t0)


def test_criterion_2_kl_correctness():
    """Closed-form KL vs Monte Carlo over 50 random cases; penalty positivity."""
    t0 = time.time()
    rng = np.random.default_rng(2)
    all_ok = True
    for case in range(50):
        d = int(rng.integers(1, 17))
        w = float(rng.uniform(0.25, 4.0))
        var_q = float(rng.uniform(0.3, 2.0))
        q = GaussianParams(mean=rng.uniform(-1, 1, size=d), var=var_q)
        p = GaussianParams(mean=rng.uniform(-1, 1, size=d), var=var_q / w)
        report = mc_kl_oracle(q, p, n=100_000, seed=1000 + case)
        all_ok = all_ok and report.passed
    penalty_ok = weighting_penalty(1.0, 5) == 0.0 and all(
        weighting_penalty(float(w), 5) > 0.0 for w in np.logspace(-3, 3, 121)
        if abs(w - 1.0) > 1e-9
    )
    _line(2, all_ok and penalty_ok,
          "KL closed form matches MC within 4 SE on 50 cases; g(1)=0, g(w)>0 elsewhere", t0)


def test_criterion_3_optimal_variance():
    t0 = time.time()
    rng = np.random.default_rng(3)
    ok = True
    details = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 9))
        report = optimal_variance_grid_oracle(
            sigma2_q=float(rng.uniform(0.2, 2.0)),
            mean_sq_gap=float(rng.uniform(0.0, 3.0)),
            d=d,
        )
        ok = ok and report.passed
        details = max(details, report.measured)
    _line(3, ok, f"optimal variance beats 100-point grids; stationarity {details:.1e} < 1e-6", t0)


def test_criterion_4_continuous_limit_convergence():
    t0 = time.time()
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=3)
    nt = NonTrainableEncoder()
    smooth = SmoothVectorPredictor(x)
    conv = limit_convergence(smooth, nt, x, [16, 32, 64, 128, 256, 512], SCHEDULE)
    growth = weighted_penalty_growth(x, smooth, nt, 2.0, [16, 32, 64, 128, 256, 512],
                                     SCHEDULE)
    ceps = ConstantEpsErrorPredictor(x, rng.uniform(-1, 1, size=3))
    decay = optimal_penalty_decay(x, ceps, IdentityEncoder(),
                                  [64, 128, 256, 512, 1024], SCHEDULE)
    _line(4, conv.passed and growth.passed and decay.passed,
          f"discrete-to-continuous slope {conv.measured:.3f} in [-1.3,-0.7]; "
          f"w=2 penalty slope {growth.measured:.3f} = 1.0±0.05; "
          f"optimal-w penalty slope {decay.measured:.3f} = -1±0.3", t0)


def test_criterion_5_parameterization_identities():
    t0 = time.time()
    rng = np.random.default_rng(5)
    d = 16
    model = DenoiserNet(d=d, width=16, seed=5)
    for name, t in model.store.params.items():
        if name.endswith("out.w") or name.endswith("out.b"):
            t.data = 0.03 * rng.standard_normal(t.data.shape)

    # (a) trainable-at-init loss equals the damping-encoder loss bit-for-bit
    tr0 = make_encoder("trainable", inner_net=EncoderInnerNet(d=d, width=16, seed=6))
    nt = NonTrainableEncoder()
    bitwise_ok = all(
        continuous_vloss(x, model, tr0, t, eps, SCHEDULE)
        == continuous_vloss(x, model, nt, t, eps, SCHEDULE)
        for x, eps, t in ((rng.uniform(-1, 1, size=d), rng.standard_normal(d),
                           float(rng.uniform())) for _ in range(20))
    )

    # (b) x-parameterized loss equals the v-parameterized loss for linked v̂
    inner = EncoderInnerNet(d=d, width=16, seed=7)
    for _name, t in inner.store.params.items():
        t.data = 0.03 * rng.standard_normal(t.data.shape)
    tr = make_encoder("trainable", inner_net=inner)
    xv_ok = True
    for enc in (IdentityEncoder(), nt, tr):
        for _ in range(10):
            x = rng.uniform(-1, 1, size=d)
            eps = rng.standard_normal(d)
            t = float(rng.uniform(0.02, 0.98))
            lv = continuous_vloss(x, model, enc, t, eps, SCHEDULE)
            lx = continuous_xloss(x, model, enc, t, eps, SCHEDULE)
            xv_ok = xv_ok and abs(lx - lv) <= 1e-9 * max(abs(lv), abs(lx))

    # (c) alpha x̂ + sigma ε̂ = z
    recon_ok = True
    for lam in (-4.0, 0.0, 9.0):
        a = math.sqrt(logistic(lam))
        s = math.sqrt(logistic(-lam))
        z = rng.standard_normal(d)
        v_hat = model.predict_v(z, lam)
        gap = np.max(np.abs(a * (a * z - s * v_hat) + s * (s * z + a * v_hat) - z))
        recon_ok = recon_ok and gap < 1e-9

    # (d) at t = 1e-4 the integrand reduces to the noise-prediction objective
    t_small = 1e-4
    p = SCHEDULE.at(t_small)
    eps_ok = True
    for enc in (nt, tr):
        x = rng.uniform(-1, 1, size=d)
        eps = rng.standard_normal(d)
        x_enc = enc.encode(x, p)
        z = p.alpha * x_enc + p.sigma * eps
        v_hat = model.predict_v(z, p.lam)
        eps_hat = p.sigma * z + p.alpha * v_hat
        main = float(np.sum((eps - eps_hat) ** 2))
        norm_sq = continuous_vloss(x, model, enc, t_small, eps, SCHEDULE) / (
            -0.5 * p.lam_prime * p.alpha_sq)
        eps_ok = eps_ok and abs(norm_sq - main) < 1e-4 * main

    _line(5, bitwise_ok and xv_ok and recon_ok and eps_ok,
          "trainable-at-init = damping loss bitwise; x-loss = v-loss (1e-9); "
          "alpha x̂ + sigma ε̂ = z (1e-9); t->0 matches ε-objective (<1e-4)", t0)


def test_criterion_6_gradient_correctness():
    t0 = time.time()
    rep_tr = fd_gradient_suite(n_coords=250, seed=6, schedule=SCHEDULE,
                               encoder_kind="trainable")
    rep_nt = fd_gradient_suite(n_coords=150, seed=7, schedule=SCHEDULE,
                               encoder_kind="nt")
    enc_probed = "encoder_coords=125" in rep_tr.details
    _line(6, rep_tr.passed and rep_nt.passed and enc_probed,
          f"reverse-mode vs central differences: max rel err "
          f"{max(rep_tr.measured, rep_nt.measured):.2e} < 1e-4 over 400 coords "
          f"(dλ-estimator path probed)", t0)


def test_criterion_7_oracle_sampling():
    t0 = time.time()
    mean, cov_scale = np.array([0.3, -0.2]), 1.0
    T, n_chains = 256, 100_000
    oracle = GaussianPosteriorOracle(mean, cov_scale)
    config = SamplerConfig(steps=T, gap_table=oracle.gap_table, counterterm=False, seed=7)
    result = ancestral_sample(oracle, SCHEDULE, config, n_chains=n_chains, d=2)
    out = result.x_out
    se_mean = math.sqrt(cov_scale / n_chains)
    mean_ok = np.all(np.abs(out.mean(axis=0) - mean) < 4 * se_mean)
    cov = np.cov(out.T)
    cov_ok = (abs(cov[0, 0] - 1.0) < 4 * math.sqrt(2.0 / n_chains)
              and abs(cov[1, 1] - 1.0) < 4 * math.sqrt(2.0 / n_chains)
              and abs(cov[0, 1]) < 4 * math.sqrt(1.0 / n_chains))
    # generation is the denoiser alone: the sampler takes no encoder to call
    encoder_free = not any("encod" in (name + str(p.annotation)).lower()
                           for name, p in inspect.signature(ancestral_sample).parameters.items())
    calls_ok = oracle.calls == T and encoder_free
    _line(7, bool(mean_ok and cov_ok and calls_ok),
          f"oracle sampling at T={T}, N=10^5: moments within 4 SE, "
          f"{oracle.calls} denoiser calls, 0 encoder calls", t0)


def test_criterion_8_desk_scale_training(tmp_path):
    """Three 20k-step runs on a concentrated 2-D Gaussian; paired evaluation."""
    t0 = time.time()
    rng = np.random.default_rng(8)
    base = dict(dataset="gaussian2d", n_points=4096, mean_x=0.5, mean_y=-0.3,
                cov_scale=1e-4, denoiser_width=64, encoder_width=32, steps=20_000,
                batch_size=64, lr=1e-3, seed=3, log_every=5000, checkpoint_every=100_000)
    n_eval = 512
    results = {}
    for kind in ("identity", "nt", "trainable"):
        config = RunConfig(encoder=kind, out_dir=str(tmp_path / kind), **base)
        state = train(config)
        items = state.dataset.items[:n_eval]
        ts = rng.uniform(0.0, 1.0, size=n_eval)
        eps = rng.standard_normal(items.shape)

        def total_loss(model, encoder):
            diff = float(batch_vloss_graph(items, model, encoder, ts, eps, SCHEDULE).data)
            lat = float(np.mean([latent_loss(x, encoder, SCHEDULE) for x in items]))
            return diff + lat

        init_model, init_encoder, _ = build_model(config, d=2)
        initial = total_loss(init_model, init_encoder)
        final = total_loss(state.model, state.encoder)
        final_latent = float(np.mean([latent_loss(x, state.encoder, SCHEDULE)
                                      for x in items]))
        results[kind] = (initial, final, final_latent)

    reduction_ok = all(final <= 0.5 * initial for initial, final, _ in results.values())
    latent_ok = results["trainable"][2] <= results["identity"][2]
    summary = "; ".join(f"{k}: {i:.2f}->{f:.2f}" for k, (i, f, _) in results.items())
    _line(8, reduction_ok and latent_ok,
          f"20k-step training halves the total loss ({summary}); trainable latent "
          f"{results['trainable'][2]:.2e} <= identity latent {results['identity'][2]:.2e}", t0)


def test_criterion_9_reconstruction_latent_closed_forms():
    t0 = time.time()
    rng = np.random.default_rng(9)
    p0 = SCHEDULE.at(0.0)
    norm_ok = True
    for _ in range(20):
        z0 = rng.standard_normal(32)
        sums = np.exp(pixel_categorical_log_probs(z0, p0.alpha, p0.sigma_sq)).sum(axis=1)
        norm_ok = norm_ok and np.max(np.abs(sums - 1.0)) < 1e-12

    latent_ok = True
    p1 = SCHEDULE.at(1.0)
    for _ in range(50):
        d = int(rng.integers(1, 12))
        x = rng.uniform(-2, 2, size=d)
        for enc in (IdentityEncoder(), NonTrainableEncoder()):
            x1 = enc.encode(x, p1)
            mu = p1.alpha * x1
            var = p1.sigma_sq
            generic = 0.5 * (d * var - d + float(np.sum(mu * mu)) - d * math.log(var))
            latent_ok = latent_ok and abs(latent_loss(x, enc, SCHEDULE) - generic) < 1e-10

    _line(9, norm_ok and latent_ok,
          "pixel categoricals normalize to 1 (1e-12); latent loss matches the "
          "generic Gaussian-KL evaluator (1e-10)", t0)


def test_criterion_10_sde_consistency():
    t0 = time.time()
    reports = [sde_richardson_oracle(SCHEDULE, seed=seed, s=s)
               for seed, s in ((0, 0.37), (1, 0.2), (2, 0.6))]
    ok = all(r.passed for r in reports)
    ratios = ", ".join(f"{r.measured:.2f}" for r in reports)
    _line(10, ok, f"forward Euler–Maruyama Richardson ratios [{ratios}] = 4 ± 0.5", t0)

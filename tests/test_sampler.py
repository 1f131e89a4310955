"""Sampler tests: determinism, call accounting, oracle moments, SDE steps."""

import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from encdiff.autodiff import Tensor
from encdiff.config import RunConfig
from encdiff.data import scale_pixels, unscale_pixels
from encdiff.encoder import make_encoder
from encdiff.errors import NumericsError
from encdiff.nets import DenoiserNet
from encdiff.objective import pixel_categorical_log_probs
from encdiff.process import generative_mean, optimal_sigma_p, transition_coefficients
from encdiff.sampler import (
    SamplerConfig,
    ancestral_sample,
    decode_pixels,
    sde_coefficients,
    sde_forward_step,
    sde_step,
)
from encdiff.schedule import LogLinearSchedule, logistic, point_from_lam
from encdiff.train import build_model
from encdiff.verify import (AnalyticPredictor, GaussianPosteriorOracle, sampler_moment_oracle,
                            sde_richardson_oracle)


def _takes_encoder(fn) -> bool:
    """Whether a parameter of fn is named or annotated as an encoder."""
    return any("encod" in (name + str(p.annotation)).lower()
               for name, p in inspect.signature(fn).parameters.items())


class _ZeroRng:
    """Stub generator producing zero noise, for deterministic-part checks."""

    def standard_normal(self, shape=None):
        return np.zeros(shape if shape is not None else ())


class _ZeroScoreModel(AnalyticPredictor):
    """x̂ = z/α, so ε̂ = 0 and the score term vanishes."""

    z_independent = False

    def __init__(self):
        self.calls = 0

    def predict_x(self, z, lam):
        self.calls += 1
        return np.asarray(z) / math.sqrt(logistic(lam))


class _LamRecorder(_ZeroScoreModel):
    """_ZeroScoreModel that records the λ of every call."""

    def __init__(self):
        super().__init__()
        self.lams = []

    def predict_x(self, z, lam):
        self.lams.append(lam)
        return super().predict_x(z, lam)


class _ShiftedGrid(LogLinearSchedule):
    """A schedule whose grid points sit 0.25 above `at`'s in λ."""

    def grid(self, T):
        return [dataclasses.replace(p, lam=p.lam + 0.25) for p in super().grid(T)]


class _ExplodingModel(AnalyticPredictor):
    z_independent = False

    def __init__(self):
        self.calls = 0

    def predict_x(self, z, lam):
        self.calls += 1
        return np.asarray(z) * 1e200


class _InfModel(AnalyticPredictor):
    """Predicts x̂ = +inf everywhere."""

    z_independent = False

    def predict_x(self, z, lam):
        return np.full_like(z, np.inf)


def test_sampler_config_needs_a_step():
    with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
        SamplerConfig(steps=0)


class TestAncestral:
    def test_seed_reproducibility(self, schedule):
        oracle = GaussianPosteriorOracle([0.3, -0.2], 1.0)
        config = SamplerConfig(steps=32, seed=7)
        r1 = ancestral_sample(oracle, schedule, config, n_chains=16, d=2)
        r2 = ancestral_sample(oracle, schedule, config, n_chains=16, d=2)
        assert np.array_equal(r1.x_out, r2.x_out)
        assert np.array_equal(r1.latent_final, r2.latent_final)

    def test_different_seeds_differ(self, schedule):
        oracle = GaussianPosteriorOracle([0.3, -0.2], 1.0)
        r1 = ancestral_sample(oracle, schedule, SamplerConfig(steps=16, seed=1),
                              n_chains=4, d=2)
        r2 = ancestral_sample(oracle, schedule, SamplerConfig(steps=16, seed=2),
                              n_chains=4, d=2)
        assert not np.allclose(r1.x_out, r2.x_out)

    def test_exactly_T_model_calls_zero_encoder_calls(self, schedule):
        oracle = GaussianPosteriorOracle([0.0, 0.0], 1.0)
        for T in (1, 2, 17, 64):
            oracle.calls = 0
            ancestral_sample(oracle, schedule, SamplerConfig(steps=T, seed=0),
                             n_chains=8, d=2)
            assert oracle.calls == T
        # sampling has no encoder path at all: neither sampler takes an encoder,
        # as the forward SDE step, which does, shows the check can tell
        assert not _takes_encoder(ancestral_sample)
        assert not _takes_encoder(sde_step)
        assert _takes_encoder(sde_forward_step)

    def test_neural_model_one_forward_per_step(self, schedule):
        net = DenoiserNet(d=2, width=8, seed=0)
        before = net.calls
        ancestral_sample(net, schedule, SamplerConfig(steps=24, seed=1), n_chains=4, d=2)
        assert net.calls - before == 24

    def test_single_step_is_prior_readout(self, schedule):
        """T = 1: the output is the x-prediction at t = 1 from the prior draw."""
        oracle = GaussianPosteriorOracle([0.5, -0.1], 0.8)
        config = SamplerConfig(steps=1, seed=3)
        result = ancestral_sample(oracle, schedule, config, n_chains=8, d=2)
        z1 = np.random.default_rng(3).standard_normal((8, 2))
        np.testing.assert_array_equal(result.latent_final, z1)
        np.testing.assert_allclose(result.x_out,
                                   oracle.predict_x(z1, schedule.at(1.0).lam), rtol=1e-15)

    @pytest.mark.parametrize("T", [1, 2, 9])
    def test_layers_and_readout_read_the_grid(self, T):
        """Each layer's model call and the final readout take their λ from
        schedule.grid(T), so moving the grid's points moves every call's λ."""
        schedule, model = _ShiftedGrid(), _LamRecorder()
        ancestral_sample(model, schedule, SamplerConfig(steps=T, seed=0), n_chains=2, d=2)
        points = schedule.grid(T)
        assert model.lams == [points[i].lam for i in range(T, 0, -1)]
        assert model.lams[-1] == schedule.at(1 / T).lam + 0.25  # the readout point

    def test_oracle_moments_quick(self, schedule):
        reports = sampler_moment_oracle([0.3, -0.2], 1.0, schedule, T=128,
                                        n_chains=20_000, seed=0)
        for r in reports:
            assert r.passed, f"{r.name}: {r.measured} vs {r.expected} ± {r.tolerance}"

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_latent_aborts_with_step_index(self, schedule):
        with pytest.raises(NumericsError, match="step"):
            ancestral_sample(_ExplodingModel(), schedule, SamplerConfig(steps=8, seed=0),
                             n_chains=2, d=2)

    def test_trajectory_rows(self, schedule):
        oracle = GaussianPosteriorOracle([0.0, 0.0], 1.0)
        result = ancestral_sample(oracle, schedule, SamplerConfig(steps=32, seed=0),
                                  n_chains=4, d=2, trajectory_every=8)
        assert len(result.trajectory) > 0
        for t, norm in result.trajectory:
            assert 0.0 <= t <= 1.0 and norm >= 0.0

    def test_oracle_chain_matches_marginals_at_checkpoints(self, schedule):
        """Mid-chain latents follow the data-marginal N(α_t m, (α_t²c + σ_t²)I)
        after steps 1, 17, ..., 113, within 4 standard errors."""
        mean, c = np.array([0.3, -0.2]), 1.0
        n = 20_000
        snapshots = []

        class RecordingOracle(GaussianPosteriorOracle):
            """Records the moments of the latents it is asked to denoise."""

            def predict_x(self, z, lam, out=None):
                # a call's input has taken one step per earlier call
                if self.calls % 16 == 1:
                    snapshots.append((lam, z.mean(axis=0), z.var(axis=0)))
                return super().predict_x(z, lam, out)

        oracle = RecordingOracle(mean, c)
        config = SamplerConfig(steps=128, gap_table=oracle.gap_table, seed=2)
        ancestral_sample(oracle, schedule, config, n_chains=n, d=2)
        assert len(snapshots) == 8
        for lam, z_mean, z_var in snapshots:
            p = point_from_lam(lam)
            marg_var = p.alpha_sq * c + p.sigma_sq
            se_mean = math.sqrt(marg_var / n)
            se_var = marg_var * math.sqrt(2.0 / n)
            np.testing.assert_allclose(z_mean, p.alpha * mean, atol=4 * se_mean)
            np.testing.assert_allclose(z_var, marg_var, atol=4 * se_var)

    def test_counterterm_changes_samples(self, schedule):
        oracle = GaussianPosteriorOracle([0.4, 0.1], 0.5)
        base = SamplerConfig(steps=16, seed=5, counterterm=False)
        ct = SamplerConfig(steps=16, seed=5, counterterm=True)
        r_base = ancestral_sample(oracle, schedule, base, n_chains=4, d=2)
        r_ct = ancestral_sample(oracle, schedule, ct, n_chains=4, d=2)
        assert not np.allclose(r_base.x_out, r_ct.x_out)


class TestDecode:
    def test_mode_decode_is_nearest_level(self, schedule):
        """The sampler's argmax decode, unscale_pixels, is the nearest level and
        the mode of the categorical that decode_pixels samples."""
        levels = scale_pixels(np.arange(256))
        # values chosen off the midpoints between adjacent levels (ties are
        # implementation-defined)
        x = np.array([[-1.0, -0.999, 0.01, 0.32, 1.0]])
        pixels = unscale_pixels(x)
        expected = np.abs(x[..., None] - levels).argmin(axis=-1)
        np.testing.assert_array_equal(pixels, expected.astype(np.uint8))
        p0 = schedule.at(0.0)
        log_probs = pixel_categorical_log_probs(p0.alpha * x[0], p0.alpha, p0.sigma_sq)
        np.testing.assert_array_equal(pixels[0], log_probs.argmax(axis=1))

    def test_stochastic_decode_concentrates(self, schedule, rng):
        pixels = decode_pixels(np.array([[0.5]]), rng, schedule.at(0.0))
        assert abs(int(pixels[0, 0]) - 191) <= 1

    def test_stochastic_decode_follows_the_categorical_at_alpha0(self):
        """At λ_max = 1, where α₀² ≈ 0.73, the levels drawn for x_out follow
        p(v) ∝ N(α₀ x_out; α₀·scale(v), σ₀²): the mean and variance of their
        scaled values are within 4 standard errors of the categorical's.
        Decoding at α₀ = 1 puts the variance 9 standard errors off at each x_out."""
        p0 = LogLinearSchedule(lambda_max=1.0).at(0.0)
        levels = scale_pixels(np.arange(256))
        x = np.array([-0.6, 0.1, 0.7])
        n = 4000
        drawn = levels[decode_pixels(np.tile(x, (n, 1)), np.random.default_rng(8), p0)]
        for j, xj in enumerate(x):
            logits = -(p0.alpha * xj - p0.alpha * levels) ** 2 / (2.0 * p0.sigma_sq)
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            mean = probs @ levels
            var = probs @ (levels - mean) ** 2
            fourth = probs @ (levels - mean) ** 4
            assert abs(drawn[:, j].mean() - mean) < 4.0 * np.sqrt(var / n)
            assert abs(drawn[:, j].var() - var) < 4.0 * np.sqrt((fourth - var * var) / n)


class TestSde:
    def test_g_squared_matches_transition_variance(self, schedule):
        """g(t)²·dt equals σ²_{t|s} to first order as dt -> 0."""
        from encdiff.process import transition_coefficients

        t = 0.5
        for dt, tol in ((1e-2, 0.1), (1e-3, 0.01), (1e-4, 1e-3)):
            sp, tp = schedule.at(t - dt), schedule.at(t)
            c = transition_coefficients(sp, tp)
            _, g_sq = sde_coefficients(tp)
            assert g_sq * dt / c.sigma2_ts == pytest.approx(1.0, abs=tol)

    def test_zero_score_pure_scaling(self, schedule):
        """With ε̂ = 0 and no noise the update is the d log α/dt drift alone."""
        model = _ZeroScoreModel()
        z = np.array([1.0, -2.0])
        t, dt = 0.5, -1e-3
        z_new, t_new = sde_step(z, t, dt, model, schedule, _ZeroRng())
        dlog_alpha_dt, _ = sde_coefficients(schedule.at(t))
        np.testing.assert_allclose(z_new, z + dlog_alpha_dt * z * dt, rtol=1e-12)
        assert t_new == pytest.approx(t + dt)

    def test_non_finite_model_output_aborts(self, schedule):
        with pytest.raises(NumericsError, match="non-finite latent in SDE step at t=0.5"):
            sde_step(np.ones(2), 0.5, -1e-3, _InfModel(), schedule, _ZeroRng())

    def test_reverse_requires_negative_dt(self, schedule):
        model = _ZeroScoreModel()
        with pytest.raises(ValueError):
            sde_step(np.zeros(2), 0.5, 1e-3, model, schedule, _ZeroRng())

    def test_final_step_clamps_to_zero(self, schedule):
        model = _ZeroScoreModel()
        _, t_new = sde_step(np.ones(2), 0.0005, -1e-3, model, schedule, _ZeroRng())
        assert t_new == 0.0

    def test_forward_requires_positive_dt(self, schedule):
        with pytest.raises(ValueError):
            sde_forward_step(np.zeros(2), 0.5, -1e-3, make_encoder("identity"),
                             np.zeros(2), schedule)

    def test_forward_richardson(self, schedule):
        report = sde_richardson_oracle(schedule)
        assert report.passed, report.details

    def test_reverse_chain_tracks_ancestral_moments(self, schedule):
        """Euler–Maruyama from t=1 to 0 with the exact predictor lands near the
        data distribution (coarse check: mean within 5%, variance within 15%)."""
        oracle = GaussianPosteriorOracle([0.5, -0.5], 0.25)
        rng = np.random.default_rng(11)
        n, T = 20_000, 400
        z = rng.standard_normal((n, 2))
        t = 1.0
        dt = -1.0 / T
        for _ in range(T - 1):
            z, t = sde_step(z, t, dt, oracle, schedule, rng)
        x_out = oracle.predict_x(z, schedule.at(t).lam)
        np.testing.assert_allclose(x_out.mean(axis=0), [0.5, -0.5], atol=0.05)
        np.testing.assert_allclose(x_out.var(axis=0), 0.25, rtol=0.15)


def test_one_tensor_per_sampler_step(schedule):
    """The denoiser runs without a record: a sampler step makes no Tensor."""
    model = DenoiserNet(d=2, width=8, seed=0)

    def tensors_made(steps: int) -> int:
        start = Tensor(0.0).node_id
        ancestral_sample(model, schedule, SamplerConfig(steps=steps, seed=0), n_chains=4, d=2)
        return Tensor(0.0).node_id - start - 1

    assert tensors_made(20) == tensors_made(10) == 0


def _recorded_sample(model, schedule, config, n_chains, d, pixel_decode, trajectory_every):
    """The sampler built from recorded denoiser calls and new arrays: each step
    calls model.predict_x and generative_mean and draws fresh noise."""
    rng = np.random.default_rng(config.seed)
    z = rng.standard_normal((n_chains, d))
    trajectory = []
    points = schedule.grid(config.steps)
    for i in range(config.steps, 1, -1):
        sp, tp = points[i - 1], points[i]
        mu_p = generative_mean(z, model.predict_x(z, tp.lam), sp, tp,
                               counterterm=config.counterterm)
        sigma2_p = transition_coefficients(sp, tp).sigma2_q
        if config.gap_table is not None:
            sigma2_p = optimal_sigma_p(sigma2_p, float(config.gap_table(sp, tp)), d)
        z = mu_p + np.sqrt(sigma2_p) * rng.standard_normal((n_chains, d))
        if trajectory_every and i % trajectory_every == 0:
            trajectory.append((sp.t, float(np.linalg.norm(z, axis=1).mean())))
    x_out = model.predict_x(z, points[1].lam)
    pixels = None
    if pixel_decode:
        pixels = (decode_pixels(x_out, rng, points[0]) if config.stochastic_decode
                  else unscale_pixels(x_out))
    return x_out, pixels, z, trajectory


def _random_denoiser(kind: str, d: int = 4, width: int = 16):
    """build_model's denoiser with every weight random, and its encoder."""
    model, encoder, store = build_model(
        RunConfig(encoder=kind, denoiser_width=width, encoder_width=8, seed=2), d)
    rng = np.random.default_rng(9)
    for name, param in store.params.items():
        if name.startswith("denoiser"):
            param.data = 0.3 * rng.standard_normal(param.data.shape)
    return model, encoder


class TestValuePath:
    """The sampler runs DenoiserNet through its predictor: no record, arrays
    allocated once per call, the chain updated in place."""

    @pytest.mark.parametrize("kind", ["identity", "nt", "trainable"])
    @pytest.mark.parametrize("flip_counterterm", [False, True])
    @pytest.mark.parametrize("gap", [False, True])
    @pytest.mark.parametrize("decode", ["none", "mode", "stochastic"])
    def test_bit_identical_to_the_recorded_path(self, schedule, kind, flip_counterterm, gap,
                                                decode):
        model, encoder = _random_denoiser(kind)
        config = SamplerConfig(steps=13, seed=4, stochastic_decode=decode == "stochastic",
                               counterterm=encoder.counterterm != flip_counterterm,
                               gap_table=(lambda s, t: 0.02 * t.t) if gap else None)
        args = (model, schedule, config, 37, 4)
        kwargs = dict(pixel_decode=decode != "none", trajectory_every=3)
        calls = model.calls
        result = ancestral_sample(*args, **kwargs)
        assert model.calls - calls == 13
        x_out, pixels, z, trajectory = _recorded_sample(*args, **kwargs)
        assert np.array_equal(result.x_out, x_out)
        assert np.array_equal(result.latent_final, z)
        assert result.trajectory == trajectory and len(trajectory) == 4
        if decode == "none":
            assert result.pixels is None
        else:
            assert result.pixels.dtype == np.uint8 and np.array_equal(result.pixels, pixels)

    def test_returned_arrays_share_no_memory(self, schedule):
        model, _ = _random_denoiser("identity")
        config = SamplerConfig(steps=5, seed=1)
        first = ancestral_sample(model, schedule, config, 8, 4, pixel_decode=True)
        second = ancestral_sample(model, schedule, config, 8, 4, pixel_decode=True)
        arrays = [first.x_out, first.pixels, first.latent_final,
                  second.x_out, second.pixels, second.latent_final]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        assert np.array_equal(first.x_out, second.x_out)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("layer", ["denoiser.in", "denoiser.h1", "denoiser.out"])
    def test_overflowing_weight_names_the_layer(self, schedule, layer):
        model, _ = _random_denoiser("identity")
        w = model.store.params[f"{layer}.w"]
        w.data = np.full(w.data.shape, 1e308)
        with pytest.raises(NumericsError, match=f"layer '{layer}'"):
            ancestral_sample(model, schedule, SamplerConfig(steps=4, seed=0), 8, 4)

    def test_working_memory_is_flat_in_steps(self, schedule):
        """One call at 1024 chains, d 64, width 256 peaks at 7.1 MiB, below the
        9.2 MiB of a sampler that allocated new arrays every step and the 8.7
        MiB of one that runs only the denoiser on the record.  60 more steps
        add less than an eighth of one (1024, 64) array: the grid's points."""
        model = DenoiserNet(d=64, width=256, seed=0)

        def peak(steps: int) -> int:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                ancestral_sample(model, schedule, SamplerConfig(steps=steps, seed=0), 1024, 64)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        short, long = peak(4), peak(64)
        assert long < 8 * 2**20
        assert long - short < 1024 * 64 * 8 // 8

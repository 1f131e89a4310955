"""Verification-oracle tests: each oracle run must pass on a fresh build, and
the analytic models must satisfy their own closed-form limits."""

import math
import tracemalloc

import numpy as np
import pytest

from encdiff import verify
from encdiff.autodiff import grad
from encdiff.config import RunConfig
from encdiff.encoder import IdentityEncoder, NonTrainableEncoder
from encdiff.objective import batch_vloss_graph, mc_estimate
from encdiff.process import GaussianParams, kl_isotropic
from encdiff.schedule import LogLinearSchedule, logistic
from encdiff.train import build_model
from encdiff.verify import (
    ConstantEpsErrorPredictor,
    GaussianPosteriorOracle,
    SmoothVectorPredictor,
    fd_gradient_suite,
    limit_convergence,
    mc_kl_oracle,
    optimal_penalty_decay,
    optimal_variance_grid_oracle,
    run_all,
    sampler_moment_oracle,
    sde_richardson_oracle,
    weighted_penalty_growth,
)

HALF_ONE_MINUS_LN2 = 0.15342640972002734529


class TestMcKlOracle:
    def test_identical_distributions(self):
        q = GaussianParams(mean=np.array([0.2, -0.1]), var=0.5)
        report = mc_kl_oracle(q, q, n=20_000, seed=0)
        assert report.passed
        assert abs(report.measured) <= report.tolerance

    def test_scalar_ratio_two_closed_form(self):
        q = GaussianParams(mean=np.zeros(1), var=2.0)
        p = GaussianParams(mean=np.zeros(1), var=1.0)
        report = mc_kl_oracle(q, p, n=100_000, seed=1)
        assert report.passed
        assert report.expected == pytest.approx(HALF_ONE_MINUS_LN2, rel=1e-12)

    def test_random_d8(self, rng):
        q = GaussianParams(mean=rng.uniform(-1, 1, size=8), var=1.4)
        p = GaussianParams(mean=rng.uniform(-1, 1, size=8), var=0.6)
        assert mc_kl_oracle(q, p, n=100_000, seed=2).passed

    def test_minimum_sample_size_enforced(self):
        q = GaussianParams(mean=np.zeros(1), var=1.0)
        with pytest.raises(ValueError):
            mc_kl_oracle(q, q, n=100, seed=0)

    @staticmethod
    def _d8_pair():
        rng = np.random.default_rng(0)
        return (GaussianParams(mean=rng.uniform(-1, 1, size=8), var=1.3),
                GaussianParams(mean=rng.uniform(-1, 1, size=8), var=0.7))

    def test_row_blocks_equal_one_block(self):
        """Scored in MC_KL_ROWS-row blocks, the estimate equals scoring all n
        draws as one (n, d) array, bit for bit, in value and stderr."""
        q, p = self._d8_pair()
        n, d = 200_000, 8
        assert n % verify.MC_KL_ROWS != 0  # a short last block is covered
        z = q.mean[None, :] + math.sqrt(q.var) * np.random.default_rng(1).standard_normal((n, d))

        def log_density(params):
            sq = ((z - params.mean[None, :]) ** 2).sum(axis=1)
            return -0.5 * d * math.log(2.0 * math.pi * params.var) - sq / (2.0 * params.var)

        est = mc_estimate(log_density(q) - log_density(p))
        report = mc_kl_oracle(q, p, n=n, seed=1)
        assert report.measured == est.value
        assert report.tolerance == 4.0 * est.std_error
        assert report.expected == kl_isotropic(q, p, d) and report.passed

    def test_working_memory_is_bounded(self):
        """200,000 draws at d = 8 peak below 8 MiB (27.5 MiB as one block)."""
        q, p = self._d8_pair()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mc_kl_oracle(q, p, n=200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestGaussianOracle:
    def test_point_mass_limit(self):
        """cov_scale -> 0: the posterior mean is the data mean regardless of z."""
        oracle = GaussianPosteriorOracle([0.7, -0.3], 1e-12)
        z = np.array([5.0, -5.0])
        np.testing.assert_allclose(oracle.predict_x(z, 2.0), [0.7, -0.3], atol=1e-9)

    def test_noiseless_limit(self):
        """σ -> 0 (large λ): the posterior mean approaches z/α."""
        oracle = GaussianPosteriorOracle([0.0, 0.0], 1.0)
        lam = 25.0
        z = np.array([0.4, -0.2])
        a = math.sqrt(logistic(lam))
        np.testing.assert_allclose(oracle.predict_x(z, lam), z / a, rtol=1e-9)

    def test_v_and_x_predictions_linked(self, rng):
        oracle = GaussianPosteriorOracle([0.3, 0.1], 0.7)
        lam = 1.3
        a = math.sqrt(logistic(lam))
        s = math.sqrt(logistic(-lam))
        z = rng.standard_normal(2)
        x_hat = oracle.predict_x(z, lam)
        v_hat = oracle.predict_v(z, lam)
        np.testing.assert_allclose(a * z - s * v_hat, x_hat, rtol=1e-12)

    def test_readout_covariance_is_c_minus_the_posterior_variance(self):
        """The readout x̂ of chains at the data marginal has covariance
        c·α²c/(α²c + σ²), which sampler_moment_oracle expects."""
        oracle = GaussianPosteriorOracle([0.0, 0.0], 0.7)
        lam = 2.1
        a2, s2 = logistic(lam), logistic(-lam)
        v = 0.7 - oracle.posterior_var(lam)
        assert v == pytest.approx(0.7 * a2 * 0.7 / (a2 * 0.7 + s2), rel=1e-12)
        point = LogLinearSchedule().grid(128)[1]
        assert 1.0 - GaussianPosteriorOracle([0.0], 1.0).posterior_var(point.lam) == (
            pytest.approx(0.999998068, abs=1e-9))

    def test_predictor_writes_predict_x_into_one_buffer(self, rng):
        """The sampler's in-place call: the closed form's bits, one buffer that
        every call overwrites, and each call counted."""
        mean, c = np.array([0.3, -0.2, 0.05]), 0.7
        oracle = GaussianPosteriorOracle(mean, c)
        predict_x = oracle.predictor(64)
        first = None
        for lam in (-4.0, 0.3, 6.5):
            z = rng.standard_normal((64, 3))
            a, s2 = math.sqrt(logistic(lam)), logistic(-lam)
            expected = (a * c * z + s2 * mean) / (a * a * c + s2)
            got = predict_x(z, lam)
            assert got.tobytes() == expected.tobytes()
            assert oracle.predict_x(z, lam).tobytes() == expected.tobytes()
            first = got if first is None else first
            assert got is first
        assert oracle.calls == 6

    def test_gap_table_positive_and_shrinks(self, schedule):
        oracle = GaussianPosteriorOracle([0.0, 0.0], 1.0)
        g_coarse = oracle.gap_table(schedule.at(0.4), schedule.at(0.6))
        g_fine = oracle.gap_table(schedule.at(0.49), schedule.at(0.51))
        assert g_coarse > g_fine > 0.0


class TestConvergenceOracles:
    def test_limit_convergence_passes(self, schedule, rng):
        x = rng.uniform(-1, 1, size=3)
        report = limit_convergence(SmoothVectorPredictor(x), NonTrainableEncoder(), x,
                                   [16, 32, 64, 128, 256, 512], schedule)
        assert report.passed, report.details
        assert -1.3 <= report.measured <= -0.7

    def test_limit_convergence_validates_T_list(self, schedule):
        x = np.zeros(2)
        with pytest.raises(ValueError):
            limit_convergence(SmoothVectorPredictor(x), NonTrainableEncoder(), x,
                              [16, 32], schedule)

    def test_limit_convergence_identity_encoder(self, schedule, rng):
        """The baseline pairing (no counterterm, plain x-prediction residual)
        is also internally consistent in the limit."""
        x = rng.uniform(-1, 1, size=3)
        report = limit_convergence(SmoothVectorPredictor(x), IdentityEncoder(), x,
                                   [16, 32, 64, 128, 256, 512], schedule)
        assert report.passed, report.details

    def test_weighted_growth_slope_one(self, schedule, rng):
        x = rng.uniform(-1, 1, size=3)
        report = weighted_penalty_growth(x, SmoothVectorPredictor(x), NonTrainableEncoder(),
                                         2.0, [16, 32, 64, 128, 256, 512], schedule)
        assert report.passed
        assert report.measured == pytest.approx(1.0, abs=0.05)

    def test_optimal_penalty_decay_slope(self, schedule, rng):
        x = rng.uniform(-1, 1, size=3)
        model = ConstantEpsErrorPredictor(x, rng.uniform(-1, 1, size=3))
        report = optimal_penalty_decay(x, model, IdentityEncoder(),
                                       [64, 128, 256, 512, 1024], schedule)
        assert report.passed, report.details
        assert report.measured == pytest.approx(-1.0, abs=0.3)


class TestDegenerateSchedules:
    """At extreme λ_max an oracle can have nothing to measure.  From about
    λ_max = 70 the forward-step error of sde_richardson is 0 at float
    resolution, and from about 372 the first layers' σ_Q² underflows to 0.
    Below λ_min ≈ −1419.6, ConstantEpsErrorPredictor's e^{−λ/2} overflows, and
    at λ_min = −1e308 so does the trainable encoder's λ embedding.
    Each such oracle is an inconclusive FAIL row, and errors of another kind
    still surface."""

    @pytest.mark.parametrize("lambda_max", [100.0, 400.0])
    def test_sde_richardson_zero_error_is_inconclusive(self, lambda_max):
        """0/0 error ratios are nan, so the row is inconclusive and its cause
        is the oracle's own details."""
        report = sde_richardson_oracle(LogLinearSchedule(lambda_max, -5.0), seed=0)
        assert not report.passed and math.isnan(report.measured)
        assert report.details == ("inconclusive: errs=['0.000e+00', '0.000e+00', '0.000e+00'] "
                                  "ratios=['nan', 'nan']")

    @staticmethod
    def _discrete_oracles(x, schedule):
        model = SmoothVectorPredictor(x)
        return {
            "limit_convergence": lambda: limit_convergence(
                model, NonTrainableEncoder(), x, [16, 32, 64, 128], schedule),
            "weighted_penalty_growth": lambda: weighted_penalty_growth(
                x, model, NonTrainableEncoder(), 2.0, [16, 32, 64, 128], schedule),
            "optimal_penalty_decay": lambda: optimal_penalty_decay(
                x, ConstantEpsErrorPredictor(x, np.ones(3)), IdentityEncoder(),
                [64, 128, 256, 512], schedule),
        }

    @pytest.mark.parametrize("name", ["limit_convergence", "weighted_penalty_growth",
                                      "optimal_penalty_decay"])
    def test_underflowing_sigma2_q_is_inconclusive(self, name, rng):
        x = rng.uniform(-1, 1, size=3)
        report = self._discrete_oracles(x, LogLinearSchedule(400.0, -5.0))[name]()
        assert report.name == name
        assert not report.passed and math.isnan(report.measured)
        T = 64 if name == "optimal_penalty_decay" else 16
        assert report.details == (f"inconclusive: degenerate transition s=0 -> t={1 / T:.6g} "
                                  f"(T={T} layer 1): sigma2_q=0")

    def test_sampler_moment_names_the_layer_its_chain_stopped_at(self):
        schedule = LogLinearSchedule(400.0, -5.0)
        reports = sampler_moment_oracle([0.3, -0.2], 1.0, schedule, T=128, n_chains=100)
        assert [r.name for r in reports] == [
            "sampler_mean_0", "sampler_mean_1", "sampler_cov_00", "sampler_cov_01",
            "sampler_cov_11", "sampler_model_calls"]
        assert not any(r.passed for r in reports)
        # the chain runs from layer 128 down; layer 9 is the first whose σ_Q² is 0
        assert {r.details for r in reports} == {
            "inconclusive: degenerate transition s=0.0625 -> t=0.0703125 (T=128 layer 9): "
            "sigma2_q=0"}

    def test_sampler_covariance_at_alpha_zero_is_inconclusive(self):
        """At λ_min = −1e308 every grid point but t = 0 has α = 0, so the exact
        posterior-mean readout at point 1 is the data mean for every chain:
        the mean and covariance rows are inconclusive FAIL rows that say so."""
        schedule = LogLinearSchedule(13.3, -1e308)
        assert schedule.grid(128)[1].alpha == 0.0
        reports = {r.name: r for r in sampler_moment_oracle([0.3, -0.2], 1.0, schedule,
                                                            T=128, n_chains=2000)}
        cause = ("inconclusive: alpha=0 at the readout point t=0.0078125 (T=128 point 1), "
                 "so every chain reads out the data mean")
        for name in ("sampler_cov_00", "sampler_cov_01", "sampler_cov_11"):
            assert abs(reports[name].measured) < 1e-20
        for name in ("sampler_mean_0", "sampler_mean_1", "sampler_cov_00", "sampler_cov_01",
                     "sampler_cov_11"):
            assert not reports[name].passed and reports[name].details == cause
        assert reports["sampler_model_calls"].passed
        assert reports["sampler_model_calls"].details == "one prediction per layer"

    def test_overflowing_predictor_is_inconclusive(self, rng):
        x = rng.uniform(-1, 1, size=3)
        measurable = self._discrete_oracles(x, LogLinearSchedule(13.3, -1400.0))
        assert math.isfinite(measurable["optimal_penalty_decay"]().measured)
        schedule = LogLinearSchedule(13.3, -1420.0)
        report = self._discrete_oracles(x, schedule)["optimal_penalty_decay"]()
        assert report.name == "optimal_penalty_decay"
        assert not report.passed and math.isnan(report.measured)
        assert report.details == "inconclusive: the loss sum overflowed (math range error)"
        with pytest.raises(AttributeError):
            optimal_penalty_decay(x, object(), IdentityEncoder(), [64, 128, 256, 512], schedule)
        with pytest.raises(TypeError):
            optimal_penalty_decay(x, ConstantEpsErrorPredictor(x, np.ones(3)), IdentityEncoder(),
                                  [None, 128, 256, 512], schedule)

    def test_an_earlier_degenerate_layer_decides_before_an_overflowing_predictor(self):
        """At (400, −1420) optimal_penalty_decay's first layer has σ_Q² = 0 and its
        predictor overflows at the last layer: the earlier layer decides the cause,
        as it would one layer at a time, although the loss predicts every layer's
        x̂ before it does any layer's Gaussian algebra."""
        reports = {r.name: r for r in run_all(LogLinearSchedule(400.0, -1420.0), quick=True)}
        assert reports["optimal_penalty_decay"].details == (
            "inconclusive: degenerate transition s=0 -> t=0.015625 (T=64 layer 1): sigma2_q=0")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_fd_loss_is_inconclusive(self):
        schedule = LogLinearSchedule(13.3, -1e308)
        report = fd_gradient_suite(schedule, "trainable", n_coords=4, seed=0)
        assert report.name == "fd_gradient"
        assert not report.passed and math.isnan(report.measured)
        assert report.details == ("inconclusive: the loss is not finite (non-finite values "
                                  "produced by layer 'encoder.in') encoder=trainable")
        # the nt model's loss stays finite there, so its suite still measures
        assert fd_gradient_suite(schedule, "nt", n_coords=4, seed=1).passed

    @pytest.mark.parametrize("error", [TypeError, AttributeError])
    def test_fd_gradient_other_errors_surface(self, monkeypatch, error):
        def broken(*args):
            raise error("broken loss")

        monkeypatch.setattr(verify, "batch_vloss_graph", broken)
        with pytest.raises(error, match="broken loss"):
            fd_gradient_suite(LogLinearSchedule(13.3, -1e308), "trainable", n_coords=4, seed=0)

    def test_other_errors_surface(self, rng, schedule):
        x = rng.uniform(-1, 1, size=3)

        class Broken(SmoothVectorPredictor):
            def predict_x(self, z, lam):
                raise ValueError("broken model")

        # a ValueError at a schedule whose transitions are all proper
        with pytest.raises(ValueError, match="broken model"):
            weighted_penalty_growth(x, Broken(x), NonTrainableEncoder(), 2.0,
                                    [16, 32, 64, 128], schedule)
        degenerate = LogLinearSchedule(400.0, -5.0)
        with pytest.raises(AttributeError):
            weighted_penalty_growth(x, object(), NonTrainableEncoder(), 2.0,
                                    [16, 32, 64, 128], degenerate)
        with pytest.raises(TypeError):
            optimal_penalty_decay(x, SmoothVectorPredictor(x), IdentityEncoder(),
                                  [None, 128, 256, 512], degenerate)


class TestFdGradientSuite:
    def test_trainable_path(self, schedule):
        report = fd_gradient_suite(n_coords=120, seed=0, schedule=schedule,
                                   encoder_kind="trainable")
        assert report.passed, report.details
        assert report.measured < 1e-4

    def test_nt_probes_only_parameters_in_the_loss(self, schedule):
        """The nt model has no inner net, so no probe lands on an encoder coordinate."""
        report = fd_gradient_suite(n_coords=40, seed=1, schedule=schedule, encoder_kind="nt")
        assert report.passed, report.details
        assert "coords=40 encoder_coords=0 " in report.details

    def test_reverse_mode_is_right_at_lambda_max_400(self):
        """At λ_max = 400 the loss is about 393, so the suite's ±1e-5 central
        difference carries rounding error of about ε·|L|/h, which exceeds its
        1e-4 relative bound on small gradients.  A step of 1e-4 agrees with
        reverse mode within 2e-5 on every coordinate that the quick (60) and
        the full (200) trainable suites probe, the suite's setup rebuilt here."""
        schedule = LogLinearSchedule(400.0, -5.0)
        rng = np.random.default_rng(0)
        model, encoder, store = build_model(
            RunConfig(encoder="trainable", denoiser_width=16, encoder_width=16, seed=0), 2)
        for name, tensor in store.params.items():
            if name.endswith("out.w") or name.endswith("out.b"):
                tensor.data = 0.1 * rng.standard_normal(tensor.data.shape)
        x = rng.uniform(-1.0, 1.0, size=(4, 2))
        ts = rng.uniform(0.05, 0.95, size=4)
        eps = rng.standard_normal((4, 2))
        is_enc = np.concatenate([np.full(store.params[name].data.size, name.startswith("encoder"))
                                 for name in store.params])
        enc_flat, den_flat = np.flatnonzero(is_enc), np.flatnonzero(~is_enc)
        after_setup = rng.bit_generator.state
        probed = set()
        for n_coords in (60, 200):
            # the suite's stratified draw: half on the encoder, the rest on the denoiser
            rng.bit_generator.state = after_setup
            probed.update(enc_flat[rng.choice(enc_flat.size, n_coords // 2, replace=False)])
            probed.update(den_flat[rng.choice(den_flat.size, n_coords - n_coords // 2,
                                              replace=False)])
        # the quick suite's worst coordinate at ±1e-5
        assert store.views(np.arange(store.flat.size))["encoder.h1.w"][11, 12] in probed
        loss = batch_vloss_graph(x, model, encoder, ts, eps, schedule)
        assert float(loss.data) == pytest.approx(393, rel=0.01)
        analytic = grad(loss, store.parameters())
        h = 1e-4
        flat = store.flat
        worst = 0.0
        for i in sorted(probed):
            orig = flat[i]
            flat[i] = orig + h
            up = float(batch_vloss_graph(x, model, encoder, ts, eps, schedule).data)
            flat[i] = orig - h
            down = float(batch_vloss_graph(x, model, encoder, ts, eps, schedule).data)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            worst = max(worst, abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i]), 1e-6))
        assert len(probed) > 200
        assert worst < 2e-5

    def test_identity_unused_encoder_params(self, schedule):
        """With the identity encoder the inner-net parameters never enter the
        loss: reverse mode reports exactly them as unused, and their FD gradient
        is exactly zero."""
        from encdiff.autodiff import grad
        from encdiff.encoder import make_encoder
        from encdiff.errors import UnusedParameterError
        from encdiff.nets import DenoiserNet, EncoderInnerNet, ParamStore
        from encdiff.objective import batch_vloss_graph

        store = ParamStore()
        model = DenoiserNet(d=2, width=8, seed=0, store=store)
        EncoderInnerNet(d=2, width=8, seed=1, store=store)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(2, 2))
        loss = batch_vloss_graph(x, model, make_encoder("identity"),
                                 np.array([0.3, 0.7]), rng.standard_normal((2, 2)), schedule)
        enc_names = [n for n in store.params if n.startswith("encoder")]
        assert enc_names
        with pytest.raises(UnusedParameterError) as info:
            grad(loss, store.parameters())
        assert str(info.value).split(": ", 1)[1].split(", ") == enc_names

        def loss_value():
            return float(batch_vloss_graph(x, model, make_encoder("identity"),
                                           np.array([0.3, 0.7]),
                                           np.random.default_rng(0).standard_normal((2, 2)),
                                           schedule).data)

        tensor = store.params[enc_names[0]]
        flat = tensor.data.reshape(-1)
        if flat.size:
            base = loss_value()
            orig = flat[0]
            flat[0] = orig + 1e-4
            assert loss_value() == base
            flat[0] = orig


class TestGridOracle:
    def test_optimal_variance(self):
        report = optimal_variance_grid_oracle(sigma2_q=0.8, mean_sq_gap=1.2, d=3)
        assert report.passed, report.details


def test_sampler_covariance_at_lambda_min_1420_matches_the_readout():
    """At λ_min = −1420 grid point 1 has λ = 2.10: the readout's covariance
    is 0.891, not c = 1, and the chain reproduces it."""
    reports = {r.name: r for r in sampler_moment_oracle(
        [0.3, -0.2], 1.0, LogLinearSchedule(lambda_min=-1420.0), T=128, n_chains=20_000)}
    assert all(r.passed for r in reports.values()), [r.row() for r in reports.values()]
    for name, measured in (("sampler_cov_00", 0.893), ("sampler_cov_11", 0.900)):
        assert reports[name].measured == pytest.approx(measured, abs=5e-4)
        assert reports[name].expected == pytest.approx(0.891, abs=5e-4)
        assert reports[name].tolerance == pytest.approx(0.036, abs=5e-4)


# λ_min = −1e308 overflows the embedding and the loss sums on purpose
OVERFLOWS = [pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
             pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")]


@pytest.mark.parametrize("lambda_max", [100.0, 400.0, 700.0])
@pytest.mark.parametrize("lambda_min", [pytest.param(-1e308, marks=OVERFLOWS), -1420.0, -700.0])
def test_extreme_endpoints_fail_only_measured_or_inconclusive(lambda_min, lambda_max):
    """Every oracle still reports at extreme endpoints, and a FAIL row either
    measured a finite value or says it is inconclusive."""
    reports = run_all(LogLinearSchedule(lambda_max, lambda_min), quick=True)
    assert [r.name for r in reports] == [
        "mc_kl", "mc_kl", "optimal_variance_grid", "limit_convergence",
        "weighted_penalty_growth", "optimal_penalty_decay", "sampler_mean_0",
        "sampler_mean_1", "sampler_cov_00", "sampler_cov_01", "sampler_cov_11",
        "sampler_model_calls", "sde_richardson", "fd_gradient", "fd_gradient"]
    unexplained = [r.row() for r in reports if not r.passed and not math.isfinite(r.measured)
                   and not r.details.startswith("inconclusive:")]
    assert not unexplained


def test_run_all_quick_passes(schedule):
    reports = run_all(schedule=schedule, seed=0, quick=True)
    failed = [r.name for r in reports if not r.passed]
    assert not failed, f"oracle failures: {failed}"
    assert len(reports) >= 12

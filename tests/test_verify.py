"""Verification-oracle tests: each oracle run must pass on a fresh build, and
the analytic models must satisfy their own closed-form limits."""

import math

import numpy as np
import pytest

from encdiff.encoder import IdentityEncoder, NonTrainableEncoder
from encdiff.process import GaussianParams
from encdiff.schedule import logistic
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
        model = ConstantEpsErrorPredictor(x, rng.uniform(-1, 1, size=3), eps0=0.1)
        report = optimal_penalty_decay(x, model, IdentityEncoder(),
                                       [64, 128, 256, 512, 1024], schedule)
        assert report.passed, report.details
        assert report.measured == pytest.approx(-1.0, abs=0.3)


class TestFdGradientSuite:
    def test_trainable_path(self, schedule):
        report = fd_gradient_suite(n_coords=120, seed=0, schedule=schedule,
                                   encoder_kind="trainable")
        assert report.passed, report.details
        assert report.measured < 1e-4

    def test_identity_unused_encoder_params(self, schedule):
        """With the identity encoder the inner-net parameters never enter the
        loss: both the reverse-mode and FD gradients must be exactly zero."""
        from encdiff.autodiff import grad
        from encdiff.encoder import make_encoder
        from encdiff.nets import DenoiserNet, EncoderInnerNet, ParamStore
        from encdiff.objective import batch_vloss_graph

        store = ParamStore()
        model = DenoiserNet(d=2, width=8, seed=0, store=store)
        EncoderInnerNet(d=2, width=8, seed=1, store=store)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(2, 2))
        loss = batch_vloss_graph(x, model, make_encoder("identity"),
                                 np.array([0.3, 0.7]), rng.standard_normal((2, 2)), schedule)
        grads = dict(zip(store.names(), grad(loss, store.tensors(), allow_unused=True)))
        enc_names = [n for n in store.names() if n.startswith("encoder")]
        assert enc_names
        for name in enc_names:
            np.testing.assert_array_equal(grads[name], np.zeros_like(grads[name]))

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


def test_run_all_quick_passes(schedule):
    reports = run_all(schedule=schedule, seed=0, quick=True)
    failed = [r.name for r in reports if not r.passed]
    assert not failed, f"oracle failures: {failed}"
    assert len(reports) >= 12

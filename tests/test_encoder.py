"""Encoder tests: the three parameterizations, λ-derivatives, and heatmaps."""

import numpy as np
import pytest

from encdiff.autodiff import Tensor, grad
from encdiff.encoder import (
    FD_REL_STEP,
    NonTrainableEncoder,
    TrainableEncoder,
    change_heatmap,
    make_encoder,
)
from encdiff.errors import ConfigError
from encdiff.nets import EncoderInnerNet
from encdiff.schedule import LogLinearSchedule, point_from_lam


def _trainable(d=3, width=8, seed=0) -> TrainableEncoder:
    return make_encoder("trainable", inner_net=EncoderInnerNet(d=d, width=width, seed=seed))


def _randomized_trainable(rng, d=3, width=8, seed=0) -> TrainableEncoder:
    enc = _trainable(d=d, width=width, seed=seed)
    for name, t in enc.inner.store.params.items():
        t.data = 0.08 * rng.standard_normal(t.data.shape)
    return enc


class TestEncode:
    def test_identity_passthrough(self, schedule, rng):
        enc = make_encoder("identity")
        x = rng.uniform(-1, 1, size=4)
        np.testing.assert_array_equal(enc.encode(x, schedule.at(0.5)), x)

    def test_nt_at_lambda_zero_halves(self, rng):
        enc = NonTrainableEncoder()
        x = rng.uniform(-1, 1, size=4)
        p = point_from_lam(0.0)
        np.testing.assert_allclose(enc.encode(x, p), 0.5 * x, rtol=1e-15)

    def test_nt_high_snr_limit(self, rng):
        enc = NonTrainableEncoder()
        x = rng.uniform(-1, 1, size=4)
        p = point_from_lam(30.0)
        np.testing.assert_allclose(enc.encode(x, p), x, rtol=1e-12)

    def test_trainable_at_init_equals_nt_bitwise(self, schedule, rng):
        tr = _trainable()
        nt = NonTrainableEncoder()
        x = rng.uniform(-1, 1, size=3)
        for t in (0.0, 0.25, 0.9, 1.0):
            p = schedule.at(t)
            assert np.array_equal(tr.encode(x, p), nt.encode(x, p))

    def test_near_identity_at_t0(self, schedule, rng):
        """Default endpoints keep the encoded data within 2e-6 of x at t=0."""
        x = rng.uniform(-1, 1, size=16)
        p0 = schedule.at(0.0)
        for enc in (NonTrainableEncoder(), _trainable(d=16)):
            gap = np.max(np.abs(enc.encode(x, p0) - x))
            assert gap < 2e-6 * np.max(np.abs(x))

    def test_nt_small_at_t1(self, schedule, rng):
        x = rng.uniform(-1, 1, size=16)
        p1 = schedule.at(1.0)
        out = NonTrainableEncoder().encode(x, p1)
        assert np.max(np.abs(out)) < 0.01 * np.max(np.abs(x))

    def test_trainable_requires_inner_net(self):
        with pytest.raises(ConfigError):
            make_encoder("trainable")
        with pytest.raises(ConfigError):
            make_encoder("bogus")

    def test_graph_mode_matches_eval_mode(self, schedule, rng):
        enc = _randomized_trainable(rng)
        x = rng.uniform(-1, 1, size=3)
        p = schedule.at(0.4)
        np.testing.assert_array_equal(enc.encode_t(x, p).data[0], enc.encode(x, p))


class TestEncodeDLambda:
    def test_identity_zero(self, schedule, rng):
        enc = make_encoder("identity")
        x = rng.uniform(-1, 1, size=3)
        np.testing.assert_array_equal(enc.encode_dlambda(x, schedule.at(0.3)), np.zeros(3))

    def test_nt_at_lambda_zero(self, rng):
        enc = NonTrainableEncoder()
        x = rng.uniform(-1, 1, size=3)
        p = point_from_lam(0.0)
        np.testing.assert_allclose(enc.encode_dlambda(x, p), 0.25 * x, rtol=1e-15)

    def test_trainable_init_equals_nt_derivative(self, schedule, rng):
        tr = _trainable()
        nt = NonTrainableEncoder()
        x = rng.uniform(-1, 1, size=3)
        p = schedule.at(0.6)
        np.testing.assert_array_equal(tr.encode_dlambda(x, p), nt.encode_dlambda(x, p))

    def test_nt_matches_finite_differences(self, schedule, rng):
        """Analytic derivative vs central differences in λ, h = 1e-4·span."""
        enc = NonTrainableEncoder()
        x = rng.uniform(-1, 1, size=5)
        h = 1e-4 * (schedule.lambda_max - schedule.lambda_min)
        for t in (0.1, 0.5, 0.9):
            p = schedule.at(t)
            up = enc.encode(x, point_from_lam(p.lam + h))
            down = enc.encode(x, point_from_lam(p.lam - h))
            fd = (up - down) / (2 * h)
            analytic = enc.encode_dlambda(x, p)
            rel = np.abs(fd - analytic) / np.maximum(np.abs(fd), 1e-12)
            assert rel.max() < 1e-5

    def test_trainable_matches_finite_differences(self, schedule, rng):
        enc = _randomized_trainable(rng)
        x = rng.uniform(-1, 1, size=3)
        h = 1e-4 * (schedule.lambda_max - schedule.lambda_min)
        for t in (0.2, 0.5, 0.8):
            p = schedule.at(t)
            up = enc.encode(x, point_from_lam(p.lam + h, lam_prime=p.lam_prime))
            down = enc.encode(x, point_from_lam(p.lam - h, lam_prime=p.lam_prime))
            fd = (up - down) / (2 * h)
            est = enc.encode_dlambda(x, p)
            rel = np.linalg.norm(fd - est) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-3


class TestStackedInnerPass:
    """The trainable encoder runs y at λ, λ + h and λ − h as one inner-net pass
    over stacked rows; it must match three separate passes."""

    @staticmethod
    def _separate_terms(enc, x2, lam, alpha_sq, sigma_sq, lam_prime):
        h = FD_REL_STEP * abs(lam_prime)
        y = enc.inner.forward(x2, lam)
        dy = (enc.inner.forward(x2, lam + h) - enc.inner.forward(x2, lam - h)) * (0.5 / h)
        x_enc = alpha_sq * Tensor(x2) + sigma_sq * y
        return y, dy, x_enc, (lambda x_hat: x_hat - x_enc + y - dy)

    @staticmethod
    def _loss(x_enc, extra, x_hat):
        return (extra(x_hat).square().sum() + (x_enc * x_hat).sum()) * 0.5

    def test_matches_separate_passes(self, schedule, rng):
        enc = _randomized_trainable(rng, d=4, width=16)
        params = enc.inner.store.tensors()
        x2 = rng.uniform(-1, 1, size=(7, 4))
        lam, _, _, alpha_sq, sigma_sq = schedule.columns(rng.uniform(0.0, 1.0, size=7))
        x_hat = Tensor(rng.standard_normal((7, 4)))

        y, dy, x_enc, extra = self._separate_terms(enc, x2, lam, alpha_sq, sigma_sq,
                                                   schedule.lam_prime)
        loss = self._loss(x_enc, extra, x_hat)
        expected_grads = grad(loss, params)

        x_enc_s, extra_s = enc.loss_terms(x2, lam, alpha_sq, sigma_sq, schedule.lam_prime)
        # extra(x̂) − x̂ + x_enc = y − dy/dλ; x_enc gives y back through its σ² factor
        np.testing.assert_allclose(x_enc_s.data, x_enc.data, rtol=1e-12, atol=0)
        np.testing.assert_allclose((extra_s(x_hat) - x_hat + x_enc_s).data, (y - dy).data,
                                   rtol=1e-12, atol=1e-15)
        loss_s = self._loss(x_enc_s, extra_s, x_hat)
        np.testing.assert_allclose(float(loss_s.data), float(loss.data), rtol=1e-12)
        for param, g, g_s in zip(params, expected_grads, grad(loss_s, params)):
            assert np.any(g != 0.0), param.name
            np.testing.assert_allclose(g_s, g, rtol=1e-12, atol=1e-12 * np.max(np.abs(g)),
                                       err_msg=param.name)

    def test_y_and_dy_views_match_separate_passes(self, schedule, rng):
        enc = _randomized_trainable(rng, d=4, width=16)
        x2 = rng.uniform(-1, 1, size=(5, 4))
        p = schedule.at(0.37)
        y, dy, _, _ = self._separate_terms(enc, x2, p.lam, 0.0, 0.0, p.lam_prime)
        np.testing.assert_allclose(enc.y_t(x2, p).data, y.data, rtol=1e-12, atol=0)
        np.testing.assert_allclose(enc.dy_dlambda_t(x2, p).data, dy.data, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(dy.data)))


class TestChangeHeatmap:
    def test_identity_is_zero(self, schedule, rng):
        enc = make_encoder("identity")
        x = rng.uniform(-1, 1, size=6)
        np.testing.assert_array_equal(change_heatmap(enc, x, schedule, 0.4, 0.6), np.zeros(6))

    def test_nt_window_from_schedule_values(self, schedule, rng):
        x = rng.uniform(-1, 1, size=6)
        rate = change_heatmap(NonTrainableEncoder(), x, schedule, 0.9, 1.0)
        a2_1 = schedule.at(1.0).alpha_sq
        a2_09 = schedule.at(0.9).alpha_sq
        np.testing.assert_allclose(rate, (a2_1 - a2_09) * x / 0.1, rtol=1e-10)

    def test_shrinking_window_approaches_time_derivative(self, schedule, rng):
        """(x_t − x_s)/(t−s) -> λ'·α²σ²·x as s -> t for the damping encoder."""
        x = rng.uniform(-1, 1, size=4)
        t = 0.5
        p = schedule.at(t)
        expected = p.lam_prime * p.alpha_sq * p.sigma_sq * x
        rate = change_heatmap(NonTrainableEncoder(), x, schedule, t - 1e-6, t)
        np.testing.assert_allclose(rate, expected, rtol=1e-4)

    def test_ordering_enforced(self, schedule):
        with pytest.raises(ValueError):
            change_heatmap(make_encoder("identity"), np.zeros(2), schedule, 0.6, 0.4)


def test_invocation_counter(schedule, rng):
    enc = NonTrainableEncoder()
    x = rng.uniform(-1, 1, size=2)
    assert enc.calls == 0
    enc.encode(x, schedule.at(0.1))
    enc.encode_dlambda(x, schedule.at(0.1))
    assert enc.calls == 2

"""Encoder tests: the three parameterizations, λ-derivatives, and heatmaps."""

import numpy as np
import pytest

import composed
from composed import Ref, grad as ref_grad, mlp_forward
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
    over stacked rows; its terms, and their backward, must match three separate
    passes built from the composed reference's ops."""

    @staticmethod
    def _separate_terms(enc, x2, lam, alpha_sq, sigma_sq, lam_prime):
        h = FD_REL_STEP * abs(lam_prime)
        y = mlp_forward(enc.inner.net, Ref(x2), lam)
        dy = (mlp_forward(enc.inner.net, Ref(x2), lam + h)
              - mlp_forward(enc.inner.net, Ref(x2), lam - h)) * (0.5 / h)
        x_enc = alpha_sq * Ref(x2) + sigma_sq * y
        return y, dy, x_enc, (lambda x_hat: x_hat - x_enc + y - dy)

    @staticmethod
    def _loss(x_enc, extra, x_hat):
        return (extra(x_hat).square().sum() + (x_enc * x_hat).sum()) * 0.5

    @staticmethod
    def _terms_loss(terms, x_hat):
        """_loss of the encoder's terms as one Tensor over its parameters: the
        extra is x̂ − x_enc plus the encoder's own terms, and terms.backward
        maps the gradients on x_enc and on the extra to the parameters'."""
        x_enc = terms.x_enc
        e = terms.extra(x_hat)
        value = ((e * e).sum() + (x_enc * x_hat).sum()) * 0.5
        return Tensor(value, "terms", lambda g: list(
            zip(terms.params, terms.backward((g * 0.5) * x_hat - g * e, g * e))))

    def test_matches_separate_passes(self, schedule, rng):
        enc = _randomized_trainable(rng, d=4, width=16)
        params = enc.inner.store.parameters()
        x2 = rng.uniform(-1, 1, size=(7, 4))
        p = schedule.columns(rng.uniform(0.0, 1.0, size=7))
        x_hat = rng.standard_normal((7, 4))

        y, dy, x_enc, extra = self._separate_terms(enc, x2, p.lam[:, 0], p.alpha_sq, p.sigma_sq,
                                                   p.lam_prime)
        loss = self._loss(x_enc, extra, Ref(x_hat))
        expected_grads = enc.inner.store.views(ref_grad(loss, params)).values()

        terms = enc.loss_terms(x2, p)
        # extra(x̂) − x̂ + x_enc = y − dy/dλ; x_enc gives y back through its σ² factor
        np.testing.assert_allclose(terms.x_enc, x_enc.data, rtol=1e-12, atol=0)
        np.testing.assert_allclose(terms.extra(x_hat) - x_hat + terms.x_enc, (y - dy).data,
                                   rtol=1e-12, atol=1e-15)
        loss_s = self._terms_loss(terms, x_hat)
        np.testing.assert_allclose(float(loss_s.data), float(loss.data), rtol=1e-12)
        for param, g, g_s in zip(params, expected_grads,
                                 enc.inner.store.views(grad(loss_s, params)).values()):
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


class TestGraphViews:
    """encode_t maps its gradient to the inner net's parameters; its value and
    gradient equal those of the composed graph.  The numpy views are the data
    of the Tensor ones, and y_t and the dλ views are constants over their numpy
    values."""

    # the graph view with a gradient rule besides loss_terms (TestStackedInnerPass)
    @pytest.mark.parametrize("view", ["encode_t"])
    def test_matches_composed_graph(self, view, schedule, rng):
        enc = _randomized_trainable(rng, d=3, width=8)
        params = enc.inner.store.parameters()
        x2 = rng.uniform(-1, 1, size=(5, 3))
        p = schedule.at(0.45)
        weights = rng.standard_normal((5, 3))
        fused = getattr(enc, view)(x2, p)
        reference = composed.encode_t(enc, x2, p)
        assert [q for q, _ in fused.param_grads(weights)] == list(enc.inner.net.params)
        assert fused.data.tobytes() == reference.data.tobytes()
        g_fused = grad(Tensor((fused.data * weights).sum(), "weighted",
                              lambda g: fused.param_grads(g * weights)), params)
        g_composed = ref_grad((reference * weights).sum(), params)
        assert np.any(g_fused != 0.0)
        np.testing.assert_array_equal(g_fused, g_composed)

    @pytest.mark.parametrize("shape", [(3,), (5, 3)])
    @pytest.mark.parametrize("view", ["encode", "y"])
    def test_numpy_view_is_the_graph_views_data(self, view, shape, schedule, rng):
        enc = _randomized_trainable(rng, d=3, width=8)
        x = rng.uniform(-1, 1, size=shape)
        p = schedule.at(0.45)
        value = getattr(enc, view)(x, p)
        node = getattr(enc, view + "_t")(x, p)
        assert value.shape == shape
        assert value.tobytes() == node.data.reshape(shape).tobytes()

    @pytest.mark.parametrize("view", ["y_t", "dy_dlambda_t", "encode_dlambda_t"])
    def test_dlambda_views_are_constants(self, view, schedule, rng):
        enc = _randomized_trainable(rng, d=3, width=8)
        x2 = rng.uniform(-1, 1, size=(5, 3))
        p = schedule.at(0.45)
        node = getattr(enc, view)(x2, p)
        assert node.param_grads is None
        assert node.data.tobytes() == getattr(enc, view[:-2])(x2, p).tobytes()

    def test_encode_dlambda_is_one_inner_pass(self, schedule, rng, monkeypatch):
        enc = _randomized_trainable(rng, d=3, width=8)
        passes = []
        forward = EncoderInnerNet.forward
        monkeypatch.setattr(EncoderInnerNet, "forward",
                            lambda net, x, lam, *buffers: passes.append(len(x))
                            or forward(net, x, lam, *buffers))
        enc.encode_dlambda(rng.uniform(-1, 1, size=(5, 3)), schedule.at(0.45))
        # one pass over the λ, λ + h and λ − h blocks
        assert passes == [15]

    def test_dy_dlambda_is_the_stacked_pass(self, schedule, rng, monkeypatch):
        enc = _randomized_trainable(rng, d=3, width=8)
        x2 = rng.uniform(-1, 1, size=(5, 3))
        p = schedule.at(0.45)
        passes = []
        forward = EncoderInnerNet.forward
        monkeypatch.setattr(EncoderInnerNet, "forward",
                            lambda net, x, lam, *buffers: passes.append(len(x))
                            or forward(net, x, lam, *buffers))
        dy = enc.dy_dlambda(x2, p)
        # the same pass over the λ, λ + h and λ − h blocks as loss_terms makes
        assert passes == [15]
        dy_terms = enc._fd_pass(x2, p, None)[3]
        assert dy.tobytes() == dy_terms.tobytes()


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

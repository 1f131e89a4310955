"""Gaussian transition algebra: marginal consistency, reverse-posterior
moments, the generative counterterm, and the isotropic KL."""

import math

import numpy as np
import pytest

from encdiff.encoder import IdentityEncoder, NonTrainableEncoder
from encdiff.process import (
    GaussianParams,
    forward_transition,
    generative_mean,
    kl_isotropic,
    marginal,
    optimal_sigma_p,
    reverse_posterior,
    squared_gap,
    transition_coefficients,
    weighting_penalty,
)
from encdiff.schedule import LogLinearSchedule, point_from_lam

HALF_ONE_MINUS_LN2 = 0.15342640972002734529  # (1/2)(1 - ln 2), frozen
LOGISTIC_5 = 0.99330714907571514444


class TestMarginal:
    def test_zero_noise_draw(self, schedule, rng):
        x_enc = rng.uniform(-1, 1, size=5)
        p = schedule.at(0.3)
        g = marginal(x_enc, p)
        np.testing.assert_allclose(g.mean, p.alpha * x_enc, rtol=0, atol=0)

    def test_lambda_zero_point(self, rng):
        x_enc = rng.uniform(-1, 1, size=4)
        p = point_from_lam(0.0)
        g = marginal(x_enc, p)
        np.testing.assert_allclose(g.mean, math.sqrt(0.5) * x_enc, rtol=1e-15)
        assert g.var == pytest.approx(0.5, abs=1e-15)

    def test_variance_at_t1_default(self, schedule):
        g = marginal(np.zeros(3), schedule.at(1.0))
        assert g.var == pytest.approx(LOGISTIC_5, rel=1e-12)


class TestForwardTransition:
    def test_no_shift_when_encoder_static(self, schedule, rng):
        z_s = rng.standard_normal(4)
        x = rng.uniform(-1, 1, size=4)
        sp, tp = schedule.at(0.2), schedule.at(0.7)
        g = forward_transition(z_s, x, x, sp, tp)
        c = transition_coefficients(sp, tp)
        np.testing.assert_allclose(g.mean, c.alpha_ts * z_s, rtol=1e-15)

    def test_pure_shift(self, schedule, rng):
        u = rng.uniform(-1, 1, size=4)
        sp, tp = schedule.at(0.2), schedule.at(0.7)
        g = forward_transition(np.zeros(4), u, np.zeros(4), sp, tp)
        np.testing.assert_allclose(g.mean, tp.alpha * u, rtol=1e-15)

    def test_ordering_enforced(self, schedule):
        z = np.zeros(2)
        with pytest.raises(ValueError):
            forward_transition(z, z, z, schedule.at(0.7), schedule.at(0.2))

    def test_marginal_composition_consistency(self, schedule, rng):
        """Composing marginal(s) with the forward transition reproduces
        marginal(t), for arbitrary encoder outputs: mean and variance agree
        algebraically to 1e-10."""
        for _ in range(300):
            s, t = np.sort(rng.uniform(0.0, 1.0, size=2))
            if not s < t:
                continue
            sp, tp = schedule.at(float(s)), schedule.at(float(t))
            x_s = rng.uniform(-2, 2, size=3)
            x_t = rng.uniform(-2, 2, size=3)
            c = transition_coefficients(sp, tp)
            mean_composed = c.alpha_ts * (sp.alpha * x_s) + tp.alpha * (x_t - x_s)
            var_composed = c.alpha_ts**2 * sp.sigma_sq + c.sigma2_ts
            target = marginal(x_t, tp)
            np.testing.assert_allclose(mean_composed, target.mean, atol=1e-10)
            assert abs(var_composed - target.var) < 1e-10


class TestReversePosterior:
    def test_reduces_to_static_form(self, schedule, rng):
        z_t = rng.standard_normal(4)
        x = rng.uniform(-1, 1, size=4)
        sp, tp = schedule.at(0.3), schedule.at(0.8)
        c = transition_coefficients(sp, tp)
        g = reverse_posterior(z_t, x, x, sp, tp)
        expected = (c.alpha_ts * sp.sigma_sq / tp.sigma_sq) * z_t + (
            sp.alpha * c.sigma2_ts / tp.sigma_sq
        ) * x
        np.testing.assert_allclose(g.mean, expected, rtol=1e-14)
        assert g.var == pytest.approx(c.sigma2_q, rel=1e-15)

    def test_variance_vanishes_as_s_approaches_t(self, schedule):
        t = 0.6
        vars_ = [reverse_posterior(np.zeros(1), np.zeros(1), np.zeros(1),
                                   schedule.at(t - dt), schedule.at(t)).var
                 for dt in (1e-2, 1e-4, 1e-6)]
        assert vars_[0] > vars_[1] > vars_[2]
        assert vars_[2] < 1e-5

    def test_moment_identity_algebraic(self, schedule, rng):
        """Coefficient cancellation: E[z_s] = α_s x_s and Var[z_s] = σ_s²
        when z_t follows its marginal and z_s the reverse posterior."""
        for _ in range(300):
            s, t = np.sort(rng.uniform(0.0, 1.0, size=2))
            if not s < t:
                continue
            sp, tp = schedule.at(float(s)), schedule.at(float(t))
            x_s = rng.uniform(-2, 2, size=2)
            x_t = rng.uniform(-2, 2, size=2)
            c = transition_coefficients(sp, tp)
            coeff_z = c.alpha_ts * sp.sigma_sq / tp.sigma_sq
            # mean: plug the marginal mean alpha_t x_t into mu_Q
            mean = reverse_posterior(tp.alpha * x_t, x_t, x_s, sp, tp).mean
            np.testing.assert_allclose(mean, sp.alpha * x_s, atol=1e-10)
            # variance: marginal variance through the z_t coefficient plus sigma_Q^2
            var = coeff_z**2 * tp.sigma_sq + c.sigma2_q
            assert abs(var - sp.sigma_sq) < 1e-10

    def test_moment_identity_monte_carlo(self, schedule, rng):
        n = 200_000
        s, t = 0.3, 0.7
        sp, tp = schedule.at(s), schedule.at(t)
        x_s = np.array([0.4, -0.7, 0.1])
        x_t = np.array([0.2, -0.5, 0.3])
        z_t = tp.alpha * x_t + tp.sigma * rng.standard_normal((n, 3))
        post = reverse_posterior(z_t, x_t, x_s, sp, tp)
        z_s = post.mean + math.sqrt(post.var) * rng.standard_normal((n, 3))
        se_mean = math.sqrt(sp.sigma_sq / n)
        np.testing.assert_allclose(z_s.mean(axis=0), sp.alpha * x_s, atol=4 * se_mean)
        se_var = sp.sigma_sq * math.sqrt(2.0 / n)
        np.testing.assert_allclose(z_s.var(axis=0), sp.sigma_sq, atol=4 * se_var)


class TestGenerativeMean:
    def test_perfect_prediction_matches_posterior(self, schedule, rng):
        """With x̂ = x_t and a static encoder, μ_P (no counterterm) equals μ_Q."""
        z_t = rng.standard_normal(4)
        x = rng.uniform(-1, 1, size=4)
        sp, tp = schedule.at(0.25), schedule.at(0.75)
        mu_p = generative_mean(z_t, x, sp, tp, counterterm=False)
        mu_q = reverse_posterior(z_t, x, x, sp, tp).mean
        np.testing.assert_allclose(mu_p, mu_q, rtol=1e-14)

    def test_counterterm_difference(self, schedule, rng):
        """Counterterm on minus off equals α_s (λ_s − λ_t) σ_t² x̂ elementwise."""
        for _ in range(50):
            s, t = np.sort(rng.uniform(0.0, 1.0, size=2))
            if not s < t:
                continue
            sp, tp = schedule.at(float(s)), schedule.at(float(t))
            z_t = rng.standard_normal(3)
            x_hat = rng.uniform(-1, 1, size=3)
            on = generative_mean(z_t, x_hat, sp, tp, counterterm=True)
            off = generative_mean(z_t, x_hat, sp, tp, counterterm=False)
            expected = sp.alpha * (sp.lam - tp.lam) * tp.sigma_sq * x_hat
            np.testing.assert_allclose(on - off, expected, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("counterterm", [False, True])
    def test_in_place_mean_is_bit_identical(self, schedule, rng, counterterm):
        """Written over z_t through a scratch array, μ_P has the allocating form's bits."""
        sp, tp = schedule.at(0.3), schedule.at(0.31)
        z_t = rng.standard_normal((5, 3))
        x_hat = rng.uniform(-1, 1, size=(5, 3))
        expected = generative_mean(z_t, x_hat, sp, tp, counterterm)
        scratch = np.empty_like(z_t)
        mean = generative_mean(z_t, x_hat, sp, tp, counterterm, out=z_t, scratch=scratch)
        assert mean is z_t
        assert np.array_equal(mean, expected)

    def test_counterterm_scales_with_lambda_gap(self, schedule, rng):
        """The counterterm contribution shrinks linearly as s -> t."""
        t = 0.6
        z = rng.standard_normal(2)
        x_hat = rng.uniform(-1, 1, size=2)
        gaps = []
        for dt in (1e-2, 1e-3, 1e-4):
            sp, tp = schedule.at(t - dt), schedule.at(t)
            diff = generative_mean(z, x_hat, sp, tp, True) - generative_mean(z, x_hat, sp, tp, False)
            gaps.append(np.linalg.norm(diff))
        assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=1e-2)
        assert gaps[1] / gaps[2] == pytest.approx(10.0, rel=1e-2)


class TestKL:
    def test_identical_gaussians(self):
        q = GaussianParams(mean=np.array([1.0, -2.0]), var=0.7)
        assert kl_isotropic(q, q, 2) == 0.0

    def test_scalar_variance_ratio_two(self):
        q = GaussianParams(mean=np.zeros(1), var=2.0)
        p = GaussianParams(mean=np.zeros(1), var=1.0)
        assert kl_isotropic(q, p, 1) == pytest.approx(HALF_ONE_MINUS_LN2, rel=1e-12)

    def test_equal_variance_reduces_to_mean_gap(self, rng):
        mu_q = rng.standard_normal(5)
        mu_p = rng.standard_normal(5)
        var = 0.37
        q = GaussianParams(mean=mu_q, var=var)
        p = GaussianParams(mean=mu_p, var=var)
        expected = np.sum((mu_p - mu_q) ** 2) / (2 * var)
        assert kl_isotropic(q, p, 5) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_and_zero_iff_equal(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 9))
            q = GaussianParams(mean=rng.standard_normal(d), var=float(rng.uniform(0.1, 3)))
            p = GaussianParams(mean=rng.standard_normal(d), var=float(rng.uniform(0.1, 3)))
            kl = kl_isotropic(q, p, d)
            assert kl >= 0.0
            if np.allclose(q.mean, p.mean, atol=1e-13) and abs(q.var / p.var - 1) < 1e-13:
                assert kl < 1e-12

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError):
            GaussianParams(mean=np.zeros(2), var=0.0)
        with pytest.raises(ValueError):
            GaussianParams(mean=np.zeros(2), var=-1.0)

    def test_dimension_mismatch_rejected(self):
        q = GaussianParams(mean=np.zeros(2), var=1.0)
        with pytest.raises(ValueError):
            kl_isotropic(q, q, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(ValueError, match="Gaussian mean must be finite"):
            GaussianParams(mean=np.array([0.5, bad]), var=1.0)

    @pytest.mark.parametrize("d", [0, -2])
    def test_nonpositive_dimension_rejected(self, d):
        q = GaussianParams(mean=np.zeros(0), var=1.0)
        with pytest.raises(ValueError, match=f"dimension must be positive, got {d}"):
            kl_isotropic(q, q, d)


class TestWeightingPenalty:
    def test_zero_at_one(self):
        assert weighting_penalty(1.0, 7) == 0.0

    def test_flat_derivative_at_one(self):
        h = 1e-7
        deriv = (weighting_penalty(1 + h, 1) - weighting_penalty(1 - h, 1)) / (2 * h)
        assert abs(deriv) < 1e-6

    def test_positive_away_from_one(self):
        for w in np.logspace(-3, 3, 61):
            if abs(w - 1.0) > 1e-12:
                assert weighting_penalty(float(w), 3) > 0.0

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError):
            weighting_penalty(0.0, 1)


class TestOptimalSigmaP:
    def test_zero_gap(self):
        assert optimal_sigma_p(0.3, 0.0, 4) == 0.3

    def test_direct_formula(self):
        assert optimal_sigma_p(1.0, 0.5 * 3, 3) == pytest.approx(1.5, abs=1e-15)

    def test_beats_grid(self):
        """Expected KL at the closed-form σ_P² is below every grid point."""
        sigma2_q, gap, d = 0.8, 1.7, 5

        def expected_kl(sigma2_p):
            w = sigma2_q / sigma2_p
            return weighting_penalty(w, d) + gap / (2 * sigma2_p)

        best = optimal_sigma_p(sigma2_q, gap, d)
        grid = np.linspace(0.5 * sigma2_q, 4.0 * best, 100)
        assert all(expected_kl(best) <= expected_kl(float(s)) for s in grid)

    def test_stationary_point(self):
        sigma2_q, gap, d = 0.8, 1.7, 5

        def expected_kl(sigma2_p):
            w = sigma2_q / sigma2_p
            return weighting_penalty(w, d) + gap / (2 * sigma2_p)

        best = optimal_sigma_p(sigma2_q, gap, d)
        h = 1e-6 * best
        deriv = (expected_kl(best + h) - expected_kl(best - h)) / (2 * h)
        assert abs(deriv) * best / expected_kl(best) < 1e-6

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            optimal_sigma_p(-1.0, 0.1, 2)
        with pytest.raises(ValueError):
            optimal_sigma_p(1.0, -0.1, 2)
        for d in (0, -2):
            with pytest.raises(ValueError, match=f"dimension must be positive, got {d}"):
                optimal_sigma_p(1.0, 0.1, d)


def test_transition_coefficient_identity(schedule, rng):
    """sigma2_q = sigma2_ts * sigma_s^2 / sigma_t^2 and sigma2_ts > 0."""
    for _ in range(100):
        s, t = np.sort(rng.uniform(0.0, 1.0, size=2))
        if not s < t:
            continue
        sp, tp = schedule.at(float(s)), schedule.at(float(t))
        c = transition_coefficients(sp, tp)
        assert c.sigma2_ts > 0
        assert c.sigma2_q == pytest.approx(c.sigma2_ts * sp.sigma_sq / tp.sigma_sq, rel=1e-12)


def _log_alpha_sq(lam: float) -> float:
    """log α² = λ − log(1 + e^λ), exact in double range for very negative λ."""
    return lam - math.log1p(math.exp(lam))


_FAR_SCHEDULE = LogLinearSchedule(13.3, -800.0)
_ALPHA_FLOORED = pytest.mark.xfail(strict=True, reason=(
    "α_s is clamped below λ_s = −138.2; ROADMAP item 3 takes the ratio from log α² "
    "and must remove this marker"))


@pytest.mark.parametrize("lam_s", [-50.0, -100.0, -137.0, *(
    pytest.param(lam, marks=_ALPHA_FLOORED) for lam in (-140.0, -250.0, -700.0))])
def test_alpha_ratio_matches_the_log_space_form_at_very_negative_lambda(lam_s):
    """α_{t|s} = exp(½(log α_t² − log α_s²)), to 1e-12 relative, for s at λ_s and t
    at λ_s − 1, where α_s ≈ e^{λ_s/2} is tiny but a normal float."""
    span = _FAR_SCHEDULE.lambda_max - _FAR_SCHEDULE.lambda_min
    sp = _FAR_SCHEDULE.at((_FAR_SCHEDULE.lambda_max - lam_s) / span)
    tp = _FAR_SCHEDULE.at((_FAR_SCHEDULE.lambda_max - lam_s + 1.0) / span)
    expected = math.exp(0.5 * (_log_alpha_sq(tp.lam) - _log_alpha_sq(sp.lam)))
    assert transition_coefficients(sp, tp).alpha_ts == pytest.approx(expected, rel=1e-12, abs=0)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestLayerAxis:
    """Every helper over a layer axis, on `columns` points, gives layer i the bits
    of its one-layer call on `at` points; and every check over a layer axis, with
    only the second of three layers bad, names that layer's value."""

    S_TIMES, T_TIMES, D = np.array([0.1, 0.35, 0.6]), np.array([0.2, 0.5, 0.95]), 3

    @pytest.fixture
    def layers(self, schedule, rng):
        """Points over 3 layers, their per-layer points, and (3, d) rows."""
        many = schedule.columns(self.S_TIMES), schedule.columns(self.T_TIMES)
        ones = [(schedule.at(float(s)), schedule.at(float(t)))
                for s, t in zip(self.S_TIMES, self.T_TIMES)]
        rows = [rng.uniform(-1, 1, size=(3, self.D)) for _ in range(3)]
        return many, ones, rows

    @staticmethod
    def assert_layers(many, ones):
        """Row i of the layer-axis result has the bits of the i-th one-layer result."""
        many = np.asarray(many)
        assert many.shape[0] == len(ones)
        for i, one in enumerate(ones):
            assert _bits(many[i].reshape(np.shape(one))) == _bits(one), f"layer {i}"

    def test_transition_coefficients(self, layers):
        (sp, tp), ones, _ = layers
        many = transition_coefficients(sp, tp)
        singles = [transition_coefficients(*pair) for pair in ones]
        for field in ("alpha_ts", "sigma2_ts", "sigma2_q", "z_weight", "x_weight"):
            assert np.shape(getattr(many, field)) == (3, 1)
            self.assert_layers(getattr(many, field), [getattr(c, field) for c in singles])

    @pytest.mark.parametrize("helper", [forward_transition, reverse_posterior])
    def test_transition(self, layers, helper):
        (sp, tp), ones, (z, x_t, x_s) = layers
        many = helper(z, x_t, x_s, sp, tp)
        singles = [helper(z[i], x_t[i], x_s[i], *pair) for i, pair in enumerate(ones)]
        self.assert_layers(many.mean, [g.mean for g in singles])
        self.assert_layers(many.var, [g.var for g in singles])

    @pytest.mark.parametrize("counterterm", [False, True])
    def test_generative_mean(self, layers, counterterm):
        (sp, tp), ones, (z, x_hat, _) = layers
        singles = [generative_mean(z[i], x_hat[i], *pair, counterterm)
                   for i, pair in enumerate(ones)]
        self.assert_layers(generative_mean(z, x_hat, sp, tp, counterterm), singles)
        in_place = z.copy()
        out = generative_mean(in_place, x_hat, sp, tp, counterterm, out=in_place,
                              scratch=np.empty_like(z))
        assert out is in_place
        self.assert_layers(out, singles)

    def test_kl_and_its_parts(self, layers):
        (sp, tp), ones, (z, x_t, x_s) = layers
        q = reverse_posterior(z, x_t, x_s, sp, tp)
        p = GaussianParams(mean=x_t, var=q.var * np.array([[0.5], [1.0], [3.0]]))
        qs = [reverse_posterior(z[i], x_t[i], x_s[i], *pair) for i, pair in enumerate(ones)]
        ps = [GaussianParams(mean=x_t[i], var=qs[i].var * k) for i, k in enumerate((0.5, 1.0, 3.0))]
        self.assert_layers(weighting_penalty(q.var / p.var, self.D),
                           [weighting_penalty(a.var / b.var, self.D) for a, b in zip(qs, ps)])
        self.assert_layers(squared_gap(p.mean, q.mean),
                           [squared_gap(b.mean, a.mean) for a, b in zip(qs, ps)])
        self.assert_layers(kl_isotropic(q, p, self.D),
                           [kl_isotropic(a, b, self.D) for a, b in zip(qs, ps)])
        gap = squared_gap(p.mean, q.mean)
        self.assert_layers(optimal_sigma_p(q.var, gap, self.D),
                           [optimal_sigma_p(a.var, squared_gap(b.mean, a.mean), self.D)
                            for a, b in zip(qs, ps)])

    @pytest.mark.parametrize("check, bad", [
        pytest.param(lambda v: GaussianParams(mean=np.zeros((3, 2)), var=v), -2.5,
                     id="gaussian-variance"),
        pytest.param(lambda v: weighting_penalty(v, 2), -0.25, id="weighting-ratio"),
        pytest.param(lambda v: optimal_sigma_p(v, np.full((3, 1), 0.1), 2), -0.125,
                     id="optimal-sigma2-q"),
        pytest.param(lambda v: optimal_sigma_p(np.full((3, 1), 0.5), v, 2), -0.375,
                     id="optimal-mean-sq-gap"),
    ])
    def test_check_names_the_bad_layers_value(self, check, bad):
        with pytest.raises(ValueError, match=f"got {bad}$"):
            check(np.array([[0.5], [bad], [0.75]]))
        with pytest.raises(ValueError, match=f"got {bad}$"):  # and the one-layer form
            check(bad)

    def test_transition_order_check_names_the_bad_layer(self, schedule):
        sp, tp = schedule.columns(np.array([0.1, 0.875, 0.3])), schedule.columns(self.T_TIMES)
        with pytest.raises(ValueError, match="0.875"):
            transition_coefficients(sp, tp)

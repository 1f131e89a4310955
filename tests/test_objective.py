"""Loss tests: parameterization identities, discrete/continuous consistency,
latent and reconstruction closed forms, ELBO bookkeeping."""

import math
from collections import Counter

import numpy as np
import pytest

import composed
from encdiff import objective, process
from encdiff.autodiff import Tensor, grad
from encdiff.config import RunConfig
from encdiff.data import scale_pixels
from encdiff.encoder import NonTrainableEncoder, make_encoder
from encdiff.errors import NumericsError
from encdiff.nets import DenoiserNet, EncoderInnerNet, ParamStore
from encdiff.objective import (
    EVAL_ROWS,
    LossBreakdown,
    _vloss_draws,
    MonteCarloEstimate,
    batch_latent_graph,
    batch_vloss_graph,
    continuous_vloss,
    continuous_xloss,
    discrete_diffusion_loss,
    discrete_step_terms,
    elbo_bpd,
    latent_loss,
    mc_estimate,
    pixel_categorical_log_probs,
    reconstruction_loss,
    t_profile,
)
from encdiff.process import (
    OPTIMAL,
    GaussianParams,
    generative_mean,
    kl_isotropic,
    reverse_posterior,
)
from encdiff.schedule import LogLinearSchedule
from encdiff.train import build_model
from encdiff.sampler import SamplerConfig, ancestral_sample, sde_step
from encdiff.verify import (AnalyticPredictor, GaussianPosteriorOracle, SmoothVectorPredictor,
                            continuous_loss_quadrature)


def _random_model(d=3, width=16, seed=0, scale=0.2) -> DenoiserNet:
    net = DenoiserNet(d=d, width=width, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for name, t in net.store.params.items():
        if name.endswith("out.w") or name.endswith("out.b"):
            t.data = scale * rng.standard_normal(t.data.shape)
    return net


def _random_trainable(d=3, width=16, seed=1, scale=0.1):
    inner = EncoderInnerNet(d=d, width=width, seed=seed)
    rng = np.random.default_rng(seed + 200)
    for name, t in inner.store.params.items():
        t.data = scale * rng.standard_normal(t.data.shape)
    return make_encoder("trainable", inner_net=inner)


class _PerfectIdentityModel(AnalyticPredictor):
    """Predicts x̂ = x exactly; the matching v̂ is derived per query."""

    def __init__(self, x):
        self.x = np.asarray(x, dtype=np.float64)

    def predict_x(self, z, lam):
        return self.x.copy()


class TestParameterizationIdentities:
    def test_x_recovery_from_v(self):
        """alpha=0.6, sigma=0.8, x=1, eps=0: z=0.6, v=-0.8, alpha z - sigma v = 1."""
        a, s = 0.6, 0.8
        x, eps = 1.0, 0.0
        z = a * x + s * eps
        v = a * eps - s * x
        assert a * z - s * v == pytest.approx(1.0, abs=1e-15)

    def test_xloss_equals_vloss_all_encoders(self, schedule, rng):
        model = _random_model()
        encoders = [make_encoder("identity"), NonTrainableEncoder(), _random_trainable()]
        for enc in encoders:
            for _ in range(10):
                x = rng.uniform(-1, 1, size=3)
                eps = rng.standard_normal(3)
                t = float(rng.uniform(0.02, 0.98))
                lv = continuous_vloss(x, model, enc, t, eps, schedule)
                lx = continuous_xloss(x, model, enc, t, eps, schedule)
                assert lx == pytest.approx(lv, rel=1e-9)

    @pytest.mark.parametrize("kind", ["identity", "nt", "trainable"])
    def test_xloss_takes_x_hat_from_predict_x(self, schedule, rng, kind):
        """−½ λ' e^λ ‖x̂ − x_enc + extra‖² with x̂ from the model's own predict_x,
        bit for bit: an analytic model's x̂ makes no round trip through v̂."""
        x = rng.uniform(-1, 1, size=3)
        model = SmoothVectorPredictor(0.5 * x)
        enc = _random_trainable() if kind == "trainable" else make_encoder(kind)
        for t in rng.uniform(0.02, 0.98, size=10):
            eps = rng.standard_normal(3)
            p = schedule.at(float(t))
            x_enc = enc.encode(x, p)
            x_hat = model.predict_x(p.alpha * x_enc + p.sigma * eps, p.lam)
            resid = x_hat - x_enc
            if enc.counterterm:
                resid = resid + p.sigma_sq * x_hat - enc.encode_dlambda(x, p)
            expected = float(-0.5 * p.lam_prime * p.snr * np.sum(resid * resid))
            assert continuous_xloss(x, model, enc, float(t), eps, schedule) == expected

    def test_trainable_at_init_equals_nt_bitwise(self, schedule, rng):
        """With the inner network still at zero the two loss forms agree bit-for-bit."""
        model = _random_model()
        tr = make_encoder("trainable", inner_net=EncoderInnerNet(d=3, width=16, seed=7))
        nt = NonTrainableEncoder()
        for _ in range(10):
            x = rng.uniform(-1, 1, size=3)
            eps = rng.standard_normal(3)
            t = float(rng.uniform(0.0, 1.0))
            assert continuous_vloss(x, model, tr, t, eps, schedule) == \
                continuous_vloss(x, model, nt, t, eps, schedule)

    def test_small_t_approaches_eps_objective(self, schedule, rng):
        """At t = 1e-4 the v-residual reduces to the noise-prediction residual.

        The leftover is the σ_t-scaled cross-term, a 1/sqrt(d)-suppressed
        correlation; d = 16 with near-init output scales keeps it below 1e-4.
        """
        t = 1e-4
        d = 16
        p = schedule.at(t)
        model = _random_model(d=d, scale=0.03)
        for enc in (NonTrainableEncoder(), _random_trainable(d=d, scale=0.03)):
            x = rng.uniform(-1, 1, size=d)
            eps = rng.standard_normal(d)
            x_enc = enc.encode(x, p)
            z = p.alpha * x_enc + p.sigma * eps
            v_hat = model.predict_v(z, p.lam)
            eps_hat = p.sigma * z + p.alpha * v_hat
            main = float(np.sum((eps - eps_hat) ** 2))
            loss = continuous_vloss(x, model, enc, t, eps, schedule)
            norm_sq = loss / (-0.5 * p.lam_prime * p.alpha_sq)
            assert abs(norm_sq - main) < 1e-4 * main

    def test_loss_nonnegative_and_finite(self, schedule, rng):
        model = _random_model()
        enc = _random_trainable()
        for _ in range(50):
            x = rng.uniform(-1, 1, size=3)
            eps = rng.standard_normal(3)
            t = float(rng.uniform(0.0, 1.0))
            val = continuous_vloss(x, model, enc, t, eps, schedule)
            assert math.isfinite(val) and val >= 0.0

    def test_t_domain_error(self, schedule, rng):
        model = _random_model()
        with pytest.raises(ValueError):
            continuous_vloss(np.zeros(3), model, NonTrainableEncoder(), 1.5,
                             rng.standard_normal(3), schedule)


ENCODER_FACTORIES = [
    pytest.param(lambda: make_encoder("identity"), id="identity"),
    pytest.param(NonTrainableEncoder, id="nt"),
    pytest.param(_random_trainable, id="trainable"),
]


@pytest.mark.parametrize("make", ENCODER_FACTORIES)
def test_batch_graphs_match_per_item_losses(make, schedule, rng):
    """The training graphs and the batched latent term are the batch means of the
    per-item eval losses."""
    model, enc = _random_model(), make()
    x = rng.uniform(-1, 1, size=(5, 3))
    ts = rng.uniform(0.0, 1.0, size=5)
    eps = rng.standard_normal((5, 3))
    per_item = [continuous_vloss(x[i], model, enc, float(ts[i]), eps[i], schedule)
                for i in range(5)]
    batch = float(batch_vloss_graph(x, model, enc, ts, eps, schedule).data)
    assert batch == pytest.approx(np.mean(per_item), rel=1e-12)
    per_item_latent = np.mean([latent_loss(xi, enc, schedule) for xi in x])
    latent = float(batch_latent_graph(x, enc, schedule).data)
    assert latent == pytest.approx(per_item_latent, rel=1e-12)
    assert latent_loss(x, enc, schedule) == pytest.approx(per_item_latent, rel=1e-12)


class TestFusedLossNodes:
    """The v-loss and the latent term are one node each, and their values,
    grad()'s flat buffer and the eval draws equal those of the composed
    elementwise graph (composed.py) bit for bit, for every encoder."""

    @staticmethod
    def _model(kind, rng):
        model, enc, store = build_model(RunConfig(encoder=kind, denoiser_width=8,
                                                  encoder_width=8), 3)
        for param in store.tensors():
            param.data = 0.4 * rng.standard_normal(param.data.shape)
        return model, enc, store

    @pytest.mark.parametrize("kind", ["identity", "nt", "trainable"])
    def test_matches_composed_graph_bitwise(self, kind, schedule, rng):
        model, enc, store = self._model(kind, rng)
        x = rng.uniform(-1, 1, size=(16, 3))
        ts = rng.uniform(0.0, 1.0, size=16)
        eps = rng.standard_normal((16, 3))
        loss = batch_vloss_graph(x, model, enc, ts, eps, schedule)
        latent = batch_latent_graph(x, enc, schedule)
        assert (loss._op, latent._op) == ("vloss", "latent")
        fused = loss + latent
        reference = (composed.vloss_per_item(x, model, enc, ts, eps, schedule).mean()
                     + composed.latent(x, enc, schedule))
        assert fused.data.tobytes() == reference.data.tobytes()
        g_fused = grad(fused, store.tensors())
        assert np.count_nonzero(g_fused) > 0.9 * g_fused.size
        assert g_fused.tobytes() == grad(reference, store.tensors()).tobytes()

    @pytest.mark.parametrize("kind", ["identity", "nt", "trainable"])
    def test_eval_draws_match_composed_graph_bitwise(self, kind, schedule, rng):
        model, enc, _ = self._model(kind, rng)
        x = rng.uniform(-1, 1, size=3)
        ts = rng.uniform(0.0, 1.0, size=EVAL_ROWS + 9)
        eps = rng.standard_normal((EVAL_ROWS + 9, 3))
        reference = composed.vloss_per_item(np.broadcast_to(x, eps.shape), model, enc, ts, eps,
                                            schedule).data[:, 0]
        assert _vloss_draws(x, model, enc, ts, eps, schedule).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("kind", ["identity", "nt", "trainable"])
    def test_eval_draws_of_an_analytic_model_match_composed_graph_bitwise(self, kind,
                                                                         schedule, rng):
        """An analytic model's v̂ is its value form, in the same blocks."""
        _, enc, _ = self._model(kind, rng)
        x = rng.uniform(-1, 1, size=3)
        model = SmoothVectorPredictor(0.5 * x)
        ts = rng.uniform(0.0, 1.0, size=EVAL_ROWS + 9)
        eps = rng.standard_normal((EVAL_ROWS + 9, 3))
        reference = composed.vloss_per_item(np.broadcast_to(x, eps.shape), model, enc, ts, eps,
                                            schedule).data[:, 0]
        assert _vloss_draws(x, model, enc, ts, eps, schedule).tobytes() == reference.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nonfinite_value_names_the_node(self, schedule, rng):
        model = DenoiserNet(d=3, width=8, seed=0)
        bias = model.store.params["denoiser.out.b"]
        bias.data = np.full(bias.data.shape, 1e200)
        x = rng.uniform(-1, 1, size=(4, 3))
        with pytest.raises(NumericsError, match="op 'vloss'"):
            batch_vloss_graph(x, model, make_encoder("identity"), rng.uniform(0.0, 1.0, 4),
                              rng.standard_normal((4, 3)), schedule)
        with pytest.raises(NumericsError, match="op 'latent'"):
            batch_latent_graph(np.full((4, 3), 1e200), NonTrainableEncoder(), schedule)


class TestAlternativeFormulaRoutes:
    """The same quantities through independently coded algebraic forms."""

    def test_discrete_kl_matches_snr_form(self, schedule, rng):
        """Per-layer KL via (μ_Q, μ_P, σ_Q²) equals the log-SNR form

            ½ (SNR(s) − SNR(t)) ‖x̂ − x_t + SNR(s)·((λ_s−λ_t)σ_t²x̂ − Δx)/ΔSNR‖²

        with Δx = x_s − x_t and ΔSNR = SNR(s) − SNR(t), counterterm included.
        """
        x = rng.uniform(-1, 1, size=3)
        model = SmoothVectorPredictor(x)
        enc = NonTrainableEncoder()
        for T in (4, 16, 64):
            terms = discrete_step_terms(x, T, model, enc, schedule, counterterm=True)
            for term in terms:
                sp, tp = schedule.at(term.s), schedule.at(term.t)
                x_s, x_t = enc.encode(x, sp), enc.encode(x, tp)
                x_hat = model.predict_x(np.zeros(3), tp.lam)
                dsnr = sp.snr - tp.snr
                inner = x_hat - x_t + sp.snr * (
                    (sp.lam - tp.lam) * tp.sigma_sq * x_hat - (x_s - x_t)) / dsnr
                snr_form = 0.5 * dsnr * float(np.sum(inner * inner))
                assert term.kl == pytest.approx(snr_form, rel=1e-9)

    def test_vloss_matches_generic_dlambda_form(self, schedule, rng):
        """Third route: −½ λ' α² ‖v − v̂ + σ x̂ − (1/σ)·dx_enc/dλ‖² agrees with
        the encoder-specific loss forms for both non-identity encoders."""
        model = _random_model()
        for enc in (NonTrainableEncoder(), _random_trainable()):
            for _ in range(10):
                x = rng.uniform(-1, 1, size=3)
                eps = rng.standard_normal(3)
                t = float(rng.uniform(0.05, 0.95))
                p = schedule.at(t)
                x_enc = enc.encode(x, p)
                z = p.alpha * x_enc + p.sigma * eps
                v_hat = model.predict_v(z, p.lam)
                v = p.alpha * eps - p.sigma * x_enc
                x_hat = p.alpha * z - p.sigma * v_hat
                inner = (v - v_hat + p.sigma * x_hat
                         - enc.encode_dlambda(x, p) / p.sigma)
                generic = -0.5 * p.lam_prime * p.alpha_sq * float(np.sum(inner * inner))
                direct = continuous_vloss(x, model, enc, t, eps, schedule)
                assert direct == pytest.approx(generic, rel=1e-9)


class TestDiscreteLoss:
    def test_perfect_model_zero_loss(self, schedule, rng):
        x = rng.uniform(-1, 1, size=3)
        model = _PerfectIdentityModel(x)
        enc = make_encoder("identity")
        for T in (1, 4, 32):
            assert discrete_diffusion_loss(x, T, model, enc, schedule) == pytest.approx(
                0.0, abs=1e-18)

    def test_fixed_w1_equals_unit_bitwise(self, schedule, rng):
        """w = 1.0 is the unweighted KL with σ_P² = σ_Q², bit for bit."""
        x = rng.uniform(-1, 1, size=3)
        model = SmoothVectorPredictor(x)
        enc = NonTrainableEncoder()
        for term in discrete_step_terms(x, 16, model, enc, schedule, w=1.0):
            sp, tp = schedule.at(term.s), schedule.at(term.t)
            x_s, x_t = enc.encode(x, sp), enc.encode(x, tp)
            z_t = tp.alpha * x_t
            q = reverse_posterior(z_t, x_t, x_s, sp, tp)
            mu_p = generative_mean(z_t, model.predict_x(z_t, tp.lam), sp, tp, counterterm=True)
            assert term.kl == kl_isotropic(q, GaussianParams(mean=mu_p, var=q.var), 3)
            assert term.w == 1.0 and term.penalty == 0.0

    @pytest.mark.parametrize("T", [1, 4, 33])
    @pytest.mark.parametrize("make", ENCODER_FACTORIES)
    def test_each_grid_point_is_encoded_once(self, make, T, schedule, rng):
        """T layers share their T + 1 end points: one encode call per grid point,
        in grid order."""
        x = rng.uniform(-1, 1, size=3)
        enc = make()
        encode, encoded_at = enc.encode, []

        def counting_encode(x_in, point):
            encoded_at.append(point)
            return encode(x_in, point)

        enc.encode = counting_encode
        terms = discrete_step_terms(x, T, SmoothVectorPredictor(x), enc, schedule)
        assert len(encoded_at) == T + 1
        assert encoded_at == schedule.grid(T)
        assert [(term.s, term.t) for term in terms] == [
            (s.t, t.t) for s, t in zip(encoded_at, encoded_at[1:])]

    @pytest.mark.parametrize("counterterm", [None, True, False])
    @pytest.mark.parametrize("w", [1.0, 2.0, OPTIMAL])
    @pytest.mark.parametrize("kind", ["identity", "nt", "trainable"])
    def test_layer_axis_equals_per_layer_reference(self, kind, w, counterterm, schedule):
        """The Gaussian algebra over all layers at once gives the per-layer
        reference's terms bit for bit, for d on both sides of the 8 terms that
        numpy's pairwise sum adds in one unrolled block."""
        for d in (1, 3, 8, 9):
            x = np.random.default_rng(d).uniform(-1, 1, size=d)
            enc = _random_trainable(d=d) if kind == "trainable" else make_encoder(kind)
            model = SmoothVectorPredictor(x)
            for T in (1, 2, 17, 256):
                assert discrete_step_terms(x, T, model, enc, schedule, w, counterterm) == \
                    composed.discrete_step_terms(
                        x, T, model, enc, schedule, w,
                        enc.counterterm if counterterm is None else counterterm)

    @pytest.mark.parametrize("w", [2.0, OPTIMAL])
    def test_process_calls_do_not_grow_with_T(self, w, schedule, rng, monkeypatch):
        """T layers make T predict_x calls, and a fixed number of calls to each
        process helper, whatever T is."""
        names = ("transition_coefficients", "reverse_posterior", "generative_mean",
                 "optimal_sigma_p", "squared_gap", "kl_isotropic", "weighting_penalty")
        calls = Counter()
        for module in (objective, process):
            for name in names:
                if hasattr(module, name):
                    def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                        calls[_name] += 1
                        return _fn(*args, **kwargs)
                    monkeypatch.setattr(module, name, counted)
        x = rng.uniform(-1, 1, size=3)
        model = SmoothVectorPredictor(x)
        predict_x, predicted = model.predict_x, []

        def counted_predict_x(z, lam):
            predicted.append(lam)
            return predict_x(z, lam)

        model.predict_x = counted_predict_x
        per_T = []
        for T in (4, 64):
            calls.clear()
            predicted.clear()
            discrete_step_terms(x, T, model, NonTrainableEncoder(), schedule, w)
            assert len(predicted) == T
            per_T.append(dict(calls))
        assert per_T[0] == per_T[1]
        assert per_T[0]["transition_coefficients"] == 2 and per_T[0]["weighting_penalty"] == 2

    def test_T_zero_rejected(self, schedule, rng):
        x = np.zeros(2)
        with pytest.raises(ValueError):
            discrete_diffusion_loss(x, 0, _PerfectIdentityModel(x), make_encoder("identity"),
                                    schedule)

    @pytest.mark.parametrize("w", [1.0, 2.0, OPTIMAL])
    @pytest.mark.parametrize("loss", [discrete_step_terms, discrete_diffusion_loss],
                             ids=lambda f: f.__name__)
    def test_exact_loss_needs_z_free_model(self, schedule, rng, loss, w):
        """The exact z-expectation, and with it every weight, needs a model whose
        prediction does not depend on z."""
        x = rng.uniform(-1, 1, size=2)
        model = DenoiserNet(d=2, width=8)
        with pytest.raises(ValueError, match="z-independent"):
            loss(x, 4, model, make_encoder("identity"), schedule, w)

    def test_counterterm_default_tracks_encoder(self, schedule, rng):
        """Identity runs without the counterterm; the damping encoder with it."""
        x = rng.uniform(-1, 1, size=3)
        model = SmoothVectorPredictor(x)
        enc = NonTrainableEncoder()
        default = discrete_step_terms(x, 8, model, enc, schedule)
        explicit_on = discrete_step_terms(x, 8, model, enc, schedule, counterterm=True)
        explicit_off = discrete_step_terms(x, 8, model, enc, schedule, counterterm=False)
        assert default == explicit_on
        assert default != explicit_off

    def test_step_terms_structure(self, schedule, rng):
        x = rng.uniform(-1, 1, size=3)
        model = SmoothVectorPredictor(x)
        terms = discrete_step_terms(x, 8, model, NonTrainableEncoder(), schedule, 2.0)
        assert len(terms) == 8
        assert terms[0].s == 0.0 and terms[-1].t == 1.0
        for term in terms:
            assert term.kl >= term.penalty >= 0.0
            assert term.w == pytest.approx(2.0)

    @pytest.mark.parametrize("w", [0, 0.0, -1.0, "unit", None, math.inf, math.nan])
    def test_weight_must_be_positive_or_optimal(self, schedule, w):
        x = np.zeros(2)
        with pytest.raises(ValueError, match="w must be"):
            discrete_step_terms(x, 4, _PerfectIdentityModel(x), make_encoder("identity"),
                                schedule, w)


class TestLatentLoss:
    def test_damping_encoder_below_identity(self, schedule, rng):
        x = rng.uniform(-1, 1, size=8)
        lat_nt = latent_loss(x, NonTrainableEncoder(), schedule)
        lat_id = latent_loss(x, make_encoder("identity"), schedule)
        assert lat_nt < lat_id

    def test_matches_generic_gaussian_kl(self, schedule, rng):
        """Independent evaluator: KL(N(α₁x₁, σ₁²I) ‖ N(0, I)) in the generic form."""
        for _ in range(20):
            x = rng.uniform(-2, 2, size=5)
            enc = NonTrainableEncoder()
            p1 = schedule.at(1.0)
            x1 = enc.encode(x, p1)
            d = 5
            mu = p1.alpha * x1
            var = p1.sigma_sq
            generic = 0.5 * (d * var - d + float(np.sum(mu * mu)) - d * math.log(var))
            assert latent_loss(x, enc, schedule) == pytest.approx(generic, abs=1e-10)

    def test_nonnegative(self, schedule, rng):
        for _ in range(50):
            x = rng.uniform(-3, 3, size=4)
            assert latent_loss(x, make_encoder("identity"), schedule) >= 0.0

    @pytest.mark.parametrize("kind", ["identity", "nt", "trainable"])
    def test_is_the_latent_nodes_value(self, schedule, rng, kind):
        """latent_loss is the value of the node that training differentiates, bit
        for bit, for one datapoint and for a batch."""
        enc = _random_trainable(d=4) if kind == "trainable" else make_encoder(kind)
        for shape in [(4,)] * 10 + [(6, 4)] * 50:
            x = rng.uniform(-2, 2, size=shape)
            node = batch_latent_graph(x, enc, schedule)
            assert latent_loss(x, enc, schedule) == float(node.data)


class TestReconstructionLoss:
    def test_categoricals_normalize(self, schedule, rng):
        z0 = rng.standard_normal(16)
        p0 = schedule.at(0.0)
        log_probs = pixel_categorical_log_probs(z0, p0.alpha, p0.sigma_sq)
        sums = np.exp(log_probs).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    @pytest.mark.parametrize("sigma_sq", ["schedule", 1e-4, 1.0])
    def test_log_probs_are_the_full_log_sum_exp_bitwise(self, sigma_sq, schedule, rng):
        """exp is skipped only where it is exactly +0.0: the log-probs, and the
        reconstruction loss picked from the logits, are the bits of the plain
        log-sum-exp over all 256 levels."""
        p0 = schedule.at(0.0)
        s2 = p0.sigma_sq if sigma_sq == "schedule" else sigma_sq
        pixels = rng.integers(0, 256, size=(3, 40))
        z0 = p0.alpha * scale_pixels(pixels) + math.sqrt(s2) * rng.standard_normal((3, 40))
        logits = -((z0.ravel()[:, None] - p0.alpha * scale_pixels(np.arange(256))[None, :]) ** 2
                   ) / (2.0 * s2)
        m = logits.max(axis=1, keepdims=True)
        full = logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))
        got = pixel_categorical_log_probs(z0.ravel(), p0.alpha, s2)
        assert got.tobytes() == full.tobytes()
        if sigma_sq == "schedule":
            picked = full[np.arange(pixels.size), pixels.ravel()].reshape(3, 40)
            assert reconstruction_loss(pixels, z0, schedule) == float(
                np.mean(-picked.sum(axis=1)))

    def test_concentration_point(self, schedule):
        """z_0 placed exactly at a level's mean: that level wins, loss < 1e-6."""
        from encdiff.data import scale_pixels

        p0 = schedule.at(0.0)
        v_star = np.array([0, 17, 128, 200, 255])
        z0 = p0.alpha * scale_pixels(v_star)
        log_probs = pixel_categorical_log_probs(z0, p0.alpha, p0.sigma_sq)
        assert np.array_equal(np.argmax(log_probs, axis=1), v_star)
        loss = reconstruction_loss(v_star, z0, schedule)
        assert loss < 1e-6 * v_star.size

    def test_flat_limit_is_uniform(self):
        """As sigma_0^2 grows the categorical flattens to -d log 256."""
        z0 = np.array([0.3, -0.8])
        log_probs = pixel_categorical_log_probs(z0, 1.0, 1e9)
        np.testing.assert_allclose(log_probs, -math.log(256.0), atol=1e-6)

    def test_pixel_range_checked(self, schedule):
        with pytest.raises(ValueError):
            reconstruction_loss(np.array([256]), np.zeros(1), schedule)
        with pytest.raises(ValueError):
            reconstruction_loss(np.array([0.5]), np.zeros(1), schedule)

    def test_nonnegative(self, schedule, rng):
        pixels = rng.integers(0, 256, size=12)
        z0 = rng.standard_normal(12)
        assert reconstruction_loss(pixels, z0, schedule) >= 0.0

    def test_batch_is_the_mean_of_its_items_bitwise(self, schedule, rng):
        pixels = rng.integers(0, 256, size=(5, 12))
        z0 = rng.standard_normal((5, 12))
        per_item = [reconstruction_loss(v, z, schedule) for v, z in zip(pixels, z0)]
        assert reconstruction_loss(pixels, z0, schedule) == float(np.mean(per_item))


class TestElboBpd:
    def test_components_sum(self, schedule, rng):
        model = _random_model(d=4)
        pixels = rng.integers(0, 256, size=4)
        bd = elbo_bpd(pixels, model, make_encoder("identity"), schedule, n_mc=8,
                      rng=np.random.default_rng(0))
        total = bd.diffusion + bd.latent + bd.reconstruction
        assert bd.total_nats == pytest.approx(total, abs=1e-12)
        assert bd.bpd == pytest.approx(total / (4 * math.log(2)), rel=1e-12)

    def test_real_data_has_zero_reconstruction(self, schedule, rng):
        model = _random_model(d=3)
        bd = elbo_bpd(rng.uniform(-1, 1, size=3), model, make_encoder("identity"),
                      schedule, n_mc=4, rng=np.random.default_rng(1), pixel_data=False)
        assert bd.reconstruction == 0.0

    def test_stderr_halves_with_quadrupled_draws(self, schedule, rng):
        model = _random_model(d=3)
        x = rng.uniform(-1, 1, size=3)
        ratios = []
        for trial in range(10):
            r1 = np.random.default_rng(1000 + trial)
            r2 = np.random.default_rng(2000 + trial)
            se_small = elbo_bpd(x, model, make_encoder("identity"), schedule, 64, r1,
                                pixel_data=False).diffusion_stderr
            se_big = elbo_bpd(x, model, make_encoder("identity"), schedule, 256, r2,
                              pixel_data=False).diffusion_stderr
            ratios.append(se_small / se_big)
        assert np.mean(ratios) == pytest.approx(2.0, rel=0.2)

    @pytest.mark.parametrize("pixel_data", [True, False], ids=["pixels", "real"])
    @pytest.mark.parametrize("make", [ENCODER_FACTORIES[0], ENCODER_FACTORIES[2]])
    def test_reported_stderr_matches_the_spread_across_calls(self, make, pixel_data, schedule,
                                                             rng):
        """Over 300 seeded calls on one item, the RMS of the reported diffusion
        stderr agrees with the spread of the diffusion values within 15%, so
        the stratified stderr is not under-stated (plain MC's formula on the
        same draws over-states it by about 25% here)."""
        model, enc = _random_model(d=3), make()
        x = rng.integers(0, 256, size=3) if pixel_data else rng.uniform(-1, 1, size=3)
        bds = [elbo_bpd(x, model, enc, schedule, 16, np.random.default_rng(seed),
                        pixel_data=pixel_data) for seed in range(300)]
        rms_stderr = math.sqrt(np.mean([bd.diffusion_stderr ** 2 for bd in bds]))
        spread = np.std([bd.diffusion for bd in bds], ddof=1)
        assert rms_stderr == pytest.approx(spread, rel=0.15)

    def test_n_mc_validated(self, schedule, rng):
        """One draw has no standard error, so at least two are needed."""
        model = _random_model(d=2)
        for n_mc in (0, 1):
            with pytest.raises(ValueError, match="n_mc must be >= 2"):
                elbo_bpd(np.zeros(2), model, make_encoder("identity"), schedule, n_mc,
                         np.random.default_rng(0), pixel_data=False)


class TestStratifiedEvalIsUnbiased:
    """The diffusion loss is an integral over t between fixed endpoints, so
    stratifying t changes the estimator's variance, not its mean."""

    @pytest.mark.parametrize("n_mc", [2, 3, 128, EVAL_ROWS + 37])
    @pytest.mark.parametrize("make", [ENCODER_FACTORIES[0], ENCODER_FACTORIES[1]])
    def test_matches_quadrature(self, make, n_mc, schedule, rng):
        """On a z-free model the integrand depends on t alone, and seeded calls
        match the quadrature of verify's limit oracle within 4 SE.  The calls
        pool at least 512 draws, as eval pools items: the stderr of one call
        with one stratum has one or two degrees of freedom, too few to check."""
        x = rng.uniform(-1, 1, size=3)
        model, enc = SmoothVectorPredictor(0.5 * x), make()
        n_calls = -(-512 // n_mc)
        bds = [elbo_bpd(x, model, enc, schedule, n_mc, np.random.default_rng(seed),
                        pixel_data=False) for seed in range(n_calls)]
        mean = np.mean([bd.diffusion for bd in bds])
        stderr = math.sqrt(sum(bd.diffusion_stderr ** 2 for bd in bds)) / n_calls
        exact = continuous_loss_quadrature(model, enc, x, schedule, 8)
        assert abs(mean - exact) < 4.0 * stderr

    @pytest.mark.parametrize("make", ENCODER_FACTORIES)
    def test_matches_uniform_t_on_a_z_dependent_model(self, make, schedule, rng):
        """Stratified and uniform t estimate the same mean, within 4 combined SE."""
        x = rng.uniform(-1, 1, size=3)
        model, enc = _random_model(d=3), make()
        n = 4096
        stratified = elbo_bpd(x, model, enc, schedule, n, np.random.default_rng(5),
                              pixel_data=False)
        r = np.random.default_rng(6)
        ts = r.uniform(size=n)
        uniform = mc_estimate(_vloss_draws(x, model, enc, ts, r.standard_normal((n, 3)),
                                           schedule))
        combined = math.hypot(stratified.diffusion_stderr, uniform.std_error)
        assert abs(stratified.diffusion - uniform.value) < 4.0 * combined


def _paired_strata(n):
    """(lo, hi, draw indices) of each stratum of t for n draws: n // 2 strata
    covering [0, 1] in order, 2 draws each, 3 in the last when n is odd, each
    as wide as its share of the draws."""
    k_last = n // 2 - 1
    strata = []
    for k in range(k_last + 1):
        idx = list(range(2 * k, n if k == k_last else 2 * k + 2))
        strata.append((idx[0] / n, (idx[-1] + 1) / n, idx))
    return strata


def _reference_elbo_bpd(x, model, enc, schedule, n_mc, rng, pixel_data):
    """elbo_bpd as one continuous_vloss call per (t, ε) draw, from n_mc
    uniforms drawn as one array, each mapped into its stratum, and then n_mc
    noise vectors as one array; the diffusion term is the weighted sum of the
    stratum means, with stderr sqrt(Σ w_k² s_k² / n_k)."""
    x_real = scale_pixels(x) if pixel_data else np.asarray(x, dtype=np.float64)
    d = x_real.size
    us = rng.uniform(size=n_mc)
    eps = rng.standard_normal((n_mc, d))
    strata = _paired_strata(n_mc)
    ts = np.empty(n_mc)
    for lo, hi, idx in strata:
        for j in idx:
            ts[j] = lo + us[j] * (hi - lo)
    draws = np.array([continuous_vloss(x_real, model, enc, float(t), e, schedule)
                      for t, e in zip(ts, eps)])
    value, var = 0.0, 0.0
    for *_, idx in strata:
        w = len(idx) / n_mc
        value += w * draws[idx].mean()
        var += w * w * draws[idx].var(ddof=1) / len(idx)
    recon = 0.0
    if pixel_data:
        p0 = schedule.at(0.0)
        z0 = p0.alpha * enc.encode(x_real, p0) + p0.sigma * rng.standard_normal(d)
        recon = reconstruction_loss(x, z0, schedule)
    return LossBreakdown.from_components(value, latent_loss(x_real, enc, schedule), recon,
                                         d, diffusion_stderr=math.sqrt(var))


def _reference_t_profile(x, model, enc, schedule, t_grid, n_eps, rng):
    """t_profile as one continuous_vloss call per (t, ε) draw."""
    rows = []
    for t in t_grid:
        vals = [continuous_vloss(x, model, enc, float(t), rng.standard_normal(x.size), schedule)
                for _ in range(n_eps)]
        est = mc_estimate(np.array(vals))
        rows.append((float(t), schedule.at(float(t)).lam, est.value, est.std_error))
    return rows


MODEL_FACTORIES = [
    pytest.param(lambda x: _random_model(d=x.size), id="denoiser"),
    pytest.param(lambda x: SmoothVectorPredictor(0.5 * x), id="analytic"),
]


class TestBatchedEvalMatchesPerDrawLoop:
    """elbo_bpd and t_profile evaluate their draws in batches; they must give the
    per-draw loop's values from the same random draws, and leave the RNG where
    the loop leaves it."""

    @pytest.mark.parametrize("n_mc", [2, 3, 128, EVAL_ROWS + 37])
    @pytest.mark.parametrize("pixel_data", [True, False], ids=["pixels", "real"])
    @pytest.mark.parametrize("make_model", MODEL_FACTORIES)
    @pytest.mark.parametrize("make", ENCODER_FACTORIES)
    def test_elbo_bpd(self, make, make_model, pixel_data, n_mc, schedule, rng):
        x = rng.integers(0, 256, size=3) if pixel_data else rng.uniform(-1, 1, size=3)
        x_real = scale_pixels(x) if pixel_data else x
        model, enc = make_model(x_real), make()
        r_batch, r_loop = np.random.default_rng(9), np.random.default_rng(9)
        got = elbo_bpd(x, model, enc, schedule, n_mc, r_batch, pixel_data=pixel_data)
        want = _reference_elbo_bpd(x, model, enc, schedule, n_mc, r_loop, pixel_data)
        assert got.bpd == pytest.approx(want.bpd, rel=1e-12)
        assert got.diffusion_stderr == pytest.approx(want.diffusion_stderr, rel=1e-12)
        assert got.reconstruction == want.reconstruction
        assert r_batch.uniform() == r_loop.uniform()

    @pytest.mark.parametrize("n_eps", [1, 4, EVAL_ROWS // 2 + 1])
    @pytest.mark.parametrize("make_model", MODEL_FACTORIES)
    @pytest.mark.parametrize("make", ENCODER_FACTORIES)
    def test_t_profile(self, make, make_model, n_eps, schedule, rng):
        x = rng.uniform(-1, 1, size=3)
        model, enc = make_model(x), make()
        t_grid = np.linspace(0.02, 0.98, 3)
        r_batch, r_loop = np.random.default_rng(4), np.random.default_rng(4)
        got = t_profile(x, model, enc, schedule, t_grid, n_eps, r_batch)
        want = _reference_t_profile(x, model, enc, schedule, t_grid, n_eps, r_loop)
        assert len(got) == len(want)
        for got_row, want_row in zip(got, want):
            assert got_row[:2] == want_row[:2]
            assert got_row[2:] == pytest.approx(want_row[2:], rel=1e-12)
        assert r_batch.uniform() == r_loop.uniform()


def _tensors_made(call) -> int:
    start = Tensor(0.0).node_id
    call()
    return Tensor(0.0).node_id - start - 1


@pytest.mark.parametrize("make", ENCODER_FACTORIES)
def test_elbo_bpd_tensors_do_not_grow_with_draws(make, schedule, rng):
    """Evaluation runs on values: elbo_bpd makes no Tensor at all, whatever n_mc,
    the block count (EVAL_ROWS) and the encoder."""
    model, enc = _random_model(d=3), make()
    pixels = rng.integers(0, 256, size=3)
    for n_mc in (8, 128, EVAL_ROWS + 5):
        assert _tensors_made(lambda: elbo_bpd(pixels, model, enc, schedule, n_mc,
                                              np.random.default_rng(0))) == 0


@pytest.mark.parametrize("make", ENCODER_FACTORIES)
def test_t_profile_and_latent_loss_make_no_tensors(make, schedule, rng):
    model, enc = _random_model(d=3), make()
    x = rng.uniform(-1, 1, size=(5, 3))
    assert _tensors_made(lambda: t_profile(x[0], model, enc, schedule, np.array([0.2, 0.7]),
                                           EVAL_ROWS // 2 + 3, np.random.default_rng(0))) == 0
    assert _tensors_made(lambda: latent_loss(x, enc, schedule)) == 0
    assert _tensors_made(lambda: latent_loss(x[0], enc, schedule)) == 0


@pytest.mark.parametrize("make", ENCODER_FACTORIES)
def test_inference_is_off_the_tape(make, schedule, rng):
    """Only the training losses record nodes: every other call of a DenoiserNet
    or an analytic model runs on values, and an analytic model's value form is
    its predict_v, row by row, bit for bit."""
    model, enc = _random_model(d=3), make()
    x, z = rng.uniform(-1, 1, size=3), rng.standard_normal((5, 3))
    for call in (lambda: model.predict_v(z[0], 0.3), lambda: model.predict_v(z, 0.3),
                 lambda: model.predict_x(z[0], 0.3), lambda: model.predict_x(z, 0.3),
                 lambda: continuous_xloss(x, model, enc, 0.4, z[0], schedule),
                 lambda: sde_step(z, 0.5, -0.01, model, schedule, np.random.default_rng(0))):
        assert _tensors_made(call) == 0
    ts = rng.uniform(0.0, 1.0, size=9)
    for analytic in (SmoothVectorPredictor(0.5 * x), GaussianPosteriorOracle(0.5 * x, 0.7)):
        assert _tensors_made(lambda: _vloss_draws(x, analytic, enc, ts, z[:1].repeat(9, 0),
                                                  schedule)) == 0
        assert _tensors_made(lambda: ancestral_sample(analytic, schedule, SamplerConfig(steps=8),
                                                      n_chains=5, d=3)) == 0
        lam = schedule.columns(ts[:5])[0]
        rows = [analytic.predict_v(z[i], lam[i]) for i in range(5)]
        assert analytic.forward(z, lam, analytic.buffers(5)).tobytes() == np.stack(rows).tobytes()


class TestValuePathNumerics:
    """Evaluation records no node, so its own checks name what went non-finite:
    the v-loss and latent values by op, and each network layer by name."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nonfinite_vloss_and_latent_name_the_op(self, schedule, rng):
        class Huge(AnalyticPredictor):
            def predict_x(self, z, lam):
                return np.full_like(np.asarray(z), 1e200)

        x = rng.uniform(-1, 1, size=3)
        with pytest.raises(NumericsError, match="op 'vloss'"):
            elbo_bpd(x, Huge(), make_encoder("identity"), schedule, 8, rng, pixel_data=False)
        with pytest.raises(NumericsError, match="op 'vloss'"):
            continuous_vloss(x, Huge(), make_encoder("identity"), 0.5, rng.standard_normal(3),
                             schedule)
        with pytest.raises(NumericsError, match="op 'latent'"):
            latent_loss(np.full(3, 1e200), NonTrainableEncoder(), schedule)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("net, layer", [("denoiser", "denoiser.in"),
                                            ("encoder", "encoder.in")])
    def test_nonfinite_layer_is_named(self, net, layer, schedule, rng):
        model, enc = _random_model(d=3), _random_trainable(d=3)
        store = model.store if net == "denoiser" else enc.inner.store
        store.params[f"{net}.in.b"].data = np.full(16, 1e308)
        store.params[f"{net}.in.w"].data = np.full((19, 16), 1e308)
        with pytest.raises(NumericsError, match=f"layer '{layer}'"):
            _vloss_draws(rng.uniform(-1, 1, size=3), model, enc, rng.uniform(0.0, 1.0, 9),
                         rng.standard_normal((9, 3)), schedule)


class TestMonteCarloEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonteCarloEstimate(value=0.0, std_error=-1.0)

    def test_se_scaling(self, rng):
        """Standard error of the estimator shrinks like 1/sqrt(n)."""
        pool = rng.standard_normal(40_000)
        se_1k = mc_estimate(pool[:1000]).std_error
        se_4k = mc_estimate(pool[:4000]).std_error
        assert se_1k / se_4k == pytest.approx(2.0, rel=0.15)


def test_loss_breakdown_invariants():
    bd = LossBreakdown.from_components(diffusion=2.0, latent=0.5, reconstruction=0.25, d=4)
    assert bd.total_nats == 2.75
    assert bd.bpd == pytest.approx(2.75 / (4 * math.log(2)))


def test_t_profile_rows(schedule, rng):
    model = _random_model(d=2)
    rows = t_profile(rng.uniform(-1, 1, size=2), model, make_encoder("identity"),
                     schedule, np.array([0.2, 0.5, 0.8]), n_eps=4,
                     rng=np.random.default_rng(0))
    assert len(rows) == 3
    for t, lam, mean, se in rows:
        assert lam == pytest.approx(schedule.at(t).lam)
        assert mean >= 0.0 and se >= 0.0


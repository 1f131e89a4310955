"""Denoiser network, parameter store, optimizer and checkpoint tests."""

import os

import numpy as np
import pytest

from encdiff.checkpoint import Checkpoint, load, save
from encdiff.errors import ConfigError, NumericsError
from encdiff.nets import DenoiserNet, EncoderInnerNet, ParamStore, sinusoidal_embedding
from encdiff.optim import Adam, optimizer_step
from encdiff.schedule import logistic


class TestDenoiser:
    def test_zero_init_predicts_zero(self, rng):
        net = DenoiserNet(d=3, width=16, seed=0)
        z = rng.standard_normal(3)
        np.testing.assert_allclose(net.predict_v(z, 2.0), np.zeros(3))
        # x-prediction collapses to alpha * z
        a = np.sqrt(logistic(2.0))
        np.testing.assert_allclose(net.predict_x(z, 2.0), a * z, rtol=1e-15)

    def test_x_eps_consistency(self, rng):
        """α·x̂ + σ·ε̂ = z for any v̂, forced by α² + σ² = 1."""
        net = DenoiserNet(d=4, width=16, seed=1)
        _randomize_output_layer(net.store, rng)
        for lam in (-4.0, 0.0, 9.5):
            a = np.sqrt(logistic(lam))
            s = np.sqrt(logistic(-lam))
            z = rng.standard_normal(4)
            v_hat = net.predict_v(z, lam)
            x_hat = a * z - s * v_hat
            eps_hat = s * z + a * v_hat
            np.testing.assert_allclose(a * x_hat + s * eps_hat, z, rtol=1e-9, atol=1e-12)

    def test_batch_equals_loop(self, rng):
        net = DenoiserNet(d=3, width=32, seed=2)
        _randomize_output_layer(net.store, rng)
        z = rng.standard_normal((8, 3))
        batched = net.predict_v(z, 1.7)
        looped = np.stack([net.predict_v(z[i], 1.7) for i in range(8)])
        np.testing.assert_allclose(batched, looped, rtol=1e-12, atol=1e-14)

    def test_forward_deterministic(self, rng):
        net = DenoiserNet(d=2, width=16, seed=3)
        _randomize_output_layer(net.store, rng)
        z = rng.standard_normal((4, 2))
        out1 = net.predict_v(z, 0.3)
        out2 = net.predict_v(z, 0.3)
        assert np.array_equal(out1, out2)

    def test_call_counter(self, rng):
        net = DenoiserNet(d=2, width=16, seed=0)
        z = rng.standard_normal((4, 2))
        before = net.calls
        net.predict_v(z, 0.5)
        net.predict_x(z, 0.5)
        assert net.calls == before + 2

    def test_per_row_lambda_matches_scalar(self, rng):
        net = DenoiserNet(d=2, width=16, seed=4)
        _randomize_output_layer(net.store, rng)
        z = rng.standard_normal((3, 2))
        lams = np.array([-1.0, 2.0, 5.0])
        batched = net.forward(z, lams).data
        for i, lam in enumerate(lams):
            row = net.predict_v(z[i], float(lam))
            np.testing.assert_allclose(batched[i], row, rtol=1e-12, atol=1e-14)


class TestEmbedding:
    def test_shape_and_range(self):
        emb = sinusoidal_embedding(np.array([-5.0, 0.0, 13.3]))
        assert emb.shape == (3, 16)
        assert np.all(np.abs(emb) <= 1.0)

    def test_distinguishes_lambdas(self):
        e1 = sinusoidal_embedding(1.0)
        e2 = sinusoidal_embedding(1.5)
        assert np.linalg.norm(e1 - e2) > 1e-3


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ValueError):
            store.add("w", np.zeros(2))

    def test_grad_slots_match_shapes(self):
        net = DenoiserNet(d=2, width=8, seed=0)
        for name, t in net.store.params.items():
            assert net.store.m[name].shape == t.data.shape
            assert net.store.v[name].shape == t.data.shape

    def test_every_parameter_is_a_view_of_the_one_buffer(self):
        store = ParamStore()
        DenoiserNet(d=3, width=8, seed=0, store=store)
        EncoderInnerNet(d=3, width=8, seed=1, store=store)
        offset = 0
        for name, t in store.params.items():
            for view, flat in ((t.data, store.flat), (store.m[name], store.m_flat),
                               (store.v[name], store.v_flat)):
                assert view.base is flat, name
                assert view.__array_interface__["data"][0] == (
                    flat.__array_interface__["data"][0] + 8 * offset), name
            offset += t.data.size
        assert offset == store.flat.size == store.n_scalars()

    def test_assigning_data_writes_into_the_buffer(self, rng):
        store = ParamStore()
        DenoiserNet(d=3, width=8, seed=0, store=store)
        w = store.params["denoiser.out.w"]
        values = rng.standard_normal(w.data.shape)
        w.data = values
        assert w.data.base is store.flat
        np.testing.assert_array_equal(store.views(store.flat)["denoiser.out.w"], values)
        with pytest.raises(ValueError, match="shape"):
            w.data = np.zeros(3)
        np.testing.assert_array_equal(w.data, values)

    def test_non_finite_value_rejected_before_the_store_changes(self):
        store = ParamStore()
        store.add("w", np.ones(2))
        with pytest.raises(NumericsError):
            store.add("bad", np.array([1.0, np.nan]))
        assert store.names() == ["w"] and store.flat.size == 2

    def test_load_rejects_missing_or_misshapen_arrays(self):
        store = ParamStore()
        store.add("w", np.ones((2, 3)))
        arrays = {k: np.array(a) for k, a in store.state_arrays().items()}
        with pytest.raises(ConfigError, match="shape"):
            store.load_state_arrays({**arrays, "adam_v/w": np.ones(6)}, step=1)
        with pytest.raises(ConfigError, match="adam_m/w"):
            store.load_state_arrays({k: a for k, a in arrays.items() if k != "adam_m/w"}, 1)
        assert store.step == 0


class TestOptimizer:
    def test_zero_gradient_no_change(self):
        store = ParamStore()
        store.add("w", np.array([1.0, -2.0]))
        before = store.params["w"].data.copy()
        optimizer_step(store, {"w": np.zeros(2)}, lr=0.1)
        np.testing.assert_array_equal(store.params["w"].data, before)
        assert store.step == 1

    def test_first_step_hand_computed(self):
        """After one step from zero moments the update is
        -lr * g / (|g| * sqrt(1) + eps) ~ -lr * sign(g)."""
        store = ParamStore()
        store.add("w", np.array([0.5, -0.5, 2.0]))
        g = np.array([0.3, -0.7, 0.0])
        before = store.params["w"].data.copy()
        lr, eps_hat = 0.01, 1e-8
        optimizer_step(store, {"w": g}, lr=lr, eps_hat=eps_hat)
        expected = before - lr * g / (np.abs(g) + eps_hat)
        np.testing.assert_allclose(store.params["w"].data, expected, rtol=1e-12)

    def test_nonfinite_gradient_rejected_without_mutation(self):
        store = ParamStore()
        store.add("w", np.array([1.0]))
        before = store.params["w"].data.copy()
        with pytest.raises(NumericsError):
            optimizer_step(store, {"w": np.array([np.nan])}, lr=0.1)
        np.testing.assert_array_equal(store.params["w"].data, before)
        assert store.step == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [
        pytest.param({"b": np.array([np.inf, 0.0])}, id="non-finite-gradient"),
        pytest.param({"b": np.array([1e300, 0.0])}, id="overflowing-second-moment"),
    ])
    def test_rejected_step_leaves_the_buffers_untouched(self, bad):
        store = ParamStore()
        store.add("a", np.array([[0.5, -1.0], [2.0, 0.25]]))
        store.add("b", np.array([1.0, -3.0]))
        adam = Adam(store, lr=0.01)
        adam.step({"a": np.full((2, 2), 0.1), "b": np.array([0.2, -0.3])})
        before = [np.array(buf) for buf in (store.flat, store.m_flat, store.v_flat)]
        with pytest.raises(NumericsError, match="parameter 'b'"):
            adam.step({"a": np.full((2, 2), 0.1), **bad})
        for buf, old in zip((store.flat, store.m_flat, store.v_flat), before):
            assert buf.tobytes() == old.tobytes()
        assert store.step == 1

    def test_matches_per_parameter_update_bitwise(self, rng):
        """The flat update does per entry exactly what a per-parameter loop does."""
        store = ParamStore()
        DenoiserNet(d=3, width=8, seed=0, store=store)
        ref = {name: [np.array(t.data), np.zeros(t.data.shape), np.zeros(t.data.shape)]
               for name, t in store.params.items()}
        lr, beta1, beta2, eps_hat = 0.01, 0.9, 0.999, 1e-8
        for step in range(1, 6):
            grads = {name: rng.standard_normal(t.data.shape) for name, t in store.params.items()}
            optimizer_step(store, grads, lr, beta1, beta2, eps_hat)
            c1, c2 = 1.0 - beta1**step, 1.0 - beta2**step
            for name, (p, m, v) in ref.items():
                g = grads[name]
                m[...] = beta1 * m + (1.0 - beta1) * g
                v[...] = beta2 * v + (1.0 - beta2) * g * g
                p[...] = p - lr * ((m / c1) / (np.sqrt(v / c2) + eps_hat))
        for name, (p, m, v) in ref.items():
            assert store.params[name].data.tobytes() == p.tobytes()
            assert store.m[name].tobytes() == m.tobytes()
            assert store.v[name].tobytes() == v.tobytes()

    def test_bad_lr_rejected(self):
        store = ParamStore()
        store.add("w", np.array([1.0]))
        with pytest.raises(ValueError):
            optimizer_step(store, {"w": np.array([0.1])}, lr=0.0)

    def test_deterministic_trajectory(self, rng):
        def run() -> np.ndarray:
            store = ParamStore()
            store.add("w", np.array([0.2, -0.4]))
            adam = Adam(store, lr=0.05)
            local = np.random.default_rng(9)
            for _ in range(25):
                adam.step({"w": local.standard_normal(2)})
            return store.params["w"].data

        np.testing.assert_array_equal(run(), run())


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        store = ParamStore()
        net = DenoiserNet(d=3, width=16, seed=5, store=store)
        _randomize_output_layer(store, rng)
        adam = Adam(store)
        for _ in range(3):
            adam.step({name: rng.standard_normal(t.data.shape)
                       for name, t in store.params.items()})
        path = os.path.join(tmp_path, "model.ckpt")
        save(path, Checkpoint(lambda_max=13.3, lambda_min=-5.0, encoder_kind="nt",
                              step=store.step, arrays=store.state_arrays(),
                              config_hash="abc", meta={"d": 3}))
        ckpt = load(path)
        assert ckpt.step == 3
        assert ckpt.encoder_kind == "nt"
        assert ckpt.config_hash == "abc"
        for name, arr in store.state_arrays().items():
            assert np.array_equal(ckpt.arrays[name], arr)

    def test_restore_into_fresh_store_bit_exact(self, tmp_path, rng):
        def build():
            store = ParamStore()
            DenoiserNet(d=3, width=16, seed=5, store=store)
            EncoderInnerNet(d=3, width=8, seed=6, store=store)
            return store

        store = build()
        _randomize_output_layer(store, rng)
        adam = Adam(store)
        for _ in range(3):
            adam.step({name: rng.standard_normal(t.data.shape)
                       for name, t in store.params.items()})
        path = os.path.join(tmp_path, "model.ckpt")
        save(path, Checkpoint(lambda_max=13.3, lambda_min=-5.0, encoder_kind="trainable",
                              step=store.step, arrays=store.state_arrays()))
        fresh = build()
        fresh.load_state_arrays(load(path).arrays, step=load(path).step)
        for name in ("flat", "m_flat", "v_flat"):
            assert getattr(fresh, name).tobytes() == getattr(store, name).tobytes()
        assert fresh.step == 3
        for t in fresh.params.values():
            assert t.data.base is fresh.flat

    def test_bad_magic_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bogus.ckpt")
        with open(path, "wb") as f:
            f.write(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ConfigError, match="magic"):
            load(path)

    def test_truncation_detected(self, tmp_path):
        path = os.path.join(tmp_path, "model.ckpt")
        store = ParamStore()
        store.add("w", np.arange(64, dtype=np.float64))
        save(path, Checkpoint(lambda_max=1.0, lambda_min=-1.0, encoder_kind="identity",
                              step=0, arrays=store.state_arrays()))
        with open(path, "rb") as f:
            raw = f.read()
        with open(path, "wb") as f:
            f.write(raw[:-16])
        with pytest.raises(ConfigError, match="truncated"):
            load(path)


def _randomize_output_layer(store: ParamStore, rng: np.random.Generator) -> None:
    for name, tensor in store.params.items():
        if name.endswith("out.w") or name.endswith("out.b"):
            tensor.data = 0.2 * rng.standard_normal(tensor.data.shape)


def test_inner_net_zero_at_init(rng):
    inner = EncoderInnerNet(d=2, width=8, seed=0)
    x = rng.uniform(-1, 1, size=(5, 2))
    np.testing.assert_array_equal(inner.forward(x, 3.0).data, np.zeros((5, 2)))

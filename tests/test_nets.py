"""Denoiser network, parameter store, optimizer and checkpoint tests."""

import os
import re

import numpy as np
import pytest

from composed import Ref, grad as ref_grad, mlp_forward
from encdiff.autodiff import Tensor
from encdiff.checkpoint import Checkpoint, load, save
from encdiff.config import RunConfig
from encdiff.errors import ConfigError, NumericsError
from encdiff.nets import MLP, DenoiserNet, EncoderInnerNet, ParamStore, sinusoidal_embedding
from encdiff.optim import BETA1, BETA2, EPS_HAT, optimizer_step
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

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (3,)])
    def test_input_of_the_wrong_width_rejected(self, shape):
        net = DenoiserNet(d=3, width=8, seed=0)
        message = f"expected input of shape (B, 3), got {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            net.forward(np.zeros(shape), 0.5)

    def test_per_row_lambda_matches_scalar(self, rng):
        net = DenoiserNet(d=2, width=16, seed=4)
        _randomize_output_layer(net.store, rng)
        z = rng.standard_normal((3, 2))
        lams = np.array([-1.0, 2.0, 5.0])
        batched = net.forward(z, lams)[0]
        for i, lam in enumerate(lams):
            row = net.predict_v(z[i], float(lam))
            np.testing.assert_allclose(batched[i], row, rtol=1e-12, atol=1e-14)


def _randomized_mlp(kind: str, rng) -> MLP:
    make = DenoiserNet if kind == "denoiser" else EncoderInnerNet
    net = make(d=3, width=8, seed=4).net
    for param in net.params:
        param.data = 0.5 * rng.standard_normal(param.data.shape)
    return net


class TestFusedMLP:
    """One MLP call returns its output and a vector-Jacobian function, whose
    gradients equal those of the composed-op graph bit for bit; it makes no
    Tensor."""

    @staticmethod
    def _composed_grads(net: MLP, x: np.ndarray, lam, g: np.ndarray, need_gx: bool):
        """The composed graph's output, and the reference grad()'s flat buffer
        of x's gradient (when need_gx) and the parameters' for output gradient g."""
        x_node = Ref(x, requires_grad=need_gx, name="x")
        composed = mlp_forward(net, x_node, lam)
        targets = [x_node, *net.params] if need_gx else net.params
        return composed.data, ref_grad((composed * g).sum(), targets)

    @pytest.mark.parametrize("kind", ["denoiser", "encoder"])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_matches_composed_graph_bitwise(self, kind, rows, rng):
        net = _randomized_mlp(kind, rng)
        x = rng.standard_normal((rows, 3))
        # stacked rows carry one λ each, as in the encoder's stacked pass
        lam = rng.uniform(-5.0, 13.0, size=rows) if rows > 1 else 2.5
        g = rng.standard_normal((rows, 3))
        out, vjp = net.forward(x, lam)
        for need_gx in (True, False):
            composed, expected = self._composed_grads(net, x, lam, g, need_gx)
            assert out.tobytes() == composed.tobytes()
            grads, gx = vjp(g, need_gx)
            assert (gx is None) is not need_gx
            got = np.concatenate([part.ravel() for part in ([gx] if need_gx else []) + grads])
            assert np.any(got != 0.0)
            assert got.tobytes() == expected.tobytes()

    def test_constant_input_gets_no_gradient(self, rng):
        """Without need_gx the input's gradient is never formed, and the
        parameters' gradients are the same bits as with it."""
        net = _randomized_mlp("encoder", rng)
        x = rng.standard_normal((4, 3))
        out, vjp = net.forward(x, 1.0)
        g = rng.standard_normal(out.shape)
        grads, gx = vjp(g, False)
        assert gx is None
        assert len(grads) == len(net.params)
        _, reference = self._composed_grads(net, x, 1.0, g, need_gx=False)
        assert np.concatenate([pg.ravel() for pg in grads]).tobytes() == reference.tobytes()
        with_gx = vjp(g, True)[0]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(grads, with_gx))

    def test_array_input_is_a_constant_not_a_parent(self, rng):
        """The forward pass and its vector-Jacobian function take and return
        arrays and make no Tensor."""
        net = _randomized_mlp("encoder", rng)
        x = rng.standard_normal((4, 3))
        start = Tensor(0.0).node_id
        out, vjp = net.forward(x, 1.0)
        grads, gx = vjp(rng.standard_normal(out.shape), True)
        assert Tensor(0.0).node_id == start + 1
        assert all(type(a) is np.ndarray for a in (out, gx, *grads))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["denoiser", "encoder"])
    def test_non_finite_array_input_names_the_input_layer(self, kind, bad, rng):
        net = _randomized_mlp(kind, rng)
        x = rng.standard_normal((4, 3))
        x[2, 1] = bad
        with pytest.raises(NumericsError, match=f"layer '{kind}.in'"):
            net.forward(x, 1.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_pre_activation_names_the_layer(self, rng):
        net = DenoiserNet(d=3, width=8, seed=0)
        w = net.store.params["denoiser.h1.w"]
        w.data = np.full(w.data.shape, 1e308)
        with pytest.raises(NumericsError, match="layer 'denoiser.h1'"):
            net.forward(rng.standard_normal((16, 3)), 0.5)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("shape", [(3,), (16, 3)])
    def test_overflowing_output_layer_names_it_in_predict_v(self, rng, shape):
        net = DenoiserNet(d=3, width=8, seed=0)
        w = net.store.params["denoiser.out.w"]
        w.data = np.full(w.data.shape, 1e308)
        with pytest.raises(NumericsError, match="layer 'denoiser.out'"):
            net.predict_v(rng.standard_normal(shape), 0.5)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_train_abort_on_a_layer_leaves_a_loadable_checkpoint(self, tmp_path, monkeypatch):
        import encdiff.train as train_module

        build_model = train_module.build_model

        def with_huge_layer(config, d):
            model, encoder, store = build_model(config, d)
            w = store.params["denoiser.h1.w"]
            w.data = np.full(w.data.shape, 1e308)
            return model, encoder, store

        monkeypatch.setattr(train_module, "build_model", with_huge_layer)
        config = RunConfig(dataset="gaussian2d", n_points=64, encoder="trainable", steps=5,
                           batch_size=16, denoiser_width=8, encoder_width=8,
                           out_dir=str(tmp_path / "run"))
        with pytest.raises(NumericsError, match="layer 'denoiser.h1'"):
            train_module.train(config)
        monkeypatch.undo()
        _model, _encoder, store, _config, _schedule = train_module.restore(
            str(tmp_path / "run" / "model.ckpt"))
        assert store.step == 0
        assert np.all(store.params["denoiser.h1.w"].data == 1e308)


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
        store.add_many({"w": np.zeros(2)})
        with pytest.raises(ValueError):
            store.add_many({"w": np.zeros(2)})

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
        store.add_many({"w": np.ones(2)})
        with pytest.raises(NumericsError):
            store.add_many({"bad": np.array([1.0, np.nan])})
        assert list(store.params) == ["w"] and store.flat.size == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_load_rejects_non_finite_arrays_before_copying(self, bad):
        store = ParamStore()
        store.add_many({"w": np.ones(3)})
        arrays = {k: np.array(a) for k, a in store.state_arrays().items()}
        arrays["param/w"] = np.array([2.0, 3.0, 4.0])
        arrays["adam_v/w"][1] = bad
        with pytest.raises(ConfigError, match="'adam_v/w' has non-finite"):
            store.load_state_arrays(arrays, step=7)
        # param/w comes first in the checkpoint and was not copied either
        np.testing.assert_array_equal(store.flat, np.ones(3))
        assert store.step == 0

    def test_load_rejects_missing_or_misshapen_arrays(self):
        store = ParamStore()
        store.add_many({"w": np.ones((2, 3))})
        arrays = {k: np.array(a) for k, a in store.state_arrays().items()}
        with pytest.raises(ConfigError, match="shape"):
            store.load_state_arrays({**arrays, "adam_v/w": np.ones(6)}, step=1)
        with pytest.raises(ConfigError, match="adam_m/w"):
            store.load_state_arrays({k: a for k, a in arrays.items() if k != "adam_m/w"}, 1)
        assert store.step == 0


class TestOptimizer:
    def test_zero_gradient_no_change(self):
        store = ParamStore()
        store.add_many({"w": np.array([1.0, -2.0])})
        before = store.params["w"].data.copy()
        optimizer_step(store, np.zeros(2), lr=0.1)
        np.testing.assert_array_equal(store.params["w"].data, before)
        assert store.step == 1

    def test_first_step_hand_computed(self):
        """After one step from zero moments the update is
        -lr * g / (|g| * sqrt(1) + eps) ~ -lr * sign(g)."""
        store = ParamStore()
        store.add_many({"w": np.array([0.5, -0.5, 2.0])})
        g = np.array([0.3, -0.7, 0.0])
        lr = 0.01
        expected = store.params["w"].data - lr * g / (np.abs(g) + EPS_HAT)
        optimizer_step(store, g, lr=lr)
        np.testing.assert_allclose(store.params["w"].data, expected, rtol=1e-12)

    def test_nonfinite_gradient_rejected_without_mutation(self):
        store = ParamStore()
        store.add_many({"w": np.array([1.0])})
        before = store.params["w"].data.copy()
        with pytest.raises(NumericsError):
            optimizer_step(store, np.array([np.nan]), lr=0.1)
        np.testing.assert_array_equal(store.params["w"].data, before)
        assert store.step == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [
        pytest.param(np.array([np.inf, 0.0]), id="non-finite-gradient"),
        pytest.param(np.array([1e300, 0.0]), id="overflowing-second-moment"),
    ])
    def test_rejected_step_leaves_the_buffers_untouched(self, bad):
        store = ParamStore()
        store.add_many({"a": np.array([[0.5, -1.0], [2.0, 0.25]])})
        store.add_many({"b": np.array([1.0, -3.0])})
        optimizer_step(store, np.array([0.1, 0.1, 0.1, 0.1, 0.2, -0.3]), lr=0.01)
        buffers = (store.flat, store.m_flat, store.v_flat)
        before = [np.array(buf) for buf in buffers]
        with pytest.raises(NumericsError, match="parameter 'b'"):
            optimizer_step(store, np.concatenate([np.full(4, 0.1), bad]), lr=0.01)
        # a rejected step neither writes the moments nor replaces them
        for name, buf, old in zip(("flat", "m_flat", "v_flat"), buffers, before):
            assert getattr(store, name) is buf, name
            assert buf.tobytes() == old.tobytes(), name
        assert store.step == 1

    def test_matches_per_parameter_update_bitwise(self, rng):
        """The flat update does per entry exactly what a per-parameter loop does."""
        store = ParamStore()
        DenoiserNet(d=3, width=8, seed=0, store=store)
        ref = {name: [np.array(t.data), np.zeros(t.data.shape), np.zeros(t.data.shape)]
               for name, t in store.params.items()}
        _assert_steps_match_reference(store, ref, rng, stop=6)

    def test_matches_per_parameter_update_bitwise_once_c1_rounds_to_one(self, rng):
        """From t = 356 the bias correction 1 − β1^t is exactly 1.0 and the
        update skips dividing by it; the bits still match the reference."""
        assert 1.0 - BETA1**355 != 1.0 == 1.0 - BETA1**356
        store = ParamStore()
        DenoiserNet(d=3, width=8, seed=0, store=store)
        _randomize_output_layer(store, rng)
        store.m_flat[...] = 0.1 * rng.standard_normal(store.n_scalars())
        store.v_flat[...] = 0.01 * rng.random(store.n_scalars())
        store.step = 350
        ref = {name: [np.array(t.data), np.array(store.m[name]), np.array(store.v[name])]
               for name, t in store.params.items()}
        _assert_steps_match_reference(store, ref, rng, stop=361)
        assert store.step == 360

    def test_accepted_step_adopts_new_moments_as_views(self, rng):
        """Parameters stay views of `flat`, and the moment views read the new
        buffers at each parameter's offset."""
        store = ParamStore()
        DenoiserNet(d=3, width=8, seed=0, store=store)
        EncoderInnerNet(d=3, width=8, seed=1, store=store)
        for _ in range(3):
            old_m, old_v = store.m_flat, store.v_flat
            optimizer_step(store, rng.standard_normal(store.n_scalars()), lr=0.01)
            assert store.m_flat is not old_m and store.v_flat is not old_v
            offset = 0
            for name, t in store.params.items():
                assert t.data.base is store.flat, name
                for view, flat in ((store.m[name], store.m_flat), (store.v[name], store.v_flat)):
                    assert np.shares_memory(view, flat), name
                    assert view.__array_interface__["data"][0] == (
                        flat.__array_interface__["data"][0] + 8 * offset), name
                offset += t.data.size

    def test_gradient_of_the_wrong_length_rejected(self):
        """A gradient missing for some parameter is a buffer of the wrong length."""
        store = ParamStore()
        store.add_many({"a": np.ones(3)})
        store.add_many({"b": np.ones(2)})
        with pytest.raises(ValueError, match="5 scalars"):
            optimizer_step(store, np.zeros(3), lr=0.1)
        assert store.step == 0

    def test_bad_lr_rejected(self):
        store = ParamStore()
        store.add_many({"w": np.array([1.0])})
        for lr in (0.0, -0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="learning rate"):
                optimizer_step(store, np.array([0.1]), lr=lr)
        assert store.step == 0
        assert store.flat.tobytes() == np.array([1.0]).tobytes()

    def test_deterministic_trajectory(self, rng):
        def run() -> np.ndarray:
            store = ParamStore()
            store.add_many({"w": np.array([0.2, -0.4])})
            local = np.random.default_rng(9)
            for _ in range(25):
                optimizer_step(store, local.standard_normal(2), lr=0.05)
            return store.params["w"].data

        np.testing.assert_array_equal(run(), run())


def _assert_steps_match_reference(store: ParamStore, ref: dict, rng, stop: int) -> None:
    """Step the store and a per-parameter reference [θ, m, v] from store.step + 1
    to stop − 1 with the same gradients, then compare them bit for bit."""
    lr = 0.01
    for step in range(store.step + 1, stop):
        g_flat = rng.standard_normal(store.n_scalars())
        grads = {name: g.copy() for name, g in store.views(g_flat).items()}
        optimizer_step(store, g_flat, lr)
        c1, c2 = 1.0 - BETA1**step, 1.0 - BETA2**step
        for name, (p, m, v) in ref.items():
            g = grads[name]
            m[...] = BETA1 * m + (1.0 - BETA1) * g
            v[...] = BETA2 * v + (1.0 - BETA2) * g * g
            p[...] = p - lr * ((m / c1) / (np.sqrt(v / c2) + EPS_HAT))
    for name, (p, m, v) in ref.items():
        assert store.params[name].data.tobytes() == p.tobytes()
        assert store.m[name].tobytes() == m.tobytes()
        assert store.v[name].tobytes() == v.tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        store = ParamStore()
        net = DenoiserNet(d=3, width=16, seed=5, store=store)
        _randomize_output_layer(store, rng)
        for _ in range(3):
            optimizer_step(store, rng.standard_normal(store.n_scalars()))
        path = os.path.join(tmp_path, "model.ckpt")
        config = RunConfig(encoder="nt")
        save(path, Checkpoint(step=store.step, arrays=store.state_arrays(),
                              config_text=config.to_text(), config_hash=config.hash()))
        ckpt = load(path)
        assert ckpt.step == 3
        assert ckpt.config_text == config.to_text()
        assert ckpt.config_hash == config.hash()
        for name, arr in store.state_arrays().items():
            assert ckpt.arrays[name].tobytes() == arr.tobytes()

    def test_restore_into_fresh_store_bit_exact(self, tmp_path, rng):
        def build():
            store = ParamStore()
            DenoiserNet(d=3, width=16, seed=5, store=store)
            EncoderInnerNet(d=3, width=8, seed=6, store=store)
            return store

        store = build()
        _randomize_output_layer(store, rng)
        for _ in range(3):
            optimizer_step(store, rng.standard_normal(store.n_scalars()))
        path = os.path.join(tmp_path, "model.ckpt")
        save(path, Checkpoint(step=store.step, arrays=store.state_arrays(), config_text="",
                              config_hash=""))
        fresh = build()
        fresh.load_state_arrays(load(path).arrays, step=load(path).step)
        for name in ("flat", "m_flat", "v_flat"):
            assert getattr(fresh, name).tobytes() == getattr(store, name).tobytes()
        assert fresh.step == 3
        for t in fresh.params.values():
            assert t.data.base is fresh.flat
        # the restored store steps on exactly as the one that was saved
        for _ in range(2):
            g = rng.standard_normal(store.n_scalars())
            optimizer_step(store, g.copy())
            optimizer_step(fresh, g)
        for name in ("flat", "m_flat", "v_flat"):
            assert getattr(fresh, name).tobytes() == getattr(store, name).tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bogus.ckpt")
        with open(path, "wb") as f:
            f.write(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ConfigError, match="magic"):
            load(path)

    def test_truncation_detected(self, tmp_path):
        path = os.path.join(tmp_path, "model.ckpt")
        store = ParamStore()
        store.add_many({"w": np.arange(64, dtype=np.float64)})
        save(path, Checkpoint(step=0, arrays=store.state_arrays(), config_text="",
                              config_hash=""))
        with open(path, "rb") as f:
            raw = f.read()
        with open(path, "wb") as f:
            f.write(raw[:-16])
        with pytest.raises(ConfigError, match="truncated"):
            load(path)

    def test_duplicate_tensor_name_rejected(self, tmp_path):
        """A second entry named like the first would silently replace its array."""
        path = os.path.join(tmp_path, "model.ckpt")
        save(path, Checkpoint(step=0, arrays={"a": np.arange(3.0), "b": np.arange(10.0, 13.0)},
                              config_text="", config_hash=""))
        with open(path, "rb") as f:
            raw = f.read()
        with open(path, "wb") as f:
            f.write(raw.replace(b'"name": "b"', b'"name": "a"', 1))
        with pytest.raises(ConfigError, match="two tensors named 'a'"):
            load(path)


def _randomize_output_layer(store: ParamStore, rng: np.random.Generator) -> None:
    for name, tensor in store.params.items():
        if name.endswith("out.w") or name.endswith("out.b"):
            tensor.data = 0.2 * rng.standard_normal(tensor.data.shape)


def test_inner_net_zero_at_init(rng):
    inner = EncoderInnerNet(d=2, width=8, seed=0)
    x = rng.uniform(-1, 1, size=(5, 2))
    np.testing.assert_array_equal(inner.forward(x, 3.0)[0], np.zeros((5, 2)))

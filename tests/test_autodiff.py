"""Autodiff engine tests: hand-derived gradients, finite differences,
broadcasting, and the unused-parameter report.

The graphs are built from the composed reference's generic ops (composed.py),
the ops the fused nodes of encdiff are checked against."""

import numpy as np
import pytest

from composed import Ref, concat
from encdiff.autodiff import Tensor, all_finite, grad
from encdiff.errors import NumericsError, UnusedParameterError


def grads(loss, params):
    """grad()'s flat buffer split back into one array per parameter."""
    flat = grad(loss, params)
    bounds = np.cumsum([p.data.size for p in params])[:-1]
    return [part.reshape(p.shape) for part, p in zip(np.split(flat, bounds), params)]


class TestHandDerivedGradients:
    def test_quadratic_least_squares(self, rng):
        """d/dW ||Wx - y||^2 = 2 (Wx - y) x^T."""
        W = Ref(rng.standard_normal((3, 4)), requires_grad=True, name="W")
        x = rng.standard_normal((4, 1))
        y = rng.standard_normal((3, 1))
        r = W @ Ref(x) - y
        loss = r.square().sum()
        (gw,) = grads(loss, [W])
        expected = 2.0 * (W.data @ x - y) @ x.T
        np.testing.assert_allclose(gw, expected, rtol=1e-12)

    def test_power_chain(self):
        x = Ref(np.array(3.0), requires_grad=True, name="x")
        y = x * x
        z = y * y
        t = z * z  # x^8
        (g,) = grads(t, [x])
        assert g == pytest.approx(8 * 3.0**7)

    def test_shared_subexpression_accumulates(self):
        x = Ref(np.array(2.0), requires_grad=True)
        y = x * x
        loss = y + y  # dloss/dx = 2 * 2x = 8
        (g,) = grads(loss, [x])
        assert g == pytest.approx(8.0)

    def test_tanh(self):
        x = Ref(np.array(0.7), requires_grad=True)
        (g,) = grads(x.tanh(), [x])
        assert g == pytest.approx(1.0 - np.tanh(0.7) ** 2, rel=1e-14)


class TestBroadcasting:
    def test_bias_add_sums_over_batch(self, rng):
        h = Ref(rng.standard_normal((5, 3)))
        b = Ref(np.zeros(3), requires_grad=True, name="b")
        loss = (h + b).sum()
        (gb,) = grads(loss, [b])
        np.testing.assert_allclose(gb, np.full(3, 5.0))

    def test_column_scale(self, rng):
        x = Ref(rng.standard_normal((4, 3)), requires_grad=True)
        c = rng.standard_normal((4, 1))
        loss = (x * c).sum()
        (gx,) = grads(loss, [x])
        np.testing.assert_allclose(gx, np.broadcast_to(c, (4, 3)))

    def test_scalar_times_matrix(self, rng):
        x = Ref(rng.standard_normal((2, 2)), requires_grad=True)
        loss = (3.0 * x).sum()
        (gx,) = grads(loss, [x])
        np.testing.assert_allclose(gx, np.full((2, 2), 3.0))


class TestRowSlices:
    def test_rows_split_gradient(self, rng):
        x = Ref(rng.standard_normal((6, 2)), requires_grad=True, name="x")
        top, bottom = x.rows(0, 2), x.rows(2, 6)
        np.testing.assert_array_equal(top.data, x.data[:2])
        loss = (top * 3.0).sum() + bottom.square().sum()
        (gx,) = grads(loss, [x])
        np.testing.assert_array_equal(gx[:2], np.full((2, 2), 3.0))
        np.testing.assert_array_equal(gx[2:], 2.0 * x.data[2:])


class TestReductionsAndConcat:
    def test_sum_axis(self, rng):
        x = Ref(rng.standard_normal((3, 4)), requires_grad=True)
        loss = (x.sum(axis=1, keepdims=True) * np.array([[1.0], [2.0], [3.0]])).sum()
        (gx,) = grads(loss, [x])
        np.testing.assert_allclose(gx, np.repeat(np.array([[1.0], [2.0], [3.0]]), 4, axis=1))

    def test_mean(self, rng):
        x = Ref(rng.standard_normal(8), requires_grad=True)
        (gx,) = grads(x.mean(), [x])
        np.testing.assert_allclose(gx, np.full(8, 1 / 8))

    def test_concat_splits_gradient(self, rng):
        a = Ref(rng.standard_normal((2, 3)), requires_grad=True)
        b = rng.standard_normal((2, 5))
        joined = concat([a, b], axis=1)
        w = rng.standard_normal((2, 8))
        loss = (joined * w).sum()
        (ga,) = grads(loss, [a])
        np.testing.assert_allclose(ga, w[:, :3])


class TestFiniteDifferenceAgreement:
    def test_mlp_like_composition(self, rng):
        W1 = Ref(rng.standard_normal((4, 6)) / 2, requires_grad=True, name="W1")
        b1 = Ref(rng.standard_normal(6) / 2, requires_grad=True, name="b1")
        W2 = Ref(rng.standard_normal((6, 2)) / 2, requires_grad=True, name="W2")
        x = rng.standard_normal((3, 4))

        def loss_value():
            h = (Ref(x) @ W1 + b1).tanh()
            return float((h @ W2).square().sum().data)

        h = (Ref(x) @ W1 + b1).tanh()
        loss = (h @ W2).square().sum()
        analytic_grads = grads(loss, [W1, b1, W2])
        h_fd = 1e-6
        for param, analytic in zip((W1, b1, W2), analytic_grads):
            it = np.nditer(param.data, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param.data[idx]
                param.data[idx] = orig + h_fd
                up = loss_value()
                param.data[idx] = orig - h_fd
                down = loss_value()
                param.data[idx] = orig
                fd = (up - down) / (2 * h_fd)
                assert abs(fd - analytic[idx]) <= 1e-6 * max(1.0, abs(fd))


class TestGradContract:
    def test_unused_parameter_reported(self):
        x = Ref(np.array(1.0), requires_grad=True, name="x")
        unused = Ref(np.array(2.0), requires_grad=True, name="unused")
        loss = x * x
        with pytest.raises(UnusedParameterError, match="unused"):
            grad(loss, [x, unused])

    def test_on_record_but_no_influence_gives_zero(self):
        x = Ref(np.array(1.5), requires_grad=True, name="x")
        w = Ref(np.array(2.5), requires_grad=True, name="w")
        loss = x * x + w * 0.0
        gx, gw = grads(loss, [x, w])
        assert gx == pytest.approx(3.0)
        assert gw == 0.0

    def test_backward_requires_scalar(self):
        x = Ref(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward({})

    def test_grad_walks_the_graph_once(self, monkeypatch, rng):
        walks = []
        toposort = Tensor._toposort

        def counting(self):
            walks.append(self)
            return toposort(self)

        monkeypatch.setattr(Tensor, "_toposort", counting)
        W = Ref(rng.standard_normal((4, 3)), requires_grad=True, name="W")
        b = Ref(np.zeros(3), requires_grad=True, name="b")
        loss = (Ref(rng.standard_normal((5, 4))) @ W + b).tanh().square().sum()
        grad(loss, [W, b])
        assert len(walks) == 1
        walks.clear()
        unused = Ref(np.ones(2), requires_grad=True, name="unused")
        with pytest.raises(UnusedParameterError, match="unused"):
            grad(loss, [W, unused, b])
        assert len(walks) == 1

    def test_flat_buffer_holds_each_gradient_in_its_span(self, rng):
        W = Ref(rng.standard_normal((4, 3)), requires_grad=True, name="W")
        b = Ref(rng.standard_normal(3), requires_grad=True, name="b")
        x = Ref(rng.standard_normal((5, 4)))
        flat = grad(((x @ W + b).tanh() * 2.0).sum(), [W, b])
        assert flat.shape == (15,)
        y = np.tanh(x.data @ W.data + b.data)
        ga = 2.0 * (1.0 - y * y)
        np.testing.assert_allclose(flat[:12].reshape(4, 3), x.data.T @ ga, rtol=1e-12)
        np.testing.assert_allclose(flat[12:], ga.sum(axis=0), rtol=1e-12)

    def test_first_contribution_is_assigned_and_later_ones_added(self):
        """A −0.0 gradient stays −0.0, and a parameter used twice gets the sum
        of its contributions in the walk's order, bit for bit."""
        x = Ref(np.array([1.0, 2.0]), requires_grad=True, name="x")
        (gx,) = grads((x * Ref(np.array([-0.0, 3.0]))).sum(), [x])
        assert np.signbit(gx[0]) and gx[1] == 3.0
        a = np.array([0.1, 0.7])
        c = np.array([0.2, -1e-17])
        (gx,) = grads((x * Ref(a)).sum() + (x * Ref(c)).sum(), [x])
        # the later use is walked first
        assert gx.tobytes() == (c + a).tobytes()

    def test_add_of_equal_shapes_passes_the_gradient_to_both(self):
        """The one op of encdiff's own Tensor: the sum of two losses."""
        a = Tensor(np.array(1.5), requires_grad=True, name="a")
        b = Tensor(np.array(-2.5), requires_grad=True, name="b")
        loss = a + b
        assert loss._op == "add" and float(loss.data) == -1.0
        ga, gb = grads(loss, [a, b])
        assert ga == 1.0 and gb == 1.0
        with pytest.raises(ValueError, match="equal shapes"):
            a + Tensor(np.ones(2))

    def test_node_with_no_parent_on_the_record_is_a_constant(self):
        """A node made only from constants drops its backward, so no consumer
        computes a gradient for it; one live parent keeps it."""
        def node(*parents):
            return Tensor(np.ones(2), _parents=parents, _op="node", _backward=lambda g: (g,) * 2)

        assert node()._backward is None
        assert node(Tensor(np.ones(2)), node(Tensor(np.ones(2))))._backward is None
        live = Tensor(np.ones(2), requires_grad=True)
        assert node(Tensor(np.ones(2)), live)._backward is not None
        assert node(node(live))._backward is not None

    def test_parameter_without_requires_grad_rejected(self):
        x = Ref(np.array(1.0), requires_grad=True, name="x")
        frozen = Ref(np.array(2.0), name="frozen")
        with pytest.raises(ValueError, match="frozen"):
            grad(x * frozen, [x, frozen])


class TestNumericsDiagnostics:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nonfinite_op_names_the_op(self):
        a = Ref(np.array(1e200))
        with pytest.raises(NumericsError, match="square"):
            _ = a.square()

    def test_nonfinite_leaf_rejected(self):
        with pytest.raises(NumericsError):
            Tensor(np.array([1.0, np.inf]))

    # ops that overflow warn, and so does the sum of the finite check
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("make, op", [
        # numpy's pairwise sum keeps 8 partial sums: the two 1e308 land in one
        # and the two −1e308 in another, whose total is inf − inf = NaN
        pytest.param(lambda: Ref(np.tile([1e308, -1e308, 0, 0, 0, 0, 0, 0], 2)).sum(),
                     "sum", id="nan"),
        pytest.param(lambda: Ref(np.array([1e200, 1.0])) * Ref(np.array([1e200, 1.0])),
                     "mul", id="inf"),
        pytest.param(lambda: Ref(np.array([-1e200, 1.0])) * Ref(np.array([1e200, 1.0])),
                     "mul", id="minus-inf"),
        pytest.param(lambda: Ref(np.array([[1e308], [1e308]])).sum(), "sum",
                     id="sum-overflow"),
    ])
    def test_nonfinite_result_names_the_op(self, make, op):
        with pytest.raises(NumericsError, match=f"'{op}'"):
            make()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_leaf_entry_found_behind_overflowing_sum(self, bad):
        with pytest.raises(NumericsError, match="'leaf'"):
            Tensor(np.array([1e308, 1e308, bad]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_entries_whose_sum_overflows_pass(self):
        big = np.array([1e308, 1e308])
        assert all_finite(big)
        a = Tensor(big)
        out = a + Tensor(np.zeros(2))
        np.testing.assert_array_equal(out.data, big)
        assert not all_finite(np.array([1e308, np.nan]))

"""Gradient tests: encdiff's Tensor and grad(), which map a loss's gradient
to (parameter, gradient) pairs and write them into one flat buffer; and the
composed reference's engine (composed.py), which the fused losses of encdiff
are checked against, on hand-derived gradients, finite differences and
broadcasting."""

import numpy as np
import pytest

from composed import Ref, concat, grad as ref_grad
from encdiff.autodiff import Tensor, all_finite, grad
from encdiff.errors import NumericsError, UnusedParameterError
from encdiff.nets import ParamStore


def grads(loss, params):
    """The reference grad()'s flat buffer split back into one array per parameter."""
    flat = ref_grad(loss, params)
    bounds = np.cumsum([p.data.size for p in params])[:-1]
    return [part.reshape(p.shape) for part, p in zip(np.split(flat, bounds), params)]


def parameters(**values):
    """Parameters of a fresh ParamStore, by name."""
    return ParamStore().add_many({name: np.asarray(v, dtype=np.float64)
                                  for name, v in values.items()})


def loss_of(value, *pairs):
    """A scalar Tensor whose gradient g sends g times each given array to its
    parameter, in the order given."""
    return Tensor(value, "loss", lambda g: [(p, g * pg) for p, pg in pairs])


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
        p = parameters(x=1.0, unused=2.0)
        loss = loss_of(1.0, (p["x"], np.array(2.0)))
        with pytest.raises(UnusedParameterError, match="unused"):
            grad(loss, [p["x"], p["unused"]])

    def test_on_record_but_no_influence_gives_zero(self):
        p = parameters(x=1.5, w=2.5)
        loss = loss_of(2.25, (p["x"], np.array(3.0)), (p["w"], np.array(0.0)))
        flat = grad(loss, [p["x"], p["w"]])
        assert flat[0] == 3.0 and flat[1] == 0.0

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)).backward({})

    def test_grad_walks_the_graph_once(self):
        """grad() asks the loss for its pairs once, also when it reports an
        unused parameter."""
        p = parameters(w=np.ones((4, 3)), b=np.zeros(3), unused=np.ones(2))
        calls = []
        loss = Tensor(1.0, "loss", lambda g: calls.append(g) or [(p["w"], np.ones((4, 3))),
                                                                 (p["b"], np.ones(3))])
        grad(loss, [p["w"], p["b"]])
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(UnusedParameterError, match="unused"):
            grad(loss, [p["w"], p["unused"], p["b"]])
        assert len(calls) == 1

    def test_flat_buffer_holds_each_gradient_in_its_span(self, rng):
        p = parameters(w=rng.standard_normal((4, 3)), b=rng.standard_normal(3))
        gw, gb = rng.standard_normal((4, 3)), rng.standard_normal(3)
        # the store's order, whatever order the pairs come in
        flat = grad(loss_of(0.5, (p["b"], gb), (p["w"], gw)), [p["w"], p["b"]])
        assert flat.shape == (15,)
        assert flat[:12].reshape(4, 3).tobytes() == gw.tobytes()
        assert flat[12:].tobytes() == gb.tobytes()

    def test_first_contribution_is_assigned_and_later_ones_added(self):
        """A −0.0 gradient stays −0.0, and a parameter sent two gradients gets
        their sum, bit for bit."""
        p = parameters(x=[1.0, 2.0])
        flat = grad(loss_of(1.0, (p["x"], np.array([-0.0, 3.0]))), [p["x"]])
        assert np.signbit(flat[0]) and flat[1] == 3.0
        a = np.array([0.1, 0.7])
        c = np.array([0.2, -1e-17])
        flat = grad(loss_of(1.0, (p["x"], a)) + loss_of(2.0, (p["x"], c)), [p["x"]])
        assert flat.tobytes() == (a + c).tobytes()

    def test_add_of_equal_shapes_passes_the_gradient_to_both(self):
        """The one op of encdiff's Tensor: the sum of two losses, whose pairs
        are both summands' in order."""
        p = parameters(a=1.5, b=-2.5)
        loss = loss_of(1.5, (p["a"], np.array(1.0))) + loss_of(-2.5, (p["b"], np.array(1.0)))
        assert loss.op == "add" and float(loss.data) == -1.0
        assert [param for param, _ in loss.param_grads(np.array(1.0))] == [p["a"], p["b"]]
        assert grad(loss, [p["a"], p["b"]]).tolist() == [1.0, 1.0]
        with pytest.raises(ValueError, match="equal shapes"):
            loss + Tensor(np.ones(2))

    def test_node_with_no_parent_on_the_record_is_a_constant(self):
        """A Tensor without a map is a constant: it writes no slot, the sum of
        two constants is one, and a sum with one live summand keeps its pairs."""
        p = parameters(x=2.0)
        constant = Tensor(np.array(1.0))
        assert constant.param_grads is None
        assert constant.backward({p["x"]: np.empty(())}) == set()
        assert (constant + Tensor(np.array(2.0))).param_grads is None
        live = constant + loss_of(3.0, (p["x"], np.array(4.0)))
        assert grad(live, [p["x"]]).tolist() == [4.0]


class TestNumericsDiagnostics:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nonfinite_op_names_the_op(self):
        a = Tensor(np.array([1e308, 1.0]))
        with pytest.raises(NumericsError, match="'add'"):
            _ = a + a
        with pytest.raises(NumericsError, match="'vloss'"):
            Tensor(np.nan, "vloss")

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

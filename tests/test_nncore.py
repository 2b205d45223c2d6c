import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from canids.nncore import (
    Adam,
    Conv1D,
    Dense,
    Flatten,
    InvalidOneHot,
    MalformedDescriptor,
    MaxPool1D,
    Network,
    NonFiniteGradient,
    ReLU,
    ShapeMismatch,
    Softmax,
    boundary_margin,
    cross_entropy,
    grad_check,
    jitter_parameters,
    network_from_descriptor,
    one_hot,
    softmax,
)
from canids.baselines import build_mlp
from canids.plenet import build_plenet
from helpers import legacy_grad_check


def finite_difference(loss_fn, array, h=1e-5):
    """Central-difference gradient of a scalar function of one array."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = loss_fn()
        flat[i] = orig - h
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return grad


class TestConv1D:
    def test_output_shape(self):
        conv = Conv1D(1, 5, 5, np.random.default_rng(0))
        out = conv.forward(np.random.default_rng(1).uniform(size=(1, 16, 1)))
        assert out.shape == (1, 12, 5)

    def test_all_ones_kernel_sums_window(self):
        conv = Conv1D(1, 1, 5)
        conv.w[...] = 1.0
        conv.b[...] = 0.0
        out = conv.forward(np.ones((1, 16, 1)))
        assert np.allclose(out, 5.0)

    def test_zero_input_gives_biases(self):
        conv = Conv1D(2, 3, 4, np.random.default_rng(2))
        conv.b[:] = [0.5, -1.0, 2.0]
        out = conv.forward(np.zeros((1, 10, 2)))
        assert np.allclose(out[0], conv.b)

    def test_param_count_formula(self):
        assert Conv1D(1, 5, 5).param_count() == 30
        assert Conv1D(5, 20, 5).param_count() == 520

    def test_zero_upstream_zero_grads(self):
        conv = Conv1D(1, 2, 3, np.random.default_rng(3))
        out = conv.forward(np.random.default_rng(4).uniform(size=(1, 8, 1)))
        conv.backward(np.zeros_like(out))
        assert not conv.gw.any() and not conv.gb.any()

    def test_single_upstream_element_chain_rule(self):
        rng = np.random.default_rng(5)
        conv = Conv1D(2, 3, 4, rng)
        x = rng.uniform(size=(1, 9, 2))
        out = conv.forward(x)
        up = np.zeros_like(out)
        t, f = 2, 1
        up[0, t, f] = 1.0
        conv.zero_grads()
        conv.backward(up)
        for k in range(4):
            for c in range(2):
                assert conv.gw[f, k, c] == pytest.approx(x[0, t + k, c])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        conv = Conv1D(2, 3, 5, rng)
        x = rng.uniform(size=(4, 12, 2))
        target = rng.uniform(size=(4, 8, 3))

        def loss_fn():
            return 0.5 * float(((conv.forward(x) - target) ** 2).sum())

        out = conv.forward(x)
        conv.zero_grads()
        dx = conv.backward(out - target)
        for analytic, array in ((conv.gw, conv.w), (conv.gb, conv.b)):
            numeric = finite_difference(loss_fn, array)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
            assert rel.max() < 1e-6
        numeric_dx = finite_difference(loss_fn, x)
        rel = np.abs(dx - numeric_dx) / np.maximum(np.abs(dx) + np.abs(numeric_dx), 1e-8)
        assert rel.max() < 1e-6

    def test_shape_mismatch(self):
        conv = Conv1D(1, 2, 5)
        with pytest.raises(ShapeMismatch):
            conv.forward(np.zeros((1, 3, 1)))  # shorter than kernel
        with pytest.raises(ShapeMismatch):
            conv.forward(np.zeros((1, 16, 2)))  # wrong channel count


class TestMaxPool1D:
    def test_basic(self):
        pool = MaxPool1D()
        out = pool.forward(np.array([[[1.0], [3.0], [2.0], [8.0]]]))
        assert out[0, :, 0].tolist() == [3.0, 8.0]

    def test_odd_length_floor(self):
        out = MaxPool1D().forward(np.arange(7, dtype=np.float64)[None, :, None])
        assert out.shape == (1, 3, 1)

    def test_tie_goes_to_earlier_index(self):
        pool = MaxPool1D()
        out = pool.forward(np.array([[[5.0], [5.0]]]))
        assert out[0, 0, 0] == 5.0
        dx = pool.backward(np.ones((1, 1, 1)))
        assert dx[0, :, 0].tolist() == [1.0, 0.0]

    def test_backward_routes_to_argmax(self):
        pool = MaxPool1D()
        pool.forward(np.array([[[1.0], [3.0], [2.0], [8.0]]]))
        dx = pool.backward(np.ones((1, 2, 1)))
        assert dx[0, :, 0].tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_dropped_tail_gets_zero_gradient(self):
        pool = MaxPool1D()
        pool.forward(np.array([[[1.0], [3.0], [99.0]]]))
        dx = pool.backward(np.ones((1, 1, 1)))
        assert dx[0, 2, 0] == 0.0

    def test_gradient_matches_finite_differences_away_from_ties(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(3, 10, 2))
        pool = MaxPool1D()
        target = rng.uniform(size=(3, 5, 2))

        def loss_fn():
            return 0.5 * float(((pool.forward(x) - target) ** 2).sum())

        out = pool.forward(x)
        dx = pool.backward(out - target)
        numeric = finite_difference(loss_fn, x)
        rel = np.abs(dx - numeric) / np.maximum(np.abs(dx) + np.abs(numeric), 1e-8)
        assert rel.max() < 1e-6


class TestDense:
    def test_identity_weights(self):
        dense = Dense(4, 4)
        dense.w[...] = np.eye(4)
        dense.b[...] = 0.0
        x = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.allclose(dense.forward(x[None])[0], x)

    def test_param_count(self):
        assert Dense(20, 500).param_count() == 10_500

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        dense = Dense(6, 4, rng)
        x = rng.uniform(size=(5, 6))
        target = rng.uniform(size=(5, 4))

        def loss_fn():
            return 0.5 * float(((dense.forward(x) - target) ** 2).sum())

        out = dense.forward(x)
        dense.zero_grads()
        dx = dense.backward(out - target)
        for analytic, array in ((dense.gw, dense.w), (dense.gb, dense.b), (dx, x)):
            numeric = finite_difference(loss_fn, array)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
            assert rel.max() < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Dense(4, 2).forward(np.zeros(5))


class TestActivationsAndLoss:
    @given(st.floats(-1e6, 1e6))
    def test_softmax_constant_pair(self, c):
        assert np.allclose(softmax(np.array([c, c])), [0.5, 0.5])

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=10))
    def test_softmax_probability_vector(self, xs):
        p = softmax(np.array(xs))
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-12

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=10), st.floats(-100, 100))
    def test_softmax_shift_invariance(self, xs, shift):
        x = np.array(xs)
        assert np.allclose(softmax(x), softmax(x + shift), atol=1e-12)

    def test_cross_entropy_perfect_prediction(self):
        loss, _ = cross_entropy(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert loss == pytest.approx(0.0, abs=1e-10)

    def test_cross_entropy_uniform(self):
        loss, _ = cross_entropy(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    @pytest.mark.parametrize("classes", [2, 3])
    def test_one_hot_of_no_labels_is_empty(self, classes):
        assert one_hot([], classes).shape == (0, classes)
        assert one_hot(np.zeros(0, dtype=np.int64), classes).shape == (0, classes)

    def test_invalid_onehot(self):
        with pytest.raises(InvalidOneHot):
            cross_entropy(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))

    def test_softmax_cross_entropy_composition_is_p_minus_y(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((6, 2))
        targets = one_hot(rng.integers(0, 2, 6))
        layer = Softmax()
        probs = layer.forward(logits)
        _, dprobs = cross_entropy(probs, targets)
        dlogits = layer.backward(dprobs)
        assert np.allclose(dlogits, (probs - targets) / 6, atol=1e-12)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = np.array([1.0, -2.0, 3.0])
        opt = Adam([p])
        opt.step([np.zeros(3)])
        assert p.tolist() == [1.0, -2.0, 3.0]

    def test_first_step_magnitude(self):
        # g=1 with defaults: m_hat = v_hat = 1, so the update is -lr/(1+eps)
        p = np.array([0.0])
        opt = Adam([p], lr=0.001)
        opt.step([np.array([1.0])])
        assert p[0] == pytest.approx(-0.001, rel=1e-6)

    def test_two_steps_match_scalar_recurrence(self):
        g = 0.7
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        p = np.array([0.3])
        opt = Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)
        # hand-rolled recurrence
        theta, m, v = 0.3, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            opt.step([np.array([g])])
        assert abs(p[0] - theta) < 1e-15

    def test_lr_zero_is_identity(self):
        rng = np.random.default_rng(10)
        p = rng.uniform(size=(4, 3))
        before = p.copy()
        opt = Adam([p], lr=0.0)
        for _ in range(5):
            opt.step([rng.standard_normal((4, 3))])
        assert np.array_equal(p, before)

    def test_nonfinite_gradient_rejected(self):
        opt = Adam([np.zeros(2)])
        with pytest.raises(NonFiniteGradient):
            opt.step([np.array([1.0, np.nan])])

    def test_shape_mismatch(self):
        opt = Adam([np.zeros(2)])
        with pytest.raises(ShapeMismatch):
            opt.step([np.zeros(3)])


class TestNetwork:
    def build_small(self, seed=0):
        rng = np.random.default_rng(seed)
        return Network(
            [
                Conv1D(1, 2, 3, rng),
                ReLU(),
                MaxPool1D(),
                Flatten(),
                Dense(6, 4, rng),
                ReLU(),
                Dense(4, 2, rng),
                Softmax(),
            ]
        )

    def test_forward_is_deterministic(self):
        net = self.build_small()
        x = np.random.default_rng(1).uniform(size=(5, 8, 1))
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_grad_check_small_conv_net(self):
        net = self.build_small(seed=3)
        rng = np.random.default_rng(4)
        jitter_parameters(net, rng)  # zero biases park clamped paths on kinks
        x = rng.uniform(size=(4, 8, 1))
        y = rng.integers(0, 2, 4)
        assert boundary_margin(net, x) > 1e-4
        assert grad_check(net, x, y) < 1e-5

    def test_grad_check_covers_frozen_layers(self):
        # Network.backward leaves frozen conv gradients unfilled; grad_check
        # still compares them, under the c02 bound
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 3:
            net = build_plenet(seed=int(rng.integers(0, 2**31)))
            for layer in net.layers:
                if isinstance(layer, Conv1D):
                    layer.frozen = True
            jitter_parameters(net, rng)
            x = rng.uniform(size=(4, 16, 1))
            y = rng.integers(0, 2, 4)
            if boundary_margin(net, x) < 1e-4:
                continue
            assert grad_check(net, x, y) < 1e-5
            checked += 1

    def test_grad_check_dense_only_tight(self):
        rng = np.random.default_rng(5)
        net = Network([Dense(6, 8, rng), ReLU(), Dense(8, 2, rng), Softmax()])
        jitter_parameters(net, rng)
        x = rng.uniform(size=(4, 6))
        y = rng.integers(0, 2, 4)
        assert boundary_margin(net, x) > 1e-4
        assert grad_check(net, x, y) < 1e-7

    def test_boundary_margin_detects_kink(self):
        rng = np.random.default_rng(6)
        net = Network([Dense(3, 3, rng), ReLU(), Dense(3, 2, rng), Softmax()])
        net.layers[0].w[...] = 0.0
        net.layers[0].b[...] = 0.0  # pre-activations exactly at the ReLU kink
        x = rng.uniform(size=(2, 3))
        assert boundary_margin(net, x) == 0.0

    def test_descriptor_round_trip(self):
        net = self.build_small()
        rebuilt = network_from_descriptor(net.describe())
        assert rebuilt.describe() == net.describe()
        assert rebuilt.param_count() == net.param_count()

    @pytest.mark.parametrize(
        "descriptor",
        ["conv1d:1", "dense:16", "dense:16:2:9", "relu:1", "dense:a:2", "dense:0:2", "lstm:4", ""],
    )
    def test_malformed_descriptor_is_typed(self, descriptor):
        with pytest.raises(MalformedDescriptor):
            network_from_descriptor(descriptor)

    def test_snapshot_restore(self):
        net = self.build_small(seed=7)
        saved = net.snapshot()
        for p in net.parameters():
            p += 1.0
        net.restore(saved)
        assert np.array_equal(net.param_buffer, saved)
        assert saved.shape == (net.param_count(),) and not np.shares_memory(saved, net.param_buffer)
        with pytest.raises(ShapeMismatch):
            net.restore(saved[:-1])


def _frozen_conv_plenet(seed):
    net = build_plenet(seed=seed)
    for layer in net.layers:
        if isinstance(layer, Conv1D):
            layer.frozen = True
    return net


def _two_conv_net(seed):
    rng = np.random.default_rng(seed)
    return Network(
        [Conv1D(1, 3, 3, rng), ReLU(), Conv1D(3, 2, 2, rng), MaxPool1D(), Flatten(), Dense(4, 2, rng), Softmax()]
    )


class TestGradCheckProbePath:
    """``grad_check`` probes Conv1D and Dense on one path, through ``affine_input`` and ``weight_matrix``."""

    @staticmethod
    def jittered(build, seed, width=16, batch=4):
        rng = np.random.default_rng(seed)
        net = build(seed)
        jitter_parameters(net, rng)
        x = net.layers[0].layout_rows(rng.uniform(size=(batch, width)))
        return net, x, rng.integers(0, 2, batch)

    @pytest.mark.parametrize(
        "build, width", [(build_plenet, 16), (build_mlp, 16), (_frozen_conv_plenet, 16), (_two_conv_net, 8)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_per_class_probes(self, build, width, seed):
        net, x, y = self.jittered(build, seed, width)
        assert grad_check(net, x, y) == legacy_grad_check(net, x, y)

    @pytest.mark.parametrize("cls", [Conv1D, Dense])
    @pytest.mark.parametrize("name", ["w", "b"])
    @pytest.mark.parametrize("coordinate", [0, -1])
    def test_wrong_gradient_coordinate_is_caught(self, cls, name, coordinate):
        # every coordinate of every parameter array is probed, the last block included
        for seed in range(50):  # the first configuration clear of kinks and ties
            net, x, y = self.jittered(_two_conv_net, seed, width=8)
            if boundary_margin(net, x) > 1e-4:
                break
        assert grad_check(net, x, y, block=4) < 1e-5
        layer = next(l for l in net.layers if isinstance(l, cls))
        backward = layer.backward

        def wrong_backward(grad, **kwargs):
            out = backward(grad, **kwargs)
            getattr(layer, "g" + name).reshape(-1)[coordinate] += 1.0
            return out

        layer.backward = wrong_backward
        assert grad_check(net, x, y, block=4) > 1e-3


class TestUnbatchedInput:
    """Layers take batches only: one sample without its batch axis is a shape error."""

    @pytest.mark.parametrize(
        "layer, x",
        [
            pytest.param(Conv1D(2, 3, 4), np.zeros((9, 2)), id="Conv1D"),
            pytest.param(MaxPool1D(), np.zeros((7, 3)), id="MaxPool1D"),
            pytest.param(Flatten(), np.zeros((4, 3)), id="Flatten"),
            pytest.param(Dense(6, 4), np.zeros(6), id="Dense"),
        ],
    )
    def test_raises_shape_mismatch(self, layer, x):
        with pytest.raises(ShapeMismatch):
            layer.forward(x)

"""The flat parameter buffer: bit-exact training, layer views, masked backward passes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from canids.baselines import build_mlp
from canids.bounds import OutOfRange
from canids.checkpoint import load_checkpoint, save_checkpoint
from canids.nncore import (
    Adam,
    Conv1D,
    Dense,
    Flatten,
    InvalidOneHot,
    MaxPool1D,
    Network,
    ReLU,
    Softmax,
    cross_entropy,
    one_hot,
)
from canids.plenet import PREDICT_BLOCK, TrainConfig, build_plenet, clone_model, predict, train, transfer_finetune
from helpers import (
    legacy_conv_backward,
    legacy_conv_forward,
    legacy_kernels,
    legacy_maxpool_backward,
    legacy_network_backward,
    legacy_relu_backward,
    legacy_relu_forward,
    toy_dataset,
)

SEEDS = (0, 1, 2)


def trained_bytes(model, history):
    return model.param_buffer.tobytes(), repr(history)


def run_both(monkeypatch, make_model, data, cfg, freeze=None):
    """Train once on the current kernels and once on the legacy ones."""

    def run():
        model = make_model()
        if freeze is None:
            return trained_bytes(*train(model, data, cfg))
        return trained_bytes(*transfer_finetune(model, data, cfg, freeze=freeze))

    current = run()
    with monkeypatch.context() as patch:
        legacy_kernels(patch)
        legacy = run()
    return current, legacy


class TestBitExactTraining:
    @staticmethod
    def cfg(seed):
        return TrainConfig(epochs=3, batch_size=16, patience=3, seed=seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_plenet(self, monkeypatch, seed):
        data = toy_dataset(n=240, seed=seed, gap=0.05)
        current, legacy = run_both(monkeypatch, lambda: build_plenet(seed), data, self.cfg(seed))
        assert current == legacy

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mlp(self, monkeypatch, seed):
        data = toy_dataset(n=240, seed=seed, gap=0.05)
        current, legacy = run_both(monkeypatch, lambda: build_mlp(seed), data, self.cfg(seed))
        assert current == legacy

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv_frozen_finetune(self, monkeypatch, seed):
        source, _ = train(build_plenet(seed), toy_dataset(n=240, seed=seed, gap=0.05), self.cfg(seed))
        target = toy_dataset(n=200, seed=seed + 50, gap=0.02)
        current, legacy = run_both(monkeypatch, lambda: source, target, self.cfg(seed), freeze="conv")
        assert current == legacy
        conv_size = sum(l.param_count() for l in source.layers if isinstance(l, Conv1D))
        assert current[0][: 8 * conv_size] == source.param_buffer[:conv_size].tobytes()


class TestScoringBetweenSteps:
    """``predict`` after every backward pass leaves training byte-equal to the legacy kernels.

    The scoring runs between a step's backward pass and its Adam update,
    once on a short call and once on a blocked one, so each drops the
    caches of the training batch and of its own passes.
    """

    @staticmethod
    def scoring_backward(monkeypatch, rows):
        backward = Network.backward

        def backward_then_score(self, grad):
            backward(self, grad)
            for n in (7, len(rows)):
                predict(self, rows[:n])

        monkeypatch.setattr(Network, "backward", backward_then_score)

    @pytest.mark.parametrize("freeze", ["none", "conv"])
    def test_matches_legacy_kernels(self, monkeypatch, freeze):
        cfg = TestBitExactTraining.cfg(seed=4)
        source = build_plenet(seed=4)
        data = toy_dataset(n=240, seed=4, gap=0.05)
        if freeze == "conv":
            source, _ = train(source, data, cfg)
            data = toy_dataset(n=200, seed=54, gap=0.02)
        rows = np.random.default_rng(4).uniform(size=(PREDICT_BLOCK + 76, 16))

        def run():
            return trained_bytes(*transfer_finetune(source, data, cfg, freeze=freeze))

        with monkeypatch.context() as patch:
            self.scoring_backward(patch, rows)
            scored = run()
        with monkeypatch.context() as patch:
            legacy_kernels(patch)
            legacy = run()
        assert scored == legacy


class TestPlenetConvProducts:
    """The 2-D conv products equal the old 3-D ones bit for bit at the plenet's two conv shapes.

    This is a property of these shapes on the OpenBLAS build the suite runs
    against, not of every shape: on random (batch, length, channels,
    filters, kernel) shapes the two product orders differ in the last bits
    about a third of the time.
    """

    @pytest.mark.parametrize("in_channels, filters, length", [(1, 5, 16), (5, 20, 6)])
    def test_matches_3d_products(self, in_channels, filters, length):
        for n in [*range(131), 512, 4000]:
            rng = np.random.default_rng(n)
            layer = Conv1D(in_channels, filters, 5, rng)
            legacy = Conv1D(in_channels, filters, 5)
            legacy.w[...] = layer.w
            legacy.b[...] = rng.standard_normal(filters)
            layer.b[...] = legacy.b
            x = rng.standard_normal((n, length, in_channels))
            out = layer.forward(x)
            assert out.tobytes() == legacy_conv_forward(legacy, x).tobytes(), n
            grad = rng.standard_normal(out.shape)
            assert layer.backward(grad).tobytes() == legacy_conv_backward(legacy, grad).tobytes(), n
            assert layer.gw.tobytes() == legacy.gw.tobytes(), n
            assert layer.gb.tobytes() == legacy.gb.tobytes(), n


class TestBackwardStopsAtLowestUpdatedLayer:
    @staticmethod
    def record_backward_calls(monkeypatch):
        calls = []
        for cls in (Conv1D, MaxPool1D, ReLU, Flatten, Dense, Softmax):
            def counted(self, grad, _orig=cls.backward, **kwargs):
                calls.append((type(self).__name__, kwargs))
                return _orig(self, grad, **kwargs)

            monkeypatch.setattr(cls, "backward", counted)
        return calls

    @pytest.mark.parametrize("freeze", ["none", "conv"])
    def test_layers_run_and_gradients(self, monkeypatch, freeze):
        net, full = build_plenet(seed=8), build_plenet(seed=8)
        if freeze == "conv":
            net.frozen_layers = 2  # both Conv1D layers
        x, targets = np.random.default_rng(8).uniform(size=(8, 16, 1)), one_hot(np.arange(8) % 2)
        legacy_network_backward(full, cross_entropy(full.forward(x), targets)[1])
        calls = self.record_backward_calls(monkeypatch)
        assert net.backward(cross_entropy(net.forward(x), targets)[1]) is None
        lowest = 7 if freeze == "conv" else 0  # the first Dense, or the first Conv1D
        assert [c[0] for c in calls] == [type(l).__name__ for l in reversed(net.layers[lowest:])]
        assert [c[1] for c in calls] == [{}] * (len(calls) - 1) + [{"input_grad": False}]
        for i, (layer, ref) in enumerate(zip(net.trainable_layers(), full.trainable_layers())):
            for g, g_ref in zip(layer.grads(), ref.grads()):
                if i < net.frozen_layers:
                    assert not g.any()
                else:
                    assert g.tobytes() == g_ref.tobytes()

    def test_nothing_to_update_runs_nothing(self, monkeypatch):
        net = Network([Dense(16, 2), Softmax()])
        net.frozen_layers = 1
        calls = self.record_backward_calls(monkeypatch)
        assert net.backward(np.ones((3, 2))) is None
        assert calls == []

    @pytest.mark.parametrize("layer, shape", [(Conv1D(2, 3, 4), (9, 2)), (Dense(6, 4), (6,))])
    @pytest.mark.parametrize("batched", [False, True])
    def test_layer_without_input_grad(self, layer, shape, batched):
        x = np.random.default_rng(9).standard_normal((3 if batched else 1, *shape))
        grad = np.ones_like(layer.forward(x))
        layer.zero_grads()
        dx = layer.backward(grad)
        expected = [g.copy() for g in layer.grads()]
        layer.zero_grads()
        assert dx.shape == x.shape
        assert layer.backward(grad, input_grad=False) is None
        assert all(g.tobytes() == e.tobytes() for g, e in zip(layer.grads(), expected))


# every float64 bit pattern: signed zeros, subnormals, infinities, NaN payloads
float_bits = st.integers(-(2**63), 2**63 - 1).map(lambda i: np.int64(i).view(np.float64))
specials = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.0, 5e-324])
any_float = st.one_of(float_bits, specials)


class TestMaskedSelect:
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 9)), elements=any_float),
           st.data())
    def test_relu_backward_matches_where(self, x, data):
        grad = data.draw(hnp.arrays(np.float64, x.shape, elements=any_float))
        before = x.tobytes()
        layer, legacy = ReLU(), ReLU()
        layer.forward(x)
        assert x.tobytes() == before  # a standalone ReLU never writes into its input
        legacy_relu_forward(legacy, x)
        assert layer.backward(grad).tobytes() == legacy_relu_backward(legacy, grad).tobytes()

    @given(hnp.arrays(np.float64, st.integers(0, 9), elements=any_float))
    def test_output_mask_is_input_mask(self, x):
        # ReLU caches its output, and backward's mask must not change with that
        assert np.array_equal(np.maximum(x, 0.0) > 0, x > 0)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(2, 9), st.integers(1, 3)),
                      elements=any_float),
           st.data())
    def test_maxpool_backward_matches_where(self, x, data):
        layer = MaxPool1D()
        out = layer.forward(x)
        grad = data.draw(hnp.arrays(np.float64, out.shape, elements=any_float))
        assert layer.backward(grad).tobytes() == legacy_maxpool_backward(layer, grad).tobytes()

    def test_single_sample_maxpool(self):
        layer = MaxPool1D()
        layer.forward(np.array([[[1.0], [3.0], [-0.0], [0.0]]]))
        grad = np.array([[[-0.0], [np.nan]]])
        assert layer.backward(grad).tobytes() == legacy_maxpool_backward(layer, grad).tobytes()


class TestOneHotCheck:
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 3)),
                      elements=st.sampled_from([0.0, -0.0, 1.0, 0.5, 2.0, -1.0, np.nan, np.inf])))
    def test_matches_isin_allclose(self, targets):
        valid = np.isin(targets, (0.0, 1.0)).all() and np.allclose(targets.sum(axis=1), 1.0)
        probs = np.full(targets.shape, 0.5)
        if valid:
            cross_entropy(probs, targets)
        else:
            with pytest.raises(InvalidOneHot):
                cross_entropy(probs, targets)


def assert_aliased(net):
    for layer in net.trainable_layers():
        for name in layer.param_names:
            assert np.shares_memory(getattr(layer, name), net.param_buffer)
            assert np.shares_memory(getattr(layer, "g" + name), net.grad_buffer)
    flat = np.concatenate([p.ravel() for p in net.parameters()])
    assert net.param_buffer.tobytes() == flat.tobytes()  # layer order, w before b
    assert net.param_buffer.size == net.grad_buffer.size == net.param_count()


class TestLayerViews:
    def test_build_plenet(self):
        assert_aliased(build_plenet(seed=4))

    def test_load_checkpoint(self, tmp_path):
        save_checkpoint(build_plenet(seed=4), tmp_path / "m.ckpt")
        assert_aliased(load_checkpoint(tmp_path / "m.ckpt")[0])

    def test_clone_model(self):
        copy = clone_model(build_plenet(seed=4))
        assert_aliased(copy)

    def test_restore(self):
        net = build_plenet(seed=4)
        saved = net.snapshot()
        net.param_buffer += 1.0
        net.restore(saved)
        assert_aliased(net)
        assert net.param_buffer.tobytes() == build_plenet(seed=4).param_buffer.tobytes()

    @pytest.mark.parametrize("freeze", ["none", "conv"])
    def test_transfer_finetune(self, freeze):
        cfg = TrainConfig(epochs=1, batch_size=32, seed=4)
        tuned, _ = transfer_finetune(build_plenet(seed=4), toy_dataset(n=100, seed=4), cfg, freeze)
        assert_aliased(tuned)

    def test_adam_step_reaches_checkpoint(self, tmp_path):
        net = build_plenet(seed=5)
        save_checkpoint(net, tmp_path / "before.ckpt")
        x = np.random.default_rng(5).uniform(size=(8, 16, 1))
        params, grads = net.updated_slice()
        net.zero_grads()
        net.backward(cross_entropy(net.forward(x), one_hot(np.arange(8) % 2))[1])
        Adam(params).step(grads)
        save_checkpoint(net, tmp_path / "after.ckpt")
        assert (tmp_path / "before.ckpt").read_bytes() != (tmp_path / "after.ckpt").read_bytes()
        loaded = load_checkpoint(tmp_path / "after.ckpt")[0]
        assert loaded.param_buffer.tobytes() == net.param_buffer.tobytes()

    def test_zero_grads_clears_every_layer(self):
        net = build_plenet(seed=6)
        x = np.random.default_rng(6).uniform(size=(4, 16, 1))
        net.backward(cross_entropy(net.forward(x), one_hot([0, 1, 1, 0]))[1])
        assert all(g.any() for g in net.gradients())
        net.zero_grads()
        assert not any(g.any() for g in net.gradients())


class TestUpdatedSlice:
    @staticmethod
    def span(net):
        params, grads = net.updated_slice()
        assert params.shape == grads.shape and params.ndim == 1
        assert np.shares_memory(params, net.param_buffer) or params.size == 0
        assert np.shares_memory(grads, net.grad_buffer) or grads.size == 0
        return net.param_buffer.size - params.size, params.size

    def test_unfrozen_is_the_whole_buffer(self):
        assert self.span(build_plenet(seed=0)) == (0, 12_052)

    def test_frozen_conv_prefix(self):
        net = build_plenet(seed=0)
        net.frozen_layers = 2
        assert self.span(net) == (550, 11_502)

    def test_each_count_starts_at_its_layer(self):
        rng = np.random.default_rng(0)
        net = Network([Dense(3, 4, rng), ReLU(), Dense(4, 5, rng), ReLU(), Dense(5, 2, rng), Softmax()])
        spans = []
        for count in range(4):
            net.frozen_layers = count
            spans.append(self.span(net))
        assert spans == [(0, 53), (16, 37), (41, 12), (53, 0)]

    def test_all_frozen_is_empty(self):
        net = Network([Dense(3, 2), Softmax()])
        net.frozen_layers = 1
        params, grads = net.updated_slice()
        assert params.size == grads.size == 0

    @pytest.mark.parametrize("count", [-1, 3, 5, 1.0])
    def test_out_of_range_count_raises_before_any_step(self, count):
        net = Network([Dense(3, 4), ReLU(), Dense(4, 2), Softmax()])
        before = net.snapshot()
        with pytest.raises(OutOfRange) as exc:
            net.frozen_layers = count
        assert str(exc.value) == f"frozen_layers must be an integer in [0, 2], got {count!r}"
        assert net.frozen_layers == 0 and net.snapshot().tobytes() == before.tobytes()

    def test_transfer_freezes_the_leading_convolutions(self, monkeypatch):
        counts = []
        monkeypatch.setattr("canids.plenet.train", lambda model, data, cfg: counts.append(model.frozen_layers))
        source = build_plenet(seed=0)
        for freeze in ("none", "conv"):
            transfer_finetune(source, toy_dataset(n=40), TrainConfig(epochs=1), freeze=freeze)
        assert counts == [0, 2] and source.frozen_layers == 0

    def test_no_trainable_layers(self):
        net = Network([ReLU(), Softmax()])
        assert net.param_buffer.size == 0
        net.zero_grads()
        assert net.snapshot().shape == (0,)

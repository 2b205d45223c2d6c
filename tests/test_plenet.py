import math

import numpy as np
import pytest
from helpers import toy_dataset, traced_peak

from canids.baselines import build_mlp
from canids.nncore import Adam, Conv1D, Dense, Network, WidthMismatch, one_hot
from canids.plenet import (
    PREDICT_BLOCK,
    DimensionMismatch,
    EmptyDomain,
    EmptyPartition,
    TrainConfig,
    build_plenet,
    clone_model,
    decide,
    mmd_distance,
    predict,
    train,
    transfer_finetune,
)


class TestArchitecture:
    def test_total_parameter_count(self):
        assert build_plenet(seed=0).param_count() == 12_052

    def test_layer_decomposition(self):
        assert build_plenet(seed=1).layer_param_counts() == [30, 520, 10_500, 1_002]

    def test_shapes_along_the_stack(self):
        net = build_plenet(seed=2)
        x = np.random.default_rng(0).uniform(size=(3, 16, 1))
        expected = [
            (3, 12, 5),  # conv1
            (3, 12, 5),  # relu
            (3, 6, 5),  # pool1
            (3, 2, 20),  # conv2
            (3, 2, 20),  # relu
            (3, 1, 20),  # pool2
            (3, 20),  # flatten
            (3, 500),  # dense1
            (3, 500),  # relu
            (3, 2),  # dense2
            (3, 2),  # softmax
        ]
        for layer, shape in zip(net.layers, expected):
            x = layer.forward(x)
            assert x.shape == shape

    def test_forward_is_probability_pair(self):
        net = build_plenet(seed=3)
        probs, _ = predict(net, np.random.default_rng(1).uniform(size=(10, 16)))
        assert probs.shape == (10, 2)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_seeded_init_reproducible(self):
        a, b = build_plenet(seed=9), build_plenet(seed=9)
        assert all(np.array_equal(p, q) for p, q in zip(a.parameters(), b.parameters()))


class TestPredict:
    def test_duplicated_rows_identical(self):
        net = build_plenet(seed=4)
        row = np.random.default_rng(2).uniform(size=16)
        probs, labels = predict(net, np.stack([row, row]))
        assert np.array_equal(probs[0], probs[1])
        assert labels[0] == labels[1]

    def test_batch_matches_single_row_oracle(self):
        net = build_plenet(seed=5)
        x = np.random.default_rng(3).uniform(size=(32, 16))
        batch_probs, batch_labels = predict(net, x)
        for i in range(len(x)):
            single_probs, single_labels = predict(net, x[i])
            assert np.allclose(batch_probs[i], single_probs[0], atol=1e-12)
            assert batch_labels[i] == single_labels[0]

    def test_exact_tie_counts_as_attack(self):
        net = build_plenet(seed=6)
        dense_out = net.layers[-2]
        dense_out.w[...] = 0.0
        dense_out.b[...] = 0.0  # forces softmax output (0.5, 0.5)
        _, labels = predict(net, np.random.default_rng(4).uniform(size=(5, 16)))
        assert labels.tolist() == [1] * 5

    @pytest.mark.parametrize("builder, mib", [(build_plenet, 11.0), (build_mlp, 2.5)])
    def test_memory_does_not_grow_with_the_rows(self, builder, mib):
        # 9.85 and 10.12 MiB traced for plenet, 1.83 and 2.10 for the MLP: one 1,024-row pass, the layers'
        # cached activations of the block before it and the output; one pass over every row took 5.8 and 1.2
        # KiB a row (22.6 MiB for plenet at 4,000 rows)
        net = builder(seed=1)
        for n in (2_000, 20_000):
            rows = np.random.default_rng(5).uniform(size=(n, 16))
            _, peak = traced_peak(lambda: predict(net, rows))
            assert peak <= mib * 2**20, (n, peak / 2**20)

    @pytest.mark.parametrize("builder", [build_plenet, build_mlp])
    def test_long_calls_run_zero_padded_blocks(self, builder):
        net = builder(seed=2)
        rows = np.random.default_rng(6).uniform(size=(2 * PREDICT_BLOCK + 300, 16))
        for n in (0, 1, 700, PREDICT_BLOCK):
            probs, labels = predict(net, rows[:n])
            assert probs.tobytes() == net.forward(net.layers[0].layout_rows(rows[:n])).tobytes()
            assert labels.tobytes() == decide(probs).tobytes()
        for n in (PREDICT_BLOCK + 1, len(rows)):
            padded = np.zeros((3 * PREDICT_BLOCK, 16))
            padded[:n] = rows[:n]
            want = np.concatenate([net.forward(net.layers[0].layout_rows(block))
                                   for block in np.split(padded, 3)])[:n]
            assert predict(net, rows[:n])[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [1, 15, 17, 18, 19, 20, 32])
    @pytest.mark.parametrize("builder", [build_plenet, build_mlp])
    def test_rows_of_another_width_are_refused(self, builder, width):
        with pytest.raises(WidthMismatch, match=rf"^expected 16-wide feature rows, got shape \(2, {width}\)$"):
            predict(builder(seed=3), np.zeros((2, width)))

    @pytest.mark.parametrize("builder", [build_plenet, build_mlp])
    def test_empty_batch(self, builder):
        probs, labels = predict(builder(seed=7), np.zeros((0, 16)))
        assert probs.shape == (0, 2)
        assert labels.shape == (0,)


class TestTrain:
    def test_separable_data_reaches_perfect_validation(self):
        data = toy_dataset(n=200, seed=7)
        model = build_plenet(seed=7)
        cfg = TrainConfig(epochs=50, batch_size=16, lr=1e-3, patience=50, seed=7)
        model, history = train(model, data, cfg)
        assert max(history.val_acc) == 1.0
        assert len(history) <= 50

    def test_lr_zero_is_identity(self):
        data = toy_dataset(n=60, seed=8)
        model = build_plenet(seed=8)
        before = [p.copy() for p in model.parameters()]
        cfg = TrainConfig(epochs=3, batch_size=16, lr=0.0, patience=50, seed=8)
        model, history = train(model, data, cfg)
        assert all(np.array_equal(p, q) for p, q in zip(model.parameters(), before))
        assert len(set(history.val_acc)) == 1

    def test_training_accuracy_counts_a_tie_as_attack(self):
        data = toy_dataset(n=60, seed=11)
        model = build_plenet(seed=11)
        dense_out = model.layers[-2]
        dense_out.w[...] = 0.0
        dense_out.b[...] = 0.0  # every probability pair is exactly (0.5, 0.5)
        _, history = train(model, data, TrainConfig(epochs=1, batch_size=16, lr=0.0, seed=11))
        assert 0 < data.train_y.mean() < 1
        assert history.train_acc[0] == data.train_y.mean()
        assert history.val_acc[0] == data.val_y.mean()

    def test_bit_reproducible_per_seed(self):
        data = toy_dataset(n=120, seed=9)
        cfg = TrainConfig(epochs=5, batch_size=16, seed=3)
        model_a, hist_a = train(build_plenet(seed=1), data, cfg)
        model_b, hist_b = train(build_plenet(seed=1), data, cfg)
        assert hist_a.val_acc == hist_b.val_acc
        assert hist_a.train_loss == hist_b.train_loss
        assert all(np.array_equal(p, q) for p, q in zip(model_a.parameters(), model_b.parameters()))

    def test_returns_best_epoch_checkpoint(self):
        data = toy_dataset(n=120, seed=10, gap=0.25)
        cfg = TrainConfig(epochs=8, batch_size=16, seed=5)
        model, history = train(build_plenet(seed=2), data, cfg)
        from canids.plenet import _evaluate

        _, val_acc = _evaluate(model, data.val_x, data.val_y)
        assert val_acc == max(history.val_acc)
        assert history.best_epoch == history.val_acc.index(max(history.val_acc))

    def test_early_stopping_cuts_run_short(self):
        data = toy_dataset(n=200, seed=11)
        cfg = TrainConfig(epochs=200, batch_size=16, patience=3, seed=1)
        _, history = train(build_plenet(seed=3), data, cfg)
        assert len(history) < 200

    def test_batch_targets_are_the_batch_rows_labels(self, monkeypatch):
        from canids import plenet

        data = toy_dataset(n=100, seed=8)
        row_label = {row.tobytes(): label for row, label in zip(data.train_x, data.train_y)}
        forward, loss, seen = Network.forward, plenet._cross_entropy, []

        def spy_forward(self, x):
            seen.append(x)
            return forward(self, x)

        def spy_loss(probs, targets):
            rows = seen[-1].reshape(len(targets), 16)
            assert targets.tolist() == one_hot([row_label[r.tobytes()] for r in rows]).tolist()
            return loss(probs, targets)

        monkeypatch.setattr(Network, "forward", spy_forward)
        monkeypatch.setattr(plenet, "_cross_entropy", spy_loss)
        train(build_plenet(seed=8), data, TrainConfig(epochs=2, batch_size=16, seed=8))

    @pytest.mark.parametrize("builder, kib", [(build_plenet, 1000), (build_mlp, 160)])
    def test_one_step_allocates_under_its_budget(self, builder, kib):
        # a batch of 64 after one warm-up step, as train runs it: 901 and 143 KiB traced
        from canids.plenet import _cross_entropy

        net = builder(seed=1)
        params, grads = net.updated_slice()
        opt = Adam(params)
        rng = np.random.default_rng(6)
        rows, targets = net.layers[0].layout_rows(rng.uniform(size=(64, 16))), one_hot(rng.integers(0, 2, 64))

        def step():
            _, dprobs = _cross_entropy(net.forward(rows), targets)
            net.zero_grads()
            net.backward(dprobs)
            opt.step(grads)

        step()
        _, peak = traced_peak(step)
        assert peak <= kib * 1024, peak / 1024

    def test_empty_partition_rejected(self):
        data = toy_dataset(n=50, seed=12)
        data.val_x = data.val_x[:0]
        data.val_y = data.val_y[:0]
        with pytest.raises(EmptyPartition):
            train(build_plenet(seed=0), data, TrainConfig(epochs=1))


class TestMmdDistance:
    def test_identical_domains_zero(self):
        x = np.random.default_rng(5).uniform(size=(40, 16))
        assert mmd_distance(x, x.copy()) == 0.0

    def test_mean_gap_one_dimensional(self):
        assert mmd_distance(np.zeros((10, 1)), np.ones((7, 1))) == pytest.approx(1.0)

    def test_matches_brute_force_means(self):
        rng = np.random.default_rng(6)
        a, b = rng.uniform(size=(30, 16)), rng.uniform(size=(50, 16))
        gaps = [sum(col) / len(col) for col in a.T]
        gaps = [g - sum(col) / len(col) for g, col in zip(gaps, b.T)]
        expected = math.sqrt(sum(g * g for g in gaps))
        assert mmd_distance(a, b) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(7)
        a, b, c = (rng.uniform(size=(20, 8)) for _ in range(3))
        assert mmd_distance(a, b) == pytest.approx(mmd_distance(b, a), abs=1e-15)
        assert mmd_distance(a, c) <= mmd_distance(a, b) + mmd_distance(b, c) + 1e-12

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            mmd_distance(np.zeros((3, 4)), np.zeros((3, 5)))
        with pytest.raises(EmptyDomain):
            mmd_distance(np.zeros((0, 4)), np.zeros((3, 4)))


class TestTransfer:
    def test_frozen_conv_layers_bit_identical(self):
        data = toy_dataset(n=120, seed=13)
        source, _ = train(build_plenet(seed=4), data, TrainConfig(epochs=3, batch_size=16, seed=2))
        conv_before = [l.w.copy() for l in source.layers if isinstance(l, Conv1D)]
        tuned, _ = transfer_finetune(source, data, TrainConfig(epochs=3, batch_size=16, seed=3), freeze="conv")
        conv_after = [l.w.copy() for l in tuned.layers if isinstance(l, Conv1D)]
        for before, after in zip(conv_before, conv_after):
            assert np.array_equal(before, after)
        # dense layers did move
        dense = [l for l in tuned.layers if isinstance(l, Dense)]
        source_dense = [l for l in source.layers if isinstance(l, Dense)]
        assert not np.array_equal(dense[0].w, source_dense[0].w)

    def test_conv_freeze_without_a_leading_conv_raises_before_any_step(self, monkeypatch):
        monkeypatch.setattr("canids.plenet.train", lambda *args: pytest.fail("trained"))
        with pytest.raises(ValueError) as exc:
            transfer_finetune(build_mlp(seed=0), toy_dataset(n=40), TrainConfig(epochs=1), freeze="conv")
        assert str(exc.value) == "freeze='conv' needs a leading Conv1D layer, but the first trainable layer is Dense"

    def test_source_untouched_by_finetune(self):
        data = toy_dataset(n=100, seed=14)
        source, _ = train(build_plenet(seed=5), data, TrainConfig(epochs=2, batch_size=16, seed=1))
        saved = [p.copy() for p in source.parameters()]
        transfer_finetune(source, data, TrainConfig(epochs=2, batch_size=16, seed=9))
        assert all(np.array_equal(p, s) for p, s in zip(source.parameters(), saved))

    def test_warm_start_on_same_data_not_materially_worse(self):
        data = toy_dataset(n=200, seed=15, gap=0.35)
        source, _ = train(build_plenet(seed=6), data, TrainConfig(epochs=15, batch_size=16, seed=4))
        from canids.plenet import _evaluate

        _, source_acc = _evaluate(source, data.val_x, data.val_y)
        tuned, _ = transfer_finetune(source, data, TrainConfig(epochs=5, batch_size=16, seed=5))
        _, tuned_acc = _evaluate(tuned, data.val_x, data.val_y)
        assert tuned_acc >= source_acc - 0.01

    def test_clone_is_independent(self):
        source = build_plenet(seed=16)
        copy = clone_model(source)
        copy.parameters()[0][...] += 1.0
        assert not np.array_equal(copy.parameters()[0], source.parameters()[0])

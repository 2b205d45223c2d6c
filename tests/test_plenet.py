import math

import numpy as np
import pytest
from helpers import toy_dataset

from canids.nncore import Conv1D, Dense
from canids.plenet import (
    DimensionMismatch,
    EmptyDomain,
    EmptyPartition,
    TrainConfig,
    build_plenet,
    clone_model,
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

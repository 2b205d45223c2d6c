from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import baselines
from canids.baselines import (
    KNN_BLOCK_BYTES,
    EmptyTrainingSet,
    KTooLarge,
    NonFiniteInput,
    build_mlp,
    knn_fit,
    knn_predict,
    tree_depth,
    tree_fit,
    tree_predict,
)
from canids.nncore import WidthMismatch, boundary_margin, grad_check, jitter_parameters
from canids.plenet import TrainConfig, train
from helpers import knn_difference_tensor, toy_dataset, traced_peak, tree_fields, tree_fit_argsort, tree_predict_loop


def knn_oracle(train_x, train_y, query, k):
    """All-pairs distances, index-stable sort, majority vote (ties -> 1)."""
    dists = [(float(((query - x) ** 2).sum()), i) for i, x in enumerate(train_x)]
    dists.sort(key=lambda pair: (pair[0], pair[1]))
    votes = [train_y[i] for _, i in dists[:k]]
    return 1 if sum(votes) * 2 >= len(votes) else 0


class TestKnn:
    def test_query_on_training_point_k1(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(30, 16))
        y = rng.integers(0, 2, 30).astype(np.uint8)
        model = knn_fit(x, y)
        labels, _ = knn_predict(model, x[7], k=1)
        assert labels[0] == y[7]

    def test_k_equals_n_gives_majority(self):
        x = np.arange(10, dtype=np.float64)[:, None]
        y = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        model = knn_fit(x, y)
        labels, votes = knn_predict(model, np.array([[100.0]]), k=10)
        assert labels[0] == 1
        assert votes[0] == pytest.approx(0.6)

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_matches_brute_force_oracle(self, k):
        rng = np.random.default_rng(k)
        x = rng.uniform(size=(500, 16))
        y = rng.integers(0, 2, 500).astype(np.uint8)
        queries = rng.uniform(size=(50, 16))
        model = knn_fit(x, y)
        labels, _ = knn_predict(model, queries, k=k)
        for label, query in zip(labels, queries):
            assert label == knn_oracle(x, y, query, k)

    def test_permutation_invariance_without_distance_ties(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(80, 16))
        y = rng.integers(0, 2, 80).astype(np.uint8)
        queries = rng.uniform(size=(10, 16))
        base, _ = knn_predict(knn_fit(x, y), queries, k=7)
        perm = rng.permutation(80)
        shuffled, _ = knn_predict(knn_fit(x[perm], y[perm]), queries, k=7)
        assert np.array_equal(base, shuffled)

    def test_errors(self):
        with pytest.raises(EmptyTrainingSet):
            knn_fit(np.empty((0, 16)), np.empty(0))
        model = knn_fit(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(KTooLarge, match="^k=4 with 3 training rows$"):
            knn_predict(model, np.zeros((1, 2)), k=4)

    def test_block_budget_caps_the_queries_per_block(self, monkeypatch):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 3, size=(40, 16)) / 2
        y = rng.integers(0, 2, 40).astype(np.uint8)
        queries = rng.integers(0, 3, size=(30, 16)) / 2
        model = knn_fit(x, y)
        for budget in (1, 8 * 40, 3 * 8 * 40 + 7):  # blocks of one query (never fewer), one and three
            monkeypatch.setattr(baselines, "KNN_BLOCK_BYTES", budget)
            got = knn_predict(model, queries, k=5)
            want = knn_difference_tensor(model, queries, k=5)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    def test_working_memory_does_not_grow_with_the_training_rows(self):
        # 40 queries a block against 12,800 distinct rows, 5 against 102,400: beyond the norms, 8 bytes a
        # distinct row, one Gram block with its candidate mask and a few rows of temporaries each time (1.12
        # and 1.18 budgets; 18.1 and 18.4 MiB under a 16 MiB budget). A separate norm sum and partition copy
        # beside the block made it twice the block, and 256-query blocks 53 and 426 MiB at 16 MiB.
        rng = np.random.default_rng(0)
        queries = rng.uniform(size=(256, 16))
        train = rng.uniform(size=(8 * 12_800, 16))
        labels = (train[:, 0] > 0.5).astype(np.uint8)
        peaks = []
        for n in (12_800, 8 * 12_800):
            model = knn_fit(train[:n], labels[:n])
            assert len(model.distinct) == n
            _, peak = traced_peak(lambda: knn_predict(model, queries, k=12))
            peaks.append(peak - 8 * n)
            assert peak - 8 * n <= 1.3 * KNN_BLOCK_BYTES, (n, peak)
        assert peaks[1] <= 1.1 * peaks[0], peaks

    @staticmethod
    def tied_rows(n, width):
        """n distinct permutations of arange(width) / width: every row lies at one exact distance from any query
        c * ones(width) whose terms (i / width - c) ** 2 and their sums are exact, as for c = 1/2 and 1/4."""
        x = np.random.default_rng(width).permuted(np.tile(np.arange(width) / width, (n, 1)), axis=1)
        assert len(np.unique(x, axis=0)) == n
        return x

    def test_re_rank_holds_under_48_bytes_a_candidate(self):
        # every distinct row ties, so all 200,000 (query, row) pairs are candidates: 36.1 bytes each (the norms,
        # and each member's index, distance, query and sort order), against 156 bytes with every candidate's
        # difference row held at once
        x = self.tied_rows(100_000, 16)
        model = knn_fit(x, (np.arange(100_000) % 2).astype(np.uint8))
        queries = np.array([[0.5] * 16, [0.25] * 16])
        (labels, votes), peak = traced_peak(lambda: knn_predict(model, queries, k=3))
        assert labels.tolist() == [0, 0] and votes.tolist() == [1 / 3, 1 / 3]
        assert peak <= 48 * len(queries) * len(x), peak

    def test_re_rank_memory_does_not_grow_with_the_width(self):
        # all 40,000 pairs tie: 1.57 and 1.58 MiB at widths 16 and 64, against 6.65 and 21.3 MiB with every
        # candidate's difference row held at once
        peaks = []
        for width in (16, 64):
            x = self.tied_rows(20_000, width)
            model = knn_fit(x, (np.arange(20_000) % 2).astype(np.uint8))
            queries = np.array([[0.5] * width, [0.25] * width])
            (labels, _), peak = traced_peak(lambda: knn_predict(model, queries, k=3))
            assert labels.tolist() == [0, 0]
            peaks.append(peak)
        assert peaks[1] <= 1.05 * peaks[0], peaks

    def test_fit_keeps_each_distinct_value_with_its_members_in_order(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -0.0], [0.0, 1.0], [2.0, 2.0], [-0.0, 1.0], [1.0, 0.0]])
        model = knn_fit(x, np.zeros(7))
        groups = [model.members[a:b].tolist() for a, b in zip(model.starts[:-1], model.starts[1:])]
        assert sorted(groups) == [[0, 2, 6], [1, 3, 5], [4]]
        for value, members in zip(model.distinct, groups):
            assert (x[members] == value).all()

    @pytest.mark.parametrize("levels", [None, 3])
    def test_fit_allocates_under_its_budget(self, levels):
        # 1.21x and 1.20x the rows' bytes with all 12,800 rows distinct and with 81 distinct values (1.20x at
        # 102,400 rows): the rows' sorted copy and its comparison mask. A model copy of the rows took 2.21x.
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(12_800, 16)) if levels is None else rng.integers(0, levels, size=(12_800, 16)) / levels
        if levels:
            x[:, 4:] = 0
        _, peak = traced_peak(lambda: knn_fit(x, (x[:, 0] > 0.5).astype(np.uint8)))
        assert peak <= 1.3 * x.nbytes, peak / x.nbytes

    @pytest.mark.parametrize("width", [1, 15, 17, 20])
    def test_rows_of_another_width_are_refused(self, width):
        x = np.random.default_rng(2).uniform(size=(30, 16))
        y = (x[:, 0] > 0.5).astype(np.uint8)
        message = rf"^expected 16-wide feature rows, got shape \(3, {width}\)$"
        with pytest.raises(WidthMismatch, match=message):
            knn_predict(knn_fit(x, y), np.zeros((3, width)), k=3)
        with pytest.raises(WidthMismatch, match=message):
            tree_predict(tree_fit(x, y, max_depth=3), np.zeros((3, width)))

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(NonFiniteInput):
            knn_fit(np.array([[0.0, np.inf]]), np.zeros(1))
        model = knn_fit(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(NonFiniteInput):
            knn_predict(model, np.array([[0.0, np.nan]]), k=1)

    def test_signed_zero_queries_fold_exactly(self):
        x = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        y = np.array([1, 0, 0, 1], dtype=np.uint8)
        queries = np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, -0.0]])
        model = knn_fit(x, y)
        for k in range(1, 5):
            got = knn_predict(model, queries, k=k)
            want = knn_difference_tensor(model, queries, k=k)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    @given(data=st.data())
    def test_tie_heavy_grid_matches_difference_tensor(self, data):
        """Coarse grids make duplicate rows, duplicate queries and exact ties common."""
        width = data.draw(st.sampled_from([1, 2, 3, 16]))
        levels = data.draw(st.integers(1, 4))
        # 3e-161 squares into a few hundred subnormal steps; 1e160 overflows squares to inf
        scale = data.draw(st.sampled_from([1.0, 0.1, 0.7, 1 / 255, 1 / 3, 3e-161, 1e160]))
        row = st.lists(st.integers(-levels, levels), min_size=width, max_size=width)
        train = data.draw(st.lists(row, min_size=1, max_size=40))
        n = len(train)
        y = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        picks = data.draw(st.lists(st.integers(0, n - 1), max_size=10))
        queries = [train[i] for i in picks] + data.draw(st.lists(row, min_size=1, max_size=10))
        queries = queries * data.draw(st.integers(1, 2))
        # down to 1 byte: blocks of one query and groups of one candidate
        budget = data.draw(st.one_of(st.integers(1, 2**14), st.just(KNN_BLOCK_BYTES)))
        model = knn_fit(np.array(train) * scale, np.array(y, dtype=np.uint8))
        q = np.array(queries) * scale
        for k in range(1, n + 1):
            with patch.object(baselines, "KNN_BLOCK_BYTES", budget):
                labels, votes = knn_predict(model, q, k=k)
            want_labels, want_votes = knn_difference_tensor(model, q, k=k)
            assert labels.tobytes() == want_labels.tobytes()
            assert votes.tobytes() == want_votes.tobytes()

    @given(data=st.data())
    def test_duplicated_training_rows_match_difference_tensor(self, data):
        """Few distinct training values, each held by many rows: conflicting labels, -0.0 beside 0.0, ties across
        distinct values, and k above the number of distinct values."""
        width = data.draw(st.sampled_from([1, 2, 16]))
        row = st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]), min_size=width, max_size=width)
        pool = data.draw(st.lists(row, min_size=1, max_size=5))
        train = [pool[i] for i in data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))]
        y = data.draw(st.lists(st.integers(0, 1), min_size=len(train), max_size=len(train)))
        queries = pool + data.draw(st.lists(row, min_size=1, max_size=8))
        scale = data.draw(st.sampled_from([1.0, 1 / 3, 3e-161, 1e160]))
        budget = data.draw(st.one_of(st.integers(1, 2**10), st.just(KNN_BLOCK_BYTES)))
        model = knn_fit(np.array(train) * scale, np.array(y, dtype=np.uint8))
        assert len(model.distinct) <= len(pool)
        q = np.array(queries) * scale
        for k in range(1, len(train) + 1):
            with patch.object(baselines, "KNN_BLOCK_BYTES", budget):
                labels, votes = knn_predict(model, q, k=k)
            want_labels, want_votes = knn_difference_tensor(model, q, k=k)
            assert labels.tobytes() == want_labels.tobytes()
            assert votes.tobytes() == want_votes.tobytes()


class TestDecisionTree:
    def test_single_class_is_lone_leaf(self):
        x = np.random.default_rng(1).uniform(size=(20, 4))
        tree = tree_fit(x, np.ones(20, dtype=np.uint8))
        assert tree.is_leaf
        assert tree.label == 1

    def test_one_dimensional_separable(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1], dtype=np.uint8)
        tree = tree_fit(x, y)
        assert not tree.is_leaf
        assert tree.threshold == pytest.approx(0.5)
        labels, _ = tree_predict(tree, x)
        assert np.array_equal(labels, y)

    def test_xor_needs_depth_two(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0], dtype=np.uint8)
        deep = tree_fit(x, y, max_depth=2)
        labels, _ = tree_predict(deep, x)
        assert np.array_equal(labels, y)
        shallow = tree_fit(x, y, max_depth=1)
        shallow_labels, _ = tree_predict(shallow, x)
        assert (shallow_labels == y).mean() <= 0.75

    def test_training_accuracy_monotone_in_depth(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(300, 6))
        y = ((x[:, 0] > 0.5) ^ (x[:, 1] > 0.5) ^ (x[:, 2] > 0.7)).astype(np.uint8)
        accs = []
        for depth in (1, 2, 4, 8, 12):
            labels, _ = tree_predict(tree_fit(x, y, max_depth=depth), x)
            accs.append((labels == y).mean())
        assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(50, 3))
        y = rng.integers(0, 2, 50).astype(np.uint8)
        tree = tree_fit(x, y, max_depth=20, min_leaf=10)

        def check(node):
            if node.is_leaf:
                assert sum(node.counts) >= 10
            else:
                check(node.left)
                check(node.right)

        check(tree)

    def test_depth_limit(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(200, 5))
        y = rng.integers(0, 2, 200).astype(np.uint8)
        assert tree_depth(tree_fit(x, y, max_depth=3)) <= 3

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            tree_fit(np.empty((0, 2)), np.empty(0))

    @pytest.mark.parametrize("depth", [0, 1, 4, 10])
    def test_equals_reference_loop_bit_for_bit(self, depth):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 8, size=(400, 6)) / 7  # repeated values, so queries land on thresholds
        y = ((x[:, 0] > 0.5) ^ (x[:, 1] > 0.3) | (rng.uniform(size=400) < 0.1)).astype(np.uint8)
        tree = tree_fit(x, y, max_depth=depth, min_leaf=3)
        thresholds, stack = [], [tree]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                thresholds.append(node.threshold)
                stack += [node.left, node.right]
        on_thresholds = np.resize(thresholds or [0.5], (60, 6))
        queries = np.vstack([x, rng.uniform(size=(200, 6)), on_thresholds])
        for q in (queries, queries[:0], queries[7]):
            labels, scores = tree_predict(tree, q)
            want_labels, want_scores = tree_predict_loop(tree, q)
            assert labels.dtype == want_labels.dtype and labels.tobytes() == want_labels.tobytes()
            assert scores.tobytes() == want_scores.tobytes()


    def test_non_finite_training_rows_are_refused(self):
        with pytest.raises(NonFiniteInput, match="^training rows contain NaN or infinity$"):
            tree_fit([[np.nan], [0.0], [1.0], [np.nan]], [1, 0, 1, 0])
        with pytest.raises(NonFiniteInput, match="^training rows contain NaN or infinity$"):
            tree_fit([[0.0, -np.inf], [1.0, 0.0]], [0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_queries_are_refused(self, bad):
        tree = tree_fit([[0.0], [1.0]], [0, 1])
        with pytest.raises(NonFiniteInput, match="^queries contain NaN or infinity$"):
            tree_predict(tree, [[0.5], [bad]])

    # Per-feature value pools: heavy ties, -0.0 beside 0.0, adjacent floats whose midpoint rounds onto the
    # right-hand value (1 + eps and 1 + 2 eps; one and two subnormal steps), and values whose sum overflows.
    POOLS = (
        (0.0, 1.0, 2.0),
        (-1.0, -0.0, 0.0, 0.5),
        (1.0, 1 + 2**-52, 1 + 2**-51, 1 + 3 * 2**-52),
        (0.0, 5e-324, 1e-323, 1.5e-323),
        (-1e308, 1.5e308, np.finfo(np.float64).max),
    )

    @settings(max_examples=300)
    @given(data=st.data())
    def test_equals_argsort_reference_node_for_node(self, data):
        n = data.draw(st.integers(1, 16))
        columns = []
        for _ in range(data.draw(st.integers(1, 3))):
            pool = data.draw(st.sampled_from(self.POOLS))
            pool = pool[: data.draw(st.integers(1, len(pool)))]  # one value makes a constant feature
            columns.append(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        x = np.array(columns).T
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
        depth = data.draw(st.integers(0, 5))
        for min_leaf in range(1, n + 1):
            assert tree_fields(tree_fit(x, y, depth, min_leaf)) == tree_fields(tree_fit_argsort(x, y, depth, min_leaf))

    def test_threshold_rounded_onto_the_right_hand_value_sends_it_left(self):
        x = np.array([[1 + 2**-52], [1 + 2**-51], [1 + 3 * 2**-52]])
        tree = tree_fit(x, [0, 1, 1], max_depth=1)
        assert tree.feature == 0 and tree.threshold == x[1, 0]  # the midpoint of x[0] and x[1] rounds to x[1]
        assert tree.left.counts == (1, 1) and tree.right.counts == (0, 1)
        assert tree_fields(tree) == tree_fields(tree_fit_argsort(x, [0, 1, 1], max_depth=1))

    def test_threshold_between_values_whose_sum_overflows_is_finite(self):
        x = np.array([[-1e308], [1.5e308], [np.finfo(np.float64).max]])
        tree = tree_fit(x, [0, 0, 1], max_depth=1)  # an overflow warning would fail the test
        assert tree.threshold == 1.5e308 / 2 + np.finfo(np.float64).max / 2  # finite; the sum is inf
        assert tree.left.counts == (2, 0) and tree.right.counts == (0, 1)
        assert tree_predict(tree, x)[0].tolist() == [0, 0, 1]

    @pytest.mark.parametrize("distinct, budget", [(None, 2.3), (256, 0.6)])
    def test_fit_allocates_under_its_budget(self, distinct, budget):
        # 2.10x and 0.52x the rows' bytes with every value distinct and with 256 values a feature: the narrow
        # value codes, each node's code counts and the row indices down one path of the tree. Copying every
        # node's rows and argsorting them took 2.56x and 1.90x.
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(12_800, 16)) if distinct is None else rng.integers(0, distinct, size=(12_800, 16)) / 255
        y = ((x[:, 0] > 0.5) ^ (x[:, 1] > 0.3) | (rng.uniform(size=len(x)) < 0.1)).astype(np.uint8)
        _, peak = traced_peak(lambda: tree_fit(x, y, max_depth=10, min_leaf=5))
        assert peak <= budget * x.nbytes, peak / x.nbytes

class TestMlp:
    def test_parameter_count_from_layer_formulas(self):
        # 16*68+68 + 68*68+68 + 68*2+2, each layer in*out + out
        expected = (16 * 68 + 68) + (68 * 68 + 68) + (68 * 2 + 2)
        assert build_mlp(seed=0).param_count() == expected
        assert expected == 5_986

    def test_forward_sums_to_one(self):
        net = build_mlp(seed=1)
        probs = net.forward(np.random.default_rng(0).uniform(size=(8, 16)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_gradient_check(self):
        net = build_mlp(seed=2)
        rng = np.random.default_rng(5)
        jitter_parameters(net, rng)
        x = rng.uniform(size=(4, 16))
        y = rng.integers(0, 2, 4)
        assert boundary_margin(net, x) > 1e-4
        assert grad_check(net, x, y) < 1e-6

    def test_trains_with_shared_loop(self):
        data = toy_dataset(n=150, seed=20)
        model, history = train(build_mlp(seed=3), data, TrainConfig(epochs=20, batch_size=16, seed=4))
        assert max(history.val_acc) == 1.0

"""Reference classifiers: exact KNN, a Gini decision tree, and a small MLP.

All three consume the same prepared 16-wide feature rows as the CNN. Label
ties resolve toward the attack class throughout, matching the classifier's
0.5-probability rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import Range
from .ingest import N_FEATURES
from .nncore import Dense, Network, ReLU, Softmax, check_width

MLP_HIDDEN = (68, 68)


class EmptyTrainingSet(ValueError):
    """Fit requires at least one training row."""


class KTooLarge(ValueError):
    """k exceeds the number of stored training rows."""


class NonFiniteInput(ValueError):
    """KNN or tree features contain NaN or infinity."""


# ---------------------------------------------------------------------------
# K-nearest neighbors
# ---------------------------------------------------------------------------


@dataclass
class KnnModel:
    """The training rows (the caller's array, not a copy) and labels, and the rows' distinct values.

    The training indices holding ``distinct[j]`` (under ``==``, so -0.0
    and 0.0 are one value) are ``members[starts[j] : starts[j + 1]]``, in
    ascending order.
    """

    x: np.ndarray
    y: np.ndarray
    distinct: np.ndarray
    members: np.ndarray
    starts: np.ndarray


def _require_finite(what: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteInput(f"{what} contain NaN or infinity")


def knn_fit(train_x: np.ndarray, train_y: np.ndarray) -> KnnModel:
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.uint8)
    if len(train_x) == 0:
        raise EmptyTrainingSet("KNN needs at least one training row")
    if len(train_x) != len(train_y):
        raise ValueError("features and labels differ in length")
    _require_finite("training rows", train_x)
    members = np.lexsort(train_x.T[::-1])  # stable, so each value's indices stay ascending
    ordered = train_x[members]
    new = np.empty(len(train_x), dtype=bool)
    new[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    del ordered
    starts = np.flatnonzero(new)
    return KnnModel(train_x, train_y.copy(), train_x[members[starts]], members, np.append(starts, len(train_x)))


@np.errstate(over="ignore", invalid="ignore")
def _gram_candidates(block: np.ndarray, x: np.ndarray, sq_x: np.ndarray, sq_x_max: float, k: int) -> np.ndarray:
    """Mask of the rows of x within the Gram error band of each query's k-th nearest.

    ``sq_x`` holds the squared norms of x's rows and ``sq_x_max`` their max.
    See ``knn_predict`` for the bound. Overflow is silenced here because a
    query whose bound overflows takes every row.

    g is formed in the product's own buffer, a few rows at a time, so the
    temporaries beside it (the norm sums and the partitioned copy) stay
    within a sixteenth of ``KNN_BLOCK_BYTES`` or one row of g.
    """
    sq_q = (block * block).sum(axis=1)
    gram = block @ x.T
    gram *= 2.0
    kth = np.empty(len(block))
    group = max(1, KNN_BLOCK_BYTES // 16 // (gram.itemsize * len(x)))
    for i in range(0, len(block), group):
        rows = gram[i : i + group]
        np.subtract(sq_q[i : i + group, None] + sq_x, rows, out=rows)
        kth[i : i + group] = np.partition(rows, k - 1, axis=1)[:, k - 1]
    norms = sq_q + sq_x_max
    info = np.finfo(np.float64)
    tol = 8 * (x.shape[1] + 4) * (info.eps * norms + info.smallest_subnormal)
    candidate = gram <= (kth + 2 * tol)[:, None]
    candidate[~np.isfinite(4 * norms)] = True
    return candidate


K = Range("k", 1)
KNN_BLOCK_BYTES = 4 * 2**20  # one block's Gram matrix, float64 queries x distinct training rows


def check_k(k: int, n_train: int) -> int:
    """``k`` if it is a neighbor count ``n_train`` stored rows can answer, else ``OutOfRange`` or ``KTooLarge``."""
    K.check(k)
    if k > n_train:
        raise KTooLarge(f"k={k} with {n_train} training rows")
    return k


@np.errstate(over="ignore")  # a square may overflow to inf, which sorts last
def _candidate_distances(block: np.ndarray, x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``((block[rows] - x[cols]) ** 2).sum(axis=1)``, squared in place a sixteenth of ``KNN_BLOCK_BYTES`` at a time."""
    dist = np.empty(len(rows))
    group = max(1, KNN_BLOCK_BYTES // 16 // max(1, x[:1].nbytes))
    for i in range(0, len(rows), group):
        diff = block[rows[i : i + group]]
        diff -= x[cols[i : i + group]]
        np.square(diff, out=diff).sum(axis=1, out=dist[i : i + group])
    return dist


def knn_predict(model: KnnModel, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-nearest vote by Euclidean distance.

    The distance of query q to training row x is the float64 value of
    ``((q - x) ** 2).sum()``. Distance ties break toward the lower training
    index; vote ties predict attack. Returns hard labels and the attack-vote
    fraction. Rows of another width than the training rows raise
    ``WidthMismatch``. The search runs over the model's distinct training
    values: a block takes as many distinct queries as keep its Gram matrix
    against them within ``KNN_BLOCK_BYTES`` (one at least), and the re-rank
    forms the difference rows a sixteenth of that at a time. Working memory
    is one such matrix, 8 bytes a distinct value and ~32 bytes a candidate
    member at any size or width (5.3 MiB traced for desk's 4,000 queries
    against 12,800 rows, 4,138 of them distinct at seed 23; 19.0 MiB over
    every row under a 16 MiB budget).

    The k nearest are found without forming every difference row:

    1. Duplicate queries are solved once, because the answer depends only
       on the query's values.
    2. For each block of unique queries, one matrix product gives the Gram
       form ``g = |q|^2 + |x|^2 - 2 q.x`` against every distinct value x;
       the ``|x|^2`` are computed once per call.
    3. The candidates of q are the values with ``g <= t + 2 tol``, where t is
       q's k-th smallest g over the values (the largest, if there are fewer
       than k) and ``tol`` bounds ``|g - e|`` (below).
    4. The distance e, as defined above, is computed for the candidates
       only, in groups (a row's sum is the same in any group). Each
       candidate stands for its first k members, which share its e; these
       are sorted stably by (e, training index), and the first k vote.

    Rows equal under ``==``, as -0.0 and 0.0 are, have one e to every
    query, because squaring drops the sign of a zero difference.

    Error bound. Let u = eps/2, gamma_n = n u / (1 - n u), d the width,
    D the real squared distance and S = |q|^2 + max |x|^2, so D <= 2S and
    2|q.x| <= S. Each term of e carries a relative error of at most
    gamma_3 and summing d non-negative terms adds gamma_{d-1}, so
    ``|e - D| <= gamma_{d+2} D <= 2 gamma_{d+2} S``. In g, the two norms
    err by at most gamma_d S together, the doubled dot product by gamma_d S
    (any summation order, FMA or not), and the final addition and
    subtraction by at most 3u(1 + gamma_d)^2 S; in all
    ``|g - D| <= 2 gamma_{d+2} S``. Hence ``|g - e| <= 4 gamma_{d+2} S``,
    about 2(d + 2) eps S, and ``tol = 8 (d + 4) (eps S + tiny)`` exceeds it.
    The ``tiny`` (smallest subnormal) term covers underflow: a product that
    underflows errs by at most tiny/2 absolutely, and e and g hold 4d
    products between them, the doubled dot product counting twice, so
    underflow adds at most 2.5 d tiny.

    Candidates suffice. The values with the smallest g, k of them or all,
    hold at least k rows, each with e <= t + tol, so the k-th smallest e over
    the rows, e_k, is at most t + tol. Every row with e <= e_k, which takes
    in the true k nearest and every row tied with the k-th, has
    g <= e + tol <= t + 2 tol, so its value is a candidate. Members of one
    value share e, so only a value's first k members by index can rank among
    the first k. So the first k of the candidates' members in (e, index)
    order are the first k of all rows in that order.

    The bound needs every intermediate to stay finite, which holds while 4S
    does. A query for which it does not takes every row as a candidate.
    Non-finite inputs raise ``NonFiniteInput``.
    """
    check_k(k, len(model.x))
    queries = check_width(np.atleast_2d(np.asarray(queries, dtype=np.float64)), model.x.shape[1])
    _require_finite("queries", queries)
    unique, inverse = np.unique(queries, axis=0, return_inverse=True)
    x = model.distinct
    # einsum makes no n_distinct x d temporary; a norm that overflows to inf makes every row a candidate
    with np.errstate(over="ignore"):
        sq_x = np.einsum("ij,ij->i", x, x)
    sq_x_max = sq_x.max()
    step = max(1, KNN_BLOCK_BYTES // (sq_x.itemsize * len(x)))
    frac = np.empty(len(unique))
    for start in range(0, len(unique), step):
        block = unique[start : start + step]
        # row-major like np.nonzero, whose 2-D form is many times slower
        rows, cols = np.divmod(np.flatnonzero(_gram_candidates(block, x, sq_x, sq_x_max, min(k, len(x)))), len(x))
        dist = _candidate_distances(block, x, rows, cols)
        # Each candidate value stands for its first k members, which share its distance. The arrays
        # are expanded one at a time, each source freed, so a member costs some 32 bytes at the peak.
        begins = np.searchsorted(rows, np.arange(len(block)))  # each query's first candidate
        del rows
        first_member = model.starts[cols]
        cols += 1
        take = model.starts[cols]
        del cols
        take -= first_member
        np.minimum(take, k, out=take)
        per_query = np.add.reduceat(take, begins)  # every query has a candidate
        first_member += take
        first_member -= np.cumsum(take)  # minus each value's offset in the expanded arrays
        index = np.repeat(first_member, take)
        del first_member
        index += np.arange(len(index))
        np.take(model.members, index, out=index)
        dist = np.repeat(dist, take)
        del take
        rows = np.repeat(np.arange(len(block)), per_query)
        order = np.lexsort((index, dist, rows))
        first = np.cumsum(per_query) - per_query
        nearest = index[order[first[:, None] + np.arange(k)]]
        frac[start : start + step] = model.y[nearest].mean(axis=1)
    labels = (frac >= 0.5).astype(np.uint8)
    inverse = inverse.reshape(-1)  # numpy 2.0.0 alone returns it as a column
    return labels[inverse], frac[inverse]


# ---------------------------------------------------------------------------
# Decision tree (CART, Gini impurity)
# ---------------------------------------------------------------------------


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    label: int = 0
    counts: tuple[int, int] = (0, 0)
    width: int = 0  # on the root: the width of the rows it was fit on

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    p = pos / total
    return 2 * p * (1 - p)


def _best_split(columns: list, idx: np.ndarray, ys: np.ndarray, min_leaf: int) -> tuple[int, float] | None:
    """Lowest weighted-Gini (feature, threshold) for rows ``idx`` at midpoints of consecutive values present among
    them; ``columns[f]`` holds feature f's sorted distinct values and each training row's index into them."""
    n = len(ys)
    best, best_score = None, np.inf
    for feature, (values, codes) in enumerate(columns):
        node = codes[idx]
        total = np.bincount(node)
        present = np.flatnonzero(total)
        count_left = np.cumsum(total[present])[:-1]
        pos = np.cumsum(np.bincount(node, weights=ys)[present])
        count_right = n - count_left
        valid = (count_left >= min_leaf) & (count_right >= min_leaf)
        if not valid.any():
            continue
        weighted = (
            count_left * _gini(pos[:-1], count_left)
            + count_right * _gini(pos[-1] - pos[:-1], count_right)
        ) / n
        weighted = np.where(valid, weighted, np.inf)
        i = int(np.argmin(weighted))
        if weighted[i] < best_score:
            below, above = values[present[i : i + 2]].tolist()
            mid = (below + above) / 2  # halving first would move subnormal midpoints, so only an overflow does
            best, best_score = (feature, mid if np.isfinite(mid) else below / 2 + above / 2), weighted[i]
    return best


MAX_DEPTH = Range("max_depth", 0)
MIN_LEAF = Range("min_leaf", 1)


def tree_fit(
    train_x: np.ndarray, train_y: np.ndarray, max_depth: int = 10, min_leaf: int = 1
) -> TreeNode:
    """Greedy binary CART minimizing weighted Gini impurity.

    Stops on purity, depth, or the minimum-leaf constraint; leaves predict
    the majority class with ties going to attack. Nodes count rows per value code.
    """
    MAX_DEPTH.check(max_depth)
    MIN_LEAF.check(min_leaf)
    x = np.asarray(train_x, dtype=np.float64)
    y = np.asarray(train_y, dtype=np.uint8)
    if len(x) == 0:
        raise EmptyTrainingSet("decision tree needs at least one training row")
    _require_finite("training rows", x)
    columns = []
    for column in x.T:
        values, codes = np.unique(column, return_inverse=True)
        columns.append((values, codes.astype(np.min_scalar_type(len(values) - 1))))
    del codes  # the last feature's wide codes, which grow would otherwise hold

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        ys = y[idx]
        pos = int(ys.sum())
        node = TreeNode(label=1 if 2 * pos >= len(ys) else 0, counts=(len(ys) - pos, pos))
        if depth >= max_depth or len(idx) < 2 * min_leaf or 0 in node.counts:
            return node
        split = _best_split(columns, idx, ys, min_leaf)
        if split is None:
            return node
        node.feature, node.threshold = split
        mask = x[idx, node.feature] <= node.threshold
        node.left = grow(idx[mask], depth + 1)
        node.right = grow(idx[~mask], depth + 1)
        return node

    root = grow(np.arange(len(y)), 0)
    root.width = x.shape[1]
    return root


def tree_predict(tree: TreeNode, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hard labels plus the attack fraction of each query's leaf; queries go down as index sets.

    Queries of another width than the tree was fit on raise ``WidthMismatch``, non-finite ones ``NonFiniteInput``.
    """
    queries = check_width(np.atleast_2d(np.asarray(queries, dtype=np.float64)), tree.width)
    _require_finite("queries", queries)
    labels = np.empty(len(queries), dtype=np.uint8)
    scores = np.empty(len(queries))
    pending = [(tree, np.arange(len(queries)))]
    while pending:
        node, idx = pending.pop()
        if node.is_leaf:
            labels[idx] = node.label
            neg, pos = node.counts
            scores[idx] = pos / (neg + pos) if neg + pos else 0.5
        elif len(idx):
            left = queries[idx, node.feature] <= node.threshold
            pending += [(node.left, idx[left]), (node.right, idx[~left])]
    return labels, scores


def tree_depth(tree: TreeNode) -> int:
    if tree.is_leaf:
        return 0
    return 1 + max(tree_depth(tree.left), tree_depth(tree.right))


# ---------------------------------------------------------------------------
# MLP (16 -> 68 -> 68 -> 2), trained with the shared loop
# ---------------------------------------------------------------------------


def build_mlp(seed: int = 0) -> Network:
    rng = np.random.default_rng(seed)
    return Network(
        [
            Dense(N_FEATURES, MLP_HIDDEN[0], rng),
            ReLU(),
            Dense(MLP_HIDDEN[0], MLP_HIDDEN[1], rng),
            ReLU(),
            Dense(MLP_HIDDEN[1], 2, rng),
            Softmax(),
        ]
    )

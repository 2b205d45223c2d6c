import numpy as np

from canids.ingest import NormalizationParams, PreparedDataset


def toy_dataset(n=200, seed=0, gap=0.6):
    """Linearly separable two-cluster data in the 16-wide feature layout."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n).astype(np.uint8)
    x = rng.uniform(0.0, 0.2, size=(n, 16))
    x[y == 1] += gap + 0.2
    x = np.clip(x, 0.0, 1.0)
    n_test = n // 5
    n_val = (n - n_test) // 5
    norm = NormalizationParams(np.zeros(16), np.ones(16))
    return PreparedDataset(
        train_x=x[n_test + n_val :],
        train_y=y[n_test + n_val :],
        val_x=x[n_test : n_test + n_val],
        val_y=y[n_test : n_test + n_val],
        test_x=x[:n_test],
        test_y=y[:n_test],
        norm=norm,
    )


def knn_difference_tensor(model, queries, k, chunk=256):
    """Reference KNN: full difference tensor and index-stable argsort per block."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    labels = np.empty(len(queries), dtype=np.uint8)
    votes = np.empty(len(queries))
    for start in range(0, len(queries), chunk):
        block = queries[start : start + chunk]
        d2 = ((block[:, None, :] - model.x[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        frac = model.y[nearest].mean(axis=1)
        votes[start : start + chunk] = frac
        labels[start : start + chunk] = (frac >= 0.5).astype(np.uint8)
    return labels, votes


class LegacyAdam:
    """Reference Adam: one parameter array at a time, fresh temporaries per expression."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        self.t += 1
        for i, (p, g) in enumerate(zip(self.params, grads, strict=True)):
            assert np.all(np.isfinite(g))
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1**self.t)
            v_hat = self.v[i] / (1 - self.beta2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def legacy_relu_backward(layer, grad):
    """Reference ReLU backward pass with ``np.where`` masking."""
    return np.where(layer._x > 0, grad, 0.0)


def legacy_maxpool_backward(layer, grad):
    """Reference MaxPool1D backward pass with ``np.where`` masking."""
    if layer._single:
        grad = grad[None]
    keep_first = layer._first >= layer._second
    out_len = grad.shape[1]
    dx = np.zeros(layer._in_shape)
    dx[:, 0 : 2 * out_len : 2, :] = np.where(keep_first, grad, 0.0)
    dx[:, 1 : 2 * out_len : 2, :] = np.where(keep_first, 0.0, grad)
    return dx[0] if layer._single else dx


def legacy_kernels(monkeypatch):
    """Patch training to the per-array Adam, per-layer zeroing and ``np.where`` masking.

    ``plenet.train`` then hands the optimizer one array per unfrozen weight
    or bias, as it did before the flat parameter buffer.
    """
    from canids import nncore, plenet

    def per_array_runs(net):
        live = [l for l in net.trainable_layers() if not l.frozen]
        return [p for l in live for p in l.params()], [g for l in live for g in l.grads()]

    def per_layer_zero_grads(net):
        for layer in net.layers:
            for g in layer.grads():
                g[...] = 0.0

    monkeypatch.setattr(plenet, "Adam", LegacyAdam)
    monkeypatch.setattr(nncore.Network, "trainable_runs", per_array_runs)
    monkeypatch.setattr(nncore.Network, "zero_grads", per_layer_zero_grads)
    monkeypatch.setattr(nncore.ReLU, "backward", legacy_relu_backward)
    monkeypatch.setattr(nncore.MaxPool1D, "backward", legacy_maxpool_backward)

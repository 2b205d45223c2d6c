"""Minimal neural-network kernel on float64 numpy: layers, loss, Adam.

Sized for networks of ~10^4 parameters. Convolution is valid-padding
cross-correlation; pooling uses non-overlapping windows of two with the
trailing odd element dropped and ties resolved toward the earlier index.
All backward passes are exact gradients verifiable against central finite
differences.

Backward caches: every ``forward`` keeps what its layer's ``backward``
needs, and the layer names those attributes in ``cache_names``: a dense
layer's input ``_x``, a convolution's gathered ``_windows``, a pool's
``_first``/``_second`` halves and a ReLU's or softmax's output ``_out``.
They stay alive until the next ``forward`` replaces them or
``Network.drop_caches`` releases them; ``backward`` needs the caches of
the ``forward`` just before it.
A pass that is not followed by a backward drops them before it returns:
``plenet.predict`` after every pass, so a scored model holds no
activations, and ``grad_check`` and ``boundary_margin`` after their
probes. Training's own forward passes keep theirs for the step's
backward.

Trainable layers share one base, ``_Affine``: the output is
``affine_input(x) @ weight_matrix(w) + b``, where a dense layer's input and
weights are used as they are and a convolution gathers (out_len, K*C)
windows and views its (F, K, C) kernel as a (K*C, F) matrix. The base
owns parameter set-up and ``param_count``; ``grad_check`` probes every
trainable layer through these two methods on one path.

Layers take batches only: sequence tensors are (batch, length, channels)
and flat tensors (batch, units); a single sample is a batch of one. A
network takes (batch, features) rows, laid out by its first layer's
``layout_rows``.

Freeze boundary: ``Network.frozen_layers`` counts the leading trainable
layers that training holds fixed; the layers above them are updated.
``Network.backward`` runs down to the lowest updated layer and asks it for
no input gradient (``backward(grad, input_grad=False)``). Layers below it
do not run, so the frozen layers get no gradients, and the method returns
nothing. A layer's own ``backward`` returns its input gradient by default;
``grad_check`` calls those directly to check every parameter.

Parameter storage: a ``Network`` owns one contiguous float64 parameter
vector (``param_buffer``) and one gradient vector of the same length
(``grad_buffer``). Each trainable layer's ``w``, ``b``, ``gw`` and ``gb``
are reshaped views into them, laid out in layer order with ``w`` before
``b`` -- the order of ``Network.parameters()`` and of the checkpoint
file. Zeroing the gradients is one fill, a snapshot is one copy of
``param_buffer`` and restoring it one copy back, and the optimizer steps
one slice of the buffer, from the first updated parameter to the end
(``Network.updated_slice``). The contract that keeps this sound: never
rebind ``layer.w`` (or ``b``, ``gw``, ``gb``) of a layer inside a network;
write through ``layer.w[...] = ...`` or ``np.copyto``. A layer belongs to
at most one network. Layers built on their own keep private arrays and
work standalone.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import Range


class ShapeMismatch(ValueError):
    """Tensor shape incompatible with the layer or operation."""


class WidthMismatch(ValueError):
    """Feature rows of another width than a model was built or fit on."""


def check_width(rows: np.ndarray, width: int) -> np.ndarray:
    """``rows`` if they are a (batch, ``width``) block, else ``WidthMismatch`` naming both widths."""
    if rows.ndim != 2 or rows.shape[1] != width:
        raise WidthMismatch(f"expected {width}-wide feature rows, got shape {rows.shape}")
    return rows


class InvalidOneHot(ValueError):
    """Target rows are not valid one-hot vectors."""


class MalformedDescriptor(ValueError):
    """An architecture descriptor token is unknown or has the wrong fields."""


class NonFiniteGradient(FloatingPointError):
    """Gradient contains NaN or infinity."""


class NonFiniteLoss(FloatingPointError):
    """Loss diverged to NaN or infinity."""


def softmax(x: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax along the last axis; rows sum to 1.

    Preserves the input float dtype so extended-precision probes stay
    extended-precision end to end.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("softmax requires finite inputs")
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def one_hot(labels: np.ndarray, classes: int = 2) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(f"labels must lie in [0, {classes})")
    out = np.zeros((len(labels), classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


_PROB_FLOOR = 1e-12


def cross_entropy(probs: np.ndarray, onehot: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean categorical cross-entropy and its gradient w.r.t. the probabilities.

    Probabilities are clamped to >= 1e-12 inside the log. Composed with the
    softmax backward pass this reproduces the usual (p - y) / N logits
    gradient exactly.
    """
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    onehot = np.atleast_2d(np.asarray(onehot, dtype=np.float64))
    if probs.shape != onehot.shape:
        raise ShapeMismatch(f"probs {probs.shape} vs targets {onehot.shape}")
    # entries of 0 or 1 make each row sum an exact integer, so "== 1" is exact
    if not (((onehot == 0.0) | (onehot == 1.0)).all() and (onehot.sum(axis=1) == 1.0).all()):
        raise InvalidOneHot("targets must be one-hot rows")
    return _cross_entropy(probs, onehot)


def _cross_entropy(probs: np.ndarray, onehot: np.ndarray) -> tuple[float, np.ndarray]:
    """``cross_entropy`` without its checks, for float64 arrays of equal shape and one-hot targets."""
    n = probs.shape[0]
    clamped = np.maximum(probs, _PROB_FLOOR)
    loss = float(-(onehot * np.log(clamped)).sum() / n)
    grad = -(onehot / clamped) / n
    return loss, grad


def _select(keep: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``np.where(keep, grad, 0.0)`` bit for bit, for a float64 gradient.

    ANDs the gradient's bit pattern with a sign-extended mask: a kept
    element passes unchanged (signed zeros, infinities and NaN payloads
    included) and a dropped one becomes +0.0.
    """
    mask = keep.astype(np.int64)
    np.negative(mask, out=mask)
    bits = np.asarray(grad, dtype=np.float64).view(np.int64)
    return np.bitwise_and(bits, mask, out=mask).view(np.float64)


class Layer:
    """Forward/backward pair; trainable layers carry weight and bias arrays.

    A trainable layer names its parameter attributes in ``param_names``;
    the gradient of parameter ``w`` lives in ``gw``. Every layer names the
    attributes its ``forward`` keeps for ``backward`` in ``cache_names``.
    """

    trainable = False
    param_names: tuple[str, ...] = ()
    cache_names: tuple[str, ...] = ()

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.param_names]

    def grads(self) -> list[np.ndarray]:
        return [getattr(self, "g" + name) for name in self.param_names]

    def zero_grads(self) -> None:
        for g in self.grads():
            g[...] = 0.0

    def layout_rows(self, rows: np.ndarray) -> np.ndarray:
        """This layer's batched input for (batch, features) feature rows."""
        return rows

    def spec(self) -> str:
        raise NotImplementedError


class _Affine(Layer):
    """Trainable layer computing ``affine_input(x) @ weight_matrix(w) + b``.

    A subclass sets what ``weight_matrix`` reads before ``__init__`` and defines its own passes.
    """

    trainable = True
    param_names = ("w", "b")

    def __init__(self, w_shape: tuple[int, ...], fan_in: int, fan_out: int, rng: np.random.Generator | None):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        self.w = (rng or np.random.default_rng(0)).uniform(-limit, limit, size=w_shape)
        self.b = np.zeros(self.weight_matrix(self.w).shape[1])
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def param_count(self) -> int:
        return sum(p.size for p in self.params())

    def affine_input(self, x: np.ndarray) -> np.ndarray:
        """The rows the weight matrix multiplies, inputs on the last axis; ``x`` itself here."""
        return x

    def weight_matrix(self, a: np.ndarray) -> np.ndarray:
        """``w`` (or ``gw``) as an (inputs, units) matrix view; ``a`` itself here."""
        return a


class Conv1D(_Affine):
    """Valid cross-correlation: out[t, f] = b[f] + sum_{k,c} w[f,k,c] x[t+k,c]."""

    cache_names = ("_windows",)

    def __init__(self, in_channels: int, filters: int, kernel_size: int, rng: np.random.Generator | None = None):
        if filters < 1 or kernel_size < 1 or in_channels < 1:
            raise ValueError("conv dimensions must be positive")
        self.in_channels = in_channels
        self.filters = filters
        self.kernel_size = kernel_size
        super().__init__((filters, kernel_size, in_channels), kernel_size * in_channels, kernel_size * filters, rng)

    def _window_index(self, length: int) -> np.ndarray:
        # gather index turning (batch, L, C) into (batch, out_len, K, C) windows
        if getattr(self, "_idx_length", None) != length:
            out_len = length - self.kernel_size + 1
            self._idx = (np.arange(out_len)[:, None] + np.arange(self.kernel_size)).ravel()
            self._idx_length = length
        return self._idx

    def affine_input(self, x):
        """(batch, out_len, K*C) windows of a (batch, length, C) input."""
        n, length, channels = x.shape
        out_len = length - self.kernel_size + 1
        return x[:, self._window_index(length), :].reshape(n, out_len, self.kernel_size * channels)

    def weight_matrix(self, a):
        return a.reshape(self.filters, -1).T

    def layout_rows(self, rows):
        return rows.reshape(len(rows), rows.shape[1] // self.in_channels, self.in_channels)

    def forward(self, x):
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ShapeMismatch(f"expected (batch, length, {self.in_channels}), got {x.shape}")
        if x.shape[1] < self.kernel_size:
            raise ShapeMismatch(f"length {x.shape[1]} shorter than kernel {self.kernel_size}")
        windows = self.affine_input(x)
        n, out_len, kc = windows.shape
        # (batch * out_len, K * C) windows: one 2-D product instead of one per sample
        self._windows = windows.reshape(n * out_len, kc)
        self._in_shape = x.shape
        out = self._windows @ self.weight_matrix(self.w)
        out += self.b
        return out.reshape(n, out_len, self.filters)

    def backward(self, grad, input_grad=True):
        n, length, channels = self._in_shape
        out_len = length - self.kernel_size + 1
        if grad.shape != (n, out_len, self.filters):
            raise ShapeMismatch(f"upstream gradient shape {grad.shape} mismatches forward output")
        flat_grad = grad.reshape(n * out_len, self.filters)
        self.gw += (flat_grad.T @ self._windows).reshape(self.w.shape)
        self.gb += grad.sum(axis=(0, 1))
        if not input_grad:
            return None
        dx = np.zeros(self._in_shape)
        for i in range(self.kernel_size):  # one product per tap; fusing them changes the bits
            dx[:, i : i + out_len, :] += (flat_grad @ self.w[:, i, :]).reshape(n, out_len, channels)
        return dx

    def spec(self):
        return f"conv1d:{self.in_channels}:{self.filters}:{self.kernel_size}"


class MaxPool1D(Layer):
    """Window-2 stride-2 max pooling; odd trailing element is dropped."""

    cache_names = ("_first", "_second")

    def forward(self, x):
        if x.ndim != 3 or x.shape[1] < 2:
            raise ShapeMismatch(f"expected (batch, length >= 2, channels), got {x.shape}")
        out_len = x.shape[1] // 2
        self._first = x[:, 0 : 2 * out_len : 2, :]
        self._second = x[:, 1 : 2 * out_len : 2, :]
        self._in_shape = x.shape
        return np.maximum(self._first, self._second)

    def backward(self, grad):
        if grad.shape != self._first.shape:
            raise ShapeMismatch(f"upstream gradient shape {grad.shape} mismatches forward output")
        keep_first = self._first >= self._second  # ties route to the earlier index
        out_len = grad.shape[1]
        dx = np.zeros(self._in_shape)
        dx[:, 0 : 2 * out_len : 2, :] = _select(keep_first, grad)
        dx[:, 1 : 2 * out_len : 2, :] = _select(~keep_first, grad)
        return dx

    def spec(self):
        return "maxpool"


class Flatten(Layer):
    def forward(self, x):
        if x.ndim != 3:
            raise ShapeMismatch(f"expected (batch, length, channels), got {x.shape}")
        self._in_shape = x.shape
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))

    def backward(self, grad):
        return grad.reshape(self._in_shape)

    def spec(self):
        return "flatten"


class Dense(_Affine):
    """Affine map out = x @ w + b with w of shape (in_units, out_units)."""

    cache_names = ("_x",)

    def __init__(self, in_units: int, out_units: int, rng: np.random.Generator | None = None):
        if in_units < 1 or out_units < 1:
            raise ValueError("dense dimensions must be positive")
        self.in_units = in_units
        self.out_units = out_units
        super().__init__((in_units, out_units), in_units, out_units, rng)

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_units:
            raise ShapeMismatch(f"expected (batch, {self.in_units}), got {x.shape}")
        self._x = x
        out = x @ self.w
        out += self.b
        return out

    def backward(self, grad, input_grad=True):
        if grad.shape != (self._x.shape[0], self.out_units):
            raise ShapeMismatch(f"upstream gradient shape {grad.shape} mismatches forward output")
        self.gw += self._x.T @ grad
        self.gb += grad.sum(axis=0)
        return grad @ self.w.T if input_grad else None

    def spec(self):
        return f"dense:{self.in_units}:{self.out_units}"


class ReLU(Layer):
    """max(x, 0), caching its output: ``out > 0`` is ``x > 0`` for every float, NaN and signed zeros included.

    ``in_place=True`` writes the output over ``x``; ``Network.forward`` asks
    for it only on an array the layer below has just allocated, never on a
    caller's.
    """

    cache_names = ("_out",)

    def forward(self, x, in_place=False):
        self._out = np.maximum(x, 0.0, out=x if in_place else None)
        return self._out

    def backward(self, grad):
        if grad.shape != self._out.shape:
            raise ShapeMismatch(f"upstream gradient shape {grad.shape} mismatches forward output")
        return _select(self._out > 0, grad)

    def spec(self):
        return "relu"


class Softmax(Layer):
    cache_names = ("_out",)

    def forward(self, x):
        self._out = softmax(x)
        return self._out

    def backward(self, grad):
        if grad.shape != self._out.shape:
            raise ShapeMismatch(f"upstream gradient shape {grad.shape} mismatches forward output")
        inner = (grad * self._out).sum(axis=-1, keepdims=True)
        return self._out * (grad - inner)

    def spec(self):
        return "softmax"


def _views(buffer: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive reshaped views of a flat buffer, one per shape."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[offset : offset + size].reshape(shape))
        offset += size
    return views


class Network:
    """A plain layer stack with explicit forward/backward passes.

    Construction moves every trainable layer's parameters and gradients
    into ``param_buffer`` and ``grad_buffer`` (see the module docstring).
    """

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)
        params, grads = self.parameters(), self.gradients()
        shapes = [p.shape for p in params]
        self.param_buffer = np.concatenate([np.zeros(0)] + [p.ravel() for p in params], dtype=np.float64)
        self.grad_buffer = np.concatenate([np.zeros(0)] + [g.ravel() for g in grads], dtype=np.float64)
        views = zip(_views(self.param_buffer, shapes), _views(self.grad_buffer, shapes))
        for layer in self.trainable_layers():
            for name in layer.param_names:
                p, g = next(views)
                setattr(layer, name, p)
                setattr(layer, "g" + name, g)
        self.frozen_layers = 0

    @property
    def frozen_layers(self) -> int:
        """How many leading trainable layers training holds fixed; 0 updates every layer."""
        return self._frozen_layers

    @frozen_layers.setter
    def frozen_layers(self, count: int) -> None:
        self._frozen_layers = int(Range("frozen_layers", 0, len(self.trainable_layers()), "[]").check(count))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The stack's output for ``x``, which it never writes into.

        A ReLU directly above a trainable layer overwrites that layer's
        freshly allocated output, so the pass holds one copy of each such
        activation, not two.
        """
        fresh = False  # x is a trainable layer's new output; Flatten, for one, may return a view of the caller's rows
        for layer in self.layers:
            x = layer.forward(x, in_place=True) if fresh and isinstance(layer, ReLU) else layer.forward(x)
            fresh = layer.trainable
        return x

    def backward(self, grad: np.ndarray) -> None:
        """Accumulate parameter gradients for the loss gradient ``grad`` w.r.t. the output.

        The pass stops at the lowest updated layer, the first trainable
        layer above the ``frozen_layers`` leading ones. That layer fills its
        own gradients and computes no input gradient; the layers below it do
        not run, so the frozen layers keep whatever their gradients held.
        Nothing is returned: no caller reads the gradient w.r.t. the network
        input.
        """
        updated = [i for i, l in enumerate(self.layers) if l.trainable][self.frozen_layers :]
        if not updated:
            return
        for layer in self.layers[: updated[0] : -1]:
            grad = layer.backward(grad)
        self.layers[updated[0]].backward(grad, input_grad=False)

    def drop_caches(self) -> None:
        """Release what every layer's last ``forward`` kept for ``backward`` (see the module docstring)."""
        for layer in self.layers:
            for name in layer.cache_names:
                vars(layer).pop(name, None)

    def trainable_layers(self) -> list[Layer]:
        return [l for l in self.layers if l.trainable]

    def parameters(self) -> list[np.ndarray]:
        return [p for l in self.trainable_layers() for p in l.params()]

    def gradients(self) -> list[np.ndarray]:
        return [g for l in self.trainable_layers() for g in l.grads()]

    def updated_slice(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of ``param_buffer`` and ``grad_buffer`` from the first updated parameter to the end."""
        start = sum(self.layer_param_counts()[: self.frozen_layers])
        return self.param_buffer[start:], self.grad_buffer[start:]

    def zero_grads(self) -> None:
        self.grad_buffer.fill(0.0)

    def param_count(self) -> int:
        return sum(l.param_count() for l in self.trainable_layers())

    def layer_param_counts(self) -> list[int]:
        return [l.param_count() for l in self.trainable_layers()]

    def describe(self) -> str:
        return "|".join(l.spec() for l in self.layers)

    def snapshot(self) -> np.ndarray:
        return self.param_buffer.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        if snapshot.shape != self.param_buffer.shape:
            raise ShapeMismatch(f"snapshot {snapshot.shape} vs parameters {self.param_buffer.shape}")
        np.copyto(self.param_buffer, snapshot)


_LAYER_TOKENS: dict[str, tuple[type[Layer], int]] = {
    "conv1d": (Conv1D, 3),
    "dense": (Dense, 2),
    "maxpool": (MaxPool1D, 0),
    "flatten": (Flatten, 0),
    "relu": (ReLU, 0),
    "softmax": (Softmax, 0),
}


def network_from_descriptor(descriptor: str, max_params: int | None = None) -> Network:
    """Rebuild a layer stack from its ``describe()`` string (weights unset).

    A stack holding more than ``max_params`` parameters raises
    ``MalformedDescriptor`` before any layer is built.
    """
    tokens = []
    for token in descriptor.split("|"):
        name, *args = token.split(":")
        if name not in _LAYER_TOKENS:
            raise MalformedDescriptor(f"unknown layer token {token!r}")
        layer_cls, n_fields = _LAYER_TOKENS[name]
        if len(args) != n_fields:
            raise MalformedDescriptor(f"layer token {token!r} needs {n_fields} fields")
        try:
            tokens.append((token, layer_cls, [int(a) for a in args]))
        except ValueError as exc:
            raise MalformedDescriptor(f"layer token {token!r}: {exc}") from None
    # conv1d:C:F:K holds F*K*C weights and F biases, dense:I:O holds I*O weights and O biases;
    # a token with a dimension below 1 holds none, as its layer refuses to be built
    needed = sum(math.prod(dims) + dims[1] for _, layer_cls, dims in tokens
                 if layer_cls.trainable and min(dims) > 0)
    if max_params is not None and needed > max_params:
        raise MalformedDescriptor(f"layers need {needed} parameters, at most {max_params} fit")
    layers: list[Layer] = []
    for token, layer_cls, dims in tokens:
        try:
            layers.append(layer_cls(*dims))
        except ValueError as exc:
            raise MalformedDescriptor(f"layer token {token!r}: {exc}") from None
    return Network(layers)


class Adam:
    """Adaptive moment estimation over one parameter array.

    A step updates the array in place, element by element in the order
    ``m = BETA1*m + (1-BETA1)*g``, ``v = BETA2*v + ((1-BETA2)*g)*g`` and
    ``p -= (lr*m_hat) / (sqrt(v_hat) + EPS)``, using two scratch arrays and
    no other temporaries. Given a network's ``updated_slice()``, one step is
    one finite check and one pass over the updated parameters.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: np.ndarray, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty_like(params), np.empty_like(params)

    def step(self, grads: np.ndarray) -> None:
        p, g, m, v, (a, b) = self.params, grads, self.m, self.v, self._scratch
        if p.shape != g.shape:
            raise ShapeMismatch(f"parameter {p.shape} vs gradient {g.shape}")
        if not np.isfinite(g).all():
            raise NonFiniteGradient("gradient contains NaN or infinity")
        self.t += 1
        b1, b2 = Adam.BETA1, Adam.BETA2
        np.multiply(m, b1, out=m)
        np.multiply(g, 1 - b1, out=a)
        m += a
        np.multiply(v, b2, out=v)
        np.multiply(g, 1 - b2, out=a)
        a *= g
        v += a
        np.divide(m, 1 - b1**self.t, out=a)
        a *= self.lr
        np.divide(v, 1 - b2**self.t, out=b)
        np.sqrt(b, out=b)
        b += Adam.EPS
        a /= b
        p -= a


def boundary_margin(network: Network, x: np.ndarray) -> float:
    """Distance of the forward pass from the nearest ReLU kink or pooling tie.

    Finite differences are untrustworthy within ~h of such a boundary; callers
    use this to apply the exclusion rule rather than chase phantom errors.
    Pool windows holding two exact zeros are ignored: both elements are stuck
    at a clamped ReLU output, so the tie cannot move under perturbation.
    The layers keep no activations afterwards.
    """
    margin = np.inf
    for layer in network.layers:
        if isinstance(layer, ReLU):
            margin = min(margin, float(np.abs(x).min()))
        elif isinstance(layer, MaxPool1D):
            out_len = x.shape[-2] // 2
            windows = x[..., : 2 * out_len, :].reshape(*x.shape[:-2], out_len, 2, x.shape[-1])
            gaps = np.abs(windows[..., 0, :] - windows[..., 1, :])
            live = windows.max(axis=-2) > 0
            if live.any():
                margin = min(margin, float(gaps[live].min()))
        x = layer.forward(x)
    network.drop_caches()
    return margin


JITTER_SCALE = 0.3


def jitter_parameters(network: Network, rng: np.random.Generator) -> None:
    """Add uniform noise in ``[-JITTER_SCALE, JITTER_SCALE)`` to every parameter, biases included.

    Freshly built networks have zero biases, which parks ReLU pre-activations
    exactly on their kinks whenever an input path is fully clamped. Jittering
    moves the network to a generic point before a finite-difference check.
    """
    network.param_buffer += rng.uniform(-JITTER_SCALE, JITTER_SCALE, size=network.param_buffer.shape)


PROBE_BLOCK = 64  # coordinates a grad_check probe batch stacks


def grad_check(network: Network, inputs: np.ndarray, labels: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    Relative error per coordinate is |analytic - numeric| divided by
    max(|analytic| + |numeric|, 1e-8), maximized over every parameter of
    the network (frozen layers included).

    Numerical design: probes run in extended precision, because the float64
    noise floor of (hi - lo) / 2h sits near 1e-11 and swamps gradients of
    ~1e-7. A layer's output is linear in each of its own parameters, so a
    probe applies the exact rank-one update to the layer's precomputed base
    output instead of re-running it, and upstream activations are reused
    untouched; every layer takes this one path through its ``affine_input``
    and ``weight_matrix``. Probes are evaluated ``PROBE_BLOCK`` coordinates at a
    time by stacking them along the batch axis of the tail network. The
    layers keep none of the probes' activations afterwards.
    """
    targets = one_hot(labels)
    network.zero_grads()
    _, grad = cross_entropy(network.forward(inputs), targets)
    for layer in reversed(network.layers):  # every layer: frozen ones get gradients too
        grad = layer.backward(grad)
    analytic = iter([g.copy() for g in network.gradients()])

    hp = np.longdouble
    targets_hp = targets.astype(hp)
    n = targets.shape[0]
    prefix = [np.asarray(inputs).astype(hp)]
    for layer in network.layers:
        prefix.append(layer.forward(prefix[-1]))

    worst = 0.0
    for start, layer in enumerate(network.layers):
        if not layer.trainable:
            continue
        x_aff = layer.affine_input(prefix[start])
        base = x_aff @ layer.weight_matrix(layer.w) + layer.b
        tail = network.layers[start + 1 :]

        def probe_losses(stacked: np.ndarray) -> np.ndarray:
            z = stacked.reshape(-1, *base.shape[1:])
            for l in tail:
                z = l.forward(z)
            clamped = np.maximum(z.reshape(len(stacked), n, -1), _PROB_FLOOR)
            return -(targets_hp[None] * np.log(clamped)).sum(axis=(1, 2)) / n

        # base is [x_aff, 1] @ [[weight_matrix(w)], [b]]: b is the row of a constant-one input
        ones = np.ones((*x_aff.shape[:-1], 1), dtype=hp)
        for p, p_input, as_matrix in ((layer.w, x_aff, layer.weight_matrix), (layer.b, ones, np.atleast_2d)):
            at = as_matrix(np.arange(p.size).reshape(p.shape))  # flat index of each matrix entry
            column, unit = np.divmod(np.argsort(at, axis=None), base.shape[-1])
            flat_p = p.reshape(-1)
            flat_g = next(analytic).reshape(-1)
            for i0 in range(0, flat_p.size, PROBE_BLOCK):
                cols = np.arange(i0, min(i0 + PROBE_BLOCK, flat_p.size))
                orig = flat_p[cols]
                delta_up = (orig + np.float64(h)).astype(hp) - orig.astype(hp)
                delta_down = orig.astype(hp) - (orig - np.float64(h)).astype(hp)
                b_count = len(cols)
                rows = np.arange(2 * b_count)
                both = np.concatenate([cols, cols])
                deltas = np.concatenate([delta_up, -delta_down])
                stacked = np.repeat(base[None], 2 * b_count, axis=0)
                probe_in = np.moveaxis(p_input[..., column[both]], -1, 0)  # each probe's input column
                stacked[rows, ..., unit[both]] += deltas.reshape(-1, *[1] * (probe_in.ndim - 1)) * probe_in
                losses = probe_losses(stacked)
                numeric = (
                    (losses[:b_count] - losses[b_count:]) / (delta_up + delta_down)
                ).astype(np.float64)
                ga = flat_g[cols]
                rel = np.abs(ga - numeric) / np.maximum(np.abs(ga) + np.abs(numeric), 1e-8)
                worst = max(worst, float(rel.max()))
    network.drop_caches()
    return worst

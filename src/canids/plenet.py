"""The 12,052-parameter 1-D CNN classifier, its training loop, and transfer.

Layer stack: Conv1D(5 filters, kernel 5) -> ReLU -> MaxPool -> Conv1D(20,
kernel 5) -> ReLU -> MaxPool -> Flatten -> Dense(20 -> 500) -> ReLU ->
Dense(500 -> 2) -> Softmax, over a length-16 single-channel input. Shapes
run 16x1 -> 12x5 -> 6x5 -> 2x20 -> 1x20 -> 20 -> 500 -> 2, and the layer
parameter counts are 30 / 520 / 10,500 / 1,002.

Training is mini-batch Adam on categorical cross-entropy with a seeded
shuffle per epoch, validation after every epoch, and parameters restored
from the best-validation-accuracy epoch (earliest on ties). Each step
updates one slice of the parameter buffer: all of it, or the layers above
the model's ``frozen_layers`` (the dense head, for a conv-frozen transfer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import takewhile

import numpy as np

from .bounds import Range
from .ingest import N_FEATURES, PreparedDataset
from .nncore import (
    Adam,
    Conv1D,
    Dense,
    Flatten,
    MaxPool1D,
    Network,
    NonFiniteLoss,
    ReLU,
    Softmax,
    _cross_entropy,
    check_width,
    cross_entropy,
    network_from_descriptor,
    one_hot,
)

INPUT_LENGTH = N_FEATURES
EXPECTED_PARAM_COUNT = 12_052
EXPECTED_LAYER_COUNTS = (30, 520, 10_500, 1_002)

FREEZE_MODES = ("none", "conv")


class EmptyPartition(ValueError):
    """A partition that training or a report needs holds no rows."""


class DimensionMismatch(ValueError):
    """Source and target feature spaces differ."""


class EmptyDomain(ValueError):
    """Distance between empty feature sets is undefined."""


EPOCHS = Range("epochs", 1, 1000, "[]")
BATCH_SIZE = Range("batch_size", 1)
LR = Range("lr", 0, integer=False)
PATIENCE = Range("patience", 1)
TRAIN_BOUNDS = (EPOCHS, BATCH_SIZE, LR, PATIENCE)


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    lr: float = 1e-3
    patience: int = 50
    seed: int = 0

    def __post_init__(self):
        for bound in TRAIN_BOUNDS:
            bound.check(getattr(self, bound.name))


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = -1

    def __len__(self) -> int:
        return len(self.train_loss)


def build_plenet(seed: int = 0) -> Network:
    """Construct the classifier with seeded init and verify its parameter counts."""
    rng = np.random.default_rng(seed)
    net = Network(
        [
            Conv1D(1, 5, 5, rng),
            ReLU(),
            MaxPool1D(),
            Conv1D(5, 20, 5, rng),
            ReLU(),
            MaxPool1D(),
            Flatten(),
            Dense(20, 500, rng),
            ReLU(),
            Dense(500, 2, rng),
            Softmax(),
        ]
    )
    counts = tuple(net.layer_param_counts())
    if counts != EXPECTED_LAYER_COUNTS or net.param_count() != EXPECTED_PARAM_COUNT:
        raise AssertionError(f"layer construction produced counts {counts}")
    return net


def decide(probs: np.ndarray) -> np.ndarray:
    """Hard labels of (batch, 2) probability pairs; an exact 0.5 tie counts as attack."""
    return (probs[:, 1] >= probs[:, 0]).astype(np.uint8)


PREDICT_BLOCK = 1024


def predict(model: Network, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probability pairs and their ``decide`` labels.

    ``x`` is one feature row or a (batch, 16) block, laid out for the
    network by its first layer; rows of another width raise
    ``WidthMismatch``. A call of at most ``PREDICT_BLOCK`` rows is one
    forward pass. A longer call runs passes of exactly ``PREDICT_BLOCK``
    rows, the last one padded with zero rows, so its memory does not grow
    with the rows: a pass holds about 6 KiB a row of activations, as each
    ReLU above a trainable layer writes over that layer's output, and the
    layers keep the block before it for their backward pass until the next
    one replaces it (10.1 MiB traced at 20,000 rows). The block size is
    fixed because BLAS may give other probability bits for another batch
    size: padded 1,024-row blocks gave the one-pass bits on the desk split,
    while unpadded blocks of some sizes (900 to 1,000 rows among them) and
    512-row blocks did not.
    """
    rows = check_width(np.atleast_2d(np.asarray(x, dtype=np.float64)), INPUT_LENGTH)
    layout = model.layers[0].layout_rows
    if len(rows) <= PREDICT_BLOCK:
        probs = model.forward(layout(rows))
    else:
        probs = np.empty((len(rows), 2))
        for start in range(0, len(rows), PREDICT_BLOCK):
            block = rows[start : start + PREDICT_BLOCK]
            if len(block) < PREDICT_BLOCK:
                block = np.concatenate([block, np.zeros((PREDICT_BLOCK - len(block), INPUT_LENGTH))])
            out = probs[start : start + PREDICT_BLOCK]
            out[...] = model.forward(layout(block))[: len(out)]
    return probs, decide(probs)


VALIDATION_BATCH = 512


def _evaluate(model: Network, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    total_loss, correct = 0.0, 0
    for start in range(0, len(y), VALIDATION_BATCH):
        xb = x[start : start + VALIDATION_BATCH]
        yb = y[start : start + VALIDATION_BATCH]
        probs, labels = predict(model, xb)
        loss, _ = cross_entropy(probs, one_hot(yb))
        total_loss += loss * len(yb)
        correct += int((labels == yb).sum())
    return total_loss / len(y), correct / len(y)


def train(model: Network, data: PreparedDataset, cfg: TrainConfig) -> tuple[Network, TrainHistory]:
    """Mini-batch Adam with per-epoch seeded shuffle and early stopping.

    Returns the model holding the parameters of the best validation-accuracy
    epoch, stopping after ``cfg.patience`` epochs without improvement.
    """
    if len(data.train_y) == 0 or len(data.val_y) == 0:
        raise EmptyPartition("train and validation partitions must be non-empty")
    check_width(data.train_x, INPUT_LENGTH)

    rng = np.random.default_rng(cfg.seed)
    params, grads = model.updated_slice()
    opt = Adam(params, cfg.lr)
    train_x = model.layers[0].layout_rows(data.train_x)
    train_targets = one_hot(data.train_y)
    history = TrainHistory()
    best_acc, best_snapshot, stale = -1.0, model.snapshot(), 0

    n = len(data.train_y)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss, correct = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            probs = model.forward(train_x[idx])
            loss, dprobs = _cross_entropy(probs, train_targets[idx])
            if not math.isfinite(loss):
                raise NonFiniteLoss(f"loss diverged at epoch {epoch}, batch offset {start}")
            model.zero_grads()
            model.backward(dprobs)
            opt.step(grads)
            epoch_loss += loss * len(idx)
            correct += int((decide(probs) == data.train_y[idx]).sum())

        val_loss, val_acc = _evaluate(model, data.val_x, data.val_y)
        history.train_loss.append(epoch_loss / n)
        history.train_acc.append(correct / n)
        history.val_loss.append(val_loss)
        history.val_acc.append(val_acc)

        if val_acc > best_acc:
            best_acc = val_acc
            best_snapshot = model.snapshot()
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    model.restore(best_snapshot)
    return model, history


def mmd_distance(source: np.ndarray, target: np.ndarray) -> float:
    """Euclidean norm of the difference between the empirical feature means."""
    source = np.atleast_2d(np.asarray(source, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if source.shape[0] == 0 or target.shape[0] == 0:
        raise EmptyDomain("both domains need at least one sample")
    if source.shape[1] != target.shape[1]:
        raise DimensionMismatch(f"feature widths differ: {source.shape[1]} vs {target.shape[1]}")
    return float(np.linalg.norm(source.mean(axis=0) - target.mean(axis=0)))


def clone_model(model: Network) -> Network:
    """Independent copy with identical parameters and no frozen layers."""
    copy = network_from_descriptor(model.describe())
    np.copyto(copy.param_buffer, model.param_buffer)
    return copy


def transfer_finetune(
    source_model: Network,
    target_data: PreparedDataset,
    cfg: TrainConfig,
    freeze: str = "none",
) -> tuple[Network, TrainHistory]:
    """Continue training a copy of the source model on target-domain data.

    ``freeze="conv"`` freezes the leading ``Conv1D`` layers (both of
    plenet's; a model without one raises ``ValueError`` before any step):
    they receive no optimizer updates and come out bit-identical.
    Optimizer state starts fresh either way.
    """
    if freeze not in FREEZE_MODES:
        raise ValueError(f"freeze must be one of {FREEZE_MODES}")
    model = clone_model(source_model)
    if freeze == "conv":
        layers = model.trainable_layers()
        model.frozen_layers = len(list(takewhile(lambda l: isinstance(l, Conv1D), layers)))
        if not model.frozen_layers:
            raise ValueError("freeze='conv' needs a leading Conv1D layer, but the first trainable layer is "
                             + (type(layers[0]).__name__ if layers else "absent"))
    return train(model, target_data, cfg)

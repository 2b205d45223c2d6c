import bisect
import csv
import io
import math
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from canids import canbus, ingest
from canids.canbus import MAX_DLC, MAX_STD_ID, EmptySpoofTargets, RawRecord, WindowOutOfRange
from canids.ingest import (
    N_FEATURES,
    PAYLOAD_WIDTH,
    AllRowsMissing,
    EmptyInput,
    LengthMismatch,
    NormalizationParams,
    PreparedDataset,
    RecordTable,
)


def traced_peak(call):
    """``call()``'s result and its ``tracemalloc`` peak in bytes above what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


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
        with np.errstate(over="ignore"):  # huge rows square to inf, as in knn_predict
            d2 = ((block[:, None, :] - model.x[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        frac = model.y[nearest].mean(axis=1)
        votes[start : start + chunk] = frac
        labels[start : start + chunk] = (frac >= 0.5).astype(np.uint8)
    return labels, votes


def roc_auc_loop(scores, labels):
    """Reference ROC sweep: a Python loop over runs of tied scores, in descending order."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tp = fp = 0
    points = [(0.0, 0.0)]
    area = 0.0
    i = 0
    while i < len(sorted_scores):
        j = i
        while j < len(sorted_scores) and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += int((sorted_labels[i:j] == 1).sum())
        fp += int((sorted_labels[i:j] == 0).sum())
        fpr, tpr = fp / n_neg, tp / n_pos
        prev_fpr, prev_tpr = points[-1]
        area += (fpr - prev_fpr) * (tpr + prev_tpr) / 2
        points.append((fpr, tpr))
        i = j
    return area, points


def tree_predict_loop(tree, queries):
    """Reference tree prediction: each row walks from the root to its leaf."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    labels = np.empty(len(queries), dtype=np.uint8)
    scores = np.empty(len(queries))
    for i, row in enumerate(queries):
        node = tree
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        labels[i] = node.label
        neg, pos = node.counts
        scores[i] = pos / (neg + pos) if neg + pos else 0.5
    return labels, scores


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
    keep_first = layer._first >= layer._second
    out_len = grad.shape[1]
    dx = np.zeros(layer._in_shape)
    dx[:, 0 : 2 * out_len : 2, :] = np.where(keep_first, grad, 0.0)
    dx[:, 1 : 2 * out_len : 2, :] = np.where(keep_first, 0.0, grad)
    return dx


def legacy_conv_forward(layer, x):
    """Reference Conv1D forward on a batch: a 3-D product, one matmul per sample."""
    k = layer.kernel_size
    n, length, channels = x.shape
    out_len = length - k + 1
    windows = x[:, layer._window_index(length), :].reshape(n, out_len, k * channels)
    layer._legacy_windows = windows
    layer._in_shape = x.shape
    return windows @ layer.w.reshape(layer.filters, k * channels).T + layer.b


def legacy_conv_backward(layer, grad):
    """Reference Conv1D backward on a batch: 3-D products per tap, always the input gradient."""
    windows = layer._legacy_windows
    flat_grad = grad.reshape(-1, layer.filters)
    flat_windows = windows.reshape(flat_grad.shape[0], windows.shape[2])
    layer.gw += (flat_grad.T @ flat_windows).reshape(layer.w.shape)
    layer.gb += grad.sum(axis=(0, 1))
    dx = np.zeros(layer._in_shape)
    out_len = grad.shape[1]
    for i in range(layer.kernel_size):
        dx[:, i : i + out_len, :] += grad @ layer.w[:, i, :]
    return dx


def legacy_network_backward(net, grad):
    """Reference ``Network.backward``: every layer, down to the input gradient."""
    for layer in reversed(net.layers):
        grad = layer.backward(grad)
    return grad


class PerBatchOneHot:
    """Stand-in for ``plenet.one_hot``: indexing builds and checks one-hot rows per batch.

    ``train`` indexes its targets once per batch, so each batch gets a
    fresh ``one_hot(labels[idx])``; as an array (``_evaluate``) it is the
    whole one-hot matrix.
    """

    def __init__(self, labels):
        self.labels = labels

    def __getitem__(self, idx):
        from canids.nncore import one_hot

        return one_hot(self.labels[idx])

    def __array__(self, dtype=None, copy=None):
        from canids.nncore import one_hot

        return one_hot(self.labels).astype(dtype or np.float64)


def legacy_kernels(monkeypatch):
    """Patch training to the kernels the current ones must match bit for bit.

    Per-array Adam, per-layer zeroing, ``np.where`` masking, the 3-D conv
    products, a backward pass through every layer, and per-batch one-hot
    targets scored by the checked ``cross_entropy``. ``plenet.train`` then
    hands the optimizer one array per updated weight or bias, as it did
    before the flat parameter buffer.
    """
    from canids import nncore, plenet

    def per_array_runs(net):
        live = net.trainable_layers()[net.frozen_layers :]
        return [p for l in live for p in l.params()], [g for l in live for g in l.grads()]

    def per_layer_zero_grads(net):
        for layer in net.layers:
            for g in layer.grads():
                g[...] = 0.0

    monkeypatch.setattr(plenet, "Adam", LegacyAdam)
    monkeypatch.setattr(nncore.Network, "updated_slice", per_array_runs)
    monkeypatch.setattr(nncore.Network, "zero_grads", per_layer_zero_grads)
    monkeypatch.setattr(nncore.ReLU, "backward", legacy_relu_backward)
    monkeypatch.setattr(nncore.MaxPool1D, "backward", legacy_maxpool_backward)
    monkeypatch.setattr(nncore.Conv1D, "forward", legacy_conv_forward)
    monkeypatch.setattr(nncore.Conv1D, "backward", legacy_conv_backward)
    monkeypatch.setattr(nncore.Network, "backward", legacy_network_backward)
    monkeypatch.setattr(plenet, "one_hot", PerBatchOneHot)
    monkeypatch.setattr(plenet, "_cross_entropy", nncore.cross_entropy)


def legacy_grad_check(network, inputs, labels, h=1e-5, block=64):
    """Reference ``nncore.grad_check``: one probe branch per layer class.

    Reads the Conv1D internals (``_window_index``, ``kernel_size``,
    ``in_channels``) and Dense's ``out_units``, and must return the same
    float as the single probe path.
    """
    from canids.nncore import _PROB_FLOOR, Dense, cross_entropy, one_hot

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
        x_in = prefix[start]
        tail = network.layers[start + 1 :]
        if isinstance(layer, Dense):
            base = x_in @ layer.w + layer.b
            windows = None
        else:
            kc = layer.kernel_size * layer.in_channels
            idx = layer._window_index(x_in.shape[1])
            windows = x_in[:, idx, :].reshape(n, -1, kc)
            base = windows @ layer.w.reshape(layer.filters, kc).T + layer.b

        def probe_losses(stacked: np.ndarray) -> np.ndarray:
            z = stacked.reshape(-1, *base.shape[1:])
            for l in tail:
                z = l.forward(z)
            clamped = np.maximum(z.reshape(len(stacked), n, -1), _PROB_FLOOR)
            return -(targets_hp[None] * np.log(clamped)).sum(axis=(1, 2)) / n

        for p, is_bias in ((layer.params()[0], False), (layer.params()[1], True)):
            flat_p = p.reshape(-1)
            flat_g = next(analytic).reshape(-1)
            for i0 in range(0, flat_p.size, block):
                cols = np.arange(i0, min(i0 + block, flat_p.size))
                orig = flat_p[cols]
                delta_up = (orig + np.float64(h)).astype(hp) - orig.astype(hp)
                delta_down = orig.astype(hp) - (orig - np.float64(h)).astype(hp)
                b_count = len(cols)
                rows = np.arange(2 * b_count)
                both = np.concatenate([cols, cols])
                deltas = np.concatenate([delta_up, -delta_down])
                stacked = np.repeat(base[None], 2 * b_count, axis=0)
                if isinstance(layer, Dense):
                    if is_bias:
                        stacked[rows, :, both] += deltas[:, None]
                    else:
                        j, k = both // layer.out_units, both % layer.out_units
                        stacked[rows, :, k] += deltas[:, None] * x_in[:, j].T
                else:
                    if is_bias:
                        stacked[rows, :, :, both] += deltas[:, None, None]
                    else:
                        f, m = both // kc, both % kc
                        stacked[rows, :, :, f] += (
                            deltas[:, None, None] * windows[:, :, m].transpose(2, 0, 1)
                        )
                losses = probe_losses(stacked)
                numeric = (
                    (losses[:b_count] - losses[b_count:]) / (delta_up + delta_down)
                ).astype(np.float64)
                ga = flat_g[cols]
                rel = np.abs(ga - numeric) / np.maximum(np.abs(ga) + np.abs(numeric), 1e-8)
                worst = max(worst, float(rel.max()))
    return worst


# ---------------------------------------------------------------------------
# Reference ingest: the per-token parser, per-cell imputation means and
# per-row tabulation that the canonical-form fast paths replaced.
# ---------------------------------------------------------------------------


def hex_to_dec(text):
    """Exact base-16 value of a hex string, ignoring internal spaces."""
    cleaned = text.replace(" ", "")
    if not cleaned or not set(cleaned) <= set("0123456789abcdefABCDEF"):
        raise ValueError(f"invalid hex string {text!r}")
    return int(cleaned, 16)


def dec_to_hex(value):
    """Canonical uppercase hex (no prefix, no leading zeros) of a nonnegative int."""
    if value < 0:
        raise ValueError("negative values have no hex representation here")
    return format(value, "X")


def _legacy_missing(rec):
    return frozenset(
        name
        for name in ("timestamp", "can_id_hex", "dlc", "data_hex", "label_text")
        if getattr(rec, name) is None
    )


def _legacy_parse_timestamp(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _legacy_parse_can_id(cell):
    cell = cell.strip()
    if cell.lower().startswith("0x"):
        cell = cell[2:]
    if not cell:
        return None
    try:
        int(cell, 16)
    except ValueError:
        return None
    return cell.upper()


def _legacy_parse_dlc(cell):
    try:
        value = int(cell)
    except ValueError:
        return None
    return value if value >= 0 else None


def _legacy_parse_data(cell, dlc):
    cell = cell.strip()
    if not cell:
        return "" if dlc == 0 else None
    tokens = cell.split()
    for tok in tokens:
        if len(tok) > 2:
            return None
        try:
            int(tok, 16)
        except ValueError:
            return None
    return " ".join(t.upper().zfill(2) for t in tokens)


def _legacy_parse_label(cell):
    cell = cell.strip()
    if cell in ("0", "1"):
        return cell
    if cell.lower() == "normal":
        return "0"
    if cell.lower() == "attack":
        return "1"
    return None


def legacy_parse_log(source):
    """Reference ``parse_log``: one ``int(tok, 16)`` check per hex token."""
    if isinstance(source, str):
        source = io.StringIO(source)
    records = []
    for i, row in enumerate(csv.reader(source)):
        if not row or all(not c.strip() for c in row):
            continue
        if i == 0 and row[0].strip().lower() == "timestamp":
            continue
        cells = [row[j] if j < len(row) else "" for j in range(5)]
        dlc = _legacy_parse_dlc(cells[2])
        rec = RawRecord(
            timestamp=_legacy_parse_timestamp(cells[0]),
            can_id_hex=_legacy_parse_can_id(cells[1]),
            dlc=dlc,
            data_hex=_legacy_parse_data(cells[3], dlc),
            label_text=_legacy_parse_label(cells[4]),
        )
        if rec.can_id_hex is None and not rec.data_hex:
            continue
        records.append(rec)
    if not records:
        raise EmptyInput("no data rows found")
    return records


def _legacy_label_int(text):
    if text in ("0", "1"):
        return int(text)
    return None


def _legacy_mean(values, column):
    if not values:
        raise AllRowsMissing(f"cannot impute {column}: no observed values")
    return float(np.mean(values))


def legacy_impute_missing(records, policy="droprow"):
    """Reference ``impute_missing``: every mean recomputed for every imputed cell."""
    if policy == "droprow":
        return [r for r in records if not _legacy_missing(r)]
    if not any(_legacy_missing(r) for r in records):
        return list(records)
    ts = [r.timestamp for r in records if r.timestamp is not None]
    ids = [hex_to_dec(r.can_id_hex) for r in records if r.can_id_hex is not None]
    dlcs = [r.dlc for r in records if r.dlc is not None]
    labels = [v for r in records if (v := _legacy_label_int(r.label_text)) is not None]
    position_values = {}
    for r in records:
        if r.data_hex:
            for pos, tok in enumerate(r.data_hex.split()):
                position_values.setdefault(pos, []).append(int(tok, 16))
    out = []
    for r in records:
        if not _legacy_missing(r):
            out.append(r)
            continue
        dlc = r.dlc if r.dlc is not None else round(_legacy_mean(dlcs, "DLC"))
        data_hex = r.data_hex
        if data_hex is None:
            if dlc > 0 and not position_values:
                raise AllRowsMissing("cannot impute Data_Field: no observed values")
            means = [
                round(np.mean(position_values[p])) if p in position_values else 0
                for p in range(dlc)
            ]
            data_hex = " ".join(f"{int(b):02X}" for b in means)
        label_text = r.label_text
        if label_text is None:
            label_text = "1" if _legacy_mean(labels, "Label") >= 0.5 else "0"
        can_id_hex = r.can_id_hex
        if can_id_hex is None:
            can_id_hex = dec_to_hex(round(_legacy_mean(ids, "CAN_ID")))
        timestamp = r.timestamp
        if timestamp is None:
            timestamp = _legacy_mean(ts, "Timestamp")
        out.append(RawRecord(timestamp, can_id_hex, dlc, data_hex, label_text))
    return out


def legacy_from_raw(records, kinds=None):
    """Reference ``RecordTable.from_raw``: per-row numpy stores and two hex parses."""
    if not records:
        raise EmptyInput("no records to tabulate")
    if kinds is not None and len(kinds) != len(records):
        raise LengthMismatch("kinds sidecar length differs from record count")
    n = len(records)
    timestamp = np.zeros(n)
    can_id = np.zeros(n, dtype=np.int64)
    dlc = np.zeros(n, dtype=np.int64)
    payload = np.zeros((n, PAYLOAD_WIDTH), dtype=np.uint8)
    data_value = np.zeros(n)
    label = np.zeros(n, dtype=np.uint8)
    for i, rec in enumerate(records):
        if _legacy_missing(rec):
            raise ValueError("records must be cleaned before tabulation")
        timestamp[i] = rec.timestamp
        can_id[i] = hex_to_dec(rec.can_id_hex)
        dlc[i] = rec.dlc
        if rec.data_hex:
            data = bytes(int(t, 16) for t in rec.data_hex.split())
            payload[i, : min(len(data), PAYLOAD_WIDTH)] = list(data[:PAYLOAD_WIDTH])
            data_value[i] = float(hex_to_dec(rec.data_hex))
        label[i] = _legacy_label_int(rec.label_text)
    kind = np.array(
        [kind_code(k) for k in kinds] if kinds is not None else [kind_code("")] * n,
        dtype=np.uint8,
    )
    return RecordTable(timestamp, can_id, dlc, payload, data_value, label, kind)


def legacy_format_record(record):
    """Reference ``canbus.write_log`` row of a ``LogRow``: one f-string per payload byte."""
    data = " ".join(f"{b:02X}" for b in record.payload)
    return f"{record.timestamp!r},{record.can_id:04X},{record.dlc},{data},{record.label}"


def _legacy_read_kinds(path):
    sidecar = path.with_name(path.name + ".kinds")
    if not sidecar.exists():
        return None
    return sidecar.read_text().splitlines()


def _legacy_load_cleaned(path, policy):
    with open(path, newline="") as fh:
        records = legacy_parse_log(fh)
    kinds = _legacy_read_kinds(path)
    if kinds is not None and len(kinds) != len(records):
        raise ValueError(
            f"{path}: kinds sidecar has {len(kinds)} rows for {len(records)} records; "
            "remove the sidecar or regenerate the log"
        )
    if kinds is not None and policy == "droprow":
        pairs = [(r, k) for r, k in zip(records, kinds) if not r.missing_fields()]
        return [p[0] for p in pairs], [p[1] for p in pairs]
    return legacy_impute_missing(records, policy), kinds


_LEGACY_OUTLIER_COLUMNS = ("timestamp", "can_id", "dlc", "data_field")


def _legacy_outlier_values(records, column):
    if column == "timestamp":
        return [r.timestamp for r in records]
    if column == "can_id":
        return [float(hex_to_dec(r.can_id_hex)) for r in records]
    if column == "dlc":
        return [float(r.dlc) for r in records]
    return [float(hex_to_dec(r.data_hex)) if r.data_hex else 0.0 for r in records]


def legacy_prepare_table(paths, policy, outliers=None):
    """Reference ``prepare`` up to the split: record lists cleaned, filtered by index, tabulated last.

    ``outliers`` is an ``--outliers`` text (``column:alpha:max``) or None.
    Returns the table, whether every log had a kinds sidecar, and the
    number of rows the outlier test flagged.
    """
    all_records = []
    all_kinds = []
    kinds_known = True
    for input_path in paths:
        records, kinds = _legacy_load_cleaned(Path(input_path), policy)
        all_records.extend(records)
        if kinds is None:
            kinds_known = False
        else:
            all_kinds.extend(kinds)

    flagged = set()
    if outliers:
        column, alpha, max_out = outliers.split(":")
        if column not in _LEGACY_OUTLIER_COLUMNS:
            raise ValueError(f"outlier column must be one of {_LEGACY_OUTLIER_COLUMNS}")
        flagged = ingest.rosner_outliers(
            _legacy_outlier_values(all_records, column), max_outliers=int(max_out), alpha=float(alpha)
        )
        all_records = [r for i, r in enumerate(all_records) if i not in flagged]
        if kinds_known:
            all_kinds = [k for i, k in enumerate(all_kinds) if i not in flagged]

    table = legacy_from_raw(all_records, all_kinds if kinds_known else None)
    return table, kinds_known, len(flagged)


_PLAIN_TYPES = (("timestamp", float), ("can_id", int), ("dlc", int), ("label", int), ("payload", bytes))


@dataclass(frozen=True)
class LogRow:
    """One log row of the reference simulator. ``kind`` tags injected attack rows."""

    timestamp: float
    can_id: int
    dlc: int
    payload: bytes
    label: int
    kind: str = ""

    def __post_init__(self):
        # numpy scalars come from seeded draws; pin plain types so that
        # ``legacy_format_record`` writes ``repr(float)``, not ``np.float64(...)``
        for name, plain in _PLAIN_TYPES:
            value = getattr(self, name)
            if type(value) is not plain:
                object.__setattr__(self, name, plain(value))


def kind_code(name):
    """The code into ``canbus.KIND_NAMES`` of a reference kind name ("" or "normal" for normal traffic)."""
    return canbus.KIND_NAMES.index(name or "normal")


def traffic_log(records):
    """A simulated ``canbus.TrafficLog`` of the given ``LogRow`` rows in order: lengths are DLCs, nothing missing."""
    payload = np.zeros((len(records), MAX_DLC), dtype=np.uint8)
    for i, r in enumerate(records):
        payload[i, : len(r.payload)] = list(r.payload)
    dlc = np.array([r.dlc for r in records], dtype=np.int64)
    return canbus.TrafficLog(
        timestamp=np.array([r.timestamp for r in records], dtype=np.float64),
        can_id=np.array([r.can_id for r in records], dtype=np.int64),
        dlc=dlc,
        payload=payload,
        payload_len=dlc.copy(),
        label=np.array([r.label for r in records], dtype=np.uint8),
        kind=np.array([kind_code(r.kind) for r in records], dtype=np.uint8),
        missing=np.zeros((len(records), 5), dtype=bool),
    )


# Reference simulator: one LogRow per frame, Python-list sorts and bisect.


def _legacy_ecu_payloads(ecu, count, rng):
    base = ecu.base_pattern()
    if ecu.payload_rule == "constant":
        return [base] * count
    if ecu.payload_rule == "counter":
        return [bytes([k % 256]) + base[1:] for k in range(1, count + 1)]
    steps = rng.integers(-256, 257, size=count)
    out, value = [], 0x8000
    for step in steps:
        value = int(min(max(value + step, 0), 0xFFFF))
        out.append(bytes([value >> 8, value & 0xFF]) + base[2:])
    return out


def _by_time(record):
    return record.timestamp


def legacy_generate_traffic(profile):
    """Reference ``canbus.generate_traffic``: a sorted list of ``LogRow``."""
    if not profile.ecus:
        raise canbus.EmptySchedule("profile contains no ECUs")
    rng = np.random.default_rng(profile.seed)
    records = []
    for ecu in profile.ecus:
        n = math.floor(profile.duration / ecu.period)
        jitter = rng.uniform(-profile.jitter, profile.jitter, size=n)
        payloads = _legacy_ecu_payloads(ecu, n, rng)
        for k in range(1, n + 1):
            t = k * ecu.period * (1.0 + jitter[k - 1])
            records.append(LogRow(t, ecu.identifier, ecu.dlc, payloads[k - 1], label=0))
    records.sort(key=_by_time)
    return records


def _legacy_inject_fuzzing(spec, n, rng):
    times = rng.uniform(spec.start, spec.end, size=n)
    ids = rng.integers(0, MAX_STD_ID + 1, size=n)
    dlcs = rng.integers(0, MAX_DLC + 1, size=n)
    out = []
    for t, can_id, dlc in zip(times, ids, dlcs):
        payload = bytes(int(b) for b in rng.integers(0, 256, size=int(dlc)))
        out.append(LogRow(float(t), int(can_id), int(dlc), payload, 1, "fuzzing"))
    return out


def _legacy_inject_spoofing(spec, n, rng, log):
    if not spec.spoof_targets:
        raise EmptySpoofTargets("spoofing attack requires at least one target identifier")
    history = {t: ([], []) for t in spec.spoof_targets}
    for rec in log:
        if rec.label == 0 and rec.can_id in history:
            times, payloads = history[rec.can_id]
            times.append(rec.timestamp)
            payloads.append(rec.payload)
    times = rng.uniform(spec.start, spec.end, size=n)
    picks = rng.integers(0, len(spec.spoof_targets), size=n)
    out = []
    for t, pick in zip(times, picks):
        target = spec.spoof_targets[int(pick)]
        seen_at, payloads = history[target]
        if payloads:
            j = max(bisect.bisect_right(seen_at, float(t)) - 1, 0)
            payload = bytearray(payloads[j])
        else:
            payload = bytearray(MAX_DLC)
        if payload:
            pos = int(rng.integers(0, len(payload)))
            delta = int(rng.integers(1, 256))
            payload[pos] = (payload[pos] + delta) % 256
        out.append(LogRow(float(t), target, len(payload), bytes(payload), 1, "spoofing"))
    return out


def legacy_inject_attack(log, spec):
    """Reference ``canbus.inject_attack`` over a list of ``LogRow``."""
    if not log:
        raise WindowOutOfRange("cannot inject into an empty log")
    if spec.start < log[0].timestamp or spec.end > log[-1].timestamp:
        raise WindowOutOfRange("window outside log span")
    rng = np.random.default_rng(spec.seed)
    n = math.floor(spec.rate * (spec.end - spec.start))
    if spec.kind == "flooding":
        payload = bytes(MAX_DLC)
        injected = [
            LogRow(spec.start + k / spec.rate, canbus.FLOODING_ID, MAX_DLC, payload, 1, "flooding")
            for k in range(n)
        ]
    elif spec.kind == "fuzzing":
        injected = _legacy_inject_fuzzing(spec, n, rng)
    else:
        injected = _legacy_inject_spoofing(spec, n, rng, log)
    merged = list(log) + injected
    merged.sort(key=_by_time)
    return merged


def legacy_log_text(records):
    """Reference ``write_log`` and ``write_kinds`` output: one ``legacy_format_record`` row per record."""
    log = "".join(legacy_format_record(r) + "\n" for r in records)
    kinds = "".join((r.kind or "normal") + "\n" for r in records)
    return canbus.LOG_HEADER + "\n" + log, kinds


def legacy_from_traffic(records):
    """Reference ``RecordTable.from_traffic`` over ``LogRow`` rows: ``float(int)`` data values."""
    if not records:
        raise EmptyInput("no records to tabulate")
    payload = np.zeros((len(records), PAYLOAD_WIDTH), dtype=np.uint8)
    for i, r in enumerate(records):
        payload[i, : len(r.payload)] = list(r.payload[:PAYLOAD_WIDTH])
    return RecordTable(
        timestamp=np.array([r.timestamp for r in records], dtype=np.float64),
        can_id=np.array([r.can_id for r in records], dtype=np.int64),
        dlc=np.array([r.dlc for r in records], dtype=np.int64),
        payload=payload,
        data_value=np.array([float(int.from_bytes(r.payload, "big")) for r in records]),
        label=np.array([r.label for r in records], dtype=np.uint8),
        kind=np.array([kind_code(r.kind) for r in records], dtype=np.uint8),
    )


def fit_feature_params(table):
    """Reference normalization fit: the rows' identifier and DLC ranges, payload bytes (0, 255), padding (0, 1)."""
    mins = [table.can_id.min(), table.dlc.min()] + [0.0] * PAYLOAD_WIDTH + [0.0] * 6
    maxs = [table.can_id.max(), table.dlc.max()] + [255.0] * PAYLOAD_WIDTH + [1.0] * 6
    return NormalizationParams(mins, maxs)


def encode_table(table, params):
    """Reference encoding: (n, 16) features min-max scaled into [0, 1] (a constant one to 0), and the labels."""
    raw = np.zeros((len(table), N_FEATURES))
    raw[:, 0], raw[:, 1], raw[:, 2 : 2 + PAYLOAD_WIDTH] = table.can_id, table.dlc, table.payload
    span = params.maxs - params.mins
    x = np.where(span == 0, 0.0, (raw - params.mins) / np.where(span == 0, 1.0, span))
    return np.clip(x, 0.0, 1.0), table.label.copy()


GARBLES = ("blank_timestamp", "nonhex_id", "negative_dlc", "bad_payload", "unknown_label")


def garble_row(lines, row, kind):
    """Spoil one cell of ``lines[row]`` the way perfbench's paper-ingest workload does."""
    cells = lines[row].split(",")
    if kind == "blank_timestamp":
        cells[0] = ""
    elif kind == "nonhex_id":
        cells[1] = "G" + cells[1][1:]
    elif kind == "negative_dlc":
        cells[2] = "-1"
    elif kind == "bad_payload":
        cells[3] = " ".join(["ZZ"] + cells[3].split()[1:])
    else:
        cells[4] = "?"
    lines[row] = ",".join(cells)


def garbled_log_lines(seed, rows=40):
    """``write_log`` rows of a small simulated log, with ``rows`` of them garbled by ``garble_row``.

    One ECU sends empty payloads, so some garbled rows have none.
    """
    profile = canbus.SimProfile(
        ecus=(
            canbus.EcuSpec(0x0A0, 0.05, 4, "constant"),
            canbus.EcuSpec(0x130, 0.05, 8, "counter"),
            canbus.EcuSpec(0x2B0, 0.05, 8, "sensor"),
            canbus.EcuSpec(0x3C0, 0.1, 0, "constant"),
        ),
        duration=20.0,
        jitter=0.05,
        seed=seed,
    )
    log = canbus.generate_traffic(profile)
    log = canbus.inject_attack(log, canbus.AttackSpec("fuzzing", 5.0, 8.0, 40.0, seed=seed))
    text = io.StringIO()
    canbus.write_log(log, text, header=False)
    lines = text.getvalue().splitlines()
    rng = np.random.default_rng(seed)
    for row in rng.choice(len(lines), size=rows, replace=False).tolist():
        garble_row(lines, row, GARBLES[row % len(GARBLES)])
    return lines


# ---------------------------------------------------------------------------
# Byte mutations for the fuzz tests: each op takes the data, a position and
# an argument, and wraps both into range, so any integers make a valid step
# ---------------------------------------------------------------------------


def truncate(data: bytes, at: int, _: int) -> bytes:
    return data[: at % (len(data) + 1)]


def flip(data: bytes, at: int, bit: int) -> bytes:
    if not data:
        return data
    at %= len(data)
    return data[:at] + bytes([data[at] ^ (1 << (bit % 8))]) + data[at + 1 :]


def insert(garbage: list[bytes], data: bytes, at: int, token: int) -> bytes:
    at %= len(data) + 1
    return data[:at] + garbage[token % len(garbage)] + data[at:]


def delete(data: bytes, at: int, span: int) -> bytes:
    at %= len(data) + 1
    return data[:at] + data[at + 1 + span % 12 :]


def mutation_steps(ops):
    """Hypothesis strategy: one to four (op, position, argument) steps."""
    return st.lists(st.tuples(st.sampled_from(ops), st.integers(0, 10**6), st.integers(0, 10**3)),
                    min_size=1, max_size=4)


def mutate(data: bytes, steps) -> bytes:
    for op, at, arg in steps:
        data = op(data, at, arg)
    return data

import csv
import io
from pathlib import Path

import numpy as np

from canids import ingest
from canids.ingest import (
    PAYLOAD_WIDTH,
    AllRowsMissing,
    EmptyInput,
    LengthMismatch,
    NormalizationParams,
    PreparedDataset,
    RawRecord,
    RecordTable,
    dec_to_hex,
    hex_to_dec,
)


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
    hands the optimizer one array per unfrozen weight or bias, as it did
    before the flat parameter buffer.
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
        ["" if k == "normal" else k for k in kinds] if kinds is not None else [""] * n,
        dtype="<U8",
    )
    return RecordTable(timestamp, can_id, dlc, payload, data_value, label, kind)


def legacy_format_record(record):
    """Reference ``canbus.format_record``: one f-string per payload byte."""
    data = " ".join(f"{b:02X}" for b in record.payload)
    return f"{record.timestamp!r},{record.can_id:04X},{record.dlc},{data},{record.label}"


def _legacy_read_kinds(path):
    sidecar = path.with_name(path.name + ".kinds")
    if not sidecar.exists():
        return None
    return sidecar.read_text().splitlines()


def _legacy_load_cleaned(path, policy):
    with open(path, newline="") as fh:
        records = ingest.parse_log(fh)
    kinds = _legacy_read_kinds(path)
    if kinds is not None and len(kinds) != len(records):
        raise ValueError(
            f"{path}: kinds sidecar has {len(kinds)} rows for {len(records)} records; "
            "remove the sidecar or regenerate the log"
        )
    if kinds is not None and policy == "droprow":
        pairs = [(r, k) for r, k in zip(records, kinds) if not r.missing_fields()]
        return [p[0] for p in pairs], [p[1] for p in pairs]
    return ingest.impute_missing(records, policy), kinds


_LEGACY_OUTLIER_COLUMNS = ("timestamp", "can_id", "dlc", "data_field")


def _legacy_outlier_values(records, column):
    if column == "timestamp":
        return [r.timestamp for r in records]
    if column == "can_id":
        return [float(ingest.hex_to_dec(r.can_id_hex)) for r in records]
    if column == "dlc":
        return [float(r.dlc) for r in records]
    return [float(int.from_bytes(ingest.data_bytes(r.data_hex), "big")) for r in records]


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

    table = RecordTable.from_raw(all_records, all_kinds if kinds_known else None)
    return table, kinds_known, len(flagged)

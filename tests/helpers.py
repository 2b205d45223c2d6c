import csv
import io

import numpy as np

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

"""Bit-exact oracle for the ingest fast paths.

``parse_log``, ``impute_missing`` and ``RecordTable.from_raw`` must give
what the per-token reference copies in ``helpers`` give, down to the bytes
of the prepared container. Inputs whose handling changed on purpose (signed
or non-ASCII hex digits, identifiers above 29 bits, non-finite timestamps)
are left out here and tested on their own in ``test_ingest.py``.
"""

import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    legacy_from_raw,
    legacy_impute_missing,
    legacy_parse_log,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import canbus, ingest
from canids.ingest import AllRowsMissing, EmptyInput, RecordTable, impute_missing, parse_log

GARBLES = ("blank_timestamp", "nonhex_id", "negative_dlc", "bad_payload", "unknown_label")

timestamps = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.integers(-5, 10**6).map(str),
    st.sampled_from(["", " 2.5 ", "abc", "1_0.5", "1e3"]),
)


@st.composite
def id_cells(draw):
    value = draw(st.integers(0, 0x1FFFFFFF))
    text = draw(st.sampled_from(["{:04X}", "{:x}", "{:X}", "{:08X}"])).format(value)
    prefix = draw(st.sampled_from(["", "", "0x", "0X"]))
    pad = draw(st.sampled_from(["", " ", "  "]))
    return pad + prefix + text + pad


bad_ids = st.sampled_from(["", "G130", "ZZ", "0x", "13 0", "0130h"])


@st.composite
def data_cells(draw):
    payload = draw(st.binary(max_size=12))
    tokens = []
    for byte in payload:
        style = draw(st.sampled_from(["{:02X}", "{:02x}", "{:X}", "{:x}"]))
        tokens.append(style.format(byte))
    seps = [draw(st.sampled_from([" ", " ", "  ", "\t"])) for _ in tokens[1:]]
    text = tokens[0] if tokens else ""
    for sep, tok in zip(seps, tokens[1:]):
        text += sep + tok
    pad = draw(st.sampled_from(["", " "]))
    return pad + text + pad


bad_data = st.sampled_from(["ZZ", "ZZ 01 02", "ABC", "0A0B", "G1", "01 XYZ"])
dlcs = st.one_of(st.integers(0, 12).map(str), st.sampled_from(["", "-1", "x", " 8 "]))
labels = st.sampled_from(["0", "1", "normal", "Attack", " 1 ", "?", "", "2"])


@st.composite
def log_rows(draw):
    row = [
        draw(timestamps),
        draw(st.one_of(id_cells(), id_cells(), bad_ids)),
        draw(dlcs),
        draw(st.one_of(data_cells(), data_cells(), bad_data)),
        draw(labels),
    ]
    cut = draw(st.sampled_from([5, 5, 5, 5, 4, 3, 6]))
    return ",".join(row[:cut] + ["extra"] * (cut - 5))


@st.composite
def logs(draw):
    rows = draw(st.lists(log_rows(), min_size=1, max_size=40))
    if draw(st.booleans()):
        rows.insert(0, canbus.LOG_HEADER)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), "")
    return "\n".join(rows)


def _outcome(fn, *args):
    """Result, or the type and message of the ValueError raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _container(table: RecordTable) -> dict[str, bytes]:
    ds = ingest.split_dataset(table, seed=7, provenance="oracle")
    with tempfile.TemporaryDirectory() as tmp:
        ingest.save_dataset(ds, Path(tmp) / "data.bin")
        return {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}


def assert_same_ingest(text: str) -> None:
    records = _outcome(parse_log, text)
    assert records == _outcome(legacy_parse_log, text)
    if isinstance(records, tuple):
        assert records[0] is EmptyInput
        return
    for policy in ingest.IMPUTE_POLICIES:
        cleaned = _outcome(impute_missing, records, policy)
        assert cleaned == _outcome(legacy_impute_missing, records, policy)
        if isinstance(cleaned, tuple):
            assert cleaned[0] is AllRowsMissing
            continue
        if policy == "fieldmean":
            # perfbench counts imputed fields by the rows that are new objects
            for before, after in zip(records, cleaned, strict=True):
                assert (after is before) == (not before.missing_fields())
        if not cleaned:
            continue
        table = RecordTable.from_raw(cleaned)
        legacy = legacy_from_raw(cleaned)
        for name in ("timestamp", "can_id", "dlc", "payload", "data_value", "label", "kind"):
            new, old = getattr(table, name), getattr(legacy, name)
            assert new.dtype == old.dtype and new.shape == old.shape, name
            assert new.tobytes() == old.tobytes(), name
        assert _container(table) == _container(legacy)


@settings(max_examples=300, deadline=None)
@given(logs())
def test_fuzzed_logs_match_legacy(text):
    assert_same_ingest(text)


def _garble(lines, row, kind):
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_garbled_simulated_log_matches_legacy(seed):
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
    for row in rng.choice(len(lines), size=40, replace=False).tolist():
        _garble(lines, row, GARBLES[row % len(GARBLES)])
    assert_same_ingest(canbus.LOG_HEADER + "\n" + "\n".join(lines))


def test_every_garble_kind_on_an_empty_payload_row():
    for kind in GARBLES:
        lines = ["0.1,0130,1,0A,0", "0.2,03C0,0,,1", "0.3,02B0,2,01 02,0"]
        _garble(lines, 1, kind)
        assert_same_ingest("\n".join(lines))


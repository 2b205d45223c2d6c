"""Bit-exact oracle for the ingest fast paths.

``parse_log``, ``impute_missing`` and ``RecordTable.from_raw`` must give
what the per-token reference copies in ``helpers`` give, down to the bytes
of the prepared container. Inputs whose handling changed on purpose (signed
or non-ASCII hex digits, identifiers above 29 bits, DLCs above 64,
non-finite timestamps) are left out here and tested on their own in
``test_ingest.py``. ``TrafficLog`` rows write identifiers without leading
zeros; the reference keeps the cell's digits, so its identifiers are
rewritten before the rows are compared.
"""

import dataclasses
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    GARBLES,
    garble_row,
    garbled_log_lines,
    legacy_from_raw,
    legacy_impute_missing,
    legacy_parse_log,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import canbus, ingest
from canids.ingest import AllRowsMissing, EmptyInput, RecordTable, impute_missing, parse_log

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

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


def _rows(outcome):
    """A parsed or cleaned log as a list of ``RawRecord`` rows, identifiers without leading zeros."""
    if isinstance(outcome, tuple):
        return outcome
    return [r if r.can_id_hex is None else dataclasses.replace(r, can_id_hex=f"{int(r.can_id_hex, 16):X}")
            for r in outcome]


def assert_same_ingest(text: str, reference_text: str | None = None) -> None:
    """``text`` ingests as the reference ingests ``reference_text`` (by default ``text`` itself)."""
    records = _outcome(parse_log, text)
    # the reference reads the text as ``open(path, newline="")`` reads a log file
    reference = io.StringIO(text if reference_text is None else reference_text, newline="")
    assert _rows(records) == _rows(_outcome(legacy_parse_log, reference))
    if isinstance(records, tuple):
        assert records[0] is EmptyInput
        return
    assert _rows(records) == _rows(_outcome(parse_log, text.encode()))
    for policy in ingest.IMPUTE_POLICIES:
        cleaned = _outcome(impute_missing, records, policy)
        assert _rows(cleaned) == _rows(_outcome(legacy_impute_missing, list(records), policy))
        if isinstance(cleaned, tuple):
            assert cleaned[0] is AllRowsMissing
            continue
        if policy == "fieldmean":
            # perfbench's ingest.fields_imputed probe must count every missing field once
            assert tracing._fields_imputed(records, cleaned) == sum(len(r.missing_fields()) for r in records)
        if not len(cleaned):
            continue
        table = RecordTable.from_raw(cleaned)
        legacy = legacy_from_raw(list(cleaned))
        for name in ("timestamp", "can_id", "dlc", "payload", "data_value", "label", "kind"):
            new, old = getattr(table, name), getattr(legacy, name)
            assert new.dtype == old.dtype and new.shape == old.shape, name
            assert new.tobytes() == old.tobytes(), name
        assert _container(table) == _container(legacy)


@settings(max_examples=300, deadline=None)
@given(logs(), st.sampled_from([3, ingest._BLOCK_ROWS]))
def test_fuzzed_logs_match_legacy(text, block_rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_BLOCK_ROWS", block_rows)  # small blocks put block edges inside the log
        assert_same_ingest(text)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_garbled_simulated_log_matches_legacy(seed):
    assert_same_ingest(canbus.LOG_HEADER + "\n" + "\n".join(garbled_log_lines(seed)))


def test_every_garble_kind_on_an_empty_payload_row():
    for kind in GARBLES:
        lines = ["0.1,0130,1,0A,0", "0.2,03C0,0,,1", "0.3,02B0,2,01 02,0"]
        garble_row(lines, 1, kind)
        assert_same_ingest("\n".join(lines))


CANONICAL = ["0.1,0130,1,0A,0", "0.2,03C0,0,,1", "0.3,02B0,2,01 02,0", "1e-05,1FFFFFFF,8,00 11 22 33 44 55 66 77,1"]


@pytest.mark.parametrize("sep", ["\r\n", "\r", "\n\r\n"])
def test_carriage_returns(sep):
    assert_same_ingest(canbus.LOG_HEADER + sep + sep.join(CANONICAL) + sep)
    assert_same_ingest("\n".join(CANONICAL[:2] + [CANONICAL[2] + "\r"] + CANONICAL[3:]))


@pytest.mark.parametrize("cell", ['"0A 0B"', '"0A\n0B"', '""', '"0A ""0B"""', '"0A\n0.5,0130,1,0B,0\n0C"'])
def test_quoted_cells(cell):
    assert_same_ingest("\n".join(CANONICAL[:2] + [f'0.25,"0130",2,{cell},"1"'] + CANONICAL[2:]))


@pytest.mark.parametrize("stamp", ["nan", "inf", "-0.0", "1_0.5", " 2.5", "2.5 ", "1e", "1.2.3", "+.5E+1",
                                   "1e400", "0000.5", "9" * 33, "\u0661\u0663", "1A"])
def test_timestamp_cells(stamp):
    def log(cell):
        return "\n".join(CANONICAL[:2] + [f"{cell},0130,1,0A,0"] + CANONICAL[2:]) + "\n"

    # a non-finite timestamp is missing, as a blank one is; the reference keeps it
    assert_same_ingest(log(stamp), log("" if stamp in ("nan", "inf", "1e400") else stamp))


@pytest.mark.parametrize("length", [0, 1, 8, 9, 63, 64, 65])
def test_payload_and_dlc_lengths(length):
    def log(dlc, data):
        rows = [f"0.5,0130,{dlc},{data},1", f"0.6,0130,{dlc},{data.lower()},1", f"0.7,0130,{dlc},ZZ,0"]
        return "\n".join(CANONICAL[:2] + rows + CANONICAL[2:]) + "\n"

    data = " ".join(f"{i * 37 % 256:02X}" for i in range(length))
    # past 64 bytes the DLC and the data field are missing, as blank ones are; the reference keeps them
    assert_same_ingest(log(length, data), log("", "") if length > 64 else None)


def test_a_65_byte_payload_is_missing():
    data = " ".join(["AB"] * 65)
    for row in (f"0.5,0130,65,{data},1", f"0.5,0130,8,{data},1", f"0.5,0130,8,{data.lower()},1"):
        rows = list(parse_log("\n".join([CANONICAL[0], row, CANONICAL[1]]) + "\n"))
        assert rows[1].missing_fields() >= {"data_hex"}


@pytest.mark.parametrize("cell", ["0A00B", "0AX0B", "0A\t0B", "0A  0B", " 0A 0B", "0A 0B ", "0A 0b", "0A 0B 0"])
def test_data_cells_near_the_canonical_form(cell):
    assert_same_ingest("\n".join([CANONICAL[0], f"0.25,0130,2,{cell},1", *CANONICAL[1:]]) + "\n")


@pytest.mark.parametrize("dlc", ["0", "00", "5", "65", "-0", ""])
def test_empty_data_field(dlc):
    # an empty payload is observed only with DLC 0
    assert_same_ingest("\n".join([CANONICAL[0], f"0.25,0130,{dlc},,1", f"0.26,,{dlc},,1", *CANONICAL[1:]]) + "\n",
                       "\n".join([CANONICAL[0], f"0.25,0130,{'' if dlc == '65' else dlc},,1",
                                   f"0.26,,{'' if dlc == '65' else dlc},,1", *CANONICAL[1:]]) + "\n")


@pytest.mark.parametrize("cells", [4, 6])
def test_rows_of_four_or_six_cells(cells):
    odd = ["0.25,0130,1,0A", "0.25,0130,1,0A,1,extra"][cells == 6]
    assert_same_ingest("\n".join([CANONICAL[0], odd, *CANONICAL[1:], odd]) + "\n")


@pytest.mark.parametrize("end", ["", "\n"])
def test_last_line_with_or_without_newline(end):
    lines = garbled_log_lines(5, rows=10)
    assert_same_ingest(canbus.LOG_HEADER + "\n" + "\n".join(lines) + end)
    assert_same_ingest("\n".join(lines[:3]) + end)


@pytest.mark.parametrize("block_rows", [1, 7, 100])
def test_block_edges(block_rows, monkeypatch):
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
    lines = garbled_log_lines(6, rows=60)
    lines[50:50] = ["", "", "0.5,0130,1,0a,0"]  # a run of fallback lines across block edges
    assert_same_ingest(canbus.LOG_HEADER + "\n" + "\n".join(lines))


def test_write_log_rows_never_reach_the_fallback(monkeypatch):
    profile = canbus.SimProfile(
        ecus=(
            canbus.EcuSpec(0x0A0, 0.01, 4, "constant"),
            canbus.EcuSpec(0x130, 0.01, 8, "counter"),
            canbus.EcuSpec(0x2B0, 0.02, 8, "sensor"),
            canbus.EcuSpec(0x3C0, 0.05, 0, "constant"),
        ),
        duration=30.0,
        jitter=0.05,
        seed=9,
    )
    log = canbus.generate_traffic(profile)
    log = canbus.inject_attack(log, canbus.AttackSpec("fuzzing", 5.0, 20.0, 80.0, seed=9))
    text = io.StringIO()
    canbus.write_log(log, text, header=False)
    expected = _rows(legacy_parse_log(text.getvalue()))

    def fallback(text, at_start):
        raise AssertionError(f"canonical row sent to the per-cell parsers: {text[:80]!r}")

    monkeypatch.setattr(ingest, "_parse_rows", fallback)
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", 1000)
    parsed = parse_log(text.getvalue())
    assert len(parsed) == len(log) > 5 * ingest._BLOCK_ROWS
    assert _rows(parsed) == expected

"""The names ``import canids`` exports, and members taken off the public surface."""

import canids
from canids import canbus, ingest
from canids.nncore import Conv1D, Dense, Network


def test_every_exported_name_resolves():
    assert [name for name in canids.__all__ if not hasattr(canids, name)] == []


def test_removed_members_stay_removed():
    assert "TrafficRecord" not in canids.__all__
    assert not hasattr(canbus, "TrafficRecord") and not hasattr(canbus, "format_record")
    assert not hasattr(canbus.TrafficLog, "__getitem__")
    assert not hasattr(canbus.CanFrame, "crc")
    assert not hasattr(Network, "loss_and_backward")
    assert not hasattr(Network, "trainable_runs")
    assert not hasattr(Dense(2, 2), "frozen") and not hasattr(Conv1D(1, 2, 2), "frozen")
    assert not hasattr(ingest, "fit_minmax")
    for name in ("hex_to_dec", "dec_to_hex", "data_bytes", "_ObservedMeans", "InvalidHexDigit", "SIDECAR_KINDS"):
        assert not hasattr(ingest, name), name


def test_one_kind_name_table():
    assert canbus.KIND_NAMES == ("normal", "flooding", "fuzzing", "spoofing")

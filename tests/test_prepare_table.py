"""``canids prepare`` tabulates once, right after cleaning.

The outlier test, the row filter and the attack kinds work on that one
``RecordTable``. The record-list path it replaced is kept in
``helpers.legacy_prepare_table``; both must give the same table, column
for column with dtype, and the same container files.
"""

import gc
from dataclasses import fields

import numpy as np
import pytest
from helpers import legacy_prepare_table

from canids import canbus, ingest
from canids.cli import run_command

KINDS = ("normal", "normal", "normal", "flooding", "spoofing", "fuzzing")

# one extreme value per --outliers column, each far outside the ordinary rows
EXTREME_ROWS = (
    "1000000.0,0130,8,00 11 22 33 44 55 66 77,0",
    "1.5,1FFFFFF0,8,00 11 22 33 44 55 66 77,1",
    "1.5,0130,64,00 11 22 33 44 55 66 77,0",
    "1.5,0130,8," + " ".join(["FF"] * 12) + ",1",
)

# rows with one malformed cell but a readable identifier: droprow drops them, fieldmean fills them
GARBLED_ROWS = (
    ",02B0,8,01 02 03 04 05 06 07 08,0",
    "1.25,02B0,x,01 02 03 04 05 06 07 08,1",
    "1.75,02B0,8,ZZ,0",
    "2.25,02B0,8,01 02 03 04 05 06 07 08,?",
)


def write_log(path, seed, rows=160, sidecar=True):
    """A log of ordinary rows with the extreme and garbled rows spread through it."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(rows):
        ident = rng.choice(["00A0", "0130", "02B0", "0316"])
        dlc = int(rng.choice([4, 8]))
        data = " ".join(f"{b:02X}" for b in rng.integers(0, 256, dlc))
        lines.append(f"{i * 0.01!r},{ident},{dlc},{data},{int(rng.integers(0, 2))}")
    for row in EXTREME_ROWS + GARBLED_ROWS:
        lines.insert(int(rng.integers(0, len(lines) + 1)), row)
    path.write_text("Timestamp,CAN_ID,DLC,Data_Field,Label\n" + "\n".join(lines) + "\n")
    if sidecar:
        kinds = rng.choice(KINDS, len(lines))
        path.with_name(path.name + ".kinds").write_text("\n".join(kinds) + "\n")
    return str(path)


@pytest.fixture
def logs(tmp_path):
    return {
        "with_kinds": write_log(tmp_path / "a.csv", seed=1),
        "without_kinds": write_log(tmp_path / "b.csv", seed=2, sidecar=False),
    }


INPUTS = {
    "sidecar": ["with_kinds"],
    "no_sidecar": ["without_kinds"],
    "mixed": ["with_kinds", "without_kinds"],
    "mixed_reversed": ["without_kinds", "with_kinds"],
}
OUTLIERS = [None, "timestamp:0.05:10", "can_id:0.05:10", "dlc:0.05:10", "data_field:0.05:10"]


def assert_tables_equal(got, want, kinds_known=True):
    """Column by column; kinds only when every log has a sidecar, since otherwise the container leaves them out."""
    for f in fields(ingest.RecordTable):
        if f.name == "kind" and not kinds_known:
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        assert a.tobytes() == b.tobytes(), f.name


def legacy_prepare(paths, policy, outliers, output):
    """What ``prepare --seed 3`` wrote before: the legacy table, split and saved."""
    table, kinds_known, flagged = legacy_prepare_table(paths, policy, outliers)
    ds = ingest.split_dataset(table, seed=3, provenance=";".join(paths))
    if not kinds_known:
        ds.train_kind = ds.val_kind = ds.test_kind = np.zeros(0, dtype=np.uint8)
    ingest.save_dataset(ds, output)
    return table, flagged


def prepare(paths, policy, outliers, output, monkeypatch):
    """Run ``canids prepare --seed 3`` and return the table it hands to the split."""
    seen = []
    split = ingest.split_dataset

    def spy(table, **kwargs):
        seen.append(table)
        return split(table, **kwargs)

    monkeypatch.setattr(ingest, "split_dataset", spy)
    argv = ["prepare", "--output", str(output), "--seed", "3", "--impute", policy]
    for path in paths:
        argv += ["--input", path]
    if outliers:
        argv += ["--outliers", outliers]
    assert run_command(argv) == 0
    monkeypatch.setattr(ingest, "split_dataset", split)
    (table,) = seen
    return table


@pytest.mark.parametrize("outliers", OUTLIERS)
@pytest.mark.parametrize("inputs", INPUTS)
@pytest.mark.parametrize("policy", ingest.IMPUTE_POLICIES)
def test_matches_record_list_path(tmp_path, logs, monkeypatch, capsys, policy, inputs, outliers):
    paths = [logs[name] for name in INPUTS[inputs]]
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    got = prepare(paths, policy, outliers, tmp_path / "new" / "data.bin", monkeypatch)
    want, flagged = legacy_prepare(paths, policy, outliers, tmp_path / "old" / "data.bin")

    assert_tables_equal(got, want, kinds_known=inputs == "sidecar")
    if outliers:
        assert flagged > 0  # the extreme rows really are dropped
        assert f"outlier test dropped {flagged} rows" in capsys.readouterr().err
    new = {p.name: p.read_bytes() for p in (tmp_path / "new").iterdir()}
    old = {p.name: p.read_bytes() for p in (tmp_path / "old").iterdir()}
    assert new == old
    assert ("data.bin.kinds" in new) == (inputs == "sidecar")


def test_nothing_flagged_keeps_every_row(tmp_path, monkeypatch, capsys):
    rows = [f"{i * 0.01!r},0130,8,00 11 22 33 44 55 66 {i % 2:02X},{i % 2}" for i in range(40)]
    log = tmp_path / "flat.csv"
    log.write_text("\n".join(rows) + "\n")
    got = prepare([str(log)], "droprow", "dlc:0.05:5", tmp_path / "data.bin", monkeypatch)
    want, flagged = legacy_prepare([str(log)], "droprow", "dlc:0.05:5", tmp_path / "old.bin")
    assert flagged == 0 and len(got) == 40
    assert "outlier test dropped 0 rows" in capsys.readouterr().err
    assert_tables_equal(got, want)


def test_tabulates_once_before_the_outlier_test(tmp_path, logs, monkeypatch):
    calls = []
    from_raw, rosner = ingest.RecordTable.from_raw.__func__, ingest.rosner_outliers

    def spy_from_raw(cls, log):
        calls.append("from_raw")
        return from_raw(cls, log)

    def spy_rosner(*args, **kwargs):
        calls.append("rosner_outliers")
        return rosner(*args, **kwargs)

    monkeypatch.setattr(ingest.RecordTable, "from_raw", classmethod(spy_from_raw))
    monkeypatch.setattr(ingest, "rosner_outliers", spy_rosner)
    prepare([logs["with_kinds"], logs["without_kinds"]], "fieldmean", "dlc:0.05:10", tmp_path / "d.bin",
            monkeypatch)
    assert calls == ["from_raw", "rosner_outliers"]


def test_no_record_list_outlives_tabulation(tmp_path, logs, monkeypatch):
    def live_records():
        return sum(isinstance(obj, (canbus.RawRecord, canbus.TrafficLog)) for obj in gc.get_objects())

    def counted(fn):
        def wrapper(*args, **kwargs):
            alive.append(live_records())
            return fn(*args, **kwargs)

        return wrapper

    before = live_records()
    alive = []
    monkeypatch.setattr(ingest, "split_dataset", counted(ingest.split_dataset))
    monkeypatch.setattr(ingest, "save_dataset", counted(ingest.save_dataset))
    argv = ["prepare", "--input", logs["with_kinds"], "--output", str(tmp_path / "d.bin"),
            "--outliers", "data_field:0.05:10"]
    assert run_command(argv) == 0
    assert alive == [before, before]

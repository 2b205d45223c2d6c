"""The names ``import canids`` exports, members taken off the public surface, and what importing it loads."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import canids
from canids import canbus, ingest
from canids.nncore import Conv1D, Dense, Network


def test_every_exported_name_resolves():
    assert [name for name in canids.__all__ if not hasattr(canids, name)] == []


def test_removed_members_stay_removed():
    assert "TrafficRecord" not in canids.__all__ and "ParsedLog" not in canids.__all__
    assert not hasattr(canids, "ParsedLog") and not hasattr(ingest, "ParsedLog")
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


# Run in a fresh interpreter: the pytest process has loaded scipy.stats through other tests.
STATS_ON_DEMAND = textwrap.dedent("""\
    import sys
    from pathlib import Path

    import canids
    import canids.cli
    from canids.cli import run_command

    def loaded():
        return "scipy.stats" in sys.modules

    print("import", loaded())
    out = Path(sys.argv[1])
    (out / "p.cfg").write_text("duration=3\\nseed=5\\necu=0A0,0.02,4,constant\\necu=130,0.02,8,counter\\n")
    for argv in (["simulate", "--profile", str(out / "p.cfg"), "--attack", "flooding:1:2:60",
                  "-o", str(out / "l.csv")],
                 ["prepare", "--input", str(out / "l.csv"), "--output", str(out / "d.bin")],
                 ["train", "--data", str(out / "d.bin"), "--output", str(out / "m.ckpt"), "--epochs", "1"]):
        assert run_command(argv) == 0, argv
        print(argv[0], loaded())
    assert run_command(["prepare", "--input", str(out / "l.csv"), "--output", str(out / "o.bin"),
                        "--outliers", "dlc:0.05:3"]) == 0
    print("outliers", loaded())
""")


def test_scipy_stats_is_imported_only_by_the_statistical_tests(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", STATS_ON_DEMAND, str(tmp_path)], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stdout.splitlines() if line.endswith((" True", " False"))]
    assert lines == ["import False", "simulate False", "prepare False", "train False", "outliers True"]

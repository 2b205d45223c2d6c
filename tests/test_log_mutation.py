"""Mutated logs and ``.kinds`` sidecars through ``canids prepare``: exit 0 with a loadable container, or exit 1
with a message naming the file at fault; never a traceback.
"""

import contextlib
import io
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import canbus
from canids.cli import run_command
from canids.ingest import IMPUTE_POLICIES, load_dataset
from helpers import delete, flip, insert, mutate, mutation_steps, truncate
from test_format_mutation import assert_checked

GARBAGE = [b"", b"\x00", b"\xff", b'"', b'""', b'"\n', b"\r", b"\r\n", b"\n", b",", b",,", b"nan", b"NaN",
           b"inf", b"-1", b"0x", b"FFFFFFFF", b"1FFFFFFF", b"20000000", b" ", b"AB CD", " ".join(["FF"] * 70).encode(),
           b"9" * 400, b"normal", b"norlal", b"flooding\n", b"Timestamp,CAN_ID,DLC,Data_Field,Label\n", "é".encode()]

EXTRAS = [(), ("--outliers", "data_field:0.05:3"), ("--correlation-report",),
          ("--outliers", "dlc:0.05:2", "--correlation-report")]


def _insert(data: bytes, at: int, token: int) -> bytes:
    return insert(GARBAGE, data, at, token)


mutations = mutation_steps([truncate, flip, _insert, delete])


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """A 75-row simulated log with its sidecar, and a directory the mutated copies go to."""
    ecus = (canbus.EcuSpec(0x130, 0.05, 8, "counter"), canbus.EcuSpec(0x2B0, 0.1, 4, "sensor"))
    profile = canbus.SimProfile(ecus=ecus, duration=2.0, jitter=0.01, seed=3)
    log = canbus.inject_attack(canbus.generate_traffic(profile), canbus.AttackSpec("flooding", 0.5, 1.0, 30, seed=4))
    source = tmp_path_factory.mktemp("log") / "log.csv"
    with open(source, "w", encoding="utf-8") as fh:
        canbus.write_log(log, fh)
    with open(f"{source}.kinds", "w", encoding="utf-8") as fh:
        canbus.write_kinds(log, fh)
    return source, tmp_path_factory.mktemp("mutated")


# the mutated file: the log with or without its sidecar (a sidecar whose log changes length is refused), or the sidecar
TARGETS = [("", ()), ("", (".kinds",)), (".kinds", (".kinds",))]


@settings(max_examples=400, deadline=None)
@given(target=st.sampled_from(TARGETS), steps=mutations, impute=st.sampled_from(IMPUTE_POLICIES),
       extras=st.sampled_from(EXTRAS))
def test_mutated_log_prepare(logs, target, steps, impute, extras):
    source, work = logs
    log, output = work / "log.csv", work / "data.bin"
    suffix, copied = target
    Path(f"{log}.kinds").unlink(missing_ok=True)
    for name in ("", *copied):
        shutil.copyfile(f"{source}{name}", f"{log}{name}")
    target = Path(f"{log}{suffix}")
    target.write_bytes(mutate(target.read_bytes(), steps))
    argv = ["prepare", "--input", str(log), "--output", str(output), "--impute", impute, *extras]
    if "--correlation-report" in argv:
        argv.insert(argv.index("--correlation-report") + 1, str(work / "corr.csv"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_command(argv)
    if code == 0:
        assert_checked(load_dataset(output))
    else:
        assert code == 1 and err.getvalue().startswith(f"error: {log}"), err.getvalue()

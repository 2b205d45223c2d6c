"""Smoke test of the experiment scripts, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DESK_ARTIFACTS = {
    "profile.cfg",
    "desk.csv",
    "desk.csv.kinds",
    "desk.bin",
    "desk.bin.manifest",
    "desk.bin.kinds",
    "plenet.ckpt",
    "history.csv",
    "report.txt",
    "report.json",
    "compare.txt",
    "compare.json",
}


def test_desk_experiment_one_epoch(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_desk_experiment.py"), "--epochs", "1", "--outdir", "run"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert {p.name for p in (tmp_path / "run").iterdir()} == DESK_ARTIFACTS

"""Smoke test of the experiment scripts, run as a user runs them."""

import os
import re
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


def run_script(name, args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_desk_experiment_one_epoch(tmp_path):
    result = run_script("run_desk_experiment.py", ["--epochs", "1", "--outdir", "run"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert {p.name for p in (tmp_path / "run").iterdir()} == DESK_ARTIFACTS


def test_transfer_experiment_one_seed(tmp_path):
    result = run_script("run_transfer_experiment.py", ["--seeds", "1"], tmp_path)
    lines = [line for line in result.stdout.splitlines() if line]
    assert len(lines) == 4, result.stdout + result.stderr
    assert re.fullmatch(r"domain mean discrepancy \(seed-100 source vs seed-200 target\): \d+\.\d{4}", lines[0])
    assert lines[1].split() == ["seed", "scratch", "fine-tuned", "outcome"]
    seed, scratch, tuned, outcome = lines[2].split()
    assert seed == "0" and outcome in ("win", "loss")
    assert 0 <= float(scratch) <= 1 and 0 <= float(tuned) <= 1
    wins = re.fullmatch(r"fine-tuned wins ([01])/1", lines[3])
    assert wins is not None and int(wins.group(1)) == (outcome == "win")
    assert result.returncode == (0 if outcome == "win" else 1), result.stderr

"""Every artifact of a small fixed CLI sequence matches its recorded sha256.

The sequence runs in one subprocess with one BLAS thread, because checkpoint
and history bytes depend on the thread count. ``golden_digests.json`` also
records the numpy and OpenBLAS versions it was made with; a mismatch names
both. After a change that alters an artifact on purpose, record the file
again with ``python tests/test_golden_digests.py --record``.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_digests.json"

PROFILE = """\
duration=6
jitter=0.02
seed=5
ecu=0A0,0.02,4,constant
ecu=130,0.02,8,counter
ecu=2B0,0.02,8,sensor
"""

TRAIN = ["--seed", "4", "--epochs", "3", "--patience", "2", "--batch-size", "32"]

# every path is relative to the run directory, so the manifest's provenance is too
SEQUENCE = [
    ["simulate", "--profile", "profile.cfg", "--attack", "flooding:1:2:60", "--attack", "fuzzing:3:4:60",
     "--attack", "spoofing:4:5:40:130,2B0", "-o", "log.csv"],
    ["prepare", "--input", "log.csv", "--output", "data.bin", "--seed", "3", "--impute", "fieldmean",
     "--outliers", "data_field:0.05:5", "--correlation-report", "corr.csv"],
    ["train", "--data", "data.bin", "--output", "plenet.ckpt", "--history", "history.csv", *TRAIN],
    ["evaluate", "--checkpoint", "plenet.ckpt", "--data", "data.bin", "--report", "report.txt",
     "--json", "report.json"],
    ["transfer", "--source", "plenet.ckpt", "--data", "data.bin", "--output", "transfer.ckpt",
     "--freeze", "conv", "--history", "transfer-history.csv", *TRAIN],
    ["compare", "--data", "data.bin", "--knn-k", "5", "--tree-depth", "4", "--output", "compare.txt",
     "--json", "compare.json", *TRAIN],
    ["gradcheck", "--seeds", "2", "--batch", "3", "--seed", "1"],
]


def _run_sequence(outdir: Path) -> dict:
    """Run ``SEQUENCE`` in ``outdir``; the digest of every file it leaves there and of gradcheck's stdout."""
    import contextlib
    import io

    import numpy as np  # imported here, in the subprocess, after its BLAS thread count is set

    from canids.cli import run_command

    os.chdir(outdir)
    Path("profile.cfg").write_text(PROFILE, encoding="utf-8")
    stdout = io.StringIO()
    for argv in SEQUENCE:
        with contextlib.redirect_stdout(stdout if argv[0] == "gradcheck" else io.StringIO()):
            code = run_command(argv)
        if code != 0:
            raise SystemExit(f"canids {' '.join(argv)} exited {code}")
    artifacts = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(outdir.iterdir()) if path.name != "profile.cfg"}
    artifacts["gradcheck.stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": f"{blas['name']} {blas['version']}", "artifacts": artifacts}


def digests_in_subprocess() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as outdir:
        result = subprocess.run([sys.executable, __file__, outdir], env=env, capture_output=True, text=True,
                                timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_artifacts_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    run = digests_in_subprocess()
    changed = sorted(name for name in golden["artifacts"].keys() | run["artifacts"].keys()
                     if golden["artifacts"].get(name) != run["artifacts"].get(name))
    assert not changed, (
        f"artifacts differ from {GOLDEN.name}: {', '.join(changed)}; recorded with numpy {golden['numpy']} "
        f"and {golden['openblas']}, this run has numpy {run['numpy']} and {run['openblas']}"
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        GOLDEN.write_text(json.dumps(digests_in_subprocess(), indent=2) + "\n", encoding="utf-8")
    else:
        print(json.dumps(_run_sequence(Path(sys.argv[1]))))

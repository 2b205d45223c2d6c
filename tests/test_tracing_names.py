"""Every name the benchmark tracer wraps still exists in canids."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_full_tracer_finds_every_name(tmp_path):
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]\n"
        "import tracing\n"
        "print(json.dumps(tracing.Tracer(full=True).missing))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, check=True
    )
    assert json.loads(result.stdout.splitlines()[-1]) == []

"""Every name the benchmark tracer wraps still exists in canids."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
from canids import nncore  # noqa: E402


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


def test_each_layer_class_defines_its_own_passes():
    # the tracer wraps one function object per span name, so an inherited
    # pass would fold every layer's time into the first class wrapped
    for name in tracing.LAYER_CLASSES:
        cls = getattr(nncore, name)
        assert "forward" in vars(cls) and "backward" in vars(cls), name

"""Every name the benchmark tracer wraps still exists in canids."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
from helpers import GARBLES, garble_row, garbled_log_lines  # noqa: E402

from canids import canbus, nncore  # noqa: E402


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


def test_traced_training_runs_every_backward(tmp_path):
    # Network.backward calls the lowest updated layer with input_grad=False;
    # the tracer's wrappers must pass the keyword through
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}, {str(ROOT / 'tests')!r}]\n"
        "import tracing\n"
        "tracer = tracing.Tracer(full=True)\n"
        "from canids import plenet\n"
        "from helpers import toy_dataset\n"
        "mark = tracer.mark()\n"
        "cfg = plenet.TrainConfig(epochs=1, batch_size=16)\n"
        "plenet.train(plenet.build_plenet(0), toy_dataset(n=80), cfg)\n"
        "print(json.dumps(tracer.unit_totals(mark)['calls']))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, check=True
    )
    calls = json.loads(result.stdout.splitlines()[-1])
    batches = calls["nncore.Network.backward"]
    assert batches > 0
    assert calls["nncore.Conv1D.backward"] == calls["nncore.Dense.backward"] == 2 * batches


def test_traced_simulate_counts_the_rows_written(tmp_path):
    # canbus.frames is len() of generate_traffic's log plus the rows inject_attack adds,
    # in one call for both attacks
    profile = "duration=3\njitter=0.05\necu=130,0.01,8,counter\necu=2B0,0.02,8,sensor\n"
    (tmp_path / "profile.cfg").write_text(profile)
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]\n"
        "import tracing\n"
        "tracer = tracing.Tracer(full=True)\n"
        "from canids import cli\n"
        "mark = tracer.mark()\n"
        "assert cli.run_command(['simulate', '--profile', 'profile.cfg', '--attack', 'flooding:1:2:50',\n"
        "                        '--attack', 'spoofing:0.5:2.5:40:130,7FF', '-o', 'log.csv']) == 0\n"
        "totals = tracer.unit_totals(mark)\n"
        "print(json.dumps([totals['counts'], totals['calls']]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, check=True
    )
    counts, calls = json.loads(result.stdout.splitlines()[-1])
    rows = (tmp_path / "log.csv").read_text().count("\n") - 1  # less the header
    assert rows == 300 + 150 + 50 + 80
    assert counts["canbus.frames"] == rows
    assert calls["canbus.inject_attack"] == 1


def test_traced_prepare_counts_what_the_garbling_predicts(tmp_path):
    # perfbench's paper-ingest check: ingest.rows_parsed and ingest.fields_imputed equal
    # what its garbling predicts; here each kind spoils one row with a payload and one without
    lines = garbled_log_lines(4, rows=0)[:60]
    empty = [i for i, row in enumerate(lines) if row.split(",")[3] == ""]
    full = [i for i, row in enumerate(lines) if row.split(",")[3] != ""]
    dropped = missing = 0
    for i, kind in enumerate(GARBLES):
        for row in (empty[i], full[i]):
            empty_payload = row == empty[i]
            garble_row(lines, row, kind)
            if kind == "nonhex_id" and empty_payload:
                dropped += 1  # no identifier and no payload: parse_log skips the row
            else:
                missing += 2 if kind == "negative_dlc" and empty_payload else 1
    assert "-1,," in "\n".join(lines)  # the empty-payload row with a negative DLC, missing 2 fields
    (tmp_path / "log.csv").write_text(canbus.LOG_HEADER + "\n" + "\n".join(lines) + "\n")
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]\n"
        "import tracing\n"
        "tracer = tracing.Tracer(full=True)\n"
        "from canids import cli\n"
        "mark = tracer.mark()\n"
        "assert cli.run_command(['prepare', '--input', 'log.csv', '--output', 'd.bin',\n"
        "                        '--impute', 'fieldmean']) == 0\n"
        "print(json.dumps(tracer.unit_totals(mark)['counts']))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, check=True
    )
    counts = json.loads(result.stdout.splitlines()[-1])
    assert dropped == 1 and missing == 10
    assert counts["ingest.rows_parsed"] == len(lines) - dropped
    assert counts["ingest.fields_imputed"] == missing


def test_each_layer_class_defines_its_own_passes():
    # the tracer wraps one function object per span name, so an inherited
    # pass would fold every layer's time into the first class wrapped
    for name in tracing.LAYER_CLASSES:
        cls = getattr(nncore, name)
        assert "forward" in vars(cls) and "backward" in vars(cls), name

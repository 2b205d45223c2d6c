"""The names ``import canids`` exports, members taken off the public surface, and what importing it loads."""

import dataclasses
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import canids
from canids import baselines, canbus, checkpoint, cli, experiments, ingest, nncore, plenet
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
    for name in ("hex_to_dec", "dec_to_hex", "data_bytes", "_ObservedMeans", "InvalidHexDigit", "SIDECAR_KINDS",
                 "apply_minmax", "fit_feature_params", "encode_table", "UnnormalizedInput", "_raw_features",
                 "_scale_in_place", "kind_codes", "_KIND_CODES"):
        assert not hasattr(ingest, name), name
    assert not hasattr(cli, "_split_arrays")
    assert "input_width" not in inspect.signature(baselines.build_mlp).parameters
    assert not hasattr(baselines, "CHUNK") and "chunk" not in inspect.signature(baselines.knn_predict).parameters
    for function, removed in (
        (nncore.Adam, ("beta1", "beta2", "eps")),
        (plenet.TrainConfig, ("beta1", "beta2", "eps")),
        (plenet._evaluate, ("batch_size",)),
        (nncore.grad_check, ("block",)),
        (nncore.jitter_parameters, ("scale",)),
        (ingest.correlation_matrix, ("alpha",)),
        (ingest.prepare_records, ("test_fraction", "val_fraction")),
        (experiments.training_subset, ("n_train", "n_val")),
    ):
        parameters = inspect.signature(function).parameters
        assert [name for name in removed if name in parameters] == [], function.__name__
    fields = [f.name for f in dataclasses.fields(plenet.TrainConfig)]
    assert fields == ["epochs", "batch_size", "lr", "patience", "seed"]


def test_default_config_digest_is_pinned():
    # Adam's constants hash as the configuration fields they were, so a checkpoint's digest field keeps its bytes
    assert checkpoint.config_digest(plenet.TrainConfig()) == "5b08871ed47173fb"


def test_one_kind_name_table():
    assert canbus.KIND_NAMES == ("normal", "flooding", "fuzzing", "spoofing")


# Run in a fresh interpreter: the pytest process has loaded scipy through other tests.
SCIPY_ON_DEMAND = textwrap.dedent("""\
    import sys
    from pathlib import Path

    import canids
    import canids.cli
    from canids.cli import run_command

    def loaded(what):
        print(what, "scipy.stats" in sys.modules, "scipy.special" in sys.modules)

    loaded("import")
    out, statistical = Path(sys.argv[1]), sys.argv[2:]
    (out / "p.cfg").write_text("duration=3\\nseed=5\\necu=0A0,0.02,4,constant\\necu=130,0.02,8,counter\\n")
    data, model = str(out / "d.bin"), str(out / "m.ckpt")
    for argv in (["simulate", "--profile", str(out / "p.cfg"), "--attack", "flooding:1:2:60",
                  "-o", str(out / "l.csv")],
                 ["prepare", "--input", str(out / "l.csv"), "--output", data],
                 ["train", "--data", data, "--output", model, "--epochs", "1"],
                 ["evaluate", "--checkpoint", model, "--data", data],
                 ["transfer", "--source", model, "--data", data, "--output", str(out / "t.ckpt"), "--epochs", "1"],
                 ["compare", "--data", data, "--epochs", "1"],
                 ["gradcheck", "--seeds", "1"],
                 ["prepare", "--input", str(out / "l.csv"), "--output", str(out / "o.bin"), *statistical]):
        assert run_command(argv) == 0, argv
        loaded(argv[0])
""")


@pytest.mark.parametrize("statistical", [["--outliers", "dlc:0.05:3"], ["--correlation-report", "c.csv"]])
def test_no_command_loads_scipy_stats_and_only_the_statistical_tests_load_scipy_special(tmp_path, statistical):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", SCIPY_ON_DEMAND, str(tmp_path), *statistical], env=env,
                            cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stdout.splitlines() if line.endswith((" True", " False"))]
    commands = ["import", "simulate", "prepare", "train", "evaluate", "transfer", "compare", "gradcheck"]
    assert lines == [f"{command} False False" for command in commands] + ["prepare False True"]

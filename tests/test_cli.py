import json

import pytest

from canids.checkpoint import save_checkpoint
from canids.cli import parse_attack, parse_profile, run_command
from canids.ingest import load_dataset
from canids.plenet import build_plenet

PROFILE = """\
# three periodic transmitters
duration=10
jitter=0.02
seed=5
ecu=0A0,0.02,4,constant
ecu=130,0.02,8,counter
ecu=2B0,0.02,8,sensor
"""


@pytest.fixture
def profile_path(tmp_path):
    path = tmp_path / "profile.cfg"
    path.write_text(PROFILE)
    return path


def run_ok(argv):
    code = run_command(argv)
    assert code == 0, f"command {argv} exited {code}"


class TestParsing:
    def test_profile(self, profile_path):
        profile = parse_profile(str(profile_path))
        assert profile.duration == 10
        assert len(profile.ecus) == 3
        assert profile.ecus[1].identifier == 0x130
        assert profile.ecus[2].payload_rule == "sensor"

    def test_attack_spec(self):
        spec = parse_attack("spoofing:10:12:100:2B0,130", seed=3)
        assert spec.kind == "spoofing"
        assert spec.spoof_targets == (0x2B0, 0x130)
        assert spec.rate == 100
        with pytest.raises(ValueError):
            parse_attack("flooding:10:12", seed=0)


class TestSimulate:
    def test_deterministic_output(self, tmp_path, profile_path):
        argv = [
            "simulate",
            "--profile",
            str(profile_path),
            "--attack",
            "flooding:2:4:100",
            "--seed",
            "7",
            "-o",
        ]
        run_ok(argv + [str(tmp_path / "a.csv")])
        run_ok(argv + [str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.csv.kinds").read_bytes() == (tmp_path / "b.csv.kinds").read_bytes()

    def test_header_and_columns(self, tmp_path, profile_path):
        out = tmp_path / "log.csv"
        run_ok(["simulate", "--profile", str(profile_path), "-o", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "Timestamp,CAN_ID,DLC,Data_Field,Label"
        first = lines[1].split(",")
        assert len(first) == 5
        assert first[4] == "0"


@pytest.fixture
def pipeline(tmp_path, profile_path):
    """simulate -> prepare, shared by the heavier CLI tests."""
    log = tmp_path / "log.csv"
    data = tmp_path / "data.bin"
    run_ok(
        [
            "simulate",
            "--profile",
            str(profile_path),
            "--attack",
            "flooding:2:4:60",
            "--attack",
            "fuzzing:5:7:60",
            "--attack",
            "spoofing:7:9:40:130,2B0",
            "-o",
            str(log),
        ]
    )
    run_ok(["prepare", "--input", str(log), "--output", str(data), "--seed", "3"])
    return tmp_path, log, data


class TestPipeline:
    def test_prepare_outputs(self, pipeline):
        tmp_path, log, data = pipeline
        assert data.exists()
        assert (tmp_path / "data.bin.manifest").exists()
        assert (tmp_path / "data.bin.kinds").exists()
        ds = load_dataset(data)
        # no silent row loss: every simulated record survives preparation,
        # and both classes are present
        assert sum(ds.sizes()) == sum(1 for _ in log.read_text().splitlines()) - 1
        assert 0 < ds.train_y.sum() < len(ds.train_y)

    def test_prepare_deterministic(self, pipeline):
        tmp_path, log, data = pipeline
        again = tmp_path / "again.bin"
        run_ok(["prepare", "--input", str(log), "--output", str(again), "--seed", "3"])
        assert data.read_bytes() == again.read_bytes()

    def test_prepare_outlier_and_correlation_options(self, pipeline):
        tmp_path, log, data = pipeline
        corr = tmp_path / "corr.csv"
        run_ok(
            [
                "prepare",
                "--input",
                str(log),
                "--output",
                str(tmp_path / "filtered.bin"),
                "--outliers",
                "data_field:0.05:10",
                "--correlation-report",
                str(corr),
            ]
        )
        lines = corr.read_text().splitlines()
        assert lines[0] == "feature_a,feature_b,r,p,significant"
        assert len(lines) == 7  # six feature pairs

    def test_train_evaluate(self, pipeline):
        tmp_path, log, data = pipeline
        ckpt = tmp_path / "model.ckpt"
        hist = tmp_path / "history.csv"
        run_ok(
            [
                "train",
                "--data",
                str(data),
                "--output",
                str(ckpt),
                "--epochs",
                "3",
                "--seed",
                "1",
                "--history",
                str(hist),
            ]
        )
        assert ckpt.exists()
        header = hist.read_text().splitlines()[0]
        assert header == "epoch,train_acc,val_acc,train_loss,val_loss"

        report = tmp_path / "report.txt"
        report_json = tmp_path / "report.json"
        run_ok(
            [
                "evaluate",
                "--checkpoint",
                str(ckpt),
                "--data",
                str(data),
                "--report",
                str(report),
                "--json",
                str(report_json),
            ]
        )
        payload = json.loads(report_json.read_text())
        assert "accuracy" in payload["test"]
        text = report.read_text()
        assert "accuracy" in text.splitlines()[0]
        # text table carries the same rounded numbers as the JSON tree
        assert f"{payload['test']['accuracy']:.4f}" in text

    def test_transfer_roundtrip(self, pipeline):
        tmp_path, log, data = pipeline
        ckpt = tmp_path / "model.ckpt"
        tuned = tmp_path / "tuned.ckpt"
        run_ok(["train", "--data", str(data), "--output", str(ckpt), "--epochs", "2", "--seed", "1"])
        run_ok(
            [
                "transfer",
                "--source",
                str(ckpt),
                "--data",
                str(data),
                "--source-data",
                str(data),
                "--output",
                str(tuned),
                "--freeze",
                "conv",
                "--epochs",
                "2",
                "--seed",
                "2",
            ]
        )
        assert tuned.exists()

    def test_compare_table_shape(self, pipeline, capsys):
        tmp_path, log, data = pipeline
        out_json = tmp_path / "compare.json"
        run_ok(
            [
                "compare",
                "--data",
                str(data),
                "--epochs",
                "2",
                "--seed",
                "1",
                "--knn-k",
                "5",
                "--json",
                str(out_json),
            ]
        )
        table = capsys.readouterr().out
        header = table.splitlines()[0]
        assert "accuracy" in header
        assert "recall[flooding]" in header
        payload = json.loads(out_json.read_text())
        assert set(payload) == {"plenet", "knn", "dt", "mlp"}
        for row in payload.values():
            assert "accuracy" in row


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, profile_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=2\nseed=9\n")
        log = tmp_path / "log.csv"
        data = tmp_path / "data.bin"
        run_ok(["simulate", "--profile", str(profile_path), "-o", str(log)])
        run_ok(["prepare", "--input", str(log), "--output", str(data)])
        ckpt_a = tmp_path / "a.ckpt"
        ckpt_b = tmp_path / "b.ckpt"
        run_ok(["train", "--data", str(data), "--output", str(ckpt_a), "--config", str(cfg)])
        # explicit flag overrides the config's seed, changing the init
        run_ok(
            ["train", "--data", str(data), "--output", str(ckpt_b), "--config", str(cfg), "--seed", "1"]
        )
        assert ckpt_a.read_bytes() != ckpt_b.read_bytes()


class TestGradcheckCommand:
    def test_passes_at_tolerance(self, capsys):
        assert run_command(["gradcheck", "--seeds", "1", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "worst relative error" in out


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert run_command(["no-such-command"]) == 2
        assert run_command(["train"]) == 2  # missing required options

    def test_runtime_failure_is_1(self, tmp_path):
        missing = tmp_path / "nope.bin"
        assert run_command(["train", "--data", str(missing), "--output", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_unknown_sidecar_partition_is_1(self, pipeline, command, capsys):
        tmp_path, log, data = pipeline
        kinds = tmp_path / "data.bin.kinds"
        lines = kinds.read_text().splitlines()
        lines[0] = "holdout," + lines[0].split(",", 1)[1]
        kinds.write_text("\n".join(lines) + "\n")
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_plenet(seed=0), ckpt)
        argv = {
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--data", str(data)],
            "compare": ["compare", "--data", str(data), "--epochs", "1"],
        }[command]
        assert run_command(argv) == 1
        assert "expected train|validation|test,<kind>" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["kind", "seed"])
    def test_corrupt_container_sidecars_evaluate_is_1(self, pipeline, edit, capsys):
        tmp_path, log, data = pipeline
        if edit == "kind":
            kinds = tmp_path / "data.bin.kinds"
            lines = kinds.read_text().splitlines()
            lines[0] = "train,garbage_kind_name"
            kinds.write_text("\n".join(lines) + "\n")
        else:
            manifest = tmp_path / "data.bin.manifest"
            manifest.write_text(manifest.read_text().replace("seed=3", "seed=abc"))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_plenet(seed=0), ckpt)
        assert run_command(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
        assert {"kind": "unknown kind", "seed": "not an integer"}[edit] in capsys.readouterr().err

    def test_unknown_log_sidecar_kind_prepare_is_1(self, pipeline, capsys):
        tmp_path, log, data = pipeline
        kinds = tmp_path / "log.csv.kinds"
        lines = kinds.read_text().splitlines()
        lines[0] = "garbage_kind_name"
        kinds.write_text("\n".join(lines) + "\n")
        argv = ["prepare", "--input", str(log), "--output", str(tmp_path / "again.bin")]
        assert run_command(argv) == 1
        assert "unknown kinds ['garbage_kind_name']" in capsys.readouterr().err

    def test_non_utf8_checkpoint_evaluate_is_1(self, pipeline, capsys):
        tmp_path, log, data = pipeline
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_plenet(seed=0), ckpt)
        blob = bytearray(ckpt.read_bytes())
        blob[16] = 0xFF  # first byte of the descriptor, after magic, version and length
        ckpt.write_bytes(bytes(blob))
        assert run_command(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", ["manifest", "kinds"])
    def test_non_utf8_container_sidecar_evaluate_is_1(self, pipeline, sidecar, capsys):
        tmp_path, log, data = pipeline
        side = tmp_path / f"data.bin.{sidecar}"
        side.write_bytes(side.read_bytes() + b"source=\xff\xfe\n")
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_plenet(seed=0), ckpt)
        assert run_command(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
        assert "not valid text" in capsys.readouterr().err

    def test_over_long_id_prepare(self, tmp_path, capsys):
        rows = [f"0.{i},0{i}30,1,0{i},{i % 2}" for i in range(10)]
        log = tmp_path / "log.csv"
        log.write_text("\n".join(rows + ["1.0,FFFFFFFFFFFFFFFFFFFFFF,1,0A,0"]) + "\n")
        run_ok(["prepare", "--input", str(log), "--output", str(tmp_path / "a.bin")])
        assert "prepared 10 records" in capsys.readouterr().out
        run_ok(["prepare", "--input", str(log), "--output", str(tmp_path / "b.bin"), "--impute", "fieldmean"])
        assert "prepared 11 records" in capsys.readouterr().out
        log.write_text("0.1,FFFFFFFFFFFFFFFFFFFFFF,1,0A,0\n0.2,0x20000000,1,0B,1\n")
        argv = ["prepare", "--input", str(log), "--output", str(tmp_path / "c.bin"), "--impute", "fieldmean"]
        assert run_command(argv) == 1
        assert "cannot impute CAN_ID" in capsys.readouterr().err

    @pytest.mark.parametrize("impute", ["droprow", "fieldmean"])
    @pytest.mark.parametrize(
        "bad_row",
        ["1.0,0130,8," + " ".join(["FF"] * 200) + ",0", "1.0,0130,1000000,ZZ,0"],
        ids=["200_byte_data_field", "dlc_1000000"],
    )
    def test_payload_above_64_bytes_prepare(self, tmp_path, capsys, bad_row, impute):
        rows = [f"0.{i},0{i}30,1,0{i},{i % 2}" for i in range(10)]
        log = tmp_path / "log.csv"
        log.write_text("\n".join(rows + [bad_row]) + "\n")
        run_ok(["prepare", "--input", str(log), "--output", str(tmp_path / "a.bin"), "--impute", impute])
        kept = 10 if impute == "droprow" else 11
        assert f"prepared {kept} records" in capsys.readouterr().out

    def test_bad_attack_spec_is_1(self, tmp_path, profile_path):
        code = run_command(
            [
                "simulate",
                "--profile",
                str(profile_path),
                "--attack",
                "meteor:1:2:3",
                "-o",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

import json
import re

import pytest

from canids.baselines import build_mlp
from canids.checkpoint import save_checkpoint
from canids.cli import MalformedSpec, parse_attack, parse_profile, run_command
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

    def test_prepare_without_log_kinds_writes_no_kinds(self, tmp_path, profile_path):
        # a log without a kinds sidecar has unknown kinds, not "normal" ones
        log, data = tmp_path / "log.csv", tmp_path / "data.bin"
        run_ok(["simulate", "--profile", str(profile_path), "--attack", "flooding:2:4:60", "--no-kinds",
                "-o", str(log)])
        assert not (tmp_path / "log.csv.kinds").exists()
        run_ok(["prepare", "--input", str(log), "--output", str(data), "--seed", "3"])
        assert data.exists() and not (tmp_path / "data.bin.kinds").exists()
        ds = load_dataset(data)
        assert ds.train_y.sum() > 0 and not ds.has_kinds()

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

    @pytest.mark.parametrize("option, value", [("--seeds", "0"), ("--seeds", "-2"), ("--batch", "0"),
                                               ("--batch", "-1"), ("--batch", "two")])
    def test_non_positive_counts_are_usage_errors(self, option, value, capsys):
        assert run_command(["gradcheck", option, value]) == 2
        captured = capsys.readouterr()
        assert f"argument {option}:" in captured.err and "worst relative error" not in captured.out


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

    @pytest.mark.parametrize("builder", [build_plenet, build_mlp])
    def test_empty_test_partition_evaluate_is_1(self, pipeline, builder, capsys):
        tmp_path, log, _ = pipeline
        data = tmp_path / "no_test.bin"
        run_ok(["prepare", "--input", str(log), "--output", str(data), "--test-fraction", "0"])
        assert len(load_dataset(data).test_y) == 0
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(builder(seed=0), ckpt)
        capsys.readouterr()
        assert run_command(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
        assert capsys.readouterr().err == "error: confusion matrix holds no samples\n"

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


class TestSpecErrors:
    """A bad profile line, attack spec or config path exits 1 or 2 naming what is wrong."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("ecu=130", "line 8: profile ecu= needs hexid,period[,dlc[,rule]], got 1 field(s)"),
            ("ecu=131,0.1,8,counter,extra", "line 8: profile ecu= needs hexid,period[,dlc[,rule]], got 5"),
            ("ecu=ZZ,0.1", "line 8: profile ecu= identifier must be a hex integer, got 'ZZ'"),
            ("ecu=131,0.1,x", "line 8: profile ecu= dlc must be an integer, got 'x'"),
            ("ecu=131,nan", "line 8: profile ecu= period must be finite, got nan"),
            ("ecu=131,inf", "line 8: profile ecu= period must be finite, got inf"),
            ("duration=abc", "line 8: profile duration= value must be a number, got 'abc'"),
            ("jitter=x", "line 8: profile jitter= value must be a number, got 'x'"),
            ("seed=x", "line 8: profile seed= value must be an integer, got 'x'"),
            ("speed=3", "line 8: profile speed= is not a profile key"),
            ("duration=inf", "profile duration must be finite, got inf"),
        ],
    )
    def test_profile_line(self, tmp_path, capsys, line, message):
        profile = tmp_path / "profile.cfg"
        profile.write_text(PROFILE + line + "\n")
        with pytest.raises(MalformedSpec, match=re.escape(message)):
            parse_profile(str(profile))
        assert run_command(["simulate", "--profile", str(profile), "-o", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {profile}") and message in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_profile_that_is_not_utf8(self, tmp_path, capsys):
        profile = tmp_path / "profile.cfg"
        profile.write_bytes(PROFILE.encode() + b"ecu=\xff\n")
        assert run_command(["simulate", "--profile", str(profile), "-o", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"error: {profile}: profile is not UTF-8 text (byte {len(PROFILE) + 4})\n"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("flooding:1:x:3", "end must be a number, got 'x'"),
            ("flooding:1:2:inf", "rate must be finite, got inf"),
            ("flooding:1:2:nan", "rate must be finite, got nan"),
            ("flooding:nan:2:3", "start must be finite, got nan"),
            ("spoofing:1:2:3:130,QQ", "target must be a hex integer, got 'QQ'"),
            ("flooding:1:2", "is not kind:start:end:rate[:targets]"),
        ],
    )
    def test_attack_spec(self, tmp_path, profile_path, capsys, spec, message):
        with pytest.raises(MalformedSpec, match=re.escape(message)):
            parse_attack(spec, seed=0)
        argv = ["simulate", "--profile", str(profile_path), "--attack", spec, "-o", str(tmp_path / "x.csv")]
        assert run_command(argv) == 1
        assert capsys.readouterr().err == f"error: attack spec {spec!r}: {message}\n"

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        argv = ["train", "--data", "x.bin", "--output", "x.ckpt", "--config", str(missing)]
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err


class TestSeedOption:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--profile", "p.cfg", "-o", "x.csv"],
            ["prepare", "--input", "x.csv", "--output", "x.bin"],
            ["train", "--data", "x.bin", "--output", "x.ckpt"],
            ["transfer", "--source", "x.ckpt", "--data", "x.bin", "--output", "y.ckpt"],
            ["compare", "--data", "x.bin"],
            ["gradcheck", "--seeds", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("seed", ["-1", "abc"])
    def test_bad_seed_is_usage_error(self, argv, seed, capsys):
        assert run_command(argv + ["--seed", seed]) == 2
        assert "argument --seed:" in capsys.readouterr().err

    def test_negative_profile_seed_is_1(self, tmp_path, capsys):
        profile = tmp_path / "profile.cfg"
        profile.write_text(PROFILE.replace("seed=5", "seed=-1"))
        with pytest.raises(ValueError, match="seed="):
            parse_profile(str(profile))
        assert run_command(["simulate", "--profile", str(profile), "-o", str(tmp_path / "x.csv")]) == 1
        assert "profile seed= must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_seed_zero_is_accepted(self, tmp_path, profile_path):
        run_ok(["simulate", "--profile", str(profile_path), "--seed", "0", "-o", str(tmp_path / "x.csv")])


class TestOutlierSpec:
    @pytest.mark.parametrize(
        "spec",
        ["bogus", "data_field:x:3", "data_field:0.05", "data_field:0.05:3:1", "data_field:0.05:1.5",
         "Data_Field:0.05:3", "foo:0.05:3", "dlc:0:3", "dlc:1:3", "dlc:nan:3", "dlc:0.05:0", "dlc:0.05:-2"],
    )
    def test_bad_spec_is_usage_error_before_reading(self, tmp_path, spec, capsys):
        # the input does not exist: the spec is refused before any log is opened
        argv = ["prepare", "--input", str(tmp_path / "missing.csv"), "--output", str(tmp_path / "x.bin"),
                "--outliers", spec]
        assert run_command(argv) == 2
        assert "argument --outliers:" in capsys.readouterr().err

    def test_bounds_that_depend_on_the_rows_are_1(self, pipeline, capsys):
        tmp_path, log, _ = pipeline
        rows = sum(1 for _ in log.read_text().splitlines()) - 1
        argv = ["prepare", "--input", str(log), "--output", str(tmp_path / "x.bin"),
                "--outliers", f"dlc:0.05:{rows - 1}"]
        assert run_command(argv) == 1
        assert "max_outliers must lie in [1, n - 2]" in capsys.readouterr().err
        short = tmp_path / "short.csv"
        short.write_text("\n".join(log.read_text().splitlines()[:20]) + "\n")
        argv = ["prepare", "--input", str(short), "--output", str(tmp_path / "y.bin"), "--outliers", "dlc:0.05:1"]
        assert run_command(argv) == 1
        assert "need at least 25 values" in capsys.readouterr().err


def test_evaluate_without_kinds_has_no_recall_columns(tmp_path, profile_path, capsys):
    log, data, ckpt = tmp_path / "log.csv", tmp_path / "data.bin", tmp_path / "model.ckpt"
    run_ok(["simulate", "--profile", str(profile_path), "--attack", "flooding:2:4:60", "--no-kinds",
            "-o", str(log)])
    run_ok(["prepare", "--input", str(log), "--output", str(data)])
    save_checkpoint(build_plenet(seed=0), ckpt)
    capsys.readouterr()
    run_ok(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)])
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith("model") and "recall[" not in header

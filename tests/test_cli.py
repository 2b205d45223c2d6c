import json
import os
import platform
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from canids import baselines, plenet
from canids.baselines import build_mlp
from canids.checkpoint import save_checkpoint
from canids.cli import MalformedSpec, build_parser, parse_attack, parse_profile, run_command
from canids.ingest import (LengthMismatch, NormalizationParams, PreparedDataset, UnknownKind, load_dataset,
                           save_dataset)
from canids.plenet import build_plenet
from helpers import toy_dataset, traced_peak

ROOT = Path(__file__).resolve().parents[1]

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

    def test_prepare_releases_the_free_heap_before_encoding(self, pipeline, monkeypatch):
        # parsing's freed temporaries go back to the system before the feature buffer is allocated
        import canids.ingest

        tmp_path, log, data = pipeline
        events = []
        split = canids.ingest.split_dataset
        monkeypatch.setattr("canids.cli._malloc_trim", lambda pad: events.append(("trim", pad)))
        monkeypatch.setattr("canids.ingest.split_dataset", lambda *a, **kw: events.append(("split",)) or split(*a, **kw))
        again = tmp_path / "again.bin"
        run_ok(["prepare", "--input", str(log), "--output", str(again), "--seed", "3"])
        assert events == [("trim", 0), ("split",)]
        assert data.read_bytes() == again.read_bytes()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
    def test_malloc_trim_found_on_glibc(self):
        import canids.cli

        assert canids.cli._malloc_trim is not None

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

    def test_conv_freeze_of_a_model_without_a_leading_conv_is_1(self, pipeline, capsys):
        tmp_path, _, data = pipeline
        source, tuned = tmp_path / "mlp.ckpt", tmp_path / "tuned.ckpt"
        save_checkpoint(build_mlp(seed=0), source)
        capsys.readouterr()
        argv = ["transfer", "--source", str(source), "--data", str(data), "--output", str(tuned), "--freeze", "conv"]
        assert run_command(argv) == 1
        assert capsys.readouterr() == (
            "", "error: freeze='conv' needs a leading Conv1D layer, but the first trainable layer is Dense\n")
        assert not tuned.exists()

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

    def test_compare_refuses_k_above_the_training_rows_before_training(self, pipeline, monkeypatch, capsys):
        tmp_path, log, data = pipeline
        n_train = len(load_dataset(data).train_y)
        monkeypatch.setattr("canids.plenet.train", lambda *a, **kw: pytest.fail("compare trained a model"))
        assert run_command(["compare", "--data", str(data), "--knn-k", str(n_train + 1)]) == 1
        assert capsys.readouterr().err == f"error: k={n_train + 1} with {n_train} training rows\n"

    def test_compare_peaks_no_higher_than_evaluate(self, tmp_path):
        # Both peak in plenet's 1,024-row forward passes over the 4,000 test rows (7.07 and 7.08 MiB traced;
        # 10.97 and 10.98 MiB while the layers kept the block before, 24.1 and 24.4 MiB as one pass over all
        # of them, 42.4 and 42.7 MiB when each ReLU also kept a second copy). A trained CNN still alive while
        # KNN ran added KNN's blocks on top: 53.6 MiB.
        rng = np.random.default_rng(0)
        parts = []
        for n in (2_560, 256, 4_000):
            x = rng.uniform(size=(n, 16))
            parts += [x, (x[:, 0] + 0.1 * x[:, 1] > 0.55).astype(np.uint8)]
        data, ckpt = tmp_path / "data.bin", tmp_path / "model.ckpt"
        save_dataset(PreparedDataset(*parts, NormalizationParams(np.zeros(16), np.ones(16))), data)
        save_checkpoint(build_plenet(seed=0), ckpt)
        code, evaluate = traced_peak(lambda: run_command(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]))
        assert code == 0
        code, compare = traced_peak(lambda: run_command(["compare", "--data", str(data), "--epochs", "1"]))
        assert code == 0
        assert compare <= evaluate + 4 * 2**20, (compare, evaluate)


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

    def test_config_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_bytes(b"epochs=\xff\n")
        assert run_command(["train", "--data", "x.bin", "--output", "x.ckpt", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text (invalid start byte at byte 7)\n"


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
        message = f"error: {kinds}: kinds sidecar names unknown kinds ['garbage_kind_name'], the first on line 1\n"
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("impute", ["droprow", "fieldmean"])
    def test_second_log_without_data_rows_is_named(self, pipeline, impute, capsys):
        tmp_path, log, _ = pipeline
        empty = tmp_path / "empty.csv"
        empty.write_text("Timestamp,CAN_ID,DLC,Data_Field,Label\n")
        argv = ["prepare", "--input", str(log), "--input", str(empty), "--output", str(tmp_path / "x.bin"),
                "--impute", impute]
        assert run_command(argv) == 1
        assert capsys.readouterr().err == f"error: {empty}: no data rows found\n"

    def test_unknown_log_sidecar_kind_on_a_dropped_row_is_1(self, tmp_path, capsys):
        # the sidecar is checked whole when it is read, before droprow drops row 2
        log = tmp_path / "log.csv"
        log.write_text("0.1,0100,2,AA BB,0\n0.2,0100,x,AA BB,0\n0.3,0000,8,00 00 00 00 00 00 00 00,1\n")
        (tmp_path / "log.csv.kinds").write_text("normal\nbogus\nflooding\n")
        output = tmp_path / "data.bin"
        assert run_command(["prepare", "--input", str(log), "--output", str(output), "--impute", "droprow"]) == 1
        assert "kinds sidecar names unknown kinds ['bogus']" in capsys.readouterr().err
        assert not output.exists()

    def test_unknown_log_sidecar_kinds_are_named_sorted_from_the_first_line(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("0.1,0100,2,AA BB,0\n0.2,0100,2,AA BB,0\n0.3,0000,8,00 00 00 00 00 00 00 00,1\n")
        kinds = tmp_path / "log.csv.kinds"
        kinds.write_text("normal\ngarbage_kind_name\nbogus\n")
        argv = ["prepare", "--input", str(log), "--output", str(tmp_path / "data.bin")]
        assert run_command(argv) == 1
        message = f"{kinds}: kinds sidecar names unknown kinds ['bogus', 'garbage_kind_name'], the first on line 2"
        assert capsys.readouterr().err == f"error: {message}\n"
        args = build_parser().parse_args(argv)
        with pytest.raises(UnknownKind) as exc:
            args.func(args)
        assert str(exc.value) == message and not (tmp_path / "data.bin").exists()

    def test_log_sidecar_of_the_wrong_length_is_1(self, tmp_path, capsys):
        # the row count is checked before the names, so the unknown name here is not what is reported
        log = tmp_path / "log.csv"
        log.write_text("0.1,0100,2,AA BB,0\n0.2,0100,2,AA BB,1\n")
        (tmp_path / "log.csv.kinds").write_text("normal\nflooding\nbogus\n")
        argv = ["prepare", "--input", str(log), "--output", str(tmp_path / "data.bin")]
        assert run_command(argv) == 1
        message = f"{log}: kinds sidecar has 3 rows for 2 records; remove the sidecar or regenerate the log"
        assert capsys.readouterr().err == f"error: {message}\n"
        args = build_parser().parse_args(argv)
        with pytest.raises(LengthMismatch) as exc:
            args.func(args)
        assert str(exc.value) == message and not (tmp_path / "data.bin").exists()

    @pytest.mark.parametrize("edit", [lambda text: text.replace("\n", "\r\n"), lambda text: text.removesuffix("\n")])
    def test_log_sidecar_line_ends_make_the_same_container(self, pipeline, edit):
        tmp_path, log, data = pipeline
        kinds = tmp_path / "log.csv.kinds"
        kinds.write_bytes(edit(kinds.read_text()).encode())
        run_ok(["prepare", "--input", str(log), "--output", str(tmp_path / "again.bin"), "--seed", "3"])
        for suffix in ("", ".kinds"):
            assert (tmp_path / f"again.bin{suffix}").read_bytes() == (tmp_path / f"data.bin{suffix}").read_bytes()

    def test_log_sidecar_line_ended_by_a_lone_carriage_return_is_1(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("0.1,0100,2,AA BB,0\n0.2,0100,2,AA BB,1\n")
        kinds = tmp_path / "log.csv.kinds"
        for text, fault in [("normal\rflooding\n", f"{log}: kinds sidecar has 1 rows for 2 records"),
                            ("normal\nflooding\r", f"{kinds}: kinds sidecar names unknown kinds ['flooding\\r']")]:
            kinds.write_bytes(text.encode())
            assert run_command(["prepare", "--input", str(log), "--output", str(tmp_path / "data.bin")]) == 1
            assert capsys.readouterr().err.startswith(f"error: {fault}")

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
        at = side.stat().st_size + len(b"source=")
        side.write_bytes(side.read_bytes() + b"source=\xff\xfe\n")
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_plenet(seed=0), ckpt)
        assert run_command(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
        assert capsys.readouterr().err == f"error: {side}: not UTF-8 text (invalid start byte at byte {at})\n"

    @pytest.mark.parametrize("suffix", ["", ".kinds"])
    def test_non_utf8_log_or_log_sidecar_prepare_is_1(self, tmp_path, profile_path, suffix, capsys):
        log = tmp_path / "log.csv"
        run_ok(["simulate", "--profile", str(profile_path), "-o", str(log)])
        spoiled = tmp_path / f"log.csv{suffix}"
        blob = bytearray(spoiled.read_bytes())
        at = len(blob) - 20  # past the first 8 KiB a streamed decode reads at once
        blob[at] = 0xFF
        spoiled.write_bytes(bytes(blob))
        assert run_command(["prepare", "--input", str(log), "--output", str(tmp_path / "x.bin")]) == 1
        assert capsys.readouterr().err == f"error: {spoiled}: not UTF-8 text (invalid start byte at byte {at})\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda blob: blob[:-1], "unexpected end of file"),
        (lambda blob: blob + b"\0", "1 trailing bytes"),
        (lambda blob: blob[:7] + bytes([blob[7] ^ 1]) + blob[8:], "unexpected feature width 17"),
        (lambda blob: blob[:-8] + struct.pack("<d", -1.0), "normalization pairs: feature max must be >= feature min"),
    ])
    def test_mutated_container_evaluate_is_1(self, pipeline, edit, message, capsys):
        tmp_path, log, data = pipeline
        data.write_bytes(edit(data.read_bytes()))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_plenet(seed=0), ckpt)
        assert run_command(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
        assert capsys.readouterr().err == f"error: {data}: {message}\n"

    def test_evaluate_warns_when_normalization_maxs_differ(self, pipeline, capsys):
        tmp_path, log, data = pipeline
        norm = load_dataset(data).norm
        ckpt = tmp_path / "model.ckpt"
        warning = "warning: checkpoint and dataset normalization differ\n"
        save_checkpoint(build_plenet(seed=0), ckpt, norm=norm)
        run_ok(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)])
        assert capsys.readouterr().err == ""
        save_checkpoint(build_plenet(seed=0), ckpt, norm=NormalizationParams(norm.mins, norm.maxs + np.eye(16)[0]))
        run_ok(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)])
        assert capsys.readouterr().err == warning

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
        assert capsys.readouterr().err == f"error: {data}: the test partition holds no rows to score\n"

    def test_empty_test_partition_compare_is_1_before_any_training(self, pipeline, capsys, monkeypatch):
        tmp_path, log, _ = pipeline
        data = tmp_path / "no_test.bin"
        run_ok(["prepare", "--input", str(log), "--output", str(data), "--test-fraction", "0"])
        capsys.readouterr()
        fitted = []
        for owner, name in ((plenet, "train"), (baselines, "knn_fit"), (baselines, "tree_fit")):
            monkeypatch.setattr(owner, name, lambda *args, name=name, **kwargs: fitted.append(name))
        assert run_command(["compare", "--data", str(data), "--epochs", "1"]) == 1
        assert capsys.readouterr().err == f"error: {data}: the test partition holds no rows to score\n"
        assert fitted == []

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
            ("ecu=ZZ,0.1", "line 8: profile ecu= identifier must be an integer in [0, 2047], got 'ZZ'"),
            ("ecu=800,0.1", "line 8: profile ecu= identifier must be an integer in [0, 2047], got 2048"),
            ("ecu=131,0.1,x", "line 8: profile ecu= dlc must be an integer in [0, 8], got 'x'"),
            ("ecu=131,0.1,9", "line 8: profile ecu= dlc must be an integer in [0, 8], got 9"),
            ("ecu=131,nan", "line 8: profile ecu= period must be a number in (0, inf), got nan"),
            ("ecu=131,inf", "line 8: profile ecu= period must be a number in (0, inf), got inf"),
            ("ecu=131,0", "line 8: profile ecu= period must be a number in (0, inf), got 0.0"),
            ("duration=abc", "line 8: profile duration= duration must be a number in (0, inf), got 'abc'"),
            ("jitter=x", "line 8: profile jitter= jitter must be a number in [0, 0.5), got 'x'"),
            ("jitter=0.5", "line 8: profile jitter= jitter must be a number in [0, 0.5), got 0.5"),
            ("seed=x", "line 8: profile seed= seed must be an integer in [0, 18446744073709551615], got 'x'"),
            ("speed=3", "line 8: profile speed= is not a profile key"),
            ("duration=inf", "line 8: profile duration= duration must be a number in (0, inf), got inf"),
            ("duration=0.01", "profile ECU periods all exceed duration 0.01, so no record would be emitted"),
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
        at = len(PROFILE) + 4
        assert capsys.readouterr().err == f"error: {profile}: not UTF-8 text (invalid start byte at byte {at})\n"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("flooding:1:x:3", "end must be a number in (-inf, inf), got 'x'"),
            ("flooding:1:2:inf", "rate must be a number in (0, inf), got inf"),
            ("flooding:1:2:nan", "rate must be a number in (0, inf), got nan"),
            ("flooding:1:2:-3", "rate must be a number in (0, inf), got -3.0"),
            ("flooding:nan:2:3", "start must be a number in (-inf, inf), got nan"),
            ("spoofing:1:2:3:130,QQ", "identifier must be an integer in [0, 2047], got 'QQ'"),
            ("spoofing:1:2:3:130,800", "identifier must be an integer in [0, 2047], got 2048"),
            ("flooding:1:2", "is not kind:start:end:rate[:targets]"),
        ],
    )
    def test_attack_spec(self, tmp_path, profile_path, capsys, spec, message):
        with pytest.raises(MalformedSpec, match=re.escape(message)):
            parse_attack(spec, seed=0)
        argv = ["simulate", "--profile", str(profile_path), "--attack", spec, "-o", str(tmp_path / "x.csv")]
        assert run_command(argv) == 1
        assert capsys.readouterr().err == f"error: attack spec {spec!r}: {message}\n"

    @pytest.mark.parametrize(
        "attack, message",
        [
            ("flooding:-1:2:3", "window [-1.0, 2.0] outside log span"),
            ("spoofing:1:2:3", "spoofing attack requires at least one target identifier"),
        ],
    )
    def test_injection_error_names_its_spec(self, tmp_path, profile_path, capsys, attack, message):
        argv = ["simulate", "--profile", str(profile_path), "--attack", "flooding:2:3:10", "--attack", attack,
                "-o", str(tmp_path / "x.csv")]
        assert run_command(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: attack spec {attack!r}: {message}")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "profile, attack, message",
        [
            ("duration=1e308\necu=130,1e-300\n", [], "ECU 130 (period 1e-300) would emit inf records"),
            (PROFILE, ["--attack", "flooding:1:2:1e300"], "flooding attack [1.0, 2.0] at rate 1e+300 would emit"),
        ],
    )
    def test_record_count_above_cap_is_1(self, tmp_path, capsys, profile, attack, message):
        path = tmp_path / "profile.cfg"
        path.write_text(profile)
        assert run_command(["simulate", "--profile", str(path), *attack, "-o", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        argv = ["train", "--data", "x.bin", "--output", "x.ckpt", "--config", str(missing)]
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err


TRAINING = ("train", "transfer", "compare")

# Every numeric option of every command: the commands that take it, its range in the words of the
# library's OutOfRange, values just inside the range, values outside it besides nan, inf, -inf and a
# non-number, and the option text each value goes into.
NUMERIC_OPTIONS = [
    ("--seed", ("simulate", "prepare", *TRAINING, "gradcheck"), "seed must be an integer in [0, 18446744073709551615]",
     ["0", "18446744073709551615"], ["-1", "-1_0", "18446744073709551616"], "{}"),
    ("--test-fraction", ("prepare",), "test_fraction must be a number in [0, 1)",
     ["0", "0.9999999999999999"], ["-5e-324", "1", "-0.1", "1.5", "-1e-9", "-.5E+3", "-Infinity", "-NaN"], "{}"),
    ("--val-fraction", ("prepare",), "val_fraction must be a number in [0, 1)",
     ["0", "0.9999999999999999"], ["-5e-324", "1", "-0.1", "1.5"], "{}"),
    ("--outliers", ("prepare",), "alpha must be a number in (0, 1)",
     ["5e-324", "0.9999999999999999"], ["0", "1", "x"], "dlc:{}:3"),
    ("--outliers", ("prepare",), "max_outliers must be an integer in [1, inf)",
     ["1"], ["0", "-2", "1.5"], "dlc:0.05:{}"),
    ("--epochs", TRAINING, "epochs must be an integer in [1, 1000]", ["1", "1000"], ["0", "1001", "-2", "2000"], "{}"),
    ("--batch-size", TRAINING, "batch_size must be an integer in [1, inf)", ["1"], ["0"], "{}"),
    ("--lr", TRAINING, "lr must be a number in [0, inf)", ["0", "1.7976931348623157e308"], ["-5e-324", "-1"], "{}"),
    ("--patience", TRAINING, "patience must be an integer in [1, inf)", ["1"], ["0"], "{}"),
    ("--knn-k", ("compare",), "k must be an integer in [1, inf)", ["1"], ["0"], "{}"),
    ("--tree-depth", ("compare",), "max_depth must be an integer in [0, inf)", ["0"], ["-1"], "{}"),
    ("--tree-min-leaf", ("compare",), "min_leaf must be an integer in [1, inf)", ["1"], ["0", "-3"], "{}"),
    ("--seeds", ("gradcheck",), "seeds must be an integer in [1, inf)", ["1"], ["0", "-2"], "{}"),
    ("--batch", ("gradcheck",), "batch must be an integer in [1, inf)", ["1"], ["0", "-1", "two"], "{}"),
]


def _cases(inside: bool):
    for option, commands, words, inside_values, outside_values, template in NUMERIC_OPTIONS:
        for command in commands:
            for number in inside_values if inside else [*outside_values, "nan", "inf", "-inf", "abc"]:
                yield pytest.param(command, option, words, number, template.format(number),
                                   id=f"{command} {option} {template.format(number)}")


def _read(words: str, number: str):
    """``number`` as the option's range reads it: an int or a float, or the text itself."""
    try:
        return int(number) if " an integer " in words else float(number)
    except ValueError:
        return number


def _argv(command, tmp_path):
    """``command`` with every path it reads or writes in ``tmp_path``, none of which exists."""
    missing = tmp_path / "missing"
    return {
        "simulate": ["simulate", "--profile", str(missing / "p.cfg"), "-o", str(tmp_path / "x.csv")],
        "prepare": ["prepare", "--input", str(missing / "x.csv"), "--output", str(tmp_path / "x.bin")],
        "train": ["train", "--data", str(missing / "x.bin"), "--output", str(tmp_path / "x.ckpt")],
        "transfer": ["transfer", "--source", str(missing / "x.ckpt"), "--data", str(missing / "x.bin"),
                     "--output", str(tmp_path / "y.ckpt")],
        "compare": ["compare", "--data", str(missing / "x.bin"), "--output", str(tmp_path / "x.txt")],
        "gradcheck": ["gradcheck"],
    }[command]


class TestNumericOptions:
    """Each numeric option is read by its library range: a value outside it exits 2 before any file is opened."""

    @pytest.mark.parametrize("command, option, words, number, value", _cases(inside=False))
    def test_outside_is_a_usage_error_in_the_library_words(self, tmp_path, command, option, words, number, value,
                                                           capsys):
        forms = [[f"{option}={value}"]]
        if value.startswith("-"):  # also as its own token, which argparse must not take for a flag
            forms.append([option, value])
        for form in forms:
            assert run_command(_argv(command, tmp_path) + form) == 2
            captured = capsys.readouterr()
            assert captured.err.endswith(f"error: argument {option}: {words}, got {_read(words, number)!r}\n")
            assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("following", ["--epochs", "-h", "-x", "--", "-1-2", "-1__0"])
    def test_a_flag_after_an_option_is_still_missing_its_value(self, tmp_path, following, capsys):
        assert run_command(_argv("train", tmp_path) + ["--lr", following, "3"]) == 2
        assert capsys.readouterr().err.endswith("error: argument --lr: expected one argument\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("script, option, value, words", [
        ("run_desk_experiment.py", "--epochs", "-1e3", "epochs must be an integer in [1, 1000], got '-1e3'"),
        ("run_desk_experiment.py", "--seed", "-1", "seed must be an integer in [0, 18446744073709551615], got -1"),
        ("run_transfer_experiment.py", "--seeds", "-inf", "seeds must be an integer in [1, inf), got '-inf'"),
    ])
    def test_scripts_read_a_negative_token_by_the_same_range(self, tmp_path, script, option, value, words):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        for form in ([option, value], [f"{option}={value}"]):
            result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *form], cwd=tmp_path,
                                    env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                                    timeout=60)
            assert result.returncode == 2
            assert result.stderr.endswith(f"error: argument {option}: {words}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, option, words, number, value", _cases(inside=True))
    def test_just_inside_is_accepted(self, tmp_path, command, option, words, number, value):
        args = build_parser().parse_args(_argv(command, tmp_path) + [f"{option}={value}"])
        parsed = getattr(args, option[2:].replace("-", "_"))
        if option == "--outliers":
            parsed = parsed[1 if words.startswith("alpha") else 2]
        assert parsed == _read(words, number)

    @pytest.mark.parametrize("line, message", [
        ("epochs=2000", "argument --epochs: epochs must be an integer in [1, 1000], got 2000"),
        ("lr=-inf", "argument --lr: lr must be a number in [0, inf), got -inf"),
    ])
    def test_config_file_value_is_read_by_the_same_range(self, tmp_path, line, message, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(line + "\n")
        assert run_command(_argv("train", tmp_path / "run") + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert not (tmp_path / "run").exists()


class TestSeedOption:
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_profile_seed_outside_u64_is_1(self, tmp_path, seed, capsys):
        profile = tmp_path / "profile.cfg"
        profile.write_text(PROFILE.replace("seed=5", f"seed={seed}"))
        message = f"{profile}, line 4: profile seed= seed must be an integer in [0, 18446744073709551615], got {seed}"
        with pytest.raises(MalformedSpec, match=re.escape(message)):
            parse_profile(str(profile))
        assert run_command(["simulate", "--profile", str(profile), "-o", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_seed_zero_is_accepted(self, tmp_path, profile_path):
        run_ok(["simulate", "--profile", str(profile_path), "--seed", "0", "-o", str(tmp_path / "x.csv")])

    def test_largest_seed_with_two_attacks_is_accepted(self, tmp_path, capsys):
        # the attack seeds, the profile seed + 101 + i, lie past the u64 range a profile seed keeps to
        profile = tmp_path / "profile.cfg"
        profile.write_text("duration=3\necu=0A0,0.02,4,constant\necu=130,0.02,8,counter\n")
        out = tmp_path / "x.csv"
        run_ok(["simulate", "--profile", str(profile), "--seed", "18446744073709551615",
                "--attack", "flooding:1:2:60", "--attack", "fuzzing:0.5:1:60", "-o", str(out)])
        assert capsys.readouterr().out == f"wrote 390 records to {out}\n"


class TestTrainingOptions:
    def test_lr_zero_and_tree_depth_zero_are_accepted(self, pipeline):
        tmp_path, _, data = pipeline
        run_ok(["compare", "--data", str(data), "--epochs", "1", "--lr", "0", "--tree-depth", "0",
                "--tree-min-leaf", "1", "--knn-k", "1"])


class TestOutlierSpec:
    @pytest.mark.parametrize(
        "spec",
        ["bogus", "data_field:0.05", "data_field:0.05:3:1", "Data_Field:0.05:3", "foo:0.05:3"],
    )
    def test_bad_spec_is_usage_error_before_reading(self, tmp_path, spec, capsys):
        # the input does not exist: the spec is refused before any log is opened (bad numbers: TestNumericOptions)
        argv = ["prepare", "--input", str(tmp_path / "missing.csv"), "--output", str(tmp_path / "x.bin"),
                "--outliers", spec]
        assert run_command(argv) == 2
        assert capsys.readouterr().err.endswith(
            f"argument --outliers: expected column:alpha:max with a column of timestamp, can_id, dlc, data_field, "
            f"got {spec!r}\n")

    def test_bounds_that_depend_on_the_rows_are_1(self, pipeline, capsys):
        tmp_path, log, _ = pipeline
        rows = sum(1 for _ in log.read_text().splitlines()) - 1
        argv = ["prepare", "--input", str(log), "--output", str(tmp_path / "x.bin"),
                "--outliers", f"dlc:0.05:{rows - 1}"]
        assert run_command(argv) == 1
        assert f"max_outliers must be an integer in [1, {rows - 2}], got {rows - 1}" in capsys.readouterr().err
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


def test_utf8_inputs_read_under_an_ascii_locale(tmp_path, profile_path):
    """A profile, a config and a container manifest holding non-ASCII text load whatever the locale."""
    profile_path.write_bytes((PROFILE + "# caf\u00e9 au lait\n").encode())
    cfg = tmp_path / "simulate.cfg"
    cfg.write_bytes("# r\u00e9glage\nno_kinds=true\n".encode())
    log, data = tmp_path / "log.csv", tmp_path / "data.bin"
    save_dataset(toy_dataset(), data)
    manifest = tmp_path / "data.bin.manifest"
    manifest.write_bytes(re.sub(rb"source=.*\n", "source=caf\u00e9.csv\n".encode(), manifest.read_bytes()))
    code = (
        "import locale, sys\n"
        "from canids.cli import run_command\n"
        "from canids.ingest import load_dataset\n"
        "print(locale.getpreferredencoding(False))\n"
        "assert run_command(['simulate', '--profile', sys.argv[1], '-o', sys.argv[2], '--config', sys.argv[3]]) == 0\n"
        "print(ascii(load_dataset(sys.argv[4]).provenance))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="POSIX",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-X", "utf8=0", "-c", code, str(profile_path), str(log), str(cfg),
                             str(data)], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    encoding, *_, provenance = result.stdout.splitlines()
    assert encoding.lower().replace("-", "") != "utf8"  # else the run shows nothing
    assert provenance == ascii("caf\u00e9.csv")
    assert log.exists() and not (tmp_path / "log.csv.kinds").exists()  # the config's no_kinds=true was read


def test_prepare_writes_utf8_under_an_ascii_locale(tmp_path, profile_path):
    """Under the POSIX locale, a log named in UTF-8 prepares and its name comes back as the provenance.

    A log whose name is not UTF-8 is refused before any file is written, in that locale and in UTF-8 mode.
    """
    log = tmp_path / "caf\u00e9.csv"
    run_ok(["simulate", "--profile", str(profile_path), "--attack", "flooding:2:4:60", "-o", str(log)])
    odd = Path(os.fsdecode(os.fsencode(tmp_path) + b"/caf\xe9.csv"))
    for suffix in ("", ".kinds"):
        Path(f"{odd}{suffix}").write_bytes(Path(f"{log}{suffix}").read_bytes())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="POSIX",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def prepare(path, output, *flags):
        argv = [sys.executable, *flags, "-m", "canids.cli", "prepare", "--input", os.fsencode(path), "--output",
                str(output)]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)

    data = tmp_path / "data.bin"
    result = prepare(log, data, "-X", "utf8=0")
    assert result.returncode == 0, result.stderr
    assert load_dataset(data).provenance == str(log)
    assert Path(f"{data}.kinds").exists()
    for flags in (("-X", "utf8=0"), ("-X", "utf8")):
        refused = tmp_path / "refused.bin"
        result = prepare(odd, refused, *flags)
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {refused}.manifest: provenance ")
        assert "is not UTF-8 text" in result.stderr
        assert list(tmp_path.glob("refused.bin*")) == []

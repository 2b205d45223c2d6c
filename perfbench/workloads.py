"""Seeded inputs, steps and output checks of the three benchmark workloads.

A workload's set-up builds its inputs from the seed. One unit runs its steps
once in a fresh directory: each step is timed on its own, and a step fails
when it exits non-zero, raises, or a check on its outputs fails. A failed
step ends the unit; the steps after it count as failed too.

Steps are timed in process CPU seconds (user + system), with wall seconds
kept beside them. The program runs on one thread here, so on an idle machine
the two agree; on a shared virtual machine CPU time leaves out the time the
hypervisor gives the core to other guests. What is left still drifts with
the host's load, so ``Unit.pipeline_s`` scales each step by the calibration
kernel (calibration.py) timed just before and just after it. On a 2-vCPU KVM
guest, in two sets of ten seeds per workload, this cut the spread
(interquartile range over median) of pipeline_s from 0.10-0.13, 0.17-0.31
and 0.19-0.23 to 0.07-0.11, 0.06-0.08 and 0.14-0.17 on desk, transfer and
paper-ingest. The unscaled sums are kept beside it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import NOMINAL_S
from canids import cli, experiments
from canids.canbus import SimProfile
from canids.ingest import load_dataset as _load_dataset  # bound before tracing wraps it

# The c05 N: three 100 Hz ECUs for 3,771 s plus three attack windows.
PAPER_ROWS = 1_257_303
PAPER_DURATION = 3771.0
PAPER_ATTACKS = (
    ("flooding", 100.0, 500.0, 100.0, ()),
    ("fuzzing", 1000.0, 1420.0, 100.0, ()),
    ("spoofing", 2000.0, 2440.03, 100.0, experiments.SPOOF_TARGETS),
)


@dataclass
class Step:
    name: str
    seconds: float  # CPU
    wall_s: float
    failures: list[str]


class Stopwatch:
    """CPU and wall seconds since construction."""

    def __init__(self):
        self.cpu, self.wall = time.process_time(), time.perf_counter()

    def read(self) -> tuple[float, float]:
        return time.process_time() - self.cpu, time.perf_counter() - self.wall


@dataclass
class Unit:
    steps: list[Step] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    ingest_rows: int | None = None
    ingest_s: float | None = None
    calibrations: list[float] = field(default_factory=list)  # before each step, then at the end

    @property
    def pipeline_s(self) -> float:
        """CPU seconds of the steps, each scaled by the calibrations on either side of it."""
        return sum(
            step.seconds * 2 * NOMINAL_S / (before + after)
            for step, before, after in zip(self.steps, self.calibrations, self.calibrations[1:])
        )

    @property
    def pipeline_cpu_s(self) -> float:
        return sum(s.seconds for s in self.steps)

    @property
    def pipeline_wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.steps if s.failures)


def profile_text(profile: SimProfile) -> str:
    lines = [f"duration={profile.duration!r}", f"jitter={profile.jitter!r}", f"seed={profile.seed}"]
    for ecu in profile.ecus:
        lines.append(f"ecu={ecu.identifier:03X},{ecu.period!r},{ecu.dlc},{ecu.payload_rule}")
    return "\n".join(lines) + "\n"


def attack_flags(attacks) -> list[str]:
    """``--attack kind:start:end:rate[:targets]`` flags for (kind, start, end, rate, targets)."""
    flags = []
    for kind, start, end, rate, targets in attacks:
        text = f"{kind}:{start!r}:{end!r}:{rate!r}"
        if targets:
            text += ":" + ",".join(f"{t:03X}" for t in targets)
        flags += ["--attack", text]
    return flags


def expected_rows(duration: float, ecus, attacks) -> int:
    """Rows the simulator emits: floor(duration/period) per ECU, floor(rate*span) per window."""
    normal = sum(math.floor(duration / ecu.period) for ecu in ecus)
    return normal + sum(math.floor(rate * (end - start)) for _, start, end, rate, _ in attacks)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, tuple[float, float], str]:
    """Run one subcommand in this process; returns exit code, (CPU, wall) seconds and output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        watch = Stopwatch()
        try:
            code = cli.run_command(argv)
        except Exception:  # a traceback is a failed step, not a failed benchmark
            traceback.print_exc()
            code = -1
        seconds = watch.read()
    return code, seconds, out.getvalue()


def _run_steps(unit: Unit, steps, calibrate) -> None:
    """Run (name, argv, check) CLI steps in order; a check reads the step's output."""
    for i, (name, argv, check) in enumerate(steps):
        unit.calibrations.append(calibrate())
        code, seconds, text = _run_cli(argv)
        failures = [f"exit code {code}: {text.strip()[-300:]}"] if code != 0 else []
        if not failures and check is not None:
            failures = check(text)
        unit.steps.append(Step(name, *seconds, failures))
        if failures:
            unit.steps += [Step(n, 0.0, 0.0, ["not run"]) for n, _, _ in steps[i + 1 :]]
            break
    unit.calibrations.append(calibrate())


def _need(condition: bool, message: str) -> list[str]:
    return [] if condition else [message]


_PREPARED = re.compile(r"prepared (\d+) records -> train (\d+), validation (\d+), test (\d+)")


def _split_sizes(text: str) -> tuple[int, int, int, int] | None:
    match = _PREPARED.search(text)
    return tuple(int(g) for g in match.groups()) if match else None


def _floor_rule(total: int) -> tuple[int, int, int, int]:
    """Split sizes the c05 protocol gives for ``total`` rows at 0.2/0.2."""
    test = math.floor(0.2 * total)
    val = math.floor(0.2 * (total - test))
    return total, total - test - val, val, test


def _digest_dir(unit: Unit, directory: Path) -> None:
    for path in sorted(directory.iterdir()):
        unit.digests.setdefault(path.name, sha256(path))


class Desk:
    """The command sequence of scripts/run_desk_experiment.py at a fixed epoch budget."""

    name = "desk"
    epochs = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.profile = profile_text(experiments.desk_profile(seed))
        self.attacks = attack_flags(
            (a.kind, a.start, a.end, a.rate, a.spoof_targets) for a in experiments.desk_attacks(seed)
        )

    def run(self, d: Path, calibrate) -> Unit:
        unit = Unit()
        (d / "profile.cfg").write_text(self.profile)
        log, data, ckpt = str(d / "desk.csv"), str(d / "desk.bin"), str(d / "plenet.ckpt")
        budget = ["--epochs", str(self.epochs), "--patience", str(self.epochs)]
        seed = ["--seed", str(self.seed)]
        report: dict = {}

        def check_simulate(text):
            return _need("wrote 20000 records" in text, "simulate did not write 20,000 records")

        def check_prepare(text):
            sizes = _split_sizes(text)
            return _need(sizes == (20000, 12800, 3200, 4000), f"desk split is {sizes}")

        def check_evaluate(text):
            rep = json.loads(Path(d / "report.json").read_text())["test"]
            report.update(rep)
            recall = rep["per_kind_recall"]
            return (
                _need(rep["accuracy"] >= 0.95, f"c06: accuracy {rep['accuracy']} < 0.95")
                + _need(recall["flooding"] >= 0.90, f"c06: flooding recall {recall['flooding']}")
                + _need(recall["fuzzing"] >= 0.90, f"c06: fuzzing recall {recall['fuzzing']}")
            )

        def check_compare(text):
            rows = json.loads(Path(d / "compare.json").read_text())
            failures = _need(set(rows) == {"plenet", "knn", "dt", "mlp"}, f"compare rows {sorted(rows)}")
            if not failures:
                # compare retrains the CNN with the train step's seed and budget
                failures = _need(
                    rows["plenet"] == report, "compare's plenet row differs from evaluate's report"
                )
                unit.values["knn_accuracy"] = rows["knn"]["accuracy"]
            return failures

        _run_steps(unit, [
            ("simulate", ["simulate", "--profile", str(d / "profile.cfg"), *self.attacks, "-o", log],
             check_simulate),
            ("prepare", ["prepare", "--input", log, "--output", data, *seed], check_prepare),
            ("train", ["train", "--data", data, "--output", ckpt, *seed, *budget,
                       "--history", str(d / "history.csv")], None),
            ("evaluate", ["evaluate", "--checkpoint", ckpt, "--data", data,
                          "--report", str(d / "report.txt"), "--json", str(d / "report.json")],
             check_evaluate),
            ("compare", ["compare", "--data", data, *seed, *budget,
                         "--output", str(d / "compare.txt"), "--json", str(d / "compare.json")],
             check_compare),
        ], calibrate)
        if "accuracy" in report:
            unit.values["detect_accuracy"] = report["accuracy"]
        if not unit.steps[1].failures:
            unit.ingest_rows, unit.ingest_s = 20000, unit.steps[1].seconds
            train_x = _load_dataset(data).train_x
            unit.inputs["knn_train_rows"] = len(train_x)
            unit.inputs["knn_unique_train_rows"] = len(np.unique(train_x, axis=0))
        _digest_dir(unit, d)
        return unit


class Transfer:
    """The five-trial study of scripts/run_transfer_experiment.py on seeds 5s..5s+4."""

    name = "transfer"
    trials = 5

    def __init__(self, seed: int):
        self.trial_seeds = [seed * self.trials + i for i in range(self.trials)]

    def run(self, d: Path, calibrate) -> Unit:
        unit = Unit()
        results = []
        for trial_seed in self.trial_seeds:
            unit.calibrations.append(calibrate())
            watch = Stopwatch()
            try:
                trial = experiments.run_transfer_trial(trial_seed)
                failures = _need(
                    0 <= trial.scratch_accuracy <= 1 and 0 <= trial.finetuned_accuracy <= 1,
                    f"trial {trial_seed}: accuracy outside [0, 1]",
                )
            except Exception as exc:
                trial, failures = None, [f"trial {trial_seed}: {exc!r}"]
            unit.steps.append(Step(f"trial{trial_seed}", *watch.read(), failures))
            if trial is None:
                break
            results.append(trial)
        unit.calibrations.append(calibrate())
        wins = sum(t.finetuned_wins for t in results)
        unit.inputs["trial_seeds"] = self.trial_seeds
        unit.inputs["finetuned_wins"] = wins
        unit.inputs["c07_four_of_five"] = wins >= 4  # recorded; the step check is the majority rule
        if len(results) == self.trials:
            unit.values["detect_accuracy"] = sum(t.finetuned_accuracy for t in results) / self.trials
            unit.steps[-1].failures += _need(
                wins * 2 > self.trials, f"fine-tuned won {wins} of {self.trials} trials"
            )
        unit.steps += [Step("not run", 0.0, 0.0, ["not run"])] * (self.trials - len(unit.steps))
        text = "".join(f"{t.seed},{t.scratch_accuracy!r},{t.finetuned_accuracy!r}\n" for t in results)
        unit.digests["trials.csv"] = hashlib.sha256(text.encode()).hexdigest()
        return unit


class PaperIngest:
    """``simulate --no-kinds`` at a quarter of the c05 N, seeded garbling, then ``prepare``.

    Every time coordinate of the paper-scale profile is scaled by ``scale``, so
    the log keeps the paper log's ECUs, attack kinds and ~10% attack share.
    """

    name = "paper-ingest"
    scale = 0.25
    dirty_share = 0.0004
    garbles = ("blank_timestamp", "nonhex_id", "negative_dlc", "bad_payload", "unknown_label")

    def __init__(self, seed: int):
        ecus = experiments.DESK_ECUS
        full = expected_rows(PAPER_DURATION, ecus, PAPER_ATTACKS)
        if full != PAPER_ROWS:
            raise ValueError(f"paper-scale profile yields {full} rows, not {PAPER_ROWS}")
        duration = PAPER_DURATION * self.scale
        attacks = [(k, s * self.scale, e * self.scale, r, t) for k, s, e, r, t in PAPER_ATTACKS]
        self.seed = seed
        self.rows = expected_rows(duration, ecus, attacks)
        self.profile = profile_text(SimProfile(ecus, duration, jitter=0.05, seed=seed))
        self.attacks = attack_flags(attacks)

    def garble(self, path: Path) -> dict:
        """Spoil one cell in a seeded dirty_share of rows; returns what the parser should see."""
        lines = path.read_text().split("\n")
        rng = np.random.default_rng([self.seed, 7])
        count = round(self.rows * self.dirty_share)
        rows = rng.choice(self.rows, size=count, replace=False) + 1  # line 0 is the header
        kinds = rng.integers(0, len(self.garbles), size=count)
        dropped = missing_fields = 0
        per_kind = dict.fromkeys(self.garbles, 0)
        for row, kind in zip(rows.tolist(), kinds.tolist()):
            cells = lines[row].split(",")
            empty_payload = cells[3] == ""
            if kind == 0:
                cells[0] = ""
            elif kind == 1:
                cells[1] = "G" + cells[1][1:]
            elif kind == 2:
                cells[2] = "-1"
            elif kind == 3:
                cells[3] = " ".join(["ZZ"] + cells[3].split()[1:])
            else:
                cells[4] = "?"
            lines[row] = ",".join(cells)
            per_kind[self.garbles[kind]] += 1
            if kind == 1 and empty_payload:
                dropped += 1  # no identifier and no payload: parse_log skips the row
            else:
                missing_fields += 2 if kind == 2 and empty_payload else 1
        path.write_text("\n".join(lines))
        return {"garbled_rows": count, "garbled_by_kind": per_kind,
                "rows_dropped_by_parser": dropped, "missing_fields": missing_fields}

    def run(self, d: Path, calibrate) -> Unit:
        unit = Unit()
        (d / "profile.cfg").write_text(self.profile)
        log, data = d / "paper.csv", d / "paper.bin"
        garbled: dict = {}

        def check_simulate(text):
            failures = _need(f"wrote {self.rows} records" in text, f"simulate did not write {self.rows} rows")
            if not failures:
                unit.digests["paper.csv (simulated)"] = sha256(log)
                garbled.update(self.garble(log))
            return failures

        def check_prepare(text):
            flagged = re.search(r"outlier test dropped (\d+) rows", text)
            sizes = _split_sizes(text)
            if flagged is None or sizes is None:
                return ["prepare did not report its outlier count and split"]
            flagged = int(flagged.group(1))
            kept = self.rows - garbled["rows_dropped_by_parser"] - flagged
            unit.inputs["outliers_flagged"] = flagged
            return (
                _need(0 <= flagged <= 10, f"{flagged} outliers flagged, max is 10")
                + _need(sizes == _floor_rule(kept), f"split {sizes} breaks the c05 floor rule for {kept} rows")
            )

        _run_steps(unit, [
            ("simulate", ["simulate", "--profile", str(d / "profile.cfg"), "--no-kinds",
                          *self.attacks, "-o", str(log)], check_simulate),
            ("prepare", ["prepare", "--input", str(log), "--output", str(data), "--seed", str(self.seed),
                         "--impute", "fieldmean", "--outliers", "data_field:0.05:10",
                         "--correlation-report", str(d / "correlation.csv")], check_prepare),
        ], calibrate)
        unit.inputs.update(garbled, log_rows=self.rows, dirty_share=garbled.get("garbled_rows", 0) / self.rows)
        if not unit.steps[1].failures:
            unit.ingest_rows, unit.ingest_s = self.rows, unit.steps[1].seconds
        _digest_dir(unit, d)
        return unit


WORKLOADS = {cls.name: cls for cls in (Desk, Transfer, PaperIngest)}

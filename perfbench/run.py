"""Run a canids benchmark workload and print its metrics with their units.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a source checkout; it needs no install. Times are
process CPU seconds, and pipeline_s is also scaled by a calibration kernel
(see workloads.py); unscaled CPU and wall seconds are printed beside them.
Set-up is the median of several fresh processes that import canids and
build the workload's inputs. The measured run is one more fresh process,
so its peak RSS is its own. With --trace 1 it runs the workload untraced
and then traced, on the same seed, and prints the per-layer metrics and
the tracing overhead. The last line of the output is one JSON object with
the metrics that BENCHMARK.json declares for the chosen mode.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("desk", "transfer", "paper-ingest")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0

# End-to-end figures printed for every workload ("n/a" where a workload has
# no such step). BENCHMARK.json declares those defined on all of them.
REPORTED = (
    ("setup_s", "s"),
    ("setup_wall_s", "s"),
    ("pipeline_s", "s"),
    ("pipeline_cpu_s", "s"),
    ("pipeline_wall_s", "s"),
    ("calibration_s", "s"),
    ("ingest_rows_per_s", "rows/s"),
    ("train_samples_per_s", "samples/s"),
    ("peak_rss_mb", "MB"),
    ("detect_accuracy", "fraction"),
    ("knn_accuracy", "fraction"),
    ("failed_ratio", "fraction"),
)


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run worker.py to completion; kills it and raises TimeoutExpired at the deadline."""
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=worker_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, seed: int, deadline: float) -> tuple[float, float]:
    """Median CPU and wall seconds of fresh processes that import canids and build the inputs."""
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    cpu, wall = [], []
    for _ in range(SETUP_REPEATS):
        cpu_start, wall_start = children_cpu_s(), time.perf_counter()
        proc = run_worker(args, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stdout}")
        cpu.append(children_cpu_s() - cpu_start)
        wall.append(time.perf_counter() - wall_start)
    return statistics.median(cpu), statistics.median(wall)


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    out = WORK / f"{workload}-seed{seed}-trace{trace}.json"
    out.unlink(missing_ok=True)
    proc = run_worker(
        ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
         "--trace", str(trace), "--workdir", str(WORK / workload), "--out", str(out)],
        deadline,
    )
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stdout[-4000:]}")
    return json.loads(out.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setup_s, setup_wall_s = measure_setup(workload, seed, deadline)
    plain = measure(workload, seed, seconds / 2 if trace else seconds, 0, deadline)
    runs = [plain]
    if trace:
        runs.append(measure(workload, seed, seconds / 2, 1, deadline))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    if not all(r["deterministic"] for r in runs):
        failures.append("artifact digests differ between units of one seed")
    if any(r["digests"] != plain["digests"] for r in runs):
        failures.append("traced artifacts differ from untraced ones")
    values = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "pipeline_s": plain["pipeline_s"],
        "pipeline_cpu_s": plain["pipeline_cpu_s"],
        "calibration_s": plain["calibration_s"],
        "pipeline_wall_s": plain["pipeline_wall_s"],
        "ingest_rows_per_s": plain["ingest_rows_per_s"],
        "train_samples_per_s": plain["train_samples_per_s"],
        "peak_rss_mb": plain["peak_rss_mb"],
        "detect_accuracy": plain["detect_accuracy"],
        "knn_accuracy": plain["knn_accuracy"],
        "failed_ratio": failed / attempted,
        "ok_ratio": 1 - failed / attempted,
    }
    if trace:
        traced = runs[1]
        values.update(traced["layers"])
        values["ingest.rows_per_s"] = plain["ingest_rows_per_s"]
        values["plenet.train_samples_per_s"] = plain["train_samples_per_s"]
        values["plenet.detect_accuracy"] = plain["detect_accuracy"]
        values["baselines.knn_accuracy"] = plain["knn_accuracy"]
        values["trace.pipeline_s"] = traced["pipeline_s"]
        values["trace.overhead_s"] = traced["pipeline_s"] - plain["pipeline_s"]
        inputs = plain["inputs"]
        if "missing_fields" in inputs and values["ingest.fields_imputed"] != inputs["missing_fields"]:
            failures.append(f"imputed {values['ingest.fields_imputed']} fields, garbled "
                            f"{inputs['missing_fields']}")
        if "log_rows" in inputs and values["ingest.rows_parsed"] != (
            inputs["log_rows"] - inputs["rows_dropped_by_parser"]
        ):
            failures.append(f"parsed {values['ingest.rows_parsed']} rows of {inputs['log_rows']}")
        if traced["trace_missing"]:
            failures.append("traced names not found: " + ", ".join(traced["trace_missing"]))
    return {
        "workload": workload,
        "seed": seed,
        "correct": not failures,  # every failed step left a message here
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "values": values,
        "plain": plain,
        "traced": runs[1] if trace else None,
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{value:g}" if isinstance(value, float) else str(value)


def print_report(res: dict, declared: list[dict]) -> None:
    plain, values = res["plain"], res["values"]
    print(f"== {res['workload']} seed {res['seed']}: {plain['units']} unit(s), "
          f"{res['attempted'] - res['failed']}/{res['attempted']} steps ok, "
          f"correct={res['correct']}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    for name, unit in REPORTED:
        print(f"  {name:<22}{_fmt(values[name]):>14} {unit}")
    for step, seconds in plain["step_s"].items():
        print(f"  step {step:<17}{_fmt(seconds):>14} s CPU")
    print("  inputs " + json.dumps(plain["inputs"], sort_keys=True))
    print("  digests " + json.dumps(plain["digests"], sort_keys=True))
    if res["traced"] is not None:
        for spec in declared:
            print(f"  {spec['name']:<38}{_fmt(values[spec['name']]):>14} {spec['unit']}")
        print(f"  wrapper hook time {res['traced']['trace_hook_s']:.4f} s")
    print("  environment " + json.dumps(plain["environment"], sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "canids" / "cli.py").is_file():
        print(f"error: no canids source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            results.append(run_workload(name, args.seed, args.seconds, args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_report(results[-1], spec["per_layer"])

    def metric(res, m, key):
        value = res["values"][m["name"]]
        return key, {"value": 0 if value is None else value, "unit": m["unit"]}

    single = len(results) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": dict(
            metric(r, m, m["name"] if single else f"{r['workload']}.{m['name']}")
            for r in results for m in declared
        ),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

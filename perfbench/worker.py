"""One measured run of one workload, in a fresh process.

run.py starts this script once per measured run, so ru_maxrss is this run's
peak. BLAS is pinned to one thread before numpy is imported, and the process
is pinned to one CPU, which it shares with the calibration helper. The result,
with the environment record, goes to the JSON file named by --out.

    python3 perfbench/worker.py --workload desk --seed 1 --seconds 30 --trace 0 --out r.json
    python3 perfbench/worker.py --workload desk --seed 1 --setup-only
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "system": platform.platform(),
    }


def layer_metrics(totals: dict, trainings: list[dict]) -> dict:
    """The per-layer metrics of one unit from its span totals and counters."""
    total, self_s, calls, counts = totals["total"], totals["self"], totals["calls"], totals["counts"]
    m = {}
    for command in ("simulate", "prepare", "train", "evaluate", "compare"):
        m[f"cli.{command}_s"] = total[f"cli.{command}"]
    for fn in ("generate_traffic", "inject_attack", "write_log", "write_kinds"):
        m[f"canbus.{fn}_s"] = total[f"canbus.{fn}"]
    m["canbus.frames"] = counts["canbus.frames"]
    for fn in ("parse_log", "impute_missing", "rosner_outliers", "tabulate_from_raw",
               "tabulate_from_traffic", "correlation_matrix", "split_dataset", "save_dataset",
               "load_dataset"):
        m[f"ingest.{fn}_s"] = total[f"ingest.{fn}"]
    m["ingest.rows_parsed"] = counts["ingest.rows_parsed"]
    m["ingest.rows_dropped"] = max(
        0, counts["ingest.rows_parsed"] - counts["ingest.rows_tabulated"] - counts["ingest.outliers_flagged"]
    )
    m["ingest.fields_imputed"] = counts["ingest.fields_imputed"]
    m["ingest.outliers_flagged"] = counts["ingest.outliers_flagged"]
    for cls in tracing.LAYER_CLASSES:
        m[f"nncore.{cls}.forward_s"] = total[f"nncore.{cls}.forward"]
        m[f"nncore.{cls}.backward_s"] = total[f"nncore.{cls}.backward"]
    for fn in ("cross_entropy", "adam_step", "zero_grads", "snapshot_restore"):
        m[f"nncore.{fn}_s"] = total[f"nncore.{fn}"]
    m["nncore.batches"] = calls["nncore.Network.forward"]
    m["nncore.adam_steps"] = calls["nncore.adam_step"]
    m["plenet.train_self_s"] = self_s["plenet.train"]
    m["plenet.predict_s"] = total["plenet.predict"]
    m["plenet.epochs_run"] = sum(t["epochs_run"] for t in trainings)
    m["plenet.stopped_by_patience"] = sum(t["stop"] == "patience" for t in trainings)
    for fn in ("knn_predict", "tree_fit", "tree_predict"):
        m[f"baselines.{fn}_s"] = total[f"baselines.{fn}"]
    m["baselines.knn_distance_evals"] = counts["baselines.knn_distance_evals"]
    m["baselines.knn_bytes_materialized"] = counts["baselines.knn_bytes_materialized"]
    m["metrics.evaluate_predictions_s"] = total["metrics.evaluate_predictions"]
    m["metrics.roc_auc_s"] = total["metrics.roc_auc"]
    m["checkpoint.save_checkpoint_s"] = total["checkpoint.save_checkpoint"]
    m["checkpoint.load_checkpoint_s"] = total["checkpoint.load_checkpoint"]
    m["checkpoint.bytes"] = counts["checkpoint.bytes"]
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    m["trace.spans"] = totals["spans"]
    return m


def rate(rows_and_seconds: list[tuple[float, float]]) -> float | None:
    rows = sum(r for r, _ in rows_and_seconds)
    seconds = sum(s for _, s in rows_and_seconds)
    return rows / seconds if seconds > 0 else None


def median(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_units(args, workload, tracer, calibrate) -> tuple[list, list[dict], float]:
    """Run units until the next would end past --seconds; at least one.

    Returns the units, their per-layer metrics and the peak RSS in MB after
    the first unit.
    """
    units, unit_metrics = [], []
    home = Path.cwd()
    started = time.perf_counter()
    while True:
        unit_dir = args.workdir / f"unit{len(units)}"
        shutil.rmtree(unit_dir, ignore_errors=True)
        unit_dir.mkdir(parents=True)
        mark = tracer.mark()
        unit_start = time.perf_counter()
        os.chdir(unit_dir)  # relative paths keep the manifests, and so the digests, location-free
        try:
            unit = workload.run(Path("."), calibrate)
        finally:
            os.chdir(home)
        unit_wall = time.perf_counter() - unit_start
        trainings, ingests = tracer.since(mark)
        if unit.ingest_rows is None and ingests:
            unit.ingest_rows = sum(i["rows"] for i in ingests)
            unit.ingest_s = sum(i["seconds"] for i in ingests)
        unit.inputs["trainings"] = [{k: t[k] for k in ("rows", "epochs_cap", "epochs_run", "stop")}
                                    for t in trainings]
        units.append((unit, trainings))
        if len(units) == 1:  # later units would add their heap growth to the peak
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            unit_metrics.append(layer_metrics(tracer.unit_totals(mark), trainings))
        shutil.rmtree(unit_dir, ignore_errors=True)
        if unit.failed or time.perf_counter() - started + unit_wall > args.seconds:
            break
    return units, unit_metrics, peak_rss_mb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, help="scratch directory for the units' files")
    parser.add_argument("--out", type=Path, help="result JSON")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer(full=bool(args.trace))
    with calibration.Calibrator() as calibrate:
        units, unit_metrics, peak_rss_mb = run_units(args, workload, tracer, calibrate)

    digests = [u.digests for u, _ in units]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "units": len(units),
        "attempted": sum(len(u.steps) for u, _ in units),
        "failed": sum(u.failed for u, _ in units),
        "failures": [f"{s.name}: {f}" for u, _ in units for s in u.steps for f in s.failures],
        "deterministic": all(d == digests[0] for d in digests),
        "digests": digests[0],
        "inputs": units[0][0].inputs,
        "pipeline_s": median([u.pipeline_s for u, _ in units]),
        "pipeline_cpu_s": median([u.pipeline_cpu_s for u, _ in units]),
        "pipeline_wall_s": median([u.pipeline_wall_s for u, _ in units]),
        "calibration_s": median([c for u, _ in units for c in u.calibrations]),
        "step_s": {s.name: median([x.seconds for u, _ in units for x in u.steps if x.name == s.name])
                   for s in units[0][0].steps},
        "ingest_rows_per_s": median([u.ingest_rows / u.ingest_s if u.ingest_s else None
                                     for u, _ in units]),
        "train_samples_per_s": median([rate([(t["epochs_run"] * t["rows"], t["seconds"]) for t in tr])
                                       for _, tr in units]),
        "detect_accuracy": median([u.values.get("detect_accuracy") for u, _ in units]),
        "knn_accuracy": median([u.values.get("knn_accuracy") for u, _ in units]),
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
    }
    if args.trace:
        result["layers"] = {k: median([m[k] for m in unit_metrics]) for k in unit_metrics[0]}
        result["trace_missing"] = tracer.missing
        result["trace_hook_s"] = tracer.hook_s
        tracer.write_spans(args.workdir / "spans.csv")
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fold perfbench results of a parent and a changed checkout into one BENCH file.

In each checkout, run the traced benchmark:

    python3 perfbench/run.py --workload all --seed 23 --trace 1

then, from the changed checkout:

    python3 scripts/bench_record.py --parent ../parent --change . --seed 23 \\
        --tier1-s 210 --out BENCH_<n>.json

The script reads each checkout's ``perfbench/.work/<workload>-seed<N>-trace<0|1>.json``
for the per-layer figures, the tracing overhead and the artifact digests. A later
untraced ``run.py`` overwrites the trace0 file, so the script refuses a trace0 file
newer than its trace1 file. With each checkout's own perfbench code, alternating
which side runs first, it then measures per workload:

- ``PAIRS`` parent/change pairs of ``setup_s``, each value the median of perfbench's
  fresh set-up processes, as ``run.py`` reports it;
- ``PAIRS`` parent/change pairs of untraced runs of the length ``BENCHMARK.json``
  declares, for the medians and quartiles of ``pipeline_s`` and ``peak_rss_mb``. These
  runs write into a temporary directory, not into ``perfbench/``;

and ``PAIRS`` fresh processes per side that only ``import canids``, for their peak RSS.

It writes only ``--out``. For ``setup_s``, ``pipeline_s`` and ``peak_rss_mb`` on every
workload it records how many pairs the change won and whether a gain is shown: the
change wins at least nine tenths of the pairs and the medians differ by more than the
parent's interquartile range. A metric that must not get worse is unresolved when the
parent's interquartile range is wider than the metric's bound, unless every run
of the change reads better than every run of the parent.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("desk", "transfer", "paper-ingest")
SIDES = ("parent", "change")
PAIRS = 10


def load_perfbench(checkout: Path, side: str):
    """The checkout's ``perfbench/run.py`` as a module, so its set-up and worker runs use that checkout."""
    spec = importlib.util.spec_from_file_location(f"perfbench_run_{side}", checkout / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_traced(checkout: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """The untraced and the traced result file of one ``run.py --trace 1`` invocation."""
    plain, traced = (checkout / "perfbench" / ".work" / f"{workload}-seed{seed}-trace{t}.json" for t in (0, 1))
    rerun = f"run perfbench/run.py --workload all --seed {seed} --trace 1 in that checkout"
    if not (plain.is_file() and traced.is_file()):
        raise SystemExit(f"error: {plain} or {traced} is missing; {rerun}")
    if plain.stat().st_mtime > traced.stat().st_mtime:
        raise SystemExit(f"error: {plain} is newer than {traced}, so a later untraced run wrote it; {rerun}")
    return json.loads(plain.read_text()), json.loads(traced.read_text())


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "quartiles": [q1, q3], "iqr": q3 - q1,
            "iqr_share_of_median": (q3 - q1) / median}


def alternate(count: int, measure) -> dict[str, list]:
    """``measure(side)`` ``count`` times per side; the parent runs first in even rounds, the change in odd ones."""
    values = {side: [] for side in SIDES}
    for i in range(count):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            values[side].append(measure(side))
    return values


def gain(parent: dict, change: dict) -> dict:
    """The gain rule for a lower-is-better metric over pairs of alternating runs (``spread`` of each side)."""
    wins = sum(c < p for p, c in zip(parent["values"], change["values"]))
    return {"change_wins": wins,
            "gain_shown": wins >= 0.9 * len(parent["values"]) and parent["median"] - change["median"] > parent["iqr"]}


def setup_pairs(bench: dict, workload: str, seed: int) -> dict:
    def measure(side):
        module = bench[side]
        return module.measure_setup(workload, seed, time.monotonic() + module.TIME_LIMIT_S)[0]

    values = alternate(PAIRS, measure)
    parent, change = spread(values["parent"]), spread(values["change"])
    return {"pairs": PAIRS, "parent": parent, "change": change, **gain(parent, change)}


def untraced_runs(bench: dict, workload: str, seed: int, seconds: float) -> dict[str, list[dict]]:
    """``PAIRS`` untraced result files per side, each from a fresh worker process."""
    def measure(side):
        module = bench[side]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "result.json"
            proc = module.run_worker(
                ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
                 "--workdir", str(Path(tmp) / "work"), "--out", str(out)],
                time.monotonic() + module.TIME_LIMIT_S,
            )
            if proc.returncode != 0 or not out.is_file():
                raise SystemExit(f"error: {side} {workload} run failed:\n{proc.stdout[-4000:]}")
            return json.loads(out.read_text())

    return alternate(PAIRS, measure)


def verdict(parent: dict, change: dict, bound: float) -> str:
    """A lower-is-better metric that must not get worse by more than ``bound``, read as the benchmark rules say."""
    if max(change["values"]) < min(parent["values"]):
        return "better in every run"
    if parent["iqr_share_of_median"] > bound:
        return f"unresolved: parent IQR {parent['iqr_share_of_median']:.1%} of its median is wider than the bound"
    worse = change["median"] / parent["median"] - 1
    return f"{'worse than' if worse > bound else 'within'} the {bound:.0%} bound ({worse:+.1%} in the median)"


def end_to_end(runs: list[dict], traced: tuple[dict, dict], setup_s: float) -> dict:
    every = [*runs, *traced]
    failed = sum(r["failed"] for r in every)
    return {
        "setup_s": setup_s,
        "pipeline_s": spread([r["pipeline_s"] for r in runs]),
        "peak_rss_mb": spread([r["peak_rss_mb"] for r in runs]),
        "ok_ratio": 1 - failed / sum(r["attempted"] for r in every),
        "units": [r["units"] for r in runs],
        "correct": not failed and all(r["deterministic"] and r["digests"] == traced[1]["digests"] for r in every),
    }


def per_layer(traced: tuple[dict, dict]) -> dict:
    plain, layers = traced
    return {**layers["layers"], "trace.pipeline_s": layers["pipeline_s"],
            "trace.overhead_s": layers["pipeline_s"] - plain["pipeline_s"]}


IMPORT_RSS = "import resource, canids; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"


def import_rss(bench: dict) -> dict:
    """Peak RSS in MB of fresh processes that only ``import canids``, with perfbench's worker environment."""
    def measure(side):
        module = bench[side]
        proc = subprocess.run([sys.executable, "-c", IMPORT_RSS], env=module.worker_env(), capture_output=True,
                              text=True, check=True)
        return float(proc.stdout)

    values = alternate(PAIRS, measure)
    return {side: spread(values[side]) for side in SIDES}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--seed", type=int, required=True, help="the seed both checkouts' traced perfbench runs used")
    parser.add_argument("--tier1-s", type=float, required=True, help="Tier-1 wall seconds on the changed checkout")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    specs = {side: json.loads((path / "BENCHMARK.json").read_text()) for side, path in checkouts.items()}
    if specs["parent"] != specs["change"]:
        raise SystemExit("error: the two checkouts declare different benchmarks in BENCHMARK.json")
    seconds = float(specs["change"]["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in specs["change"]["end_to_end"]}
    traced = {side: {w: read_traced(path, w, args.seed) for w in WORKLOADS} for side, path in checkouts.items()}
    environments = {json.dumps(r["environment"], sort_keys=True)
                    for side in SIDES for pair in traced[side].values() for r in pair}
    if len(environments) != 1:
        raise SystemExit(f"error: the result files come from different environments: {sorted(environments)}")
    commits = {side: subprocess.run(["git", "-C", str(path), "describe", "--always", "--dirty"],
                                    capture_output=True, text=True).stdout.strip() or "not a git checkout"
               for side, path in checkouts.items()}

    bench = {side: load_perfbench(path, side) for side, path in checkouts.items()}
    pairs = {w: setup_pairs(bench, w, args.seed) for w in WORKLOADS}
    runs = {w: untraced_runs(bench, w, args.seed, seconds) for w in WORKLOADS}
    e2e = {w: {side: end_to_end(runs[w][side], traced[side][w], pairs[w][side]["median"]) for side in SIDES}
           for w in WORKLOADS}
    for sides in e2e.values():
        for name in ("pipeline_s", "peak_rss_mb"):
            parent, change = sides["parent"][name], sides["change"][name]
            change.update(gain(parent, change), verdict=verdict(parent, change, bounds[name]))
    record = {
        "benchmark": "perfbench/run.py, BENCHMARK.json metrics, BLAS on 1 thread",
        "seed": args.seed,
        "run_seconds": seconds,
        "commits": commits,
        "environment": json.loads(environments.pop()),
        "tier1_wall_s": args.tier1_s,
        "end_to_end": e2e,
        "per_layer": {w: {side: per_layer(traced[side][w]) for side in SIDES} for w in WORKLOADS},
        "setup_s_pairs": pairs,
        "import_canids_peak_rss_mb": import_rss(bench),
        "notes": [
            "end_to_end.setup_s is the median of setup_s_pairs; pipeline_s and peak_rss_mb are over the "
            f"{PAIRS} pairs of alternating untraced runs, each of run_seconds, with change_wins and gain_shown "
            "taken pair by pair as for setup_s",
            "per_layer is from the traced invocation's half-length runs; trace.overhead_s is its traced "
            "pipeline_s minus its untraced one, as perfbench/run.py --trace 1 prints it",
            "quartiles are statistics.quantiles(n=4), exclusive method",
        ],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for w in WORKLOADS:
        p = pairs[w]
        print(f"{w}: setup_s {p['parent']['median']:.3f} -> {p['change']['median']:.3f} s, "
              f"change won {p['change_wins']}/{p['pairs']}, parent IQR {p['parent']['iqr']:.3f} s")
        for name in ("pipeline_s", "peak_rss_mb"):
            parent, change = e2e[w]["parent"][name], e2e[w]["change"][name]
            print(f"  {name} {parent['median']:.2f} -> {change['median']:.2f}: {change['verdict']}; "
                  f"change won {change['change_wins']}/{PAIRS}, gain shown: {change['gain_shown']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

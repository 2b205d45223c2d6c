#!/usr/bin/env python3
"""End-to-end desk experiment through the CLI surface.

Simulates the canonical 20,000-frame mixed-attack log, prepares it, trains
the CNN, evaluates it, and runs the four-model comparison. All artifacts
land in --outdir and reproduce byte-for-byte for a fixed seed.
"""

import argparse
import sys
from pathlib import Path

from canids.bounds import SEED
from canids.cli import add_bounded_option, run_command
from canids.experiments import desk_attacks, desk_profile, desk_train_config
from canids.plenet import EPOCHS

BUDGET = desk_train_config(seed=0)  # the study's epoch cap and patience, which no seed changes


def profile_text(seed: int) -> str:
    profile = desk_profile(seed)
    lines = [f"duration={profile.duration}", f"jitter={profile.jitter}", f"seed={profile.seed}"]
    for ecu in profile.ecus:
        lines.append(f"ecu={ecu.identifier:03X},{ecu.period},{ecu.dlc},{ecu.payload_rule}")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="desk-run")
    add_bounded_option(parser, "--seed", SEED, default=42)
    add_bounded_option(parser, "--epochs", EPOCHS, default=BUDGET.epochs)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    profile_path = outdir / "profile.cfg"
    profile_path.write_text(profile_text(args.seed), encoding="utf-8")

    log = outdir / "desk.csv"
    data = outdir / "desk.bin"
    ckpt = outdir / "plenet.ckpt"
    attack_flags = []
    for spec in desk_attacks(args.seed):
        text = f"{spec.kind}:{spec.start:g}:{spec.end:g}:{spec.rate:g}"
        if spec.spoof_targets:
            text += ":" + ",".join(f"{t:03X}" for t in spec.spoof_targets)
        attack_flags += ["--attack", text]

    steps = [
        ["simulate", "--profile", str(profile_path), *attack_flags, "-o", str(log)],
        ["prepare", "--input", str(log), "--output", str(data), "--seed", str(args.seed)],
        [
            "train",
            "--data", str(data),
            "--output", str(ckpt),
            "--seed", str(args.seed),
            "--epochs", str(args.epochs),
            "--patience", str(BUDGET.patience),
            "--history", str(outdir / "history.csv"),
        ],
        [
            "evaluate",
            "--checkpoint", str(ckpt),
            "--data", str(data),
            "--report", str(outdir / "report.txt"),
            "--json", str(outdir / "report.json"),
        ],
        [
            "compare",
            "--data", str(data),
            "--seed", str(args.seed),
            "--epochs", str(args.epochs),
            "--patience", str(BUDGET.patience),
            "--output", str(outdir / "compare.txt"),
            "--json", str(outdir / "compare.json"),
        ],
    ]
    for step in steps:
        print(f"\n$ canids {' '.join(step)}")
        code = run_command(step)
        if code != 0:
            return code
    print(f"\nartifacts in {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

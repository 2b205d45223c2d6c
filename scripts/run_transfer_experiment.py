#!/usr/bin/env python3
"""Paired transfer study: warm start vs from scratch on a small target domain.

For each seed, trains a source model on flooding-heavy traffic, then trains
two models on the same 1,000-record spoofing-heavy target subset: one
fine-tuned from the source weights and one from scratch, under an identical
budget. Reports per-seed test accuracies, the win count, and the mean
feature-space distance between the domains.
"""

import argparse
import sys

from canids.bounds import SEEDS
from canids.cli import add_bounded_option
from canids.experiments import run_transfer_trial, source_domain, target_domain
from canids.plenet import mmd_distance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_bounded_option(parser, "--seeds", SEEDS, default=5)
    args = parser.parse_args()

    distance = mmd_distance(source_domain(100).train_x, target_domain(200).train_x)
    print(f"domain mean discrepancy (seed-100 source vs seed-200 target): {distance:.4f}\n")
    print(f"{'seed':>4}  {'scratch':>8}  {'fine-tuned':>10}  outcome")
    wins = 0
    for seed in range(args.seeds):
        trial = run_transfer_trial(seed)
        wins += trial.finetuned_wins
        print(
            f"{trial.seed:>4}  {trial.scratch_accuracy:>8.4f}  "
            f"{trial.finetuned_accuracy:>10.4f}  {'win' if trial.finetuned_wins else 'loss'}"
        )
    print(f"\nfine-tuned wins {wins}/{args.seeds}")
    return 0 if wins * 2 > args.seeds else 1


if __name__ == "__main__":
    sys.exit(main())

"""Canonical desk-scale experiment recipes.

Everything here is a pure function of its seed so that runs reproduce byte
for byte. Two studies:

* Detection: a 20,000-frame three-ECU log carrying flooding, fuzzing, and
  spoofing windows at a 10% total attack share (``desk_profile`` and
  ``desk_attacks``, or ``desk_log`` in memory, which injects all three
  windows in one ``inject_attack`` call), and the CNN's training budget
  ``desk_train_config``. ``scripts/run_desk_experiment.py`` runs the
  study through the CLI.
* Transfer: a flooding-heavy source domain (with a small fuzzing tail that
  forces payload-template features) and a spoofing-heavy target domain,
  each with its attacks injected in one call. A
  1,000-record subset of the target trains both a warm-started copy of the
  source model and a from-scratch model under the same budget; both are
  scored on the target's held-out test partition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canbus import AttackSpec, EcuSpec, SimProfile, TrafficLog, generate_traffic, inject_attack
from .ingest import PreparedDataset, prepare_records
from .metrics import evaluate_predictions  # noqa: F401  -- perfbench wraps this name
from .plenet import TrainConfig, build_plenet, predict, train, transfer_finetune

DESK_ECUS = (
    EcuSpec(identifier=0x0A0, period=0.01, dlc=4, payload_rule="constant"),
    EcuSpec(identifier=0x130, period=0.01, dlc=8, payload_rule="counter"),
    EcuSpec(identifier=0x2B0, period=0.01, dlc=8, payload_rule="sensor"),
)
SPOOF_TARGETS = (0x130, 0x2B0)


def desk_profile(seed: int) -> SimProfile:
    return SimProfile(ecus=DESK_ECUS, duration=60.0, jitter=0.05, seed=seed)


def desk_attacks(seed: int) -> list[AttackSpec]:
    """Three windows totalling 2,000 injected frames on the 18,000-frame base."""
    return [
        AttackSpec("flooding", 10.0, 17.0, 100.0, seed=seed + 1),
        AttackSpec("fuzzing", 25.0, 32.0, 100.0, seed=seed + 2),
        AttackSpec("spoofing", 40.0, 46.0, 100.0, spoof_targets=SPOOF_TARGETS, seed=seed + 3),
    ]


def desk_log(seed: int) -> TrafficLog:
    return inject_attack(generate_traffic(desk_profile(seed)), *desk_attacks(seed))


def desk_train_config(seed: int) -> TrainConfig:
    return TrainConfig(epochs=40, batch_size=64, lr=1e-3, patience=10, seed=seed)


# --- transfer study --------------------------------------------------------


def source_domain(seed: int) -> PreparedDataset:
    """Flooding-heavy source: 9,000 normal, 1,350 flooding, 270 fuzzing."""
    profile = SimProfile(ecus=DESK_ECUS, duration=30.0, jitter=0.05, seed=seed)
    log = inject_attack(
        generate_traffic(profile),
        AttackSpec("flooding", 5.0, 18.5, 100.0, seed=seed + 1),
        AttackSpec("fuzzing", 20.0, 22.7, 100.0, seed=seed + 2),
    )
    return prepare_records(log, seed=seed, provenance=f"transfer-source(seed={seed})")


def target_domain(seed: int) -> PreparedDataset:
    """Spoofing-heavy target: 5,400 normal, 2,400 spoofing, 90 flooding."""
    profile = SimProfile(ecus=DESK_ECUS, duration=18.0, jitter=0.05, seed=seed + 50)
    log = inject_attack(
        generate_traffic(profile),
        AttackSpec("flooding", 0.5, 1.4, 100.0, seed=seed + 53),
        AttackSpec("spoofing", 1.0, 17.0, 150.0, spoof_targets=SPOOF_TARGETS, seed=seed + 51),
    )
    return prepare_records(log, seed=seed + 52, provenance=f"transfer-target(seed={seed})")


SUBSET_TRAIN, SUBSET_VAL = 800, 200


def training_subset(pool: PreparedDataset) -> PreparedDataset:
    """First SUBSET_TRAIN + SUBSET_VAL shuffled training rows of the pool, keeping its test set."""
    if SUBSET_TRAIN + SUBSET_VAL > len(pool.train_y):
        raise ValueError("subset larger than the pool's training partition")
    fit, val = slice(SUBSET_TRAIN), slice(SUBSET_TRAIN, SUBSET_TRAIN + SUBSET_VAL)
    return PreparedDataset(
        train_x=pool.train_x[fit],
        train_y=pool.train_y[fit],
        val_x=pool.train_x[val],
        val_y=pool.train_y[val],
        test_x=pool.test_x,
        test_y=pool.test_y,
        norm=pool.norm,
        provenance=pool.provenance + f";subset({SUBSET_TRAIN}+{SUBSET_VAL})",
        seed=pool.seed,
        train_kind=pool.train_kind[fit],
        val_kind=pool.train_kind[val],
        test_kind=pool.test_kind,
    )


@dataclass
class TransferTrial:
    seed: int
    scratch_accuracy: float
    finetuned_accuracy: float

    @property
    def finetuned_wins(self) -> bool:
        return self.finetuned_accuracy > self.scratch_accuracy


def run_transfer_trial(seed: int) -> TransferTrial:
    """One paired run: warm start vs from scratch on the same 1,000-record subset."""
    source = source_domain(100 + seed)
    target = training_subset(target_domain(200 + seed))

    source_model, _ = train(
        build_plenet(seed), source, TrainConfig(epochs=20, batch_size=64, patience=20, seed=seed)
    )
    budget = TrainConfig(epochs=12, batch_size=64, patience=12, seed=seed)
    scratch_model, _ = train(build_plenet(seed + 1000), target, budget)
    tuned_model, _ = transfer_finetune(source_model, target, budget, freeze="none")

    def test_accuracy(model) -> float:
        _, labels = predict(model, target.test_x)
        return float((labels == target.test_y).mean())

    return TransferTrial(
        seed=seed,
        scratch_accuracy=test_accuracy(scratch_model),
        finetuned_accuracy=test_accuracy(tuned_model),
    )

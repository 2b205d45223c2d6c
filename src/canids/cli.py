"""Batch command-line pipeline.

Subcommands: simulate, prepare, train, evaluate, transfer, compare,
gradcheck. Every stage is deterministic given its seed, so re-running a
command reproduces its output files byte for byte. Exit codes: 0 success,
1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import baselines, canbus, checkpoint, ingest, metrics, nncore, plenet

GRADCHECK_TOLERANCE = 1e-5
KINK_MARGIN = 1e-4


# ---------------------------------------------------------------------------
# Option-file support: plain key=value lines, expanded into CLI tokens that
# precede the explicit flags (so explicit flags win for scalar options).
# ---------------------------------------------------------------------------


def _config_tokens(path: str) -> list[str]:
    tokens = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {raw!r} is not key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() == "true":
            tokens.append(flag)
        elif value.lower() != "false":
            tokens.extend([flag, value])
    return tokens


def _expand_config(argv: list[str]) -> list[str]:
    out, config_path, i = [], None, 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--config":
            if i + 1 >= len(argv):
                raise ValueError("--config requires a file path")
            config_path = argv[i + 1]
            i += 2
        elif arg.startswith("--config="):
            config_path = arg.split("=", 1)[1]
            i += 1
        else:
            out.append(arg)
            i += 1
    if config_path is None:
        return out
    if not out:
        raise ValueError("--config needs a subcommand")
    return [out[0]] + _config_tokens(config_path) + out[1:]


# ---------------------------------------------------------------------------
# File parsing helpers
# ---------------------------------------------------------------------------


def parse_profile(path: str) -> canbus.SimProfile:
    """Simulation profile: duration=, jitter=, seed=, and one ecu= line per ECU.

    ECU lines are ``hexid,period[,dlc[,rule]]``, e.g. ``130,0.02,8,counter``.
    """
    duration, jitter, seed = None, 0.0, 0
    ecus = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "duration":
            duration = float(value)
        elif key == "jitter":
            jitter = float(value)
        elif key == "seed":
            seed = int(value)
        elif key == "ecu":
            parts = [p.strip() for p in value.split(",")]
            ecus.append(
                canbus.EcuSpec(
                    identifier=int(parts[0], 16),
                    period=float(parts[1]),
                    dlc=int(parts[2]) if len(parts) > 2 else 8,
                    payload_rule=parts[3] if len(parts) > 3 else "constant",
                )
            )
        else:
            raise ValueError(f"unknown profile key {key!r}")
    if duration is None:
        raise ValueError("profile must set duration")
    return canbus.SimProfile(ecus=tuple(ecus), duration=duration, jitter=jitter, seed=seed)


def parse_attack(text: str, seed: int) -> canbus.AttackSpec:
    """``kind:start:end:rate[:targets]`` with comma-separated hex targets."""
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ValueError(f"attack spec {text!r} is not kind:start:end:rate[:targets]")
    targets = tuple(int(t, 16) for t in parts[4].split(",")) if len(parts) == 5 else ()
    return canbus.AttackSpec(
        kind=parts[0],
        start=float(parts[1]),
        end=float(parts[2]),
        rate=float(parts[3]),
        spoof_targets=targets,
        seed=seed,
    )


def _read_kinds(path: Path) -> list[str] | None:
    sidecar = path.with_name(path.name + ".kinds")
    if not sidecar.exists():
        return None
    return sidecar.read_text().splitlines()


# ---------------------------------------------------------------------------
# Report rendering: one fixed-width text table and one JSON tree carrying
# identical numbers (all rounded to four decimals).
# ---------------------------------------------------------------------------

_METRIC_COLUMNS = ("accuracy", "precision", "recall", "f1", "roc_auc", "tpr", "tnr")


def _rounded(report: metrics.MetricsReport) -> dict:
    out = {}
    for key, value in report.as_dict().items():
        if key == "per_kind_recall":
            out[key] = {k: round(v, 4) for k, v in value.items()}
        elif isinstance(value, float):
            out[key] = round(value, 4)
        else:
            out[key] = value
    return out


def render_table(rows: dict[str, metrics.MetricsReport]) -> str:
    kinds = sorted({k for rep in rows.values() for k in rep.per_kind_recall})
    headers = ["model"] + list(_METRIC_COLUMNS) + [f"recall[{k}]" for k in kinds]
    widths = [max(12, len(h) + 2) for h in headers]
    lines = ["".join(h.ljust(w) for h, w in zip(headers, widths))]
    for name, rep in rows.items():
        values = _rounded(rep)
        cells = [name]
        for col in _METRIC_COLUMNS:
            cells.append("-" if col not in values else f"{values[col]:.4f}")
        for kind in kinds:
            per = values.get("per_kind_recall", {})
            cells.append(f"{per[kind]:.4f}" if kind in per else "-")
        lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
    for name, rep in rows.items():
        if rep.degenerate:
            lines.append(f"# {name}: zero-denominator metrics reported as 0: "
                         + ", ".join(rep.degenerate))
    return "\n".join(lines) + "\n"


def write_reports(rows: dict[str, metrics.MetricsReport], text_path, json_path) -> str:
    table = render_table(rows)
    if text_path:
        Path(text_path).write_text(table)
    if json_path:
        payload = {name: _rounded(rep) for name, rep in rows.items()}
        Path(json_path).write_text(json.dumps(payload, indent=2) + "\n")
    return table


def write_history_csv(history: plenet.TrainHistory, path) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,train_acc,val_acc,train_loss,val_loss\n")
        for i in range(len(history)):
            fh.write(
                f"{i},{history.train_acc[i]!r},{history.val_acc[i]!r},"
                f"{history.train_loss[i]!r},{history.val_loss[i]!r}\n"
            )


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    profile = parse_profile(args.profile)
    if args.seed is not None:
        profile = canbus.SimProfile(profile.ecus, profile.duration, profile.jitter, args.seed)
    log = canbus.generate_traffic(profile)
    for i, spec_text in enumerate(args.attack or []):
        log = canbus.inject_attack(log, parse_attack(spec_text, seed=profile.seed + 101 + i))
    out = Path(args.output)
    with open(out, "w") as fh:
        canbus.write_log(log, fh)
    if not args.no_kinds:
        with open(out.with_name(out.name + ".kinds"), "w") as fh:
            canbus.write_kinds(log, fh)
    print(f"wrote {len(log)} records to {out}")
    return 0


def _load_cleaned(path: Path, policy: str) -> tuple[list[ingest.RawRecord], list[str] | None]:
    with open(path, newline="") as fh:
        records = ingest.parse_log(fh)
    kinds = _read_kinds(path)
    if kinds is not None and len(kinds) != len(records):
        raise ValueError(
            f"{path}: kinds sidecar has {len(kinds)} rows for {len(records)} records; "
            "remove the sidecar or regenerate the log"
        )
    if kinds is not None and policy == "droprow":
        pairs = [(r, k) for r, k in zip(records, kinds) if not r.missing_fields()]
        return [p[0] for p in pairs], [p[1] for p in pairs]
    return ingest.impute_missing(records, policy), kinds


_OUTLIER_COLUMNS = ("timestamp", "can_id", "dlc", "data_field")


def _outlier_values(records: list[ingest.RawRecord], column: str) -> list[float]:
    if column == "timestamp":
        return [r.timestamp for r in records]
    if column == "can_id":
        return [float(ingest.hex_to_dec(r.can_id_hex)) for r in records]
    if column == "dlc":
        return [float(r.dlc) for r in records]
    return [float(int.from_bytes(ingest.data_bytes(r.data_hex), "big")) for r in records]


def cmd_prepare(args) -> int:
    all_records: list[ingest.RawRecord] = []
    all_kinds: list[str] = []
    kinds_known = True
    for input_path in args.input:
        records, kinds = _load_cleaned(Path(input_path), args.impute)
        all_records.extend(records)
        if kinds is None:
            kinds_known = False
        else:
            all_kinds.extend(kinds)

    if args.outliers:
        column, alpha, max_out = args.outliers.split(":")
        if column not in _OUTLIER_COLUMNS:
            raise ValueError(f"outlier column must be one of {_OUTLIER_COLUMNS}")
        flagged = ingest.rosner_outliers(
            _outlier_values(all_records, column), max_outliers=int(max_out), alpha=float(alpha)
        )
        all_records = [r for i, r in enumerate(all_records) if i not in flagged]
        if kinds_known:
            all_kinds = [k for i, k in enumerate(all_kinds) if i not in flagged]
        print(f"outlier test dropped {len(flagged)} rows", file=sys.stderr)

    table = ingest.RecordTable.from_raw(all_records, all_kinds if kinds_known else None)

    if args.correlation_report:
        result = ingest.correlation_matrix(table.feature_columns())
        lines = ["feature_a,feature_b,r,p,significant"]
        for i, a in enumerate(result.names):
            for j, b in enumerate(result.names):
                if i < j:
                    lines.append(
                        f"{a},{b},{result.r[i, j]!r},{result.p[i, j]!r},"
                        f"{int(result.significant[i, j])}"
                    )
        Path(args.correlation_report).write_text("\n".join(lines) + "\n")

    ds = ingest.split_dataset(
        table,
        test_fraction=args.test_fraction,
        val_fraction=args.val_fraction,
        seed=args.seed,
        provenance=";".join(args.input),
    )
    ingest.save_dataset(ds, args.output)
    sizes = ds.sizes()
    print(f"prepared {sum(sizes)} records -> train {sizes[0]}, validation {sizes[1]}, test {sizes[2]}")
    return 0


def _train_config(args) -> plenet.TrainConfig:
    return plenet.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        patience=args.patience,
        seed=args.seed,
    )


def cmd_train(args) -> int:
    ds = ingest.load_dataset(args.data)
    cfg = _train_config(args)
    model = plenet.build_plenet(args.seed) if args.arch == "plenet" else baselines.build_mlp(args.seed)
    model, history = plenet.train(model, ds, cfg)
    checkpoint.save_checkpoint(
        model, args.output, norm=ds.norm, seed=args.seed, digest=checkpoint.config_digest(cfg)
    )
    if args.history:
        write_history_csv(history, args.history)
    best = history.best_epoch
    print(
        f"trained {args.arch} for {len(history)} epochs; "
        f"best validation accuracy {history.val_acc[best]:.4f} at epoch {best}"
    )
    return 0


def _split_arrays(ds: ingest.PreparedDataset, split: str):
    if split == "train":
        return ds.train_x, ds.train_y, ds.train_kind
    if split == "validation":
        return ds.val_x, ds.val_y, ds.val_kind
    return ds.test_x, ds.test_y, ds.test_kind


def _evaluate_model(model, x, y, kind) -> metrics.MetricsReport:
    probs, labels = plenet.predict(model, x)
    kinds = kind if len(kind) == len(y) else None
    return metrics.evaluate_predictions(y, labels, scores=probs[:, 1], kinds=kinds)


def cmd_evaluate(args) -> int:
    model, norm, _, _ = checkpoint.load_checkpoint(args.checkpoint)
    ds = ingest.load_dataset(args.data)
    if len(norm.mins) and not np.array_equal(norm.mins, ds.norm.mins):
        print("warning: checkpoint and dataset normalization differ", file=sys.stderr)
    x, y, kind = _split_arrays(ds, args.split)
    report = _evaluate_model(model, x, y, kind)
    table = write_reports({args.split: report}, args.report, args.json)
    sys.stdout.write(table)
    return 0


def cmd_transfer(args) -> int:
    source_model, _, _, _ = checkpoint.load_checkpoint(args.source)
    target = ingest.load_dataset(args.data)
    if args.source_data:
        source_ds = ingest.load_dataset(args.source_data)
        distance = plenet.mmd_distance(source_ds.train_x, target.train_x)
        print(f"domain mean discrepancy (source vs target train features): {distance:.6f}")
    cfg = _train_config(args)
    model, history = plenet.transfer_finetune(source_model, target, cfg, freeze=args.freeze)
    checkpoint.save_checkpoint(
        model, args.output, norm=target.norm, seed=args.seed, digest=checkpoint.config_digest(cfg)
    )
    if args.history:
        write_history_csv(history, args.history)
    best = history.best_epoch
    print(
        f"fine-tuned for {len(history)} epochs (freeze={args.freeze}); "
        f"best validation accuracy {history.val_acc[best]:.4f} at epoch {best}"
    )
    return 0


def cmd_compare(args) -> int:
    ds = ingest.load_dataset(args.data)
    x, y, kind = _split_arrays(ds, "test")
    kinds = kind if len(kind) == len(y) else None
    cfg = _train_config(args)
    rows: dict[str, metrics.MetricsReport] = {}

    cnn, _ = plenet.train(plenet.build_plenet(args.seed), ds, cfg)
    rows["plenet"] = _evaluate_model(cnn, x, y, kind)

    knn = baselines.knn_fit(ds.train_x, ds.train_y)
    knn_labels, knn_votes = baselines.knn_predict(knn, x, k=args.knn_k)
    rows["knn"] = metrics.evaluate_predictions(y, knn_labels, scores=knn_votes, kinds=kinds)

    tree = baselines.tree_fit(
        ds.train_x, ds.train_y, max_depth=args.tree_depth, min_leaf=args.tree_min_leaf
    )
    tree_labels, tree_scores = baselines.tree_predict(tree, x)
    rows["dt"] = metrics.evaluate_predictions(y, tree_labels, scores=tree_scores, kinds=kinds)

    mlp, _ = plenet.train(baselines.build_mlp(args.seed), ds, cfg)
    rows["mlp"] = _evaluate_model(mlp, x, y, kind)

    table = write_reports(rows, args.output, args.json)
    sys.stdout.write(table)
    return 0


def cmd_gradcheck(args) -> int:
    worst = 0.0
    rng = np.random.default_rng(args.seed)
    for name, builder in (("plenet", plenet.build_plenet), ("mlp", baselines.build_mlp)):
        checked = 0
        while checked < args.seeds:
            net = builder(seed=int(rng.integers(0, 2**31)))
            nncore.jitter_parameters(net, rng)
            x = net.layers[0].layout_rows(rng.uniform(size=(args.batch, 16)))
            labels = rng.integers(0, 2, args.batch)
            if nncore.boundary_margin(net, x) < KINK_MARGIN:
                print(f"{name}: redrew a configuration sitting within {KINK_MARGIN:g} of a kink/tie")
                continue
            err = nncore.grad_check(net, x, labels)
            worst = max(worst, err)
            checked += 1
            print(f"{name} trial {checked}: max relative error {err:.3e}")
    print(f"worst relative error {worst:.3e} (tolerance {GRADCHECK_TOLERANCE:.0e})")
    return 0 if worst < GRADCHECK_TOLERANCE else 1


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _add_train_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--patience", type=int, default=50)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canids",
        description="CAN-bus intrusion detection pipeline (simulate, prepare, train, evaluate).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a labeled traffic log")
    p.add_argument("--profile", required=True, help="profile file (duration=, jitter=, ecu= lines)")
    p.add_argument("--attack", action="append", help="kind:start:end:rate[:targets], repeatable")
    p.add_argument("--seed", type=int, default=None, help="overrides the profile seed")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--no-kinds", action="store_true", help="skip the attack-kind sidecar")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("prepare", help="parse, clean, encode, and split logs")
    p.add_argument("--input", action="append", required=True, help="log CSV, repeatable")
    p.add_argument("--output", required=True, help="dataset container path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--impute", choices=ingest.IMPUTE_POLICIES, default="droprow")
    p.add_argument("--outliers", help="column:alpha:max, e.g. data_field:0.05:10")
    p.add_argument("--correlation-report", help="write pairwise correlation CSV here")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a classifier from scratch")
    p.add_argument("--data", required=True)
    p.add_argument("--output", required=True, help="checkpoint path")
    p.add_argument("--arch", choices=("plenet", "mlp"), default="plenet")
    p.add_argument("--history", help="write per-epoch accuracy/loss CSV here")
    _add_train_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint against a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "validation", "test"), default="test")
    p.add_argument("--report", help="write the text table here")
    p.add_argument("--json", help="write the JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("transfer", help="fine-tune a source checkpoint on target data")
    p.add_argument("--source", required=True, help="source checkpoint")
    p.add_argument("--data", required=True, help="target dataset container")
    p.add_argument("--output", required=True)
    p.add_argument("--freeze", choices=plenet.FREEZE_MODES, default="none")
    p.add_argument("--source-data", help="source container, reports the domain mean gap")
    p.add_argument("--history", help="write per-epoch accuracy/loss CSV here")
    _add_train_options(p)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("compare", help="train and score plenet, knn, dt, and mlp")
    p.add_argument("--data", required=True)
    p.add_argument("--knn-k", type=int, default=12)
    p.add_argument("--tree-depth", type=int, default=10)
    p.add_argument("--tree-min-leaf", type=int, default=5)
    p.add_argument("--output", help="write the text table here")
    p.add_argument("--json", help="write the JSON report here")
    _add_train_options(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def run_command(argv: list[str]) -> int:
    try:
        argv = _expand_config(list(argv))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

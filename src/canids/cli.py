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


class MalformedSpec(ValueError):
    """A profile line or an attack spec that does not parse or validate.

    The message names the profile file and line, or the attack spec, and
    the key or field at fault.
    """


def _field(name: str, text: str, convert=float, what: str = "a number"):
    """``convert(text)``, or a ValueError naming the field and the text."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{name} must be {what}, got {text!r}") from None


def _hex(text: str) -> int:
    return int(text, 16)


def _ecu_spec(value: str) -> canbus.EcuSpec:
    parts = [p.strip() for p in value.split(",")]
    if not 2 <= len(parts) <= 4:
        raise ValueError(f"needs hexid,period[,dlc[,rule]], got {len(parts)} field(s)")
    return canbus.EcuSpec(
        identifier=_field("identifier", parts[0], _hex, "a hex integer"),
        period=_field("period", parts[1]),
        dlc=_field("dlc", parts[2], int, "an integer") if len(parts) > 2 else 8,
        payload_rule=parts[3] if len(parts) > 3 else "constant",
    )


def parse_profile(path: str) -> canbus.SimProfile:
    """Simulation profile: duration=, jitter=, seed=, and one ecu= line per ECU.

    ECU lines are ``hexid,period[,dlc[,rule]]``, e.g. ``130,0.02,8,counter``.
    Every fault raises ``MalformedSpec`` naming the file, the line and the key.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise MalformedSpec(f"{path}: profile is not UTF-8 text (byte {exc.start})") from None
    duration, jitter, seed = None, 0.0, 0
    ecus = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            if key == "duration":
                duration = _field("value", value)
            elif key == "jitter":
                jitter = _field("value", value)
            elif key == "seed":
                seed = _field("value", value, int, "an integer")
                if seed < 0:
                    raise ValueError(f"must be a non-negative integer, got {seed}")
            elif key == "ecu":
                ecus.append(_ecu_spec(value))
            else:
                raise ValueError("is not a profile key")
        except ValueError as exc:
            raise MalformedSpec(f"{path}, line {lineno}: profile {key}= {exc}") from None
    try:
        if duration is None:
            raise ValueError("must set duration")
        return canbus.SimProfile(ecus=tuple(ecus), duration=duration, jitter=jitter, seed=seed)
    except ValueError as exc:
        raise MalformedSpec(f"{path}: profile {exc}") from None


def parse_attack(text: str, seed: int) -> canbus.AttackSpec:
    """``kind:start:end:rate[:targets]`` with comma-separated hex targets.

    Every fault raises ``MalformedSpec`` naming the spec and the field.
    """
    parts = text.split(":")
    try:
        if len(parts) not in (4, 5):
            raise ValueError("is not kind:start:end:rate[:targets]")
        targets = parts[4].split(",") if len(parts) == 5 else ()
        return canbus.AttackSpec(
            kind=parts[0],
            start=_field("start", parts[1]),
            end=_field("end", parts[2]),
            rate=_field("rate", parts[3]),
            spoof_targets=tuple(_field("target", t, _hex, "a hex integer") for t in targets),
            seed=seed,
        )
    except ValueError as exc:
        raise MalformedSpec(f"attack spec {text!r}: {exc}") from None


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


def _cleaned_table(paths: list[str], policy: str) -> tuple[ingest.RecordTable, bool]:
    """All logs cleaned and tabulated at once, and whether each has a ``.kinds`` sidecar."""
    records: list[ingest.RawRecord] = []
    kinds: list[str] | None = []
    for path in map(Path, paths):
        with open(path, newline="") as fh:
            parsed = ingest.parse_log(fh)
        sidecar = path.with_name(path.name + ".kinds")
        log_kinds = sidecar.read_text().splitlines() if sidecar.exists() else None
        if log_kinds is not None and len(log_kinds) != len(parsed):
            raise ValueError(
                f"{path}: kinds sidecar has {len(log_kinds)} rows for {len(parsed)} records; "
                "remove the sidecar or regenerate the log"
            )
        if kinds is None or log_kinds is None:  # a log without kinds leaves every kind unknown
            kinds = None
        else:  # droprow keeps the kinds of the rows it keeps
            kinds += [k for r, k in zip(parsed, log_kinds)
                      if policy != "droprow" or not r.missing_fields()]
        records.extend(ingest.impute_missing(parsed, policy))
    return ingest.RecordTable.from_raw(records, kinds), kinds is not None


# --outliers column name -> RecordTable.feature_columns() key
_OUTLIER_COLUMNS = {"timestamp": "Timestamp", "can_id": "CAN_ID", "dlc": "DLC",
                    "data_field": "Data_Field"}


def cmd_prepare(args) -> int:
    table, kinds_known = _cleaned_table(args.input, args.impute)
    if args.outliers:
        column, alpha, max_outliers = args.outliers
        values = table.feature_columns()[_OUTLIER_COLUMNS[column]]
        flagged = ingest.rosner_outliers(values, max_outliers=max_outliers, alpha=alpha)
        table = table.take(np.delete(np.arange(len(table)), list(flagged)))
        print(f"outlier test dropped {len(flagged)} rows", file=sys.stderr)

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
    if not kinds_known:  # unknown kinds are not "normal": the container gets no sidecar
        ds.train_kind = ds.val_kind = ds.test_kind = np.array([], dtype="<U8")
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
    return metrics.evaluate_predictions(y, labels, scores=probs[:, 1], kinds=kind)


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
    cfg = _train_config(args)
    rows: dict[str, metrics.MetricsReport] = {}

    cnn, _ = plenet.train(plenet.build_plenet(args.seed), ds, cfg)
    rows["plenet"] = _evaluate_model(cnn, x, y, kind)

    knn = baselines.knn_fit(ds.train_x, ds.train_y)
    knn_labels, knn_votes = baselines.knn_predict(knn, x, k=args.knn_k)
    rows["knn"] = metrics.evaluate_predictions(y, knn_labels, scores=knn_votes, kinds=kind)

    tree = baselines.tree_fit(
        ds.train_x, ds.train_y, max_depth=args.tree_depth, min_leaf=args.tree_min_leaf
    )
    tree_labels, tree_scores = baselines.tree_predict(tree, x)
    rows["dt"] = metrics.evaluate_predictions(y, tree_labels, scores=tree_scores, kinds=kind)

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


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_seed = _int_at_least(0)  # the type of every --seed


def _outlier_spec(text: str) -> tuple[str, float, int]:
    """``column:alpha:max`` of ``--outliers``; bounds that depend on the rows are the test's."""
    try:
        column, alpha_text, max_text = text.split(":")
        alpha, max_outliers = float(alpha_text), int(max_text)
    except ValueError:
        msg = f"expected column:alpha:max (alpha a number, max an integer), got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None
    if column not in _OUTLIER_COLUMNS:
        raise argparse.ArgumentTypeError(f"unknown column {column!r}; choose {', '.join(_OUTLIER_COLUMNS)}")
    if not 0 < alpha < 1 or max_outliers < 1:
        raise argparse.ArgumentTypeError(f"alpha must lie in (0, 1) and max be at least 1, got {text!r}")
    return column, alpha, max_outliers


def _add_train_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=0)
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
    p.add_argument("--seed", type=_seed, default=None, help="overrides the profile seed")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--no-kinds", action="store_true", help="skip the attack-kind sidecar")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("prepare", help="parse, clean, encode, and split logs")
    p.add_argument("--input", action="append", required=True, help="log CSV, repeatable")
    p.add_argument("--output", required=True, help="dataset container path")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--impute", choices=ingest.IMPUTE_POLICIES, default="droprow")
    p.add_argument("--outliers", type=_outlier_spec, help="column:alpha:max, e.g. data_field:0.05:10")
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
    p.add_argument("--seeds", type=_int_at_least(1), default=20)
    p.add_argument("--batch", type=_int_at_least(1), default=4)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def run_command(argv: list[str]) -> int:
    try:
        argv = _expand_config(list(argv))
    except (ValueError, OSError) as exc:
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

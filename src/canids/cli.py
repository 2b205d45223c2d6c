"""Batch command-line pipeline.

Subcommands: simulate, prepare, train, evaluate, transfer, compare,
gradcheck. Every stage is deterministic given its seed, so re-running a
command reproduces its output files byte for byte. Exit codes: 0 success,
1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import baselines, canbus, checkpoint, ingest, metrics, nncore, plenet
from .bounds import SEED, SEEDS, Range

GRADCHECK_TOLERANCE = 1e-5
KINK_MARGIN = 1e-4


# ---------------------------------------------------------------------------
# Option-file support: plain key=value lines, expanded into CLI tokens that
# precede the explicit flags (so explicit flags win for scalar options).
# ---------------------------------------------------------------------------


def _config_tokens(path: str) -> list[str]:
    tokens = []
    for raw in ingest.read_utf8(path, ValueError).splitlines():
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
            tokens.append(f"{flag}={value}")  # one token, so a value such as "-inf" is not taken for a flag
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


def _identifier(text: str) -> int:
    """``text`` read as a hex identifier, then checked as ``Range.parse`` checks a decimal number."""
    with contextlib.suppress(ValueError):
        text = int(text, 16)
    return canbus.IDENTIFIER.check(text)


def _ecu_spec(value: str) -> canbus.EcuSpec:
    parts = [p.strip() for p in value.split(",")]
    if not 2 <= len(parts) <= 4:
        raise ValueError(f"needs hexid,period[,dlc[,rule]], got {len(parts)} field(s)")
    return canbus.EcuSpec(
        identifier=_identifier(parts[0]),
        period=canbus.PERIOD.parse(parts[1]),
        dlc=canbus.DLC.parse(parts[2]) if len(parts) > 2 else 8,
        payload_rule=parts[3] if len(parts) > 3 else "constant",
    )


def parse_profile(path: str) -> canbus.SimProfile:
    """Simulation profile: duration=, jitter=, seed=, and one ecu= line per ECU.

    ECU lines are ``hexid,period[,dlc[,rule]]``, e.g. ``130,0.02,8,counter``.
    Every fault raises ``MalformedSpec`` naming the file, the line and the key.
    """
    bounds = {bound.name: bound for bound in (canbus.DURATION, canbus.JITTER, SEED)}
    values = {"jitter": 0.0, "seed": 0}
    ecus = []
    for lineno, raw in enumerate(ingest.read_utf8(path, MalformedSpec).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            if key in bounds:
                values[key] = bounds[key].parse(value)
            elif key == "ecu":
                ecus.append(_ecu_spec(value))
            else:
                raise ValueError("is not a profile key")
        except ValueError as exc:
            raise MalformedSpec(f"{path}, line {lineno}: profile {key}= {exc}") from None
    try:
        if "duration" not in values:
            raise ValueError("must set duration")
        return canbus.SimProfile(ecus=tuple(ecus), **values)
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
            start=canbus.START.parse(parts[1]),
            end=canbus.END.parse(parts[2]),
            rate=canbus.RATE.parse(parts[3]),
            spoof_targets=tuple(map(_identifier, targets)),
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
        Path(text_path).write_text(table, encoding="utf-8")
    if json_path:
        payload = {name: _rounded(rep) for name, rep in rows.items()}
        Path(json_path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return table


def write_history_csv(history: plenet.TrainHistory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_acc,val_acc,train_loss,val_loss\n")
        for i in range(len(history)):
            fh.write(
                f"{i},{history.train_acc[i]!r},{history.val_acc[i]!r},"
                f"{history.train_loss[i]!r},{history.val_loss[i]!r}\n"
            )


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _argv_text(arg: str) -> str:
    """A command-line argument's bytes read as UTF-8 whatever the locale, invalid bytes surrogate-escaped."""
    return os.fsencode(arg).decode("utf-8", "surrogateescape")


def cmd_simulate(args) -> int:
    profile = parse_profile(args.profile)
    if args.seed is not None:
        profile = canbus.SimProfile(profile.ecus, profile.duration, profile.jitter, args.seed)
    texts = args.attack or []
    specs = [parse_attack(text, seed=profile.seed + 101 + i) for i, text in enumerate(texts)]
    try:
        log = canbus.inject_attack(canbus.generate_traffic(profile), *specs)
    except (canbus.WindowOutOfRange, canbus.EmptySpoofTargets) as exc:
        raise type(exc)(f"attack spec {texts[specs.index(exc.spec)]!r}: {exc}") from None
    out = Path(args.output)
    with open(out, "w", encoding="utf-8") as fh:
        canbus.write_log(log, fh)
    if not args.no_kinds:
        with open(out.with_name(out.name + ".kinds"), "w", encoding="utf-8") as fh:
            canbus.write_kinds(log, fh)
    print(f"wrote {len(log)} records to {out}")
    return 0


@contextlib.contextmanager
def _naming(what: str | Path, *errors: type[ValueError]):
    """Any of ``errors`` raised inside again, of its type, with ``what`` (the files at fault) before its message."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{what}: {exc}") from None


def _cleaned_table(paths: list[str], policy: str) -> tuple[ingest.RecordTable, bool]:
    """All logs cleaned and tabulated at once, and whether each has a ``.kinds`` sidecar (checked whole)."""
    logs: list[canbus.TrafficLog] = []
    known = True
    for path in map(Path, paths):
        with _naming(path, ingest.EmptyInput, ingest.NotText):
            log = ingest.parse_log(path.read_bytes())
        sidecar = path.with_name(path.name + ".kinds")
        known &= sidecar.exists()
        if sidecar.exists():
            names = ingest.read_utf8(sidecar, ingest.NotText).splitlines()
            if len(names) != len(log):
                raise ValueError(
                    f"{path}: kinds sidecar has {len(names)} rows for {len(log)} records; "
                    "remove the sidecar or regenerate the log"
                )
            log = dataclasses.replace(log, kind=ingest.kind_codes(names, sidecar))
        with _naming(path, ingest.AllRowsMissing):
            logs.append(ingest.impute_missing(log, policy))
    log = canbus.TrafficLog.concat(logs)
    with _naming(", ".join(paths), ingest.EmptyInput):
        return ingest.RecordTable.from_raw(log), known


try:  # glibc's; other C libraries have no such call and leave freed memory to their own policy
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the system, where the C library can.

    Parsing leaves tens of MB of freed temporaries inside glibc's heap, and
    whether glibc returns them on its own hangs on where the last live block
    happens to sit, so a paper-scale ``prepare`` peaked ~124 or ~154 MB from
    one identical run to the next. Released before the features are encoded,
    the peak is the live data's in every run.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


# --outliers column name -> RecordTable.feature_columns() key
_OUTLIER_COLUMNS = {"timestamp": "Timestamp", "can_id": "CAN_ID", "dlc": "DLC",
                    "data_field": "Data_Field"}


def cmd_prepare(args) -> int:
    table, kinds_known = _cleaned_table(args.input, args.impute)
    inputs = ", ".join(args.input)
    if args.outliers:
        column, alpha, max_outliers = args.outliers
        values = table.feature_columns()[_OUTLIER_COLUMNS[column]]
        with _naming(f"{inputs}: --outliers {column}", ValueError):
            flagged = ingest.rosner_outliers(values, max_outliers=max_outliers, alpha=alpha)
        if flagged:
            table = table.take(np.delete(np.arange(len(table)), list(flagged)))
        print(f"outlier test dropped {len(flagged)} rows", file=sys.stderr)

    if args.correlation_report:
        with _naming(f"{inputs}: --correlation-report", ValueError):
            result = ingest.correlation_matrix(table.feature_columns())
        lines = ["feature_a,feature_b,r,p,significant"]
        for i, a in enumerate(result.names):
            for j, b in enumerate(result.names):
                if i < j:
                    lines.append(
                        f"{a},{b},{result.r[i, j]!r},{result.p[i, j]!r},"
                        f"{int(result.significant[i, j])}"
                    )
        Path(args.correlation_report).write_text("\n".join(lines) + "\n", encoding="utf-8")

    _release_free_heap()
    ds = ingest.split_dataset(
        table,
        test_fraction=args.test_fraction,
        val_fraction=args.val_fraction,
        seed=args.seed,
        provenance=";".join(_argv_text(path) for path in args.input),
    )
    if not kinds_known:  # unknown kinds are not "normal": the container gets no sidecar
        ds.train_kind = ds.val_kind = ds.test_kind = np.zeros(0, dtype=np.uint8)
    ingest.save_dataset(ds, args.output)
    sizes = ds.sizes()
    print(f"prepared {sum(sizes)} records -> train {sizes[0]}, validation {sizes[1]}, test {sizes[2]}")
    return 0


def _train_config(args) -> plenet.TrainConfig:
    return plenet.TrainConfig(seed=args.seed, **{b.name: getattr(args, b.name) for b in plenet.TRAIN_BOUNDS})


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


def _evaluate_model(model, x, y, kind) -> metrics.MetricsReport:
    probs, labels = plenet.predict(model, x)
    return metrics.evaluate_predictions(y, labels, scores=probs[:, 1], kinds=kind)


def cmd_evaluate(args) -> int:
    model, norm, _, _ = checkpoint.load_checkpoint(args.checkpoint)
    ds = ingest.load_dataset(args.data)
    if len(norm.mins) and not (np.array_equal(norm.mins, ds.norm.mins) and np.array_equal(norm.maxs, ds.norm.maxs)):
        print("warning: checkpoint and dataset normalization differ", file=sys.stderr)
    x, y, kind = ds.partitions()[args.split]
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
    baselines.check_k(args.knn_k, len(ds.train_y))
    x, y, kind = ds.partitions()["test"]
    cfg = _train_config(args)

    def score(labels, scores) -> metrics.MetricsReport:
        return metrics.evaluate_predictions(y, labels, scores=scores, kinds=kind)

    # Each model is a temporary of its own row, so none, nor the activations it caches, outlives that row.
    rows = {
        "plenet": _evaluate_model(plenet.train(plenet.build_plenet(args.seed), ds, cfg)[0], x, y, kind),
        "knn": score(*baselines.knn_predict(baselines.knn_fit(ds.train_x, ds.train_y), x, k=args.knn_k)),
        "dt": score(*baselines.tree_predict(
            baselines.tree_fit(ds.train_x, ds.train_y, max_depth=args.tree_depth, min_leaf=args.tree_min_leaf), x
        )),
        "mlp": _evaluate_model(plenet.train(baselines.build_mlp(args.seed), ds, cfg)[0], x, y, kind),
    }
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
            x = net.layers[0].layout_rows(rng.uniform(size=(args.batch, ingest.N_FEATURES)))
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


# A negative number as int() or float() reads it: digits with "_" between them, a point, an exponent, or -inf
# or -nan. argparse takes a separate token after an option for its value only if the token matches its own
# negative-number pattern, which takes -1 or -.5 but not -inf, -1e-9 or -1_0. That pattern is the private
# ArgumentParser._negative_number_matcher, whose wording CPython has changed between patch releases; this
# override is checked on CPython 3.11.7, and TestNumericOptions in tests/test_cli.py fails if a release breaks it.
_DIGITS = r"\d+(?:_\d+)*"
_NEGATIVE_NUMBER = re.compile(
    rf"^-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:e[+-]?{_DIGITS})?|inf(?:inity)?|nan)$", re.IGNORECASE
)


def add_bounded_option(parser: argparse.ArgumentParser, flag: str, bound: Range, default, note="") -> None:
    """Option ``flag`` read by ``bound.parse``, so a value outside the range is a usage error; ``--help`` shows it.

    ``--lr -inf`` reaches the range as ``--lr=-inf`` does: the parser reads every negative number as a value.
    """
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    parser.add_argument(flag, type=bound.parse, default=default, help=f"{bound}{note}")


def _outlier_spec(text: str) -> tuple[str, float, int]:
    """``column:alpha:max`` of ``--outliers``; alpha and max are read by ``rosner_outliers``' bounds."""
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in _OUTLIER_COLUMNS:
        msg = f"expected column:alpha:max with a column of {', '.join(_OUTLIER_COLUMNS)}, got {text!r}"
        raise argparse.ArgumentTypeError(msg)
    return parts[0], ingest.ALPHA.parse(parts[1]), ingest.MAX_OUTLIERS.parse(parts[2])


def _add_train_options(p: argparse.ArgumentParser) -> None:
    add_bounded_option(p, "--seed", SEED, default=0)
    for b in plenet.TRAIN_BOUNDS:  # --epochs, --batch-size, --lr, --patience, defaulting as TrainConfig does
        add_bounded_option(p, "--" + b.name.replace("_", "-"), b, default=getattr(plenet.TrainConfig, b.name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canids",
        description="CAN-bus intrusion detection pipeline (simulate, prepare, train, evaluate).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a labeled traffic log")
    p.add_argument("--profile", required=True, help="profile file (duration=, jitter=, ecu= lines)")
    p.add_argument("--attack", action="append", help="kind:start:end:rate[:targets], repeatable")
    add_bounded_option(p, "--seed", SEED, default=None, note="; overrides the profile seed")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--no-kinds", action="store_true", help="skip the attack-kind sidecar")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("prepare", help="parse, clean, encode, and split logs")
    p.add_argument("--input", action="append", required=True, help="log CSV, repeatable")
    p.add_argument("--output", required=True, help="dataset container path")
    add_bounded_option(p, "--seed", SEED, default=0)
    add_bounded_option(p, "--test-fraction", ingest.TEST_FRACTION, default=0.2)
    add_bounded_option(p, "--val-fraction", ingest.VAL_FRACTION, default=0.2)
    p.add_argument("--impute", choices=ingest.IMPUTE_POLICIES, default="droprow")
    p.add_argument("--outliers", type=_outlier_spec,
                   help=f"column:alpha:max, e.g. data_field:0.05:10; alpha {ingest.ALPHA}, "
                        f"max {ingest.MAX_OUTLIERS} and at most the rows - 2")
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
    p.add_argument("--split", choices=ingest.PARTITIONS, default="test")
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
    add_bounded_option(p, "--knn-k", baselines.K, default=12, note=", at most the training rows")
    add_bounded_option(p, "--tree-depth", baselines.MAX_DEPTH, default=10)
    add_bounded_option(p, "--tree-min-leaf", baselines.MIN_LEAF, default=5)
    p.add_argument("--output", help="write the text table here")
    p.add_argument("--json", help="write the JSON report here")
    _add_train_options(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    add_bounded_option(p, "--seeds", SEEDS, default=20)
    add_bounded_option(p, "--batch", Range("batch", 1), default=4)
    add_bounded_option(p, "--seed", SEED, default=0)
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

"""Spans around the public calls of each canids module, installed from outside.

The wrappers go on the names the callers look up: module attributes for
calls made through the module (``cli`` calls ``ingest.parse_log``), the
importing module's attribute for names imported with ``from ... import``
(``experiments.train``), and the class for methods (``Adam.step``). Spans
(name, start, end, parent) stay in memory and are written out at the end.
Span times are process CPU seconds, the clock the step times use.

A ``Tracer(full=False)`` installs only the probes the end-to-end metrics
need (``plenet.train`` and ``ingest.prepare_records``), a few dozen calls
per run; ``Tracer(full=True)`` installs every span below.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from pathlib import Path

from canids import baselines, canbus, checkpoint, cli, experiments, ingest, metrics, nncore, plenet

LAYERS = ("cli", "canbus", "ingest", "nncore", "plenet", "baselines", "metrics", "checkpoint")
LAYER_CLASSES = ("Conv1D", "MaxPool1D", "Flatten", "Dense", "ReLU", "Softmax")
CLI_COMMANDS = ("simulate", "prepare", "train", "evaluate", "transfer", "compare", "gradcheck")


def _train_record(args, kwargs, result, seconds):
    data = args[1] if len(args) > 1 else kwargs["data"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    run = len(result[1])
    return {
        "rows": len(data.train_y),
        "epochs_cap": cfg.epochs,
        "epochs_run": run,
        "stop": "patience" if run < cfg.epochs else "epoch cap",
        "seconds": seconds,
    }


def _fields_imputed(before, after) -> int:
    # fieldmean passes clean rows through as the same objects; droprow
    # returns a shorter list and imputes nothing
    if len(before) != len(after):
        return 0
    return sum(len(b.missing_fields()) for b, a in zip(before, after) if a is not b)


def _knn_default_chunk():
    param = inspect.signature(baselines.knn_predict).parameters.get("chunk")
    return None if param is None else param.default


_KNN_CHUNK = _knn_default_chunk()


def _knn_bytes(args, kwargs) -> int:
    """Size of the (chunk, n_train, features) float64 difference tensor."""
    model, queries = args[0], args[1]
    chunk = kwargs.get("chunk", args[3] if len(args) > 3 else _KNN_CHUNK)
    rows = len(queries) if chunk is None else min(chunk, len(queries))
    return rows * model.x.shape[0] * model.x.shape[1] * 8


class Tracer:
    def __init__(self, full: bool):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent span index or -1)
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.trainings: list[dict] = []
        self.ingests: list[dict] = []
        self.missing: list[str] = []
        self.hook_s = 0.0
        self._wrappers: dict[int, object] = {}
        self._install_probes()
        if full:
            self._install_spans()

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, fn, after):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.process_time

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent)
            if after is not None:
                after(args, kwargs, result, end - start)
                self.hook_s += clock() - end
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, name: str, targets, after=None) -> None:
        """Wrap ``owner.attr`` for every (owner, attr) in targets as span ``name``."""
        for owner, attr in targets:
            try:
                original = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original
            wrapper = self._wrappers.get(id(fn))
            if wrapper is None:
                wrapper = self._wrappers[id(fn)] = self._wrap(name, fn, after)
            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def _install_probes(self) -> None:
        def after_train(args, kwargs, result, seconds):
            self.trainings.append(_train_record(args, kwargs, result, seconds))

        def after_prepare(args, kwargs, result, seconds):
            self.ingests.append({"rows": len(args[0]), "seconds": seconds})

        self.install("plenet.train", [(plenet, "train"), (experiments, "train")], after_train)
        self.install(
            "ingest.prepare_records",
            [(ingest, "prepare_records"), (experiments, "prepare_records")],
            after_prepare,
        )

    def _count(self, key, measure):
        def after(args, kwargs, result, seconds):
            self.counts[key] += measure(args, kwargs, result)

        return after

    def _install_spans(self) -> None:
        c = self._count
        self.install("cli.run_command", [(cli, "run_command")])
        for command in CLI_COMMANDS:
            self.install(f"cli.{command}", [(cli, f"cmd_{command}")])

        self.install("canbus.generate_traffic",
                     [(canbus, "generate_traffic"), (experiments, "generate_traffic")],
                     c("canbus.frames", lambda a, k, r: len(r)))
        self.install("canbus.inject_attack",
                     [(canbus, "inject_attack"), (experiments, "inject_attack")],
                     c("canbus.frames", lambda a, k, r: len(r) - len(a[0])))
        self.install("canbus.write_log", [(canbus, "write_log")])
        self.install("canbus.write_kinds", [(canbus, "write_kinds")])

        self.install("ingest.parse_log", [(ingest, "parse_log")],
                     c("ingest.rows_parsed", lambda a, k, r: len(r)))

        self.install("ingest.impute_missing", [(ingest, "impute_missing")],
                     c("ingest.fields_imputed", lambda a, k, r: _fields_imputed(a[0], r)))
        self.install("ingest.rosner_outliers", [(ingest, "rosner_outliers")],
                     c("ingest.outliers_flagged", lambda a, k, r: len(r)))
        self.install("ingest.tabulate_from_raw", [(ingest.RecordTable, "from_raw")],
                     c("ingest.rows_tabulated", lambda a, k, r: len(r)))
        self.install("ingest.tabulate_from_traffic", [(ingest.RecordTable, "from_traffic")])
        for fn in ("correlation_matrix", "split_dataset", "save_dataset", "load_dataset"):
            self.install(f"ingest.{fn}", [(ingest, fn)])

        for cls_name in LAYER_CLASSES:
            cls = getattr(nncore, cls_name)
            self.install(f"nncore.{cls_name}.forward", [(cls, "forward")])
            self.install(f"nncore.{cls_name}.backward", [(cls, "backward")])
        self.install("nncore.Network.forward", [(nncore.Network, "forward")])
        self.install("nncore.Network.backward", [(nncore.Network, "backward")])
        self.install("nncore.cross_entropy", [(nncore, "cross_entropy"), (plenet, "cross_entropy")])
        self.install("nncore.one_hot", [(nncore, "one_hot"), (plenet, "one_hot")])
        self.install("nncore.adam_step", [(nncore.Adam, "step")])
        self.install("nncore.zero_grads", [(nncore.Network, "zero_grads")])
        self.install("nncore.snapshot_restore",
                     [(nncore.Network, "snapshot"), (nncore.Network, "restore")])

        self.install("plenet.predict", [(plenet, "predict"), (experiments, "predict")])
        self.install("plenet.transfer_finetune",
                     [(plenet, "transfer_finetune"), (experiments, "transfer_finetune")])
        self.install("plenet.build_plenet", [(plenet, "build_plenet"), (experiments, "build_plenet")])

        def after_knn(args, kwargs, result, seconds):
            self.counts["baselines.knn_distance_evals"] += len(args[1]) * len(args[0].x)
            size = _knn_bytes(args, kwargs)
            self.counts["baselines.knn_bytes_materialized"] = max(
                self.counts["baselines.knn_bytes_materialized"], size
            )

        self.install("baselines.knn_fit", [(baselines, "knn_fit")])
        self.install("baselines.knn_predict", [(baselines, "knn_predict")], after_knn)
        self.install("baselines.tree_fit", [(baselines, "tree_fit")])
        self.install("baselines.tree_predict", [(baselines, "tree_predict")])
        self.install("baselines.build_mlp", [(baselines, "build_mlp")])

        self.install("metrics.evaluate_predictions",
                     [(metrics, "evaluate_predictions"), (experiments, "evaluate_predictions")])
        self.install("metrics.roc_auc", [(metrics, "roc_auc")])

        def after_save(args, kwargs, result, seconds):
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.counts["checkpoint.bytes"] += Path(path).stat().st_size

        self.install("checkpoint.save_checkpoint", [(checkpoint, "save_checkpoint")], after_save)
        self.install("checkpoint.load_checkpoint", [(checkpoint, "load_checkpoint")])

    # -- read-out -------------------------------------------------------------

    def mark(self) -> tuple:
        """Position to aggregate from, taken before a unit starts."""
        return len(self.spans), Counter(self.counts), len(self.trainings), len(self.ingests)

    def unit_totals(self, mark: tuple) -> dict:
        """Per-name inclusive and self seconds, span counts and counters since ``mark``."""
        first, counts_before, _, _ = mark
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        total: Counter = Counter()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (nid, start, end, _), inner in zip(spans, child):
            name = self.names[nid]
            total[name] += end - start
            self_s[name] += end - start - inner
            calls[name] += 1
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        return {"total": total, "self": self_s, "calls": calls, "counts": counts,
                "spans": len(spans)}

    def since(self, mark: tuple) -> tuple[list[dict], list[dict]]:
        return self.trainings[mark[2]:], self.ingests[mark[3]:]

    def write_spans(self, path: Path) -> None:
        """One ``name,start,end,parent`` line per span, parent -1 for roots."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for nid, start, end, parent in self.spans:
                fh.write(f"{self.names[nid]},{start!r},{end!r},{parent}\n")

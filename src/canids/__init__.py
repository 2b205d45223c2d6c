"""CAN-bus intrusion detection toolkit.

Simulates CAN traffic with labeled attack injection, prepares datasets,
trains a small 1-D convolutional classifier from scratch, supports transfer
fine-tuning, and evaluates against KNN / decision-tree / MLP baselines.
"""

from .canbus import (
    AttackSpec,
    CanFrame,
    EcuSpec,
    RawRecord,
    SimProfile,
    TrafficLog,
    crc15,
    decode_frame,
    encode_frame,
    generate_traffic,
    inject_attack,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .ingest import (
    NormalizationParams,
    PreparedDataset,
    RecordTable,
    load_dataset,
    parse_log,
    prepare_records,
    save_dataset,
    split_dataset,
)
from .metrics import ConfusionMatrix, MetricsReport, confusion, metrics_from_confusion, roc_auc
from .plenet import (
    TrainConfig,
    TrainHistory,
    build_plenet,
    mmd_distance,
    predict,
    train,
    transfer_finetune,
)

__version__ = "0.1.0"

__all__ = [
    "AttackSpec",
    "CanFrame",
    "ConfusionMatrix",
    "EcuSpec",
    "MetricsReport",
    "NormalizationParams",
    "PreparedDataset",
    "RawRecord",
    "RecordTable",
    "SimProfile",
    "TrafficLog",
    "TrainConfig",
    "TrainHistory",
    "build_plenet",
    "confusion",
    "crc15",
    "decode_frame",
    "encode_frame",
    "generate_traffic",
    "inject_attack",
    "load_checkpoint",
    "load_dataset",
    "metrics_from_confusion",
    "mmd_distance",
    "parse_log",
    "predict",
    "prepare_records",
    "roc_auc",
    "save_checkpoint",
    "save_dataset",
    "split_dataset",
    "train",
    "transfer_finetune",
]

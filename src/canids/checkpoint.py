"""Bit-exact model persistence.

Binary layout (all integers little-endian):

    magic   "CANCKPT1"
    u32     format version (currently 1)
    u32+utf8  architecture descriptor (layer tokens, '|' separated)
    u64     training seed
    u32+utf8  training-config digest (sha256 hex, first 16 chars)
    u32     normalization feature count, then (min, max) float64 pairs
    u32     parameter array count, then per array:
            u32 ndim, u64 dims..., float64 data
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .bounds import SEED
from .ingest import BinaryReader, NormalizationParams
from .nncore import MalformedDescriptor, Network, network_from_descriptor

MAGIC = b"CANCKPT1"
FORMAT_VERSION = 1


class CorruptCheckpoint(ValueError):
    """File fails structural validation (magic, bounds, trailing bytes)."""


class VersionMismatch(ValueError):
    """File was written by an incompatible format version."""


def config_digest(cfg) -> str:
    """Stable short digest of a training configuration dataclass."""
    text = repr(sorted(vars(cfg).items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def save_checkpoint(
    model: Network,
    path: str | Path,
    norm: NormalizationParams | None = None,
    seed: int = 0,
    digest: str = "",
) -> None:
    SEED.check(seed)
    norm = norm or NormalizationParams(np.zeros(0), np.zeros(0))
    descriptor = model.describe().encode()
    digest_b = digest.encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(descriptor)) + descriptor)
        fh.write(struct.pack("<Q", seed))
        fh.write(struct.pack("<I", len(digest_b)) + digest_b)
        pairs = np.column_stack([norm.mins, norm.maxs]).ravel() if len(norm.mins) else np.zeros(0)
        fh.write(struct.pack("<I", len(norm.mins)))
        fh.write(np.ascontiguousarray(pairs, dtype="<f8").tobytes())
        params = model.parameters()
        fh.write(struct.pack("<I", len(params)))
        for p in params:
            fh.write(struct.pack("<I", p.ndim))
            fh.write(struct.pack(f"<{p.ndim}Q", *p.shape))
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[Network, NormalizationParams, int, str]:
    """Rebuild the network and return (model, norm params, seed, config digest).

    Another format version raises ``VersionMismatch``, any other fault ``CorruptCheckpoint``.
    """
    reader = BinaryReader(path, CorruptCheckpoint)
    if reader.take(len(MAGIC)) != MAGIC:
        raise reader.corrupt("no CANCKPT1 magic")
    (version,) = reader.unpack("<I")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    descriptor = reader.text()
    (seed,) = reader.unpack("<Q")
    digest = reader.text()
    (n_norm,) = reader.unpack("<I")
    norm = reader.pairs(n_norm)
    (n_arrays,) = reader.unpack("<I")

    try:
        model = network_from_descriptor(descriptor, max_params=reader.remaining // 8)  # 8 bytes a parameter
    except MalformedDescriptor as exc:
        raise reader.corrupt(str(exc)) from None
    params = model.parameters()
    if n_arrays != len(params):
        raise reader.corrupt(f"descriptor implies {len(params)} parameter arrays, file has {n_arrays}")
    for p in params:
        (ndim,) = reader.unpack("<I")
        shape = reader.unpack(f"<{ndim}Q")
        if shape != p.shape:
            raise reader.corrupt(f"array shape {shape} does not match layer shape {p.shape}")
        np.copyto(p, reader.array("<f8", shape))
    reader.finish()
    if not np.isfinite(model.param_buffer).all():
        raise reader.corrupt("parameters hold NaN or infinity")
    return model, norm, seed, digest

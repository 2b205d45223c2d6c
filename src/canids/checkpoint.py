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

from .ingest import NormalizationParams
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


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise CorruptCheckpoint("unexpected end of file")
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def text(self) -> str:
        """A u32-length-prefixed UTF-8 string."""
        raw = self.take(self.u32())
        try:
            return raw.decode()
        except UnicodeDecodeError:
            raise CorruptCheckpoint(f"string at byte {self.off - len(raw)} is not UTF-8") from None

    def f64_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").copy()


def load_checkpoint(path: str | Path) -> tuple[Network, NormalizationParams, int, str]:
    """Rebuild the network and return (model, norm params, seed, config digest)."""
    reader = _Reader(Path(path).read_bytes())
    if reader.take(len(MAGIC)) != MAGIC:
        raise CorruptCheckpoint(f"{path} has no CANCKPT1 magic")
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"format version {version}, expected {FORMAT_VERSION}")
    descriptor = reader.text()
    seed = reader.u64()
    digest = reader.text()
    n_norm = reader.u32()
    pairs = reader.f64_array(2 * n_norm).reshape(n_norm, 2) if n_norm else np.zeros((0, 2))
    norm = NormalizationParams(pairs[:, 0].copy(), pairs[:, 1].copy())

    try:
        model = network_from_descriptor(descriptor)
    except MalformedDescriptor as exc:
        raise CorruptCheckpoint(f"{path}: {exc}") from None
    params = model.parameters()
    n_arrays = reader.u32()
    if n_arrays != len(params):
        raise CorruptCheckpoint(
            f"descriptor implies {len(params)} parameter arrays, file has {n_arrays}"
        )
    for p in params:
        ndim = reader.u32()
        shape = tuple(reader.u64() for _ in range(ndim))
        if shape != p.shape:
            raise CorruptCheckpoint(f"array shape {shape} does not match layer shape {p.shape}")
        np.copyto(p, reader.f64_array(int(np.prod(shape))).reshape(shape))
    if reader.off != len(reader.blob):
        raise CorruptCheckpoint(f"{len(reader.blob) - reader.off} trailing bytes")
    return model, norm, seed, digest

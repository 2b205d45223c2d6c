"""Mutated containers, sidecars and checkpoints fail only with their typed errors, or load checked values.

A mutation can change a length or count field, so every load here is also a
check that the loaders refuse to allocate more than the file holds.
"""

import math
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids.canbus import KIND_NAMES
from canids.checkpoint import CorruptCheckpoint, VersionMismatch, load_checkpoint
from canids.ingest import CorruptContainer, load_dataset, save_dataset
from helpers import delete, flip, insert, mutate, mutation_steps, toy_dataset, truncate

V1_FILE = Path(__file__).parent / "data" / "v1_conv_dense.ckpt"

GARBAGE = [b"", b"\x00", b"\x01", b"\x02", b"\xff", b"\xc3", "é".encode(), b"\xff" * 8, b"\x00" * 8,
           *(struct.pack("<d", v) for v in (math.nan, math.inf, -math.inf, -1.0, 0.5, 2.0, 1e300)),
           struct.pack("<Q", 2**63), struct.pack("<I", 2**32 - 1), struct.pack("<I", 7), b"=", b",", b"|", b":",
           b"\n", b"\r", b"train,", b"flooding", b"seed=", b"source=", b"dense:1000000:1000000", b"9" * 5000]


def _insert(data: bytes, at: int, token: int) -> bytes:
    return insert(GARBAGE, data, at, token)


def _extend(data: bytes, _: int, token: int) -> bytes:
    return data + GARBAGE[token % len(GARBAGE)]


def _overwrite(data: bytes, at: int, token: int) -> bytes:
    """Garbage written over the bytes at ``at``, the length kept where the data is long enough."""
    at %= len(data) + 1
    piece = GARBAGE[token % len(GARBAGE)]
    return data[:at] + piece + data[at + len(piece) :]


mutations = mutation_steps([truncate, flip, _insert, delete, _extend, _overwrite])


def assert_checked(ds):
    """What ``load_dataset`` promises of a container it accepts."""
    for x, y in ((ds.train_x, ds.train_y), (ds.val_x, ds.val_y), (ds.test_x, ds.test_y)):
        assert x.shape == (len(y), 16) and x.dtype == np.float64 and y.dtype == np.uint8
        assert np.isfinite(x).all() and ((x >= 0) & (x <= 1)).all()
        assert set(np.unique(y).tolist()) <= {0, 1}
    assert np.isfinite(ds.norm.mins).all() and np.isfinite(ds.norm.maxs).all()
    assert (ds.norm.maxs >= ds.norm.mins).all()
    for kind in (ds.train_kind, ds.val_kind, ds.test_kind):
        assert kind.dtype == np.uint8 and kind.max(initial=0) < len(KIND_NAMES)


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """A small container and its sidecars, and a directory the mutated copies go to."""
    source = tmp_path_factory.mktemp("container") / "data.bin"
    ds = toy_dataset(n=20)
    rng = np.random.default_rng(0)
    ds.train_kind, ds.val_kind, ds.test_kind = (rng.integers(0, len(KIND_NAMES), len(y)).astype(np.uint8)
                                                for y in (ds.train_y, ds.val_y, ds.test_y))
    ds.provenance, ds.seed = "toy.csv", 7
    save_dataset(ds, source)
    return source, tmp_path_factory.mktemp("mutated") / "data.bin"


@settings(max_examples=600)
@given(suffix=st.sampled_from(["", ".manifest", ".kinds"]), steps=mutations)
def test_mutated_container(container, suffix, steps):
    source, path = container
    for name in ("", ".manifest", ".kinds"):
        shutil.copyfile(f"{source}{name}", f"{path}{name}")
    target = Path(f"{path}{suffix}")
    target.write_bytes(mutate(target.read_bytes(), steps))
    try:
        ds = load_dataset(path)
    except CorruptContainer as exc:
        assert str(exc).startswith(str(path))
    else:
        assert_checked(ds)


@settings(max_examples=400)
@given(steps=mutations)
def test_mutated_checkpoint(tmp_path_factory, steps):
    path = tmp_path_factory.getbasetemp() / "mutated.ckpt"
    path.write_bytes(mutate(V1_FILE.read_bytes(), steps))
    try:
        model, norm, _, _ = load_checkpoint(path)
    except (CorruptCheckpoint, VersionMismatch) as exc:
        assert str(exc).startswith(str(path))
    else:
        assert np.isfinite(norm.mins).all() and np.isfinite(norm.maxs).all() and (norm.maxs >= norm.mins).all()
        assert np.isfinite(model.param_buffer).all()
        assert model.param_buffer.nbytes <= path.stat().st_size

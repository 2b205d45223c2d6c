import struct
from pathlib import Path

import numpy as np
import pytest

from canids.baselines import build_mlp
from canids.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CorruptCheckpoint,
    VersionMismatch,
    config_digest,
    load_checkpoint,
    save_checkpoint,
)
from canids.ingest import NormalizationParams
from canids.nncore import Conv1D, Dense, Flatten, MaxPool1D, Network, ReLU, Softmax, jitter_parameters
from canids.plenet import TrainConfig, build_plenet, predict

# written once by format version 1 and never regenerated: it pins the bytes on disk
V1_FILE = Path(__file__).parent / "data" / "v1_conv_dense.ckpt"
V1_NORM = NormalizationParams(np.array([0.0, 1.5]), np.array([2047.0, 8.0]))
V1_SEED, V1_DIGEST = 2024, "0123456789abcdef"


def v1_network():
    """The seeded conv + dense network stored in ``V1_FILE``, biases jittered off zero."""
    rng = np.random.default_rng(V1_SEED)
    net = Network([Conv1D(1, 2, 3, rng), ReLU(), MaxPool1D(), Flatten(), Dense(6, 2, rng), Softmax()])
    jitter_parameters(net, rng)
    return net


@pytest.fixture
def norm():
    return NormalizationParams(np.zeros(16), np.concatenate([[2047, 8], np.full(8, 255), np.ones(6)]))


class TestRoundTrip:
    def test_predictions_bit_identical(self, tmp_path, norm):
        model = build_plenet(seed=12)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, norm=norm, seed=12, digest="abc")
        loaded, loaded_norm, seed, digest = load_checkpoint(path)
        x = np.random.default_rng(0).uniform(size=(64, 16))
        assert np.array_equal(predict(model, x)[0], predict(loaded, x)[0])
        assert np.array_equal(loaded_norm.mins, norm.mins)
        assert np.array_equal(loaded_norm.maxs, norm.maxs)
        assert seed == 12 and digest == "abc"

    def test_mlp_round_trip(self, tmp_path, norm):
        model = build_mlp(seed=3)
        path = tmp_path / "mlp.ckpt"
        save_checkpoint(model, path, norm=norm)
        loaded, *_ = load_checkpoint(path)
        assert loaded.describe() == model.describe()
        assert all(np.array_equal(p, q) for p, q in zip(loaded.parameters(), model.parameters()))

    def test_save_is_deterministic(self, tmp_path, norm):
        model = build_plenet(seed=7)
        save_checkpoint(model, tmp_path / "a.ckpt", norm=norm, seed=7)
        save_checkpoint(model, tmp_path / "b.ckpt", norm=norm, seed=7)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestCommittedVersion1File:
    def test_load_restores_exact_parameters(self):
        model, norm, seed, digest = load_checkpoint(V1_FILE)
        expected = v1_network()
        assert model.describe() == expected.describe()
        assert model.param_buffer.tobytes() == expected.param_buffer.tobytes()
        assert norm.mins.tobytes() == V1_NORM.mins.tobytes()
        assert norm.maxs.tobytes() == V1_NORM.maxs.tobytes()
        assert (seed, digest) == (V1_SEED, V1_DIGEST)

    def test_save_reproduces_file(self, tmp_path):
        for model in (load_checkpoint(V1_FILE)[0], v1_network()):
            save_checkpoint(model, tmp_path / "again.ckpt", norm=V1_NORM, seed=V1_SEED, digest=V1_DIGEST)
            assert (tmp_path / "again.ckpt").read_bytes() == V1_FILE.read_bytes()


class TestValidation:
    def test_truncated_file(self, tmp_path, norm):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_plenet(seed=1), path, norm=norm)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path, norm):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_plenet(seed=1), path, norm=norm)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_edited_version_byte(self, tmp_path, norm):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_plenet(seed=1), path, norm=norm)
        blob = bytearray(path.read_bytes())
        blob[8] = 99  # version field sits right after the magic
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    @pytest.mark.parametrize("descriptor", [b"conv1d:1", b"dense:16:x", b"relu|dense"])
    def test_malformed_descriptor(self, tmp_path, descriptor):
        path = tmp_path / "model.ckpt"
        path.write_bytes(
            MAGIC
            + struct.pack("<I", FORMAT_VERSION)
            + struct.pack("<I", len(descriptor))
            + descriptor
            + struct.pack("<Q", 0)  # seed
            + struct.pack("<I", 0)  # empty config digest
            + struct.pack("<I", 0)  # no normalization pairs
            + struct.pack("<I", 0)  # no parameter arrays
        )
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["descriptor", "digest"])
    def test_non_utf8_string_field(self, tmp_path, field):
        descriptor = b"\xff\xfe" if field == "descriptor" else b"dense:16:2|softmax"
        digest = b"\xff\xfe" if field == "digest" else b""
        path = tmp_path / "model.ckpt"
        path.write_bytes(
            MAGIC
            + struct.pack("<I", FORMAT_VERSION)
            + struct.pack("<I", len(descriptor))
            + descriptor
            + struct.pack("<Q", 0)  # seed
            + struct.pack("<I", len(digest))
            + digest
            + struct.pack("<I", 0)  # no normalization pairs
            + struct.pack("<I", 0)  # no parameter arrays
        )
        with pytest.raises(CorruptCheckpoint, match="not UTF-8"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"WRONGMAG" + bytes(64))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)


class TestConfigDigest:
    def test_stable_and_sensitive(self):
        a = config_digest(TrainConfig(epochs=10, seed=1))
        b = config_digest(TrainConfig(epochs=10, seed=1))
        c = config_digest(TrainConfig(epochs=11, seed=1))
        assert a == b
        assert a != c
        assert len(a) == 16

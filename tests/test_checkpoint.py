import struct

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
from canids.plenet import TrainConfig, build_plenet, predict


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

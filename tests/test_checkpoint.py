import struct
from pathlib import Path

import numpy as np
import pytest

from canids.baselines import build_mlp
from canids.bounds import OutOfRange
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

    def test_largest_seed_round_trips(self, tmp_path, norm):
        save_checkpoint(build_mlp(seed=3), tmp_path / "mlp.ckpt", norm=norm, seed=2**64 - 1)
        assert load_checkpoint(tmp_path / "mlp.ckpt")[2] == 2**64 - 1

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_seed_outside_u64_writes_nothing(self, tmp_path, norm, seed):
        with pytest.raises(OutOfRange, match=rf"^seed must be an integer in \[0, 18446744073709551615\], got {seed}$"):
            save_checkpoint(build_mlp(seed=3), tmp_path / "mlp.ckpt", norm=norm, seed=seed)
        assert not (tmp_path / "mlp.ckpt").exists()

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
        with pytest.raises(CorruptCheckpoint) as exc:
            load_checkpoint(path)
        # magic, version and length come first; the digest follows the descriptor, the seed and its own length
        at = 16 if field == "descriptor" else 16 + len(descriptor) + 12
        assert str(exc.value) == f"{path}: not UTF-8 text (invalid start byte at byte {at})"

    def test_descriptor_needing_more_bytes_than_the_file_holds(self, tmp_path):
        # built, dense:1000000:1000000 would need 7.28 TiB; the bound is checked before any layer is built
        descriptor = b"dense:1000000:1000000|softmax"
        path = tmp_path / "model.ckpt"
        path.write_bytes(
            MAGIC
            + struct.pack("<I", FORMAT_VERSION)
            + struct.pack("<I", len(descriptor))
            + descriptor
            + struct.pack("<Q", 0)  # seed
            + struct.pack("<I", 0)  # empty config digest
            + struct.pack("<I", 0)  # no normalization pairs
            + struct.pack("<I", 2)  # two parameter arrays, and no bytes for them
        )
        with pytest.raises(CorruptCheckpoint) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: layers need 1000001000000 parameters, at most 0 fit"

    @pytest.mark.parametrize("mins, maxs, message", [
        (5.0, 4.0, "feature max must be >= feature min"),
        (np.nan, 4.0, "feature mins and maxs must be finite"),
        (0.0, np.inf, "feature mins and maxs must be finite"),
    ])
    def test_bad_normalization_pair(self, tmp_path, mins, maxs, message):
        path = tmp_path / "model.ckpt"
        path.write_bytes(
            MAGIC
            + struct.pack("<I", FORMAT_VERSION)
            + struct.pack("<I", 4)
            + b"relu"
            + struct.pack("<Q", 0)  # seed
            + struct.pack("<I", 0)  # empty config digest
            + struct.pack("<I", 1)  # one normalization pair
            + struct.pack("<2d", mins, maxs)
            + struct.pack("<I", 0)  # no parameter arrays
        )
        with pytest.raises(CorruptCheckpoint) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: normalization pairs: {message}"

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter(self, tmp_path, value):
        net = v1_network()
        net.param_buffer[5] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        with pytest.raises(CorruptCheckpoint) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: parameters hold NaN or infinity"

    def test_short_or_long_file_messages(self, tmp_path):
        blob = V1_FILE.read_bytes()
        path = tmp_path / "model.ckpt"
        for edited, message in [(blob[:-1], "unexpected end of file"), (blob + b"xy", "2 trailing bytes"),
                                (b"", "unexpected end of file"), (b"CANCKPT2" + blob[8:], "no CANCKPT1 magic")]:
            path.write_bytes(edited)
            with pytest.raises(CorruptCheckpoint) as exc:
                load_checkpoint(path)
            assert str(exc.value) == f"{path}: {message}"

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

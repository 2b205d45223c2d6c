import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from canids.canbus import (
    AttackSpec,
    CanFrame,
    CrcMismatch,
    EcuSpec,
    EmptySchedule,
    EmptySpoofTargets,
    MalformedFrame,
    SimProfile,
    TrafficRecord,
    WindowOutOfRange,
    crc15,
    decode_frame,
    encode_frame,
    format_record,
    generate_traffic,
    inject_attack,
)

# ---------------------------------------------------------------------------
# Independent CRC oracles.
#
# Oracle 1: arbitrary-precision long division. The bit sequence is packed
# into a Python int and reduced modulo the full 16-bit generator 0xC599 by
# repeatedly cancelling the leading term.
#
# Oracle 2: table-driven, byte at a time. Table entry T[h] is (h << 15) mod G,
# built by running the shift register over h followed by 15 zero bits; the
# fold step is state' = T[state >> 7] ^ ((state & 0x7F) << 8) ^ byte.
# ---------------------------------------------------------------------------

GENERATOR_FULL = 0xC599  # x^15 + 0x4599


def crc15_longdiv(bits):
    value = 0
    for b in bits:
        value = (value << 1) | b
    while value.bit_length() > 15:
        value ^= GENERATOR_FULL << (value.bit_length() - 16)
    return value


def _table_entry(h):
    reg = 0
    for b in [(h >> (7 - i)) & 1 for i in range(8)] + [0] * 15:
        carry = reg & 0x4000
        reg = ((reg << 1) | b) & 0x7FFF
        if carry:
            reg ^= 0x4599
    return reg


_TABLE = [_table_entry(h) for h in range(256)]


def crc15_table(bits):
    pad = (-len(bits)) % 8
    padded = [0] * pad + list(bits)
    state = 0
    for i in range(0, len(padded), 8):
        byte = 0
        for b in padded[i : i + 8]:
            byte = (byte << 1) | b
        state = _TABLE[state >> 7] ^ ((state & 0x7F) << 8) ^ byte
    return state


def random_frame(rng):
    dlc = int(rng.integers(0, 9))
    return CanFrame(
        identifier=int(rng.integers(0, 0x800)),
        payload=bytes(int(b) for b in rng.integers(0, 256, size=dlc)),
    )


class TestCrc15:
    def test_all_zero_input_is_zero(self):
        assert crc15([0] * 16) == 0

    def test_single_leading_one_reduces_to_generator(self):
        # x^15 mod G == G with its leading term dropped
        assert crc15([1] + [0] * 15) == 0x4599 & 0x7FFF
        assert crc15_longdiv([1] + [0] * 15) == 0x4599

    def test_frame_bits_match_table_oracle(self):
        frame = CanFrame(identifier=0x130, payload=bytes([0xAB, 0xCD]))
        bits = encode_frame(frame)[: 19 + 8 * frame.dlc].tolist()
        assert crc15(bits) == crc15_table(bits)
        assert crc15(bits) == crc15_longdiv(bits)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            crc15([])

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_oracle_agreement(self, bits):
        assert crc15(bits) == crc15_longdiv(bits) == crc15_table(bits)


class TestFrameCodec:
    def test_bit_length_dlc8(self):
        frame = CanFrame(identifier=0x1, payload=bytes(8))
        assert len(encode_frame(frame)) == 44 + 64

    def test_bit_length_dlc0(self):
        assert len(encode_frame(CanFrame(identifier=0x7FF))) == 44

    def test_zero_identifier_leads_with_dominant_bits(self):
        bits = encode_frame(CanFrame(identifier=0x000, payload=b"\x01"))
        assert not bits[:12].any()

    def test_round_trip_seeded_frames(self):
        rng = np.random.default_rng(4242)
        for _ in range(1000):
            frame = random_frame(rng)
            assert decode_frame(encode_frame(frame)) == frame

    @given(
        st.integers(0, 0x7FF),
        st.binary(min_size=0, max_size=8),
        st.integers(0, 1),
        st.integers(0, 1),
    )
    def test_round_trip_property(self, identifier, payload, rtr, reserved):
        frame = CanFrame(identifier=identifier, payload=payload, rtr=rtr, reserved=reserved)
        assert decode_frame(encode_frame(frame)) == frame

    @pytest.mark.parametrize("dlc", range(9))
    def test_every_single_bit_flip_detected(self, dlc):
        rng = np.random.default_rng(dlc)
        frame = CanFrame(
            identifier=int(rng.integers(0, 0x800)),
            payload=bytes(int(b) for b in rng.integers(0, 256, size=dlc)),
        )
        encoded = encode_frame(frame)
        for i in range(len(encoded)):
            corrupted = encoded.copy()
            corrupted[i] ^= 1
            with pytest.raises((CrcMismatch, MalformedFrame)):
                decode_frame(corrupted)

    def test_truncated_sequence_rejected(self):
        bits = encode_frame(CanFrame(identifier=0x10))
        with pytest.raises(MalformedFrame):
            decode_frame(bits[:43])

    def test_data_bit_flip_is_crc_mismatch(self):
        frame = CanFrame(identifier=0x2A5, payload=bytes([0x80, 0x7F]))
        bits = encode_frame(frame)
        bits[20] ^= 1  # first payload-adjacent header bit region is CRC-covered
        with pytest.raises(CrcMismatch):
            decode_frame(bits)

    def test_invalid_frames_rejected_at_construction(self):
        with pytest.raises(ValueError):
            CanFrame(identifier=0x800)
        with pytest.raises(ValueError):
            CanFrame(identifier=0, payload=bytes(9))
        with pytest.raises(ValueError):
            CanFrame(identifier=0, ide=1)


class TestGenerateTraffic:
    def test_single_ecu_no_jitter(self):
        profile = SimProfile(
            ecus=(EcuSpec(identifier=0x130, period=0.1, dlc=2),),
            duration=1.0,
            jitter=0.0,
            seed=1,
        )
        records = generate_traffic(profile)
        assert len(records) == 10
        for k, rec in enumerate(records, start=1):
            assert rec.timestamp == k * 0.1 * 1.0
            assert rec.can_id == 0x130
            assert rec.label == 0

    def test_same_seed_byte_identical(self):
        profile = SimProfile(
            ecus=(
                EcuSpec(0x130, 0.02, 8, "counter"),
                EcuSpec(0x2B0, 0.05, 8, "sensor"),
            ),
            duration=5.0,
            jitter=0.05,
            seed=99,
        )
        lines_a = [format_record(r) for r in generate_traffic(profile)]
        lines_b = [format_record(r) for r in generate_traffic(profile)]
        assert lines_a == lines_b

    def test_emission_count_matches_counting_oracle(self):
        ecus = (
            EcuSpec(0x0A0, 0.013, 4, "constant"),
            EcuSpec(0x130, 0.029, 8, "counter"),
            EcuSpec(0x2B0, 0.071, 8, "sensor"),
        )
        profile = SimProfile(ecus=ecus, duration=60.0, jitter=0.05, seed=7)
        expected = sum(math.floor(profile.duration / e.period) for e in ecus)
        records = generate_traffic(profile)
        assert len(records) == expected

    def test_sorted_by_timestamp(self):
        profile = SimProfile(
            ecus=(EcuSpec(0x100, 0.01), EcuSpec(0x200, 0.017)),
            duration=2.0,
            jitter=0.2,
            seed=3,
        )
        ts = [r.timestamp for r in generate_traffic(profile)]
        assert ts == sorted(ts)

    def test_empty_schedule_rejected(self):
        with pytest.raises(EmptySchedule):
            generate_traffic(SimProfile(ecus=(), duration=1.0))


@pytest.fixture
def base_log():
    profile = SimProfile(
        ecus=(
            EcuSpec(0x0A0, 0.01, 4, "constant"),
            EcuSpec(0x130, 0.01, 8, "counter"),
            EcuSpec(0x2B0, 0.01, 8, "sensor"),
        ),
        duration=10.0,
        jitter=0.02,
        seed=11,
    )
    return generate_traffic(profile)


class TestInjectAttack:
    def test_flooding_count_and_identifier(self, base_log):
        spec = AttackSpec("flooding", start=4.0, end=6.0, rate=100.0, seed=5)
        merged = inject_attack(base_log, spec)
        injected = [r for r in merged if r.label == 1]
        assert len(injected) == 200
        assert all(r.can_id == 0x000 for r in injected)
        assert all(r.kind == "flooding" for r in injected)

    def test_spoofing_ids_restricted_to_targets(self, base_log):
        spec = AttackSpec(
            "spoofing", start=2.0, end=5.0, rate=40.0, spoof_targets=(0x2B0, 0x130), seed=8
        )
        injected = [r for r in inject_attack(base_log, spec) if r.label == 1]
        assert injected
        assert {r.can_id for r in injected} <= {0x2B0, 0x130}

    def test_fuzzing_matches_seeded_rng_replay(self, base_log):
        spec = AttackSpec("fuzzing", start=3.0, end=4.0, rate=50.0, seed=21)
        injected = [r for r in inject_attack(base_log, spec) if r.label == 1]
        assert len(injected) == 50

        # independent replay of the documented draw order
        rng = np.random.default_rng(21)
        rng.uniform(3.0, 4.0, size=50)
        expected_ids = rng.integers(0, 0x800, size=50)
        assert sorted(r.can_id for r in injected) == sorted(int(i) for i in expected_ids)

    def test_originals_untouched_and_only_attacks_added(self, base_log):
        spec = AttackSpec("fuzzing", start=1.0, end=2.0, rate=30.0, seed=2)
        merged = inject_attack(base_log, spec)
        assert [r for r in merged if r.label == 0] == base_log
        assert all(r.kind == "fuzzing" for r in merged if r.label == 1)

    def test_merged_log_sorted(self, base_log):
        spec = AttackSpec("flooding", start=1.0, end=9.0, rate=25.0, seed=0)
        ts = [r.timestamp for r in inject_attack(base_log, spec)]
        assert ts == sorted(ts)

    def test_determinism(self, base_log):
        spec = AttackSpec("spoofing", 2.0, 4.0, 80.0, spoof_targets=(0x0A0,), seed=13)
        a = [format_record(r) for r in inject_attack(base_log, spec)]
        b = [format_record(r) for r in inject_attack(base_log, spec)]
        assert a == b

    def test_spoofed_payload_differs_in_one_byte(self, base_log):
        spec = AttackSpec("spoofing", 2.0, 8.0, 20.0, spoof_targets=(0x0A0,), seed=4)
        legit = next(r for r in base_log if r.can_id == 0x0A0)
        for rec in inject_attack(base_log, spec):
            if rec.label == 1:
                diffs = sum(a != b for a, b in zip(rec.payload, legit.payload))
                assert diffs == 1  # constant-rule ECU: every legit payload identical

    def test_window_out_of_range(self, base_log):
        last = base_log[-1].timestamp
        with pytest.raises(WindowOutOfRange):
            inject_attack(base_log, AttackSpec("flooding", 1.0, last + 5.0, 10.0))

    def test_spoofing_without_targets(self, base_log):
        with pytest.raises(EmptySpoofTargets):
            inject_attack(base_log, AttackSpec("spoofing", 1.0, 2.0, 10.0))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            AttackSpec("fuzzing", 2.0, 2.0, 10.0)  # empty window
        with pytest.raises(ValueError):
            AttackSpec("fuzzing", 1.0, 2.0, 0.0)  # zero rate


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "field, build",
    [
        ("duration", lambda v: SimProfile(ecus=(), duration=v)),
        ("period", lambda v: EcuSpec(0x130, v)),
        ("start", lambda v: AttackSpec("flooding", v, 2.0, 10.0)),
        ("end", lambda v: AttackSpec("flooding", 1.0, v, 10.0)),
        ("rate", lambda v: AttackSpec("flooding", 1.0, 2.0, v)),
    ],
)
def test_non_finite_spec_value_is_rejected(field, build, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        build(bad)


class TestLogFormat:
    def test_row_layout(self):
        rec = format_record(TrafficRecord(0.123, 0x130, 2, bytes([0xAB, 0xCD]), 0))
        assert rec == "0.123,0130,2,AB CD,0"

import dataclasses
import io
import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from canids import canbus
from canids.canbus import (
    ATTACK_KINDS,
    AttackSpec,
    CanFrame,
    CrcMismatch,
    EcuSpec,
    EmptySchedule,
    EmptySpoofTargets,
    KIND_NAMES,
    LOG_HEADER,
    MAX_CAN_ID,
    MAX_DLC,
    MAX_PAYLOAD_BYTES,
    MAX_RECORDS,
    MalformedFrame,
    SimProfile,
    TooManyRecords,
    TrafficLog,
    UnwritableRow,
    WindowOutOfRange,
    crc15,
    decode_frame,
    encode_frame,
    generate_traffic,
    inject_attack,
    write_log,
)
from canids.experiments import DESK_ECUS, desk_attacks, desk_profile
from canids.ingest import IMPUTE_POLICIES, PAYLOAD_WIDTH, impute_missing, parse_log
from helpers import (
    LogRow,
    clamped_walk_loop,
    garbled_log_lines,
    legacy_format_record,
    parsed_traffic_log,
    perturb_one_byte_per_frame,
    random_payloads_per_frame,
    traced_peak,
    traffic_log,
)


def log_text(log):
    text = io.StringIO()
    write_log(log, text)
    return text.getvalue()


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
        log = generate_traffic(profile)
        assert log.timestamp.tolist() == [k * 0.1 * 1.0 for k in range(1, 11)]
        assert log.can_id.tolist() == [0x130] * 10
        assert log.label.tolist() == [0] * 10

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
        assert log_text(generate_traffic(profile)) == log_text(generate_traffic(profile))

    def test_negative_zero_jitter_is_zero_jitter(self):
        ecus = (EcuSpec(0x130, 0.02, 8, "counter"), EcuSpec(0x2B0, 0.05, 8, "sensor"))
        logs = [generate_traffic(SimProfile(ecus, duration=2.0, jitter=jitter, seed=4)) for jitter in (0.0, -0.0)]
        assert log_text(logs[1]) == log_text(logs[0])

    def test_emission_count_matches_counting_oracle(self):
        ecus = (
            EcuSpec(0x0A0, 0.013, 4, "constant"),
            EcuSpec(0x130, 0.029, 8, "counter"),
            EcuSpec(0x2B0, 0.071, 8, "sensor"),
        )
        profile = SimProfile(ecus=ecus, duration=60.0, jitter=0.05, seed=7)
        expected = sum(math.floor(profile.duration / e.period) for e in ecus)
        assert len(generate_traffic(profile)) == expected

    def test_sorted_by_timestamp(self):
        profile = SimProfile(
            ecus=(EcuSpec(0x100, 0.01), EcuSpec(0x200, 0.017)),
            duration=2.0,
            jitter=0.2,
            seed=3,
        )
        ts = generate_traffic(profile).timestamp.tolist()
        assert ts == sorted(ts)

    @pytest.mark.parametrize(
        "ecus, duration, message",
        [
            ((EcuSpec(0x130, 1e-300),), 1e308, "ECU 130 (period 1e-300) would emit inf records"),
            ((EcuSpec(0x130, 0.5),), MAX_RECORDS, "ECU 130 (period 0.5) would emit 1.342e+08 records"),
            ((EcuSpec(0x130, 1.0), EcuSpec(0x131, 1.0)), MAX_RECORDS, "profile of 2 ECUs would emit"),
        ],
    )
    def test_record_cap_checked_before_allocation(self, ecus, duration, message):
        with pytest.raises(TooManyRecords, match=f"^{re.escape(message)}"):
            generate_traffic(SimProfile(ecus=ecus, duration=duration))

    def test_empty_schedule_rejected(self):
        with pytest.raises(EmptySchedule):
            generate_traffic(SimProfile(ecus=(), duration=1.0))

    def test_profile_emitting_nothing_rejected(self):
        with pytest.raises(ValueError, match="^ECU periods all exceed duration 1.0"):
            SimProfile(ecus=(EcuSpec(0x130, 5.0), EcuSpec(0x131, 1.5)), duration=1.0)
        # one ECU whose period fits the duration is enough; the other emits nothing
        log = generate_traffic(SimProfile(ecus=(EcuSpec(0x130, 5.0), EcuSpec(0x131, 1.0)), duration=1.0))
        assert log.can_id.tolist() == [0x131]

    def test_allocates_little_beyond_its_output(self):
        # the final merge sets the peak: 2.78x the output, the same with the per-step sensor loop
        log, peak = traced_peak(lambda: generate_traffic(desk_profile(23)))
        output = sum(getattr(log, field.name).nbytes for field in dataclasses.fields(TrafficLog))
        assert len(log) == 18_000
        assert peak <= 3.0 * output, (peak, output)


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
        injected = merged.label == 1
        assert injected.sum() == 200
        assert np.all(merged.can_id[injected] == 0x000)
        assert np.all(merged.kind[injected] == KIND_NAMES.index("flooding"))

    def test_spoofing_ids_restricted_to_targets(self, base_log):
        spec = AttackSpec(
            "spoofing", start=2.0, end=5.0, rate=40.0, spoof_targets=(0x2B0, 0x130), seed=8
        )
        merged = inject_attack(base_log, spec)
        ids = set(merged.can_id[merged.label == 1].tolist())
        assert ids
        assert ids <= {0x2B0, 0x130}

    def test_fuzzing_matches_seeded_rng_replay(self, base_log):
        spec = AttackSpec("fuzzing", start=3.0, end=4.0, rate=50.0, seed=21)
        merged = inject_attack(base_log, spec)
        ids = merged.can_id[merged.label == 1]
        assert len(ids) == 50

        # independent replay of the documented draw order
        rng = np.random.default_rng(21)
        rng.uniform(3.0, 4.0, size=50)
        expected_ids = rng.integers(0, 0x800, size=50)
        assert sorted(ids.tolist()) == sorted(expected_ids.tolist())

    def test_originals_untouched_and_only_attacks_added(self, base_log):
        spec = AttackSpec("fuzzing", start=1.0, end=2.0, rate=30.0, seed=2)
        merged = inject_attack(base_log, spec)
        normal = merged.label == 0
        for field in dataclasses.fields(TrafficLog):
            assert np.array_equal(getattr(merged, field.name)[normal], getattr(base_log, field.name)), field.name
        assert np.all(merged.kind[~normal] == KIND_NAMES.index("fuzzing"))

    def test_merged_log_sorted(self, base_log):
        spec = AttackSpec("flooding", start=1.0, end=9.0, rate=25.0, seed=0)
        ts = inject_attack(base_log, spec).timestamp.tolist()
        assert ts == sorted(ts)

    def test_determinism(self, base_log):
        spec = AttackSpec("spoofing", 2.0, 4.0, 80.0, spoof_targets=(0x0A0,), seed=13)
        assert log_text(inject_attack(base_log, spec)) == log_text(inject_attack(base_log, spec))

    def test_spoofed_payload_differs_in_one_byte(self, base_log):
        spec = AttackSpec("spoofing", 2.0, 8.0, 20.0, spoof_targets=(0x0A0,), seed=4)
        legit = base_log.payload[np.flatnonzero(base_log.can_id == 0x0A0)[0]]
        merged = inject_attack(base_log, spec)
        diffs = (merged.payload[merged.label == 1] != legit).sum(axis=1)
        assert diffs.tolist() == [1] * 120  # constant-rule ECU: every legit payload identical

    def test_window_out_of_range(self, base_log):
        last = float(base_log.timestamp[-1])
        with pytest.raises(WindowOutOfRange):
            inject_attack(base_log, AttackSpec("flooding", 1.0, last + 5.0, 10.0))

    def test_spoofing_without_targets(self, base_log):
        good, bad = AttackSpec("flooding", 1.0, 2.0, 10.0), AttackSpec("spoofing", 1.0, 2.0, 10.0)
        with pytest.raises(EmptySpoofTargets) as raised:
            inject_attack(base_log, good, bad, good)
        assert raised.value.spec is bad  # the error names the spec at fault

    def test_record_cap_checked_before_allocation(self, base_log):
        # each count is compared as a float, so none of these allocates a row
        with pytest.raises(TooManyRecords, match="^fuzzing attack \\[1.0, 2.0\\] at rate 1e\\+300"):
            inject_attack(base_log, AttackSpec("fuzzing", 1.0, 2.0, 1e300))
        just_fits = AttackSpec("flooding", 1.0, 2.0, float(MAX_RECORDS))  # not with the log's rows
        with pytest.raises(TooManyRecords, match=f"^log of {len(base_log)} records with the flooding"):
            inject_attack(base_log, just_fits)

    def test_a_parsed_log_extends_as_the_simulated_one(self, base_log):
        spec = AttackSpec("spoofing", 2.0, 4.0, 80.0, spoof_targets=(0x0A0, 0x2B0), seed=13)
        assert log_text(inject_attack(parse_log(log_text(base_log)), spec)) == log_text(inject_attack(base_log, spec))

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_a_log_out_of_time_order_is_sorted_first(self, kind):
        rows = {t: f"{t}.0,0130,8,{' '.join([f'0{t}'] * 8)},0\n" for t in (5, 1, 9, 2)}
        unsorted, in_order = parse_log("".join(rows.values())), parse_log("".join(rows[t] for t in sorted(rows)))
        spec = AttackSpec(kind, 2.0, 9.0, 3.0, spoof_targets=(0x130,), seed=7)
        merged = inject_attack(unsorted, spec)
        assert log_text(merged) == log_text(inject_attack(in_order, spec))
        assert merged.timestamp.tolist() == sorted(merged.timestamp.tolist()) and int(merged.label.sum()) == 21
        assert unsorted.timestamp.tolist() == [5.0, 1.0, 9.0, 2.0]
        if kind == "spoofing":  # each replays the latest legitimate payload, seven of its eight bytes unchanged
            for t, payload in zip(merged.timestamp[merged.label == 1], merged.payload[merged.label == 1]):
                assert np.bincount(payload).argmax() == max(r for r in rows if r <= t)

    @pytest.mark.parametrize("row, fault", [("1.5,0130,12,00 11,0", "DLCs up to 12 and 8-byte"),
                                            ("1.5,0130,8," + " ".join(["AB"] * 9) + ",0", "DLCs up to 8 and 9-byte")])
    def test_log_that_is_not_can_20_frames_is_refused_before_any_draw(self, row, fault, monkeypatch):
        log = parse_log(f"1.0,0130,8,00 11 22 33 44 55 66 77,0\n{row}\n3.0,0130,0,,0\n")
        monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew from the attack seed"))
        for kind in ATTACK_KINDS:
            with pytest.raises(MalformedFrame, match=f"^cannot extend a log of {fault} payload rows as CAN 2.0"):
                inject_attack(log, AttackSpec(kind, 1.5, 2.5, 10.0, spoof_targets=(0x130,)))

    def test_several_specs_in_one_call_equal_one_call_each(self):
        # a parsed log out of time order, flooding on the ECU timestamps 2..11 (existing rows
        # first on ties), and two spoofs that must replay the ECUs' payloads, never an attack's
        rows = [f"{t}.0,{ident},8,{' '.join([f'{t:02X}'] * 8)},0\n" for t in range(21) for ident in ("0130", "00A0")]
        unsorted = parse_log("".join(np.random.default_rng(1).permutation(rows).tolist()))
        specs = (
            AttackSpec("flooding", 2.0, 12.0, 1.0, seed=1),
            AttackSpec("spoofing", 1.0, 19.0, 2.0, spoof_targets=(0x130,), seed=2),
            AttackSpec("fuzzing", 4.0, 9.0, 3.0, seed=3),
            AttackSpec("spoofing", 3.0, 15.0, 1.5, spoof_targets=(0x130, 0x0A0, 0x7FF), seed=4),
        )
        chained = unsorted
        for spec in specs:
            chained = inject_attack(chained, spec)
        merged = inject_attack(unsorted, *specs)
        for field in dataclasses.fields(TrafficLog):
            assert getattr(merged, field.name).tobytes() == getattr(chained, field.name).tobytes(), field.name
        assert np.bincount(merged.kind).tolist() == [42, 10, 15, 36 + 18]
        ties = np.flatnonzero(merged.timestamp == 2.0)
        assert merged.can_id[ties].tolist() == [0x130, 0x0A0, 0x000]

    def test_specs_that_fit_alone_but_not_together_are_refused(self, base_log, monkeypatch):
        monkeypatch.setattr("canids.canbus.MAX_RECORDS", len(base_log) + 120)  # small enough to draw either alone
        first, second = AttackSpec("fuzzing", 1.0, 2.0, 100.0, seed=1), AttackSpec("flooding", 1.0, 2.0, 50.0)
        assert len(inject_attack(base_log, first)) == len(base_log) + 100
        assert len(inject_attack(base_log, second)) == len(base_log) + 50
        message = f"^log of {len(base_log) + 100} records with the flooding attack \\[1.0, 2.0\\] at rate 50.0 would emit"
        with pytest.raises(TooManyRecords, match=message) as raised:
            inject_attack(base_log, first, second)
        assert raised.value.spec is second

    def test_no_spec_returns_a_log_in_time_order_as_it_is(self, base_log):
        assert inject_attack(base_log) is base_log
        unsorted = parse_log("5.0,0130,0,,0\n1.0,0130,0,,0\n")
        assert inject_attack(unsorted).timestamp.tolist() == [1.0, 5.0]

    def test_allocates_little_beyond_its_output(self):
        # the merge gathers one column at a time, and no attack copies the log
        log, specs = generate_traffic(desk_profile(23)), desk_attacks(23)
        merged, peak = traced_peak(lambda: inject_attack(log, *specs))
        output = sum(getattr(merged, field.name).nbytes for field in dataclasses.fields(TrafficLog))
        assert len(merged) == 20_000
        assert peak <= 1.75 * output, (peak, output)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            AttackSpec("fuzzing", 2.0, 2.0, 10.0)  # empty window
        with pytest.raises(ValueError):
            AttackSpec("fuzzing", 1.0, 2.0, 0.0)  # zero rate


# a parsed log's rows at ingest's bounds: 5-8 digit identifiers, DLCs apart from the payload length,
# widths up to 64, and timestamps negative, in exponent form or subnormal
PARSED_ROWS = st.builds(
    LogRow,
    st.one_of(st.floats(), st.sampled_from([1e-05, 1e16, -2.5e-07, 5e-324, -0.0, 2.2250738585072014e-308])),
    st.one_of(st.integers(0, 0xFFFF), st.integers(0x10000, MAX_CAN_ID)),
    st.integers(0, MAX_PAYLOAD_BYTES),
    st.binary(max_size=MAX_PAYLOAD_BYTES),
    st.integers(0, 1),
)


class TestLogFormat:
    def test_row_layout(self):
        log = traffic_log([LogRow(0.123, 0x130, 2, bytes([0xAB, 0xCD]), 0)])
        assert log_text(log) == LOG_HEADER + "\n0.123,0130,2,AB CD,0\n"

    @given(st.lists(PARSED_ROWS, min_size=1, max_size=30), st.integers(0, MAX_PAYLOAD_BYTES),
           st.sampled_from([1, 3, canbus._BLOCK_ROWS]))
    @example([LogRow(-1e16, MAX_CAN_ID, MAX_PAYLOAD_BYTES, b"", 1), LogRow(5e-324, 0x10000, 0, b"\0" * 64, 0)],
             0, 1)
    def test_rows_at_the_parsed_log_bounds_match_the_f_string_reference(self, records, extra, block_rows):
        width = min(MAX_PAYLOAD_BYTES, max(PAYLOAD_WIDTH, *(len(r.payload) for r in records)) + extra)
        text = io.StringIO()
        with patch.object(canbus, "_BLOCK_ROWS", block_rows):
            write_log(parsed_traffic_log(records, width), text, header=False)
        assert text.getvalue() == "".join(legacy_format_record(r) + "\n" for r in records)

    @pytest.mark.parametrize(
        "column, value, name",
        [
            ("can_id", MAX_CAN_ID + 1, "identifier"),
            ("can_id", -1, "identifier"),
            ("dlc", MAX_PAYLOAD_BYTES + 1, "DLC"),
            ("dlc", -1, "DLC"),
            ("payload_len", MAX_DLC + 1, "payload length"),
            ("payload_len", -1, "payload length"),
            ("label", 2, "label"),
        ],
    )
    def test_a_value_outside_the_bounds_is_refused_before_any_write(self, column, value, name):
        log = traffic_log([LogRow(0.5, 0x130, 2, b"\x01\x02", 0)] * 3)
        getattr(log, column)[1] = value
        text = io.StringIO()
        with pytest.raises(UnwritableRow, match=f"^row 1: {name} {value} outside \\[0, "):
            write_log(log, text)
        assert text.getvalue() == ""

    @pytest.mark.parametrize(
        "text, row, field",
        [
            (",0130,2,AB CD,0\n0.5,0130,2,AB CD,?\n", 0, "Timestamp"),
            ("0.25,0130,2,AB CD,0\n0.5,0130,2,AB CD,?\n", 1, "Label"),
            ("0.25,0130,2,AB CD,0\n0.5,0130,2,AB ZZ,1\n", 1, "Data_Field"),
            ("0.25,0130,2,AB CD,0\n0.5,0130,,AB CD,1\n", 1, "DLC"),
        ],
    )
    def test_a_missing_cell_is_refused_before_any_write(self, text, row, field):
        # written as the 0 its column holds, a blank timestamp read back as 0.0 and an unknown label as normal
        log = parse_log(text)
        out = io.StringIO()
        with pytest.raises(UnwritableRow, match=f"^row {row}: {field} missing$"):
            write_log(log, out)
        assert out.getvalue() == ""

    @pytest.mark.parametrize("policy", IMPUTE_POLICIES)
    def test_a_cleaned_log_writes_what_it_reads_back(self, policy):
        log = impute_missing(parse_log("\n".join(garbled_log_lines(seed=4))), policy)
        text = log_text(log)
        parsed = parse_log(text)
        assert not parsed.missing.any() and log_text(parsed) == text
        for name in ("timestamp", "can_id", "dlc", "label"):
            assert np.array_equal(getattr(parsed, name), getattr(log, name)), name

    def test_holds_one_block_at_a_time(self):
        # 9.9 MiB at 2 and at 4 blocks of rows (the per-row f-strings took 12.4 MiB at both)
        class Discard:
            def write(self, text):
                pass

        log = generate_traffic(SimProfile(DESK_ECUS, 1000.0, jitter=0.05, seed=23))
        peaks = []
        for blocks in (2, 4):
            part = log.take(slice(0, blocks * canbus._BLOCK_ROWS))
            _, peak = traced_peak(lambda: write_log(part, Discard()))
            peaks.append(peak)
        assert peaks[1] <= 1.01 * peaks[0], peaks
        assert peaks[0] <= 11 * 2**20, peaks


class TestArrayDraws:
    """The single draws and the clamped walk of ``canbus`` against per-frame references in ``helpers``.

    Each equivalence rests on how numpy's ``Generator.integers`` takes PCG64 output (one 32-bit half
    a value for ranges below 2**32, the spare half kept across calls, nothing for a range of one), so a
    numpy release that changes it fails here by name, not only through a golden digest.
    """

    @given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, MAX_DLC), max_size=40), st.integers(0, 3))
    @example(0, [0, 0, 3, 0, 1, 7, 8, 5, 0], 1)
    def test_one_fuzzing_draw_equals_a_draw_per_frame(self, seed, dlcs, odd):
        dlcs = np.array(dlcs, dtype=np.int64)
        one, per_frame = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (one, per_frame):
            rng.integers(0, 256, size=odd)  # an odd count leaves half of a 64-bit output spare
        got = canbus._random_payloads(dlcs, one)
        assert got.tobytes() == random_payloads_per_frame(dlcs, per_frame).tobytes()
        assert one.bit_generator.state == per_frame.bit_generator.state

    @given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, MAX_DLC), max_size=40), st.integers(0, 3))
    @example(0, [1, 1, 0, 8, 1, 3], 1)
    def test_one_spoofing_draw_equals_a_scalar_pair_per_frame(self, seed, dlcs, odd):
        dlcs = np.array(dlcs, dtype=np.int64)
        payload = np.random.default_rng(~seed % 2**64).integers(0, 256, size=(len(dlcs), MAX_DLC), dtype=np.uint8)
        one, per_frame = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (one, per_frame):
            rng.integers(0, 256, size=odd)
        got = payload.copy()
        canbus._perturb_one_byte(got, dlcs, one)
        assert got.tobytes() == perturb_one_byte_per_frame(payload, dlcs, per_frame).tobytes()
        assert one.bit_generator.state == per_frame.bit_generator.state

    @given(st.lists(st.integers(-40_000, 40_000), max_size=200), st.sampled_from([0, 1, 255, 0xFFFF]), st.data())
    @example([], 0xFFFF, None)
    @example([7], 0xFFFF, None)
    @example([40_000] * 3 + [-40_000] * 4 + [256, -300, 40_000], 0xFFFF, None)  # both bounds, then the floor again
    def test_clamped_walk_equals_the_step_loop(self, steps, top, data):
        start = top // 2 if data is None else data.draw(st.integers(0, top))
        steps = np.array(steps, dtype=np.int64)
        want = clamped_walk_loop(steps, start, top)
        for chunk in (1, 2, 5, canbus._WALK_CHUNK):
            with patch.object(canbus, "_WALK_CHUNK", chunk):
                got = canbus._clamped_walk(steps, start, top)
            assert got.dtype == np.int64 and got.tobytes() == want.tobytes(), chunk

    def test_clamped_walk_over_many_crossings(self):
        # steps of +-40,000 cross a 16-bit range every few steps; each segment restarts at the crossing
        steps = np.random.default_rng(5).integers(-40_000, 40_001, size=100_000)
        want = clamped_walk_loop(steps, 0x8000, 0xFFFF)
        assert (want == 0).sum() > 10_000 and (want == 0xFFFF).sum() > 10_000
        assert canbus._clamped_walk(steps, 0x8000, 0xFFFF).tobytes() == want.tobytes()

"""Logical CAN bus model: frames, CRC-15 codec, and a seeded traffic simulator.

Frames are handled at the data-link logical level: no bit stuffing, no
arbitration timing, standard 11-bit identifiers only. The simulator emits
periodic per-ECU traffic and can inject three attack types (flooding,
fuzzing, spoofing) as labeled records.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

# CAN generator x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1 (high bit implicit).
CRC15_POLY = 0x4599
CRC15_MASK = 0x7FFF

MAX_STD_ID = 0x7FF
MAX_DLC = 8
FLOODING_ID = 0x000

ATTACK_KINDS = ("flooding", "fuzzing", "spoofing")
PAYLOAD_RULES = ("constant", "counter", "sensor")

LOG_HEADER = "Timestamp,CAN_ID,DLC,Data_Field,Label"

_by_time = operator.attrgetter("timestamp")


class MalformedFrame(ValueError):
    """Bit sequence does not parse as a standard data frame."""


class CrcMismatch(ValueError):
    """Recomputed CRC differs from the embedded CRC field."""


class EmptySchedule(ValueError):
    """Simulation profile has no ECUs."""


class WindowOutOfRange(ValueError):
    """Attack window lies outside the log's time span."""


class EmptySpoofTargets(ValueError):
    """Spoofing attack configured without target identifiers."""


def crc15(bits: Sequence[int]) -> int:
    """Polynomial remainder of a bit sequence (MSB first) under generator 0x4599.

    The sequence is read as a polynomial over GF(2) and reduced modulo the
    CAN generator, starting from a zero register. Input must be non-empty.
    """
    if len(bits) == 0:
        raise ValueError("crc15 requires a non-empty bit sequence")
    reg = 0
    for b in bits:
        carry = reg & 0x4000
        reg = ((reg << 1) | (b & 1)) & CRC15_MASK
        if carry:
            reg ^= CRC15_POLY
    return reg


@dataclass(frozen=True)
class CanFrame:
    """One logical CAN data frame (standard format, 11-bit identifier)."""

    identifier: int
    payload: bytes = b""
    rtr: int = 0
    ide: int = 0
    reserved: int = 0

    def __post_init__(self):
        if not 0 <= self.identifier <= MAX_STD_ID:
            raise ValueError(f"identifier {self.identifier:#x} outside 11-bit range")
        if len(self.payload) > MAX_DLC:
            raise ValueError(f"payload of {len(self.payload)} bytes exceeds {MAX_DLC}")
        if self.ide != 0:
            raise ValueError("extended (29-bit) identifiers are not supported")
        if self.rtr not in (0, 1) or self.reserved not in (0, 1):
            raise ValueError("rtr and reserved must be single bits")
        object.__setattr__(self, "payload", bytes(self.payload))

    @property
    def dlc(self) -> int:
        return len(self.payload)

    @property
    def crc(self) -> int:
        """CRC-15 over the header and data bits, as embedded by the encoder."""
        return crc15(_header_and_data_bits(self))


def _int_bits(value: int, width: int) -> list[int]:
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def _bits_int(bits: Iterable[int]) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def _header_and_data_bits(frame: CanFrame) -> list[int]:
    bits = [0]  # start-of-frame, dominant
    bits += _int_bits(frame.identifier, 11)
    bits += [frame.rtr, frame.ide, frame.reserved]
    bits += _int_bits(frame.dlc, 4)
    for byte in frame.payload:
        bits += _int_bits(byte, 8)
    return bits


def encode_frame(frame: CanFrame) -> np.ndarray:
    """Serialize a frame to its 44 + 8*dlc bit sequence (uint8 array of 0/1).

    Layout: SOF | id(11) | RTR | IDE | reserved | DLC(4) | data | CRC(15) |
    CRC delimiter | ACK slot | ACK delimiter | EOF(7), with the ACK slot left
    recessive as transmitted. The CRC covers SOF through the last data bit.
    """
    head = _header_and_data_bits(frame)
    tail = _int_bits(crc15(head), 15) + [1, 1, 1] + [1] * 7
    return np.array(head + tail, dtype=np.uint8)


def decode_frame(bits: Sequence[int]) -> CanFrame:
    """Parse and validate an encoded frame; inverse of :func:`encode_frame`.

    Raises MalformedFrame on structural violations (length, SOF, DLC range,
    non-recessive delimiter/EOF bits) and CrcMismatch when the embedded CRC
    disagrees with the recomputed one.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1 or len(bits) < 44:
        raise MalformedFrame(f"need at least 44 bits, got {bits.shape}")
    if np.any(bits > 1):
        raise MalformedFrame("bit sequence contains values other than 0/1")
    if bits[0] != 0:
        raise MalformedFrame("start-of-frame bit must be dominant")
    ide = int(bits[13])
    if ide != 0:
        raise MalformedFrame("extended identifier flag set; only standard frames supported")
    dlc = _bits_int(bits[15:19])
    if dlc > MAX_DLC:
        raise MalformedFrame(f"DLC {dlc} exceeds {MAX_DLC}")
    expected = 44 + 8 * dlc
    if len(bits) != expected:
        raise MalformedFrame(f"expected {expected} bits for DLC {dlc}, got {len(bits)}")
    data_end = 19 + 8 * dlc
    trailer = bits[data_end + 15 :]
    if not np.all(trailer == 1):
        raise MalformedFrame("delimiter/ACK/EOF bits must be recessive")
    embedded = _bits_int(bits[data_end : data_end + 15])
    computed = crc15(bits[:data_end].tolist())
    if embedded != computed:
        raise CrcMismatch(f"embedded CRC {embedded:#06x} != computed {computed:#06x}")
    identifier = _bits_int(bits[1:12])
    payload = bytes(_bits_int(bits[19 + 8 * i : 27 + 8 * i]) for i in range(dlc))
    return CanFrame(
        identifier=identifier,
        payload=payload,
        rtr=int(bits[12]),
        ide=ide,
        reserved=int(bits[14]),
    )


_PLAIN_TYPES = (("timestamp", float), ("can_id", int), ("dlc", int), ("label", int), ("payload", bytes))


@dataclass(frozen=True)
class TrafficRecord:
    """One timestamped, labeled log row. ``kind`` tags injected attack records."""

    timestamp: float
    can_id: int
    dlc: int
    payload: bytes
    label: int
    kind: str = ""

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        # numpy scalars sneak in from seeded draws; pin plain types so the
        # CSV writer emits portable literals (fields already plain are kept)
        for name, plain in _PLAIN_TYPES:
            value = getattr(self, name)
            if type(value) is not plain:
                object.__setattr__(self, name, plain(value))


@dataclass(frozen=True)
class EcuSpec:
    """One periodic transmitter: identifier, period, and a payload rule.

    Rules: ``constant`` repeats a fixed per-ECU byte pattern; ``counter``
    cycles byte 0 through 0..255; ``sensor`` carries a seeded 16-bit random
    walk in bytes 0-1. Non-varying positions hold the constant pattern.
    """

    identifier: int
    period: float
    dlc: int = 8
    payload_rule: str = "constant"

    def __post_init__(self):
        if not 0 <= self.identifier <= MAX_STD_ID:
            raise ValueError(f"identifier {self.identifier:#x} outside 11-bit range")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0 <= self.dlc <= MAX_DLC:
            raise ValueError(f"dlc must be 0..{MAX_DLC}")
        if self.payload_rule not in PAYLOAD_RULES:
            raise ValueError(f"unknown payload rule {self.payload_rule!r}")
        if self.payload_rule == "counter" and self.dlc < 1:
            raise ValueError("counter rule needs dlc >= 1")
        if self.payload_rule == "sensor" and self.dlc < 2:
            raise ValueError("sensor rule needs dlc >= 2")

    def base_pattern(self) -> bytes:
        return bytes((self.identifier + 0x11 * i) & 0xFF for i in range(self.dlc))


@dataclass(frozen=True)
class SimProfile:
    """Normal-traffic model: a set of periodic ECUs over a fixed duration."""

    ecus: tuple[EcuSpec, ...]
    duration: float
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ecus", tuple(self.ecus))
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.jitter < 0.5:
            raise ValueError("jitter must lie in [0, 0.5)")
        ids = [e.identifier for e in self.ecus]
        if len(set(ids)) != len(ids):
            raise ValueError("ECU identifiers must be distinct")


@dataclass(frozen=True)
class AttackSpec:
    """One injection window: kind, time span, rate, and (spoofing) targets."""

    kind: str
    start: float
    end: float
    rate: float
    spoof_targets: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "spoof_targets", tuple(self.spoof_targets))
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not self.start < self.end:
            raise ValueError("attack window requires start < end")
        if self.rate <= 0:
            raise ValueError("attack rate must be positive")
        for t in self.spoof_targets:
            if not 0 <= t <= MAX_STD_ID:
                raise ValueError(f"spoof target {t:#x} outside 11-bit range")


def _ecu_payloads(ecu: EcuSpec, count: int, rng: np.random.Generator) -> list[bytes]:
    base = ecu.base_pattern()
    if ecu.payload_rule == "constant":
        return [base] * count
    if ecu.payload_rule == "counter":
        return [bytes([k % 256]) + base[1:] for k in range(1, count + 1)]
    # sensor: 16-bit random walk, clipped to the representable range
    steps = rng.integers(-256, 257, size=count)
    out, value = [], 0x8000
    for step in steps:
        value = int(min(max(value + step, 0), 0xFFFF))
        out.append(bytes([value >> 8, value & 0xFF]) + base[2:])
    return out


def generate_traffic(profile: SimProfile) -> list[TrafficRecord]:
    """Emit one normal-labeled record per scheduled ECU transmission.

    Emission k of an ECU with period p lands at ``k*p*(1 + u)`` with u drawn
    uniformly from [-jitter, +jitter]; each ECU emits floor(duration/period)
    records. Output is sorted by timestamp and fully determined by the seed.
    """
    if not profile.ecus:
        raise EmptySchedule("profile contains no ECUs")
    rng = np.random.default_rng(profile.seed)
    records = []
    for ecu in profile.ecus:
        n = math.floor(profile.duration / ecu.period)
        jitter = rng.uniform(-profile.jitter, profile.jitter, size=n)
        payloads = _ecu_payloads(ecu, n, rng)
        for k in range(1, n + 1):
            t = k * ecu.period * (1.0 + jitter[k - 1])
            records.append(
                TrafficRecord(t, ecu.identifier, ecu.dlc, payloads[k - 1], label=0)
            )
    records.sort(key=_by_time)
    return records


def _inject_flooding(spec: AttackSpec, n: int) -> list[TrafficRecord]:
    payload = bytes(MAX_DLC)
    return [
        TrafficRecord(spec.start + k / spec.rate, FLOODING_ID, MAX_DLC, payload, 1, "flooding")
        for k in range(n)
    ]


def _inject_fuzzing(spec: AttackSpec, n: int, rng: np.random.Generator) -> list[TrafficRecord]:
    times = rng.uniform(spec.start, spec.end, size=n)
    ids = rng.integers(0, MAX_STD_ID + 1, size=n)
    dlcs = rng.integers(0, MAX_DLC + 1, size=n)
    out = []
    for t, can_id, dlc in zip(times, ids, dlcs):
        payload = bytes(int(b) for b in rng.integers(0, 256, size=int(dlc)))
        out.append(TrafficRecord(float(t), int(can_id), int(dlc), payload, 1, "fuzzing"))
    return out


def _inject_spoofing(
    spec: AttackSpec, n: int, rng: np.random.Generator, log: list[TrafficRecord]
) -> list[TrafficRecord]:
    if not spec.spoof_targets:
        raise EmptySpoofTargets("spoofing attack requires at least one target identifier")
    history: dict[int, tuple[list[float], list[bytes]]] = {t: ([], []) for t in spec.spoof_targets}
    for rec in log:
        if rec.label == 0 and rec.can_id in history:
            times, payloads = history[rec.can_id]
            times.append(rec.timestamp)
            payloads.append(rec.payload)
    times = rng.uniform(spec.start, spec.end, size=n)
    picks = rng.integers(0, len(spec.spoof_targets), size=n)
    out = []
    for t, pick in zip(times, picks):
        target = spec.spoof_targets[int(pick)]
        seen_at, payloads = history[target]
        if payloads:
            # most recent legitimate payload at time t, else the earliest one
            j = max(bisect.bisect_right(seen_at, float(t)) - 1, 0)
            payload = bytearray(payloads[j])
        else:
            payload = bytearray(MAX_DLC)
        if payload:
            pos = int(rng.integers(0, len(payload)))
            delta = int(rng.integers(1, 256))
            payload[pos] = (payload[pos] + delta) % 256
        out.append(TrafficRecord(float(t), target, len(payload), bytes(payload), 1, "spoofing"))
    return out


def inject_attack(log: list[TrafficRecord], spec: AttackSpec) -> list[TrafficRecord]:
    """Merge attack-labeled records into a sorted log; originals are untouched.

    Flooding emits identifier 0x000 at fixed spacing; fuzzing draws uniform
    identifiers, DLCs, and payload bytes; spoofing replays each target's most
    recent legitimate payload with one byte perturbed. The injected count is
    floor(rate * (end - start)) and all randomness comes from the attack
    seed, with a fixed draw order (timestamps, then identifiers/targets,
    then per-frame bytes) so a seeded replay reproduces every field.
    """
    if not log:
        raise WindowOutOfRange("cannot inject into an empty log")
    if spec.start < log[0].timestamp or spec.end > log[-1].timestamp:
        raise WindowOutOfRange(
            f"window [{spec.start}, {spec.end}] outside log span "
            f"[{log[0].timestamp}, {log[-1].timestamp}]"
        )
    rng = np.random.default_rng(spec.seed)
    n = math.floor(spec.rate * (spec.end - spec.start))
    if spec.kind == "flooding":
        injected = _inject_flooding(spec, n)
    elif spec.kind == "fuzzing":
        injected = _inject_fuzzing(spec, n, rng)
    else:
        injected = _inject_spoofing(spec, n, rng, log)
    merged = list(log) + injected
    merged.sort(key=_by_time)
    return merged


def format_record(record: TrafficRecord) -> str:
    """One CSV row: Timestamp,CAN_ID,DLC,Data_Field,Label (uppercase hex)."""
    data = record.payload.hex(" ").upper()
    return f"{record.timestamp!r},{record.can_id:04X},{record.dlc},{data},{record.label}"


def write_log(records: Iterable[TrafficRecord], stream: IO[str], header: bool = True) -> None:
    if header:
        stream.write(LOG_HEADER + "\n")
    for rec in records:
        stream.write(format_record(rec) + "\n")


def write_kinds(records: Iterable[TrafficRecord], stream: IO[str]) -> None:
    """Sidecar with one attack-kind name per data row ("normal" for label 0)."""
    for rec in records:
        stream.write((rec.kind or "normal") + "\n")

"""The columnar simulator against the per-record reference copies in ``helpers``.

``generate_traffic`` and ``inject_attack`` build a ``TrafficLog`` of numpy
columns, one ``inject_attack`` call merging every attack;
``helpers.legacy_generate_traffic``/``legacy_inject_attack`` build one
``helpers.LogRow`` per frame and sort Python lists, one call per attack.
For the same profile and attack sequence both must hold the same columns
(dtype and bytes), write the same log and ``.kinds`` text, raise the same
first error type, and tabulate to the same ``RecordTable`` columns.
"""

import dataclasses
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from canids import canbus
from canids.canbus import (
    ATTACK_KINDS,
    AttackSpec,
    EcuSpec,
    SimProfile,
    generate_traffic,
    inject_attack,
)
from canids.ingest import RecordTable
from helpers import (
    LogRow,
    legacy_format_record,
    legacy_from_traffic,
    legacy_generate_traffic,
    legacy_inject_attack,
    legacy_log_text,
    traffic_log,
)

# equal periods and jitter 0 give equal timestamps across ECUs and with flooding
PERIODS = (0.01, 0.02, 0.025, 0.05, 0.1)
RULE_DLCS = {"constant": (0, 8), "counter": (1, 8), "sensor": (2, 8)}
UNSEEN_ID = 0x7FF  # never an ECU below: a spoof target with no history


@st.composite
def ecu_specs(draw, identifier):
    rule = draw(st.sampled_from(sorted(RULE_DLCS)))
    low, high = RULE_DLCS[rule]
    dlc = draw(st.one_of(st.just(low), st.integers(low, high)))  # often DLC 0 for a spoof to replay
    return EcuSpec(identifier, draw(st.sampled_from(PERIODS)), dlc, rule)


@st.composite
def scenarios(draw):
    ids = draw(st.lists(st.integers(0, 0x7FE), min_size=1, max_size=4, unique=True))
    profile = SimProfile(
        ecus=tuple(draw(ecu_specs(i)) for i in ids),
        duration=draw(st.sampled_from((0.5, 1.0, 2.0, 3.3))),
        jitter=draw(st.sampled_from((0.0, 0.0, 0.05, 0.3))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    attacks = []
    for _ in range(draw(st.integers(0, 3))):
        lo, hi = sorted(draw(st.lists(st.integers(0, 22), min_size=2, max_size=2, unique=True)))
        scale = profile.duration / 20  # windows reaching past 20 fall outside the log
        targets = draw(st.lists(st.sampled_from(ids + [UNSEEN_ID]), max_size=3))
        attacks.append(
            AttackSpec(
                kind=draw(st.sampled_from(ATTACK_KINDS)),
                start=lo * scale,
                end=hi * scale,
                rate=draw(st.sampled_from((5.0, 20.0, 100.0))),
                spoof_targets=tuple(targets),
                seed=draw(st.integers(0, 2**32 - 1)),
            )
        )
    return profile, attacks


def _simulate(generate, inject_all, profile, attacks):
    """The final log, or the type of the first error raised."""
    try:
        return inject_all(generate(profile), attacks)
    except ValueError as exc:
        return type(exc)


def _legacy_inject_all(log, attacks):
    for spec in attacks:
        log = legacy_inject_attack(log, spec)
    return log


def assert_same_columns(got, want):
    """Every column of two dataclasses of arrays has equal dtype, shape and bytes."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and a.shape == b.shape, field.name
        assert a.tobytes() == b.tobytes(), field.name


# flooding frames on timestamps the ECUs already use, a spoof of a DLC-0 ECU and of an unseen ID
TIES = (
    SimProfile((EcuSpec(0x130, 0.1, 8, "counter"), EcuSpec(0x0A0, 0.05, 0, "constant")), 2.0, 0.0, 1),
    [
        AttackSpec("flooding", 0.5, 1.5, 20.0, seed=2),
        AttackSpec("spoofing", 0.2, 1.8, 20.0, spoof_targets=(0x0A0, UNSEEN_ID), seed=3),
        AttackSpec("fuzzing", 1.0, 1.9, 20.0, seed=4),
    ],
)


@settings(deadline=None)
@given(scenarios())
@example(TIES)
def test_columnar_simulator_matches_record_oracle(scenario):
    profile, attacks = scenario
    log = _simulate(generate_traffic, lambda log, attacks: inject_attack(log, *attacks), profile, attacks)
    records = _simulate(legacy_generate_traffic, _legacy_inject_all, profile, attacks)
    if isinstance(records, type):
        assert log is records
        return
    assert_same_columns(log, traffic_log(records))
    text, kinds = io.StringIO(), io.StringIO()
    canbus.write_log(log, text)
    canbus.write_kinds(log, kinds)
    assert (text.getvalue(), kinds.getvalue()) == legacy_log_text(records)
    assert_same_columns(RecordTable.from_traffic(log), legacy_from_traffic(records))


frames = st.builds(
    lambda t, can_id, payload, label, kind: LogRow(t, can_id, len(payload), payload, label, kind),
    st.floats(0.0, 1e6, allow_nan=False),
    st.integers(0, 0x7FF),
    st.binary(max_size=8),
    st.integers(0, 1),
    st.sampled_from(canbus.KIND_NAMES),
)


@given(st.lists(frames, min_size=1, max_size=20))
@example([LogRow(0.5, 0x130, 8, b"\xff" * 8, 1, "fuzzing")])  # value 2**64 - 1, above 2**53
def test_from_traffic_matches_record_oracle(records):
    log = traffic_log(records)
    assert_same_columns(RecordTable.from_traffic(log), legacy_from_traffic(records))
    text = io.StringIO()
    canbus.write_log(log, text, header=False)
    assert text.getvalue() == "".join(legacy_format_record(r) + "\n" for r in records)

"""Mutated profile files and attack specs fail only with ``MalformedSpec``, or parse to finite values.

The parsers are called directly. A profile that still parses is simulated
when it would emit at most ``SIMULATED_ROWS`` rows, so a profile that parses
but cannot be simulated fails too; a huge ``duration=`` never starts one.
"""

import math
import re

import pytest
from hypothesis import example, given, settings

from canids.canbus import AttackSpec, EmptySchedule, SimProfile, generate_traffic
from canids.cli import MalformedSpec, parse_attack, parse_profile
from helpers import delete, flip, insert, mutate, mutation_steps, truncate

PROFILE = "# two transmitters\nduration=10\njitter=0.02\nseed=5\necu=0A0,0.02,4,constant\necu=2B0,0.02,8,sensor\n"
ATTACK = "spoofing:10:12:100:2B0,130"

GARBAGE = [b"", b" ", b"=", b",", b":", b"#", b"\n", b"\r", b"\x00", b"\xff", b"\xc3", b"nan", b"inf",
           b"-inf", b"-1", b"-0", b"0", b"1e999", b"0x10", b"ZZ", b"ecu=", b"duration=", b"seed=", b"9" * 5000]


def _insert(data: bytes, at: int, token: int) -> bytes:
    return insert(GARBAGE, data, at, token)


def _replace_field(data: bytes, at: int, token: int) -> bytes:
    """Swap one field between separators for a garbage token, e.g. ``rate`` for ``inf``."""
    parts = re.split(rb"([=,:\n])", data)
    parts[2 * (at % ((len(parts) + 1) // 2))] = GARBAGE[token % len(GARBAGE)]
    return b"".join(parts)


SIMULATED_ROWS = 2000

mutations = mutation_steps([truncate, flip, _insert, delete, _replace_field])


@pytest.fixture(scope="module")
def profile_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "profile.cfg"


@settings(max_examples=1000)  # a profile has more fields than a spec to hit
@given(steps=mutations)
@example(steps=[(_replace_field, 4, GARBAGE.index(b"-0"))])  # jitter=-0 lies in [0, 0.5) and once failed to simulate
def test_mutated_profile(profile_file, steps):
    profile_file.write_bytes(mutate(PROFILE.encode(), steps))
    try:
        profile = parse_profile(str(profile_file))
    except MalformedSpec as exc:
        assert str(exc).startswith(str(profile_file))
    else:
        assert isinstance(profile, SimProfile)
        assert all(math.isfinite(v) for v in [profile.duration, *(e.period for e in profile.ecus)])
        if sum(profile.duration / e.period for e in profile.ecus) <= SIMULATED_ROWS:  # at least the rows emitted
            try:
                log = generate_traffic(profile)
            except EmptySchedule:
                assert not profile.ecus
            else:
                assert 0 < len(log) <= SIMULATED_ROWS


@settings(max_examples=300)
@given(steps=mutations)
def test_mutated_attack_spec(steps):
    text = mutate(ATTACK.encode(), steps).decode("latin-1")
    try:
        spec = parse_attack(text, seed=0)
    except MalformedSpec as exc:
        assert str(exc).startswith(f"attack spec {text!r}: ")
    else:
        assert isinstance(spec, AttackSpec)
        assert all(math.isfinite(v) for v in (spec.start, spec.end, spec.rate))

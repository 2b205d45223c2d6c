"""Mutated profile files and attack specs fail only with ``MalformedSpec``, or parse to finite values.

The parsers are called directly, so a mutation that still parses (a huge
``duration=``, say) never starts a simulation.
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids.canbus import AttackSpec, SimProfile
from canids.cli import MalformedSpec, parse_attack, parse_profile

PROFILE = "# two transmitters\nduration=10\njitter=0.02\nseed=5\necu=0A0,0.02,4,constant\necu=2B0,0.02,8,sensor\n"
ATTACK = "spoofing:10:12:100:2B0,130"

GARBAGE = [b"", b" ", b"=", b",", b":", b"#", b"\n", b"\r", b"\x00", b"\xff", b"\xc3", b"nan", b"inf",
           b"-inf", b"-1", b"0", b"1e999", b"0x10", b"ZZ", b"ecu=", b"duration=", b"seed=", b"9" * 5000]


def _truncate(data: bytes, at: int, _: int) -> bytes:
    return data[: at % (len(data) + 1)]


def _flip(data: bytes, at: int, bit: int) -> bytes:
    if not data:
        return data
    at %= len(data)
    return data[:at] + bytes([data[at] ^ (1 << (bit % 8))]) + data[at + 1 :]


def _insert(data: bytes, at: int, token: int) -> bytes:
    at %= len(data) + 1
    return data[:at] + GARBAGE[token % len(GARBAGE)] + data[at:]


def _delete(data: bytes, at: int, span: int) -> bytes:
    at %= len(data) + 1
    return data[:at] + data[at + 1 + span % 12 :]


def _replace_field(data: bytes, at: int, token: int) -> bytes:
    """Swap one field between separators for a garbage token, e.g. ``rate`` for ``inf``."""
    parts = re.split(rb"([=,:\n])", data)
    parts[2 * (at % ((len(parts) + 1) // 2))] = GARBAGE[token % len(GARBAGE)]
    return b"".join(parts)


mutations = st.lists(
    st.tuples(
        st.sampled_from([_truncate, _flip, _insert, _delete, _replace_field]),
        st.integers(0, 10**6),
        st.integers(0, 10**3),
    ),
    min_size=1,
    max_size=4,
)


def mutate(data: bytes, steps) -> bytes:
    for op, at, arg in steps:
        data = op(data, at, arg)
    return data


@pytest.fixture(scope="module")
def profile_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "profile.cfg"


@settings(max_examples=1000)  # a profile has more fields than a spec to hit
@given(steps=mutations)
def test_mutated_profile(profile_file, steps):
    profile_file.write_bytes(mutate(PROFILE.encode(), steps))
    try:
        profile = parse_profile(str(profile_file))
    except MalformedSpec as exc:
        assert str(exc).startswith(str(profile_file))
    else:
        assert isinstance(profile, SimProfile)
        assert all(math.isfinite(v) for v in [profile.duration, *(e.period for e in profile.ecus)])


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

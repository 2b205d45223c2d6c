"""The README gives each named constant the value it has in the code."""

import re
from pathlib import Path

import pytest

from canids import baselines, canbus, experiments, nncore, plenet

README = Path(__file__).resolve().parent.parent / "README.md"

CONSTANTS = {
    "MAX_RECORDS": canbus.MAX_RECORDS,
    "PROBE_BLOCK": nncore.PROBE_BLOCK,
    "JITTER_SCALE": nncore.JITTER_SCALE,
    "VALIDATION_BATCH": plenet.VALIDATION_BATCH,
    "PREDICT_BLOCK": plenet.PREDICT_BLOCK,
    "KNN_BLOCK_BYTES": baselines.KNN_BLOCK_BYTES,
    "SUBSET_TRAIN": experiments.SUBSET_TRAIN,
    "SUBSET_VAL": experiments.SUBSET_VAL,
}

VALUE = r"(\d+(?:,\d{3})*(?:\.\d+)?(?:\^\d+)?(?: MiB)?)"  # 2^26, 1,024, 0.3 or 4 MiB


def stated_values(text: str, name: str) -> list[str]:
    """The values ``text`` writes beside `name` or `module.name`: "`name` (v)", "`name`, v", "v `name`" or
    "v (`name`)"."""
    quoted = rf"`(?:\w+\.)?{name}`"
    return re.findall(rf"{quoted},? \(?{VALUE}", text) + re.findall(rf"{VALUE} \(?{quoted}", text)


def parse(value: str) -> float:
    number, _, unit = value.partition(" ")
    base, _, power = number.replace(",", "").partition("^")
    result = float(base) ** int(power) if power else float(base)
    return result * 2**20 if unit == "MiB" else result


@pytest.mark.parametrize("name", CONSTANTS)
def test_readme_states_the_value_in_the_code(name):
    lines = README.read_text().splitlines()
    table = " ".join(line for line in lines if line.startswith("| `canids."))
    assert stated_values(table, name), f"the module table gives {name} no value"
    text = " ".join(" ".join(lines).split())  # a value may wrap onto the next line
    wrong = [value for value in stated_values(text, name) if parse(value) != CONSTANTS[name]]
    assert not wrong, f"README gives {name} {wrong}; the code has {CONSTANTS[name]}"

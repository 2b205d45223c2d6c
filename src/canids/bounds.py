"""``Range``, the values of a numeric parameter declared once beside it, from the simulator up to the command line:
``check`` guards a value in the library, and ``parse`` reads an option's or a spec field's text, in the same words.
"""

import argparse
import contextlib
import math
import numbers
from dataclasses import dataclass


class OutOfRange(ValueError, argparse.ArgumentTypeError):
    """A value outside its parameter's ``Range``; argparse reports it, from an option's type, as a usage error."""


@dataclass(frozen=True)
class Range:
    """The values of one numeric parameter, declared once beside it; ``ends`` are the brackets, inf never reached."""

    name: str
    low: int | float
    high: int | float = math.inf
    ends: str = "[)"
    integer: bool = True

    def __str__(self) -> str:
        return f"{'an integer' if self.integer else 'a number'} in {self.ends[0]}{self.low}, {self.high}{self.ends[1]}"

    def check(self, value):
        """``value`` if it is a number of the range's kind inside it (NaN never is), else ``OutOfRange``."""
        if isinstance(value, numbers.Integral if self.integer else numbers.Real) and (
            self.low < value if self.ends[0] == "(" else self.low <= value
        ) and (value < self.high if self.ends[1] == ")" else value <= self.high):
            return value
        raise OutOfRange(f"{self.name} must be {self}, got {value!r}")

    def parse(self, text: str):
        """``text`` read as a number of the range's kind, then checked: an option's argparse type, a spec field's reader."""
        with contextlib.suppress(ValueError):
            text = int(text) if self.integer else float(text)
        return self.check(text)


SEED = Range("seed", 0, 2**64 - 1, "[]")  # every seed: a checkpoint stores it as a u64
SEEDS = Range("seeds", 1)  # how many seeds a study or a gradient check runs

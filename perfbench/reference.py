"""A fixed reference kernel that measures how fast the machine runs.

On a shared host the speed of one core changes by tens of percent from
one run to the next, so two runs of the same code on the same inputs can
differ by more than any bound worth setting.  The workloads interleave
units of this kernel with their own work over the whole timed phase, and
every end-to-end timing is reported at the kernel's
``NOMINAL_UNITS_PER_S``: times are multiplied by the kernel's measured
speed over the nominal one, rates divided by it.  A slow run slows the
kernel and the program alike and cancels out; a change to the program
does not touch the kernel and shows in full.

The speed also changes by up to 60 % within seconds.  The codecs' rates
sum thousands of short calls spread over the run and take the run's
speed; a set-up or an evaluation pass is one interval, timed with
``Reference.around``, and takes the speed of units run just before and
just after it.

The kernel uses nothing from ``adgstego``.  It mixes the two kinds of
work the program does: pure-Python loops over tuple-keyed dicts, small
lists and integers (a codec step on a cached distribution), and NumPy
passes over vocabulary-sized arrays (building and sorting a distribution
of a 50,257-token model).  Its result is checked on every unit.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

# The kernel's speed, in units per second, interleaved with the workloads
# on the 2-vCPU VM the benchmark was tuned on; it only sets the scale the
# figures are given at.
NOMINAL_UNITS_PER_S = 140.0
BRACKET_UNITS = 4  # units run just before and just after a bracketed interval


def speed(units: int, seconds: float) -> float:
    """The kernel's speed, ``units`` run in ``seconds``, as a multiple of the nominal one."""
    return units / seconds / NOMINAL_UNITS_PER_S


_VOCAB = 50_257
_SUPPORT = 4096


class Reference:
    """Units of fixed work, timed by the caller; ``check`` is each unit's result."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.ids = rng.permutation(_VOCAB)[:_SUPPORT]
        masses = rng.random(_SUPPORT)
        self.masses = masses / masses.sum()
        self.table = {(i % 61, i // 61): i for i in range(_SUPPORT)}
        self.check = None

    def timed(self, units: int) -> float:
        """Seconds taken by ``units`` units run back to back."""
        t0 = time.perf_counter()
        for _ in range(units):
            self.unit()
        return time.perf_counter() - t0

    def around(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """``fn()``'s result, its seconds, and the kernel's speed just around it."""
        before = self.timed(BRACKET_UNITS)
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        after = self.timed(BRACKET_UNITS)
        return result, seconds, speed(2 * BRACKET_UNITS, before + after)

    def unit(self) -> int:
        # Python part: dict lookups on tuple keys, integer mixing, a keyed sort.
        table = self.table
        acc = 0
        for i in range(6000):
            acc = (acc * 31 + table.get((i % 61, (i * 7) % 67), i)) & 0xFFFFFFFF
        order = sorted(range(1500), key=lambda j: (j * 2654435761 + acc) & 0xFFFFF)
        bits = [(acc >> (k % 32)) & 1 for k in order]
        # NumPy part: scatter into a vocabulary-sized array, sort, cumulate.
        full = np.zeros(_VOCAB)
        full[self.ids] = self.masses
        ranked = np.argsort(-full, kind="stable")[:_SUPPORT]
        cdf = np.cumsum(full[ranked])
        quantized = np.floor(cdf * (1 << 31)).astype(np.int64)
        result = (acc ^ sum(bits) ^ int(quantized[-1]) ^ int(ranked[:8].sum())) & 0xFFFFFFFF
        if self.check is None:
            self.check = result
        elif result != self.check:
            raise RuntimeError("reference kernel gave a different result")
        return result

"""Test oracle: the sort-based distribution build, kept verbatim.

``quantize`` hands the leftover units out by a full ``np.lexsort`` of the
remainders, ``OracleDistribution`` is the ``ConditionalDistribution``
that ordered every distribution with a two-key ``np.lexsort`` and built
its id->position map on the first lookup, and ``mask_eos_min`` found EOS
through that map.  The bodies are copied unchanged; only the class name
differs.  The tests check that :mod:`adgstego.lm` and
:func:`adgstego.runner.mask_eos_min` give byte-identical results.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from adgstego.corpus import EOS_ID
from adgstego.errors import QuantizationError
from adgstego.lm import DENOMINATOR, SUM_TOLERANCE


def quantize(probs: Sequence[float]) -> np.ndarray:
    """Largest-remainder apportionment of ``DENOMINATOR`` among ``probs``.

    Entries that would round to zero are floored at 1, with the deficit
    taken from the largest entry, so every token keeps nonzero mass and
    the numerators sum to ``DENOMINATOR`` exactly.
    """
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise QuantizationError("expected a nonempty 1-d probability vector")
    if not np.all(np.isfinite(arr)):
        raise QuantizationError("probabilities must be finite")
    if np.any(arr < 0):
        raise QuantizationError("probabilities must be nonnegative")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise QuantizationError(f"probabilities sum to {total!r}, outside 1 +/- {SUM_TOLERANCE}")

    scaled = (arr / total) * DENOMINATOR
    out = np.floor(scaled).astype(np.int64)
    deficit = DENOMINATOR - int(out.sum())
    if deficit:
        # Hand the leftover units to the largest fractional remainders;
        # ties resolve to the lower index so both ends agree.
        remainders = scaled - out
        order = np.lexsort((np.arange(arr.size), -remainders))
        out[order[:deficit]] += 1

    zero = out == 0
    if np.any(zero):
        out[zero] = 1
        excess = int(out.sum()) - DENOMINATOR
        while excess > 0:
            top = int(np.argmax(out))
            take = min(excess, int(out[top]) - 1)
            out[top] -= take
            excess -= take
    return out


class OracleDistribution:
    """Quantized next-token distribution, sorted by mass desc, ties by id asc.

    ``cache`` is scratch space for codec-level derived structures (grouping
    trees, Huffman trees); it never leaves the process.
    """

    __slots__ = ("token_ids", "masses", "denominator", "cache", "_positions")

    def __init__(self, token_ids: np.ndarray, masses: np.ndarray, denominator: int = DENOMINATOR):
        order = np.lexsort((token_ids, -masses))
        self.token_ids = np.ascontiguousarray(token_ids[order], dtype=np.int64)
        self.masses = np.ascontiguousarray(masses[order], dtype=np.int64)
        self.denominator = denominator
        self.cache: Dict = {}
        self._positions: Optional[Dict[int, int]] = None
        if self.masses.size and int(self.masses.min()) < 1:
            raise QuantizationError("zero-mass entries must not be stored")
        if int(self.masses.sum()) != denominator:
            raise QuantizationError("numerators do not sum to the denominator")

    def __len__(self) -> int:
        return int(self.token_ids.size)

    def position_of(self, token_id: int) -> Optional[int]:
        if self._positions is None:
            self._positions = dict(zip(self.token_ids.tolist(), range(len(self))))
        return self._positions.get(int(token_id))

    @classmethod
    def from_masses(cls, token_ids: Sequence[int], masses: Sequence[int]) -> "OracleDistribution":
        """Build directly from integer masses; denominator is their sum."""
        ids = np.asarray(token_ids, dtype=np.int64)
        m = np.asarray(masses, dtype=np.int64)
        return cls(ids, m, denominator=int(m.sum()))


def mask_eos_min(dist: OracleDistribution) -> OracleDistribution:
    """Reduce the EOS mass to the 1-unit minimum, excess to the largest entry.

    Keeps the total mass exact so grouping stays well defined.  A no-op when
    EOS is absent or already at minimum mass.
    """
    pos = dist.position_of(EOS_ID)
    if pos is None or int(dist.masses[pos]) <= 1:
        return dist
    masses = dist.masses.copy()
    excess = int(masses[pos]) - 1
    masses[pos] = 1
    # First entry is the largest by sort order; step past it if it is EOS itself.
    target = 0 if pos != 0 else 1
    masses[target] += excess
    return OracleDistribution(dist.token_ids.copy(), masses, dist.denominator)

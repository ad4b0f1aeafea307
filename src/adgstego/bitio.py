"""Framed secret bitstreams and bit-chunk <-> group-index conversions.

A message on the wire is ``header || payload || padding`` where the header
is a 32-bit big-endian count of payload bits.  The frame makes extraction
self-delimiting: the receiver reads the header, takes exactly that many
payload bits and ignores whatever trailing bits the generation process
appended.  Padding bits drawn during embedding come from a caller-supplied
RNG so that late-sentence group choices stay uniformly distributed.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence

from .errors import ConfigError, TruncationError

HEADER_BITS = 32
MAX_PAYLOAD_BITS = (1 << 32) - 1


def bytes_to_bits(data: bytes) -> List[int]:
    """Expand bytes to a list of bits, most significant bit first."""
    out = []
    for byte in data:
        for shift in range(7, -1, -1):
            out.append((byte >> shift) & 1)
    return out


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Pack a bit sequence (MSB first) into bytes; length must be a multiple of 8."""
    if len(bits) % 8 != 0:
        raise ValueError(f"bit count {len(bits)} is not a multiple of 8")
    out = bytearray()
    for i in range(0, len(bits), 8):
        byte = 0
        for b in bits[i : i + 8]:
            byte = (byte << 1) | (b & 1)
        out.append(byte)
    return bytes(out)


class BitMessage:
    """A bit sequence with a read cursor.

    Single-owner object: one embedding stream reads it front to back.
    ``payload_bits`` counts its payload: every bit, unless :func:`frame` built it.
    """

    def __init__(self, bits: Iterable[int]):
        self._bits = [b & 1 for b in bits]
        self.cursor = 0
        self.payload_bits = len(self._bits)

    def __len__(self) -> int:
        return len(self._bits)

    @property
    def bits(self) -> List[int]:
        return list(self._bits)

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self._bits)

    def read_bit(self, pad_rng: random.Random) -> int:
        """Return the next bit, or a uniform padding bit once exhausted."""
        if self.cursor < len(self._bits):
            bit = self._bits[self.cursor]
            self.cursor += 1
            return bit
        return pad_rng.getrandbits(1)


def frame(payload: "bytes | Sequence[int]") -> BitMessage:
    """Wrap a payload (bytes or raw bits) into a framed message, cursor at 0."""
    packed = isinstance(payload, (bytes, bytearray))
    size = 8 * len(payload) if packed else len(payload)
    if size > MAX_PAYLOAD_BITS:
        raise ConfigError(f"payload of {size} bits exceeds the 32-bit frame header")
    bits = bytes_to_bits(payload) if packed else [b & 1 for b in payload]
    header = [(len(bits) >> shift) & 1 for shift in range(HEADER_BITS - 1, -1, -1)]
    msg = BitMessage(header + bits)
    msg.payload_bits = len(bits)
    return msg


def deframe(bits: Sequence[int]) -> List[int]:
    """Read the header and return exactly that many payload bits.

    Trailing padding is ignored.  Raises :class:`TruncationError` when the
    stream is shorter than the header or than the header's promise.
    """
    if len(bits) < HEADER_BITS:
        raise TruncationError(f"need {HEADER_BITS} header bits, got {len(bits)}")
    count = 0
    for b in bits[:HEADER_BITS]:
        count = (count << 1) | (b & 1)
    if len(bits) - HEADER_BITS < count:
        raise TruncationError(
            f"header promises {count} payload bits, only {len(bits) - HEADER_BITS} present"
        )
    return [b & 1 for b in bits[HEADER_BITS : HEADER_BITS + count]]


def next_index(msg: BitMessage, r: int, pad_rng: random.Random) -> int:
    """Consume ``r`` bits big-endian as a group index in ``[0, 2**r)``.

    Bits missing past the end of the message are drawn uniformly from
    ``pad_rng``.
    """
    if not 1 <= r <= 32:
        raise ValueError(f"index width r={r} outside [1, 32]")
    index = 0
    for _ in range(r):
        index = (index << 1) | msg.read_bit(pad_rng)
    return index


def index_to_bits(index: int, r: int) -> List[int]:
    """Big-endian ``r``-bit representation of a group index."""
    if not 0 <= index < (1 << r):
        raise ValueError(f"index {index} out of range for {r} bits")
    return [(index >> shift) & 1 for shift in range(r - 1, -1, -1)]

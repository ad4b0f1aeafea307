"""Framed secret bitstreams and bit-chunk <-> group-index conversions.

A message on the wire is ``header || payload || padding`` where the header
is a 32-bit big-endian count of payload bits.  The frame makes extraction
self-delimiting: the receiver reads the header, takes exactly that many
payload bits and ignores whatever trailing bits the generation process
appended.  Padding bits drawn during embedding come from a caller-supplied
RNG so that late-sentence group choices stay uniformly distributed.

A :class:`BitMessage` stores its bits as one ``bytes`` string of ASCII
digits (``b"0110..."``), one byte per bit.  A read of ``r`` bits is one
slice and one ``int(chunk, 2)``, so it costs O(r) whatever the message's
length.  Bytes, bit lists and frames convert through the same digit
strings (``int.from_bytes`` and ``format`` one way, ``int(digits, 2)``
and ``int.to_bytes`` the other), with no Python loop over the bits.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence

from .errors import ConfigError, TruncationError

HEADER_BITS = 32
MAX_PAYLOAD_BITS = (1 << 32) - 1

_DIGIT_OF = bytes(48 | (v & 1) for v in range(256))  # a byte's low bit as b"0" or b"1"
_BIT_OF = bytes.maketrans(b"01", b"\x00\x01")


def _digits(value: int, width: int) -> bytes:
    """``value`` as ``width`` big-endian binary digits."""
    return format(value, f"0{width}b").encode("ascii") if width else b""


def _bit_digits(bits: Iterable[int]) -> bytes:
    """Bits (ints 0 or 1) as binary digits."""
    # iter() keeps a numpy array from being read as a raw buffer.
    return bytes(iter(bits)).translate(_DIGIT_OF)


def _digit_bits(digits: bytes) -> List[int]:
    return list(digits.translate(_BIT_OF))


def bytes_to_bits(data: bytes) -> List[int]:
    """Expand bytes to a list of bits, most significant bit first."""
    return _digit_bits(_digits(int.from_bytes(data, "big"), 8 * len(data)))


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Pack a bit sequence (MSB first) into bytes; length must be a multiple of 8."""
    if len(bits) % 8 != 0:
        raise ValueError(f"bit count {len(bits)} is not a multiple of 8")
    return int(_bit_digits(bits) or b"0", 2).to_bytes(len(bits) // 8, "big")


class BitMessage:
    """A bit sequence with a read cursor.

    Single-owner object: one embedding stream reads it front to back.
    ``payload_bits`` counts its payload: every bit, unless :func:`frame` built it.
    """

    def __init__(self, bits: Iterable[int]):
        self._digits = _bit_digits(bits)
        self.cursor = 0
        self.payload_bits = len(self._digits)

    @classmethod
    def _of_digits(cls, digits: bytes, payload_bits: int) -> "BitMessage":
        msg = cls(())
        msg._digits, msg.payload_bits = digits, payload_bits
        return msg

    def __len__(self) -> int:
        return len(self._digits)

    @property
    def bits(self) -> List[int]:
        return _digit_bits(self._digits)

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self._digits)

    def read(self, r: int, pad_rng: random.Random) -> int:
        """Return the next ``r >= 1`` bits big-endian.

        Each bit past the end of the message is one ``pad_rng.getrandbits(1)``,
        drawn in reading order; the cursor stops at the end.
        """
        digits, start = self._digits, self.cursor
        end = start + r
        if end <= len(digits):
            self.cursor = end
            return digits[start] & 1 if r == 1 else int(digits[start:end], 2)
        value = int(digits[start:], 2) if start < len(digits) else 0
        for _ in range(end - len(digits)):
            value = (value << 1) | pad_rng.getrandbits(1)
        self.cursor = len(digits)
        return value


def frame(payload: "bytes | Sequence[int]") -> BitMessage:
    """Wrap a payload (bytes or raw bits) into a framed message, cursor at 0."""
    packed = isinstance(payload, (bytes, bytearray))
    size = 8 * len(payload) if packed else len(payload)
    if size > MAX_PAYLOAD_BITS:
        raise ConfigError(f"payload of {size} bits exceeds the 32-bit frame header")
    body = _digits(int.from_bytes(payload, "big"), size) if packed else _bit_digits(payload)
    return BitMessage._of_digits(_digits(size, HEADER_BITS) + body, size)


def deframe(bits: Sequence[int]) -> List[int]:
    """Read the header and return exactly that many payload bits.

    Trailing padding is ignored.  Raises :class:`TruncationError` when the
    stream is shorter than the header or than the header's promise.
    """
    if len(bits) < HEADER_BITS:
        raise TruncationError(f"need {HEADER_BITS} header bits, got {len(bits)}")
    digits = _bit_digits(bits)
    count = int(digits[:HEADER_BITS], 2)
    if len(bits) - HEADER_BITS < count:
        raise TruncationError(
            f"header promises {count} payload bits, only {len(bits) - HEADER_BITS} present"
        )
    return _digit_bits(digits[HEADER_BITS : HEADER_BITS + count])


def next_index(msg: BitMessage, r: int, pad_rng: random.Random) -> int:
    """Consume ``r`` bits big-endian as a group index in ``[0, 2**r)``.

    Bits missing past the end of the message are drawn uniformly from
    ``pad_rng``.
    """
    if not 1 <= r <= 32:
        raise ValueError(f"index width r={r} outside [1, 32]")
    return msg.read(r, pad_rng)


def index_to_bits(index: int, r: int) -> List[int]:
    """Big-endian ``r``-bit representation of a group index."""
    if not 0 <= index < (1 << r):
        raise ValueError(f"index {index} out of range for {r} bits")
    return [(index >> shift) & 1 for shift in range(r - 1, -1, -1)]

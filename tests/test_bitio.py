"""Framing, padding and bit-chunk conversions."""

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adgstego import bitio
from adgstego.bitio import (
    HEADER_BITS,
    BitMessage,
    bits_to_bytes,
    bytes_to_bits,
    deframe,
    frame,
    index_to_bits,
    next_index,
)
from adgstego.errors import ConfigError, TruncationError


@given(st.binary(max_size=64))
def test_bytes_bits_round_trip(data):
    assert bits_to_bytes(bytes_to_bits(data)) == data


@given(st.binary(max_size=64))
def test_hex_bits_round_trip(data):
    # The CLI's --hex in and --hex-out path, through a frame.
    bits = deframe(frame(bytes.fromhex(data.hex())).bits)
    assert bits_to_bytes(bits).hex() == data.hex()


def test_bytes_to_bits_msb_first():
    assert bytes_to_bits(b"\x80") == [1, 0, 0, 0, 0, 0, 0, 0]
    assert bytes_to_bits(b"\x01") == [0, 0, 0, 0, 0, 0, 0, 1]


def test_bits_to_bytes_rejects_ragged():
    with pytest.raises(ValueError):
        bits_to_bytes([1, 0, 1])


@given(st.lists(st.integers(0, 1), max_size=300))
def test_frame_deframe_identity(payload_bits):
    msg = frame(payload_bits)
    assert len(msg) == HEADER_BITS + len(payload_bits)
    assert deframe(msg.bits) == payload_bits


@given(st.lists(st.integers(0, 1), max_size=300), st.lists(st.integers(0, 1), max_size=64))
def test_deframe_ignores_trailing_padding(payload_bits, padding):
    msg = frame(payload_bits)
    assert deframe(msg.bits + padding) == payload_bits


def test_deframe_truncated_header():
    with pytest.raises(TruncationError):
        deframe([0] * (HEADER_BITS - 1))


def test_deframe_truncated_payload():
    bits = frame([1] * 10).bits
    with pytest.raises(TruncationError):
        deframe(bits[:-1])


def test_header_is_big_endian_bit_count():
    msg = frame([1, 0, 1])
    header = msg.bits[:HEADER_BITS]
    assert header == [0] * (HEADER_BITS - 2) + [1, 1]  # 3


def test_frame_checks_the_payload_size_before_expanding_it(monkeypatch):
    monkeypatch.setattr(bitio, "MAX_PAYLOAD_BITS", 15)
    for payload in (b"ab", [1] * 16):
        with pytest.raises(ConfigError):
            frame(payload)
    assert deframe(frame(b"a").bits) == bytes_to_bits(b"a")


def test_read_bit_pads_uniformly_and_deterministically():
    msg_a = BitMessage([1, 0])
    msg_b = BitMessage([1, 0])
    pad_a, pad_b = random.Random(7), random.Random(7)
    seq_a = [msg_a.read(1, pad_a) for _ in range(20)]
    seq_b = [msg_b.read(1, pad_b) for _ in range(20)]
    assert seq_a == seq_b
    assert seq_a[:2] == [1, 0]
    assert msg_a.exhausted


@given(st.lists(st.integers(0, 1), max_size=120), st.lists(st.integers(1, 52), max_size=8), st.integers(0, 2**32))
def test_read_equals_one_bit_reads(bits, widths, seed):
    # Widths 1..52 cover every codec's reads; the reads run on past the end.
    wide, narrow = BitMessage(bits), BitMessage(bits)
    pad_wide, pad_narrow = random.Random(seed), random.Random(seed)
    asked = 0
    for r in widths:
        value = 0
        for _ in range(r):
            value = (value << 1) | narrow.read(1, pad_narrow)
        assert wide.read(r, pad_wide) == value
        asked += r
        assert wide.cursor == narrow.cursor == min(len(bits), asked)
    assert pad_wide.getstate() == pad_narrow.getstate()


def test_one_mib_frame_reads_in_seconds():
    payload = random.Random(5).randbytes(1 << 20)
    msg = frame(payload)
    assert msg.bits[HEADER_BITS:] == bytes_to_bits(payload)
    assert bits_to_bytes(deframe(msg.bits)) == payload
    pad_rng = random.Random(0)
    started = time.perf_counter()
    while not msg.exhausted:
        next_index(msg, 5, pad_rng)
    assert time.perf_counter() - started < 10.0
    assert msg.cursor == len(msg) == HEADER_BITS + 8 * len(payload)


@given(st.integers(1, 16), st.data())
def test_next_index_round_trip(r, data):
    index = data.draw(st.integers(0, (1 << r) - 1))
    msg = BitMessage(index_to_bits(index, r))
    assert next_index(msg, r, random.Random(0)) == index


def test_next_index_width_bounds():
    with pytest.raises(ValueError):
        next_index(BitMessage([1]), 0, random.Random(0))
    with pytest.raises(ValueError):
        next_index(BitMessage([1]), 33, random.Random(0))


def test_index_to_bits_range_check():
    with pytest.raises(ValueError):
        index_to_bits(4, 2)

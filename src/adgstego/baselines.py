"""Reference stego codecs used for comparison: bins, Huffman, patient
Huffman and fixed-precision arithmetic coding.

Each codec is a :class:`~adgstego.runner.Codec` with an ``embed_step`` /
``extract_step`` pair and an implicit per-step distribution ``q`` for the
distortion metrics.  Everything each codec decides per step is derived
from the shared quantized distribution (plus static, seed-fixed state),
so the receiver can replay the decision without side channels.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

import numpy as np

from .adg import ADGCodec
from .bitio import BitMessage, index_to_bits, next_index
from .errors import ConfigError, DesyncError, StegoError
from .lm import ConditionalDistribution, require_distinct, sample_token
from .metrics import kl_divergence_bits
from .runner import Codec


class BinsCodec(Codec):
    """Static random partition of the vocabulary into ``2**b`` bins.

    Each step consumes ``b`` bits to select a bin and emits the
    highest-mass token inside it; extraction inverts via the token's bin.
    """

    name = "bins"

    def __init__(self, b: int, partition_seed: int, vocab_size: int):
        if b < 1:
            raise ConfigError(f"b must be >= 1, got {b}")
        if vocab_size.bit_length() <= b:  # vocab_size < 2**b, without building 2**b
            raise ConfigError(f"vocabulary of {vocab_size} cannot fill 2**{b} bins")
        self.b = b
        self.nbins = 1 << b
        self.partition_seed = partition_seed
        self.params = {"b": b, "partition_seed": partition_seed, "vocab_size": vocab_size}
        shuffled = list(range(vocab_size))
        random.Random(partition_seed).shuffle(shuffled)
        self.token_to_bin = np.empty(vocab_size, dtype=np.int64)
        self.token_to_bin[np.asarray(shuffled)] = np.arange(vocab_size) % self.nbins

    def _bin_argmax(self, dist: ConditionalDistribution) -> np.ndarray:
        """Per-bin position of its highest-mass token in ``dist`` (-1 if empty)."""
        # The partition is a function of (vocab size, seed, b); all three
        # must key the per-distribution table.
        key = ("bins", len(self.token_to_bin), self.partition_seed, self.b)
        table = dist.cache.get(key)
        if table is None:
            n = len(dist)
            # dist is mass-desc sorted, so each bin's lowest position wins:
            # one scatter of every position, not a sort of the support.
            table = np.full(self.nbins, n, dtype=np.int64)
            try:
                bins = self.token_to_bin[dist.token_ids]
            except IndexError as exc:
                raise DesyncError(f"a distribution id is outside the {self.token_to_bin.size}-id vocabulary") from exc
            np.minimum.at(table, bins, np.arange(n))
            table[table == n] = -1
            dist.cache[key] = table
        return table

    def embed_step(self, dist, msg, sample_rng, pad_rng):
        index = next_index(msg, self.b, pad_rng)
        pos = int(self._bin_argmax(dist)[index])
        if pos < 0:
            raise StegoError(f"bin {index} holds no token of the current distribution")
        return int(dist.token_ids[pos]), self.b, None

    def extract_step(self, dist, token_id) -> List[int]:
        if not 0 <= token_id < self.token_to_bin.size:
            raise DesyncError(f"token {token_id} outside the partitioned vocabulary")
        return index_to_bits(int(self.token_to_bin[token_id]), self.b)

    def step_q(self, dist):
        table = self._bin_argmax(dist)
        positions = table[table >= 0]
        return positions, np.full(positions.size, 1.0 / self.nbins)


def _build_huffman(dist: ConditionalDistribution, k: int):
    """Deterministic Huffman tree over the top ``2**k`` entries.

    Merges the two lowest-mass nodes, ties by the lowest contained token
    id; the left child (lower key) is bit 0.  Returns (root, codes) where
    a leaf is a token id and an internal node a (left, right) pair.
    Cached on the distribution.
    """
    key = ("huffman", k)
    hit = dist.cache.get(key)
    if hit is not None:
        return hit
    top = 1 << k
    tokens = dist.token_ids[:top].tolist()
    # Checked before the merges: a repeated id can tie a leaf with a subtree on (mass, lowest id).
    if len(set(tokens)) < len(tokens):
        require_distinct(dist.token_ids[:top])
    heap = [(mass, token, token) for mass, token in zip(dist.masses[:top].tolist(), tokens)]
    heapq.heapify(heap)  # pops follow (mass, lowest id), whatever the layout
    while len(heap) > 1:
        mass_a, min_a, left = heapq.heappop(heap)
        mass_b, min_b, right = heapq.heappop(heap)
        heapq.heappush(heap, (mass_a + mass_b, min(min_a, min_b), (left, right)))
    root = heap[0][2]
    codes: Dict[int, List[int]] = {}
    stack = [(root, [])]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, tuple):
            stack.append((node[0], prefix + [0]))
            stack.append((node[1], prefix + [1]))
        else:
            codes[node] = prefix
    dist.cache[key] = (root, codes)
    return root, codes


def _codeword_probs(dist: ConditionalDistribution, k: int) -> np.ndarray:
    """Probability ``2**-len(code)`` of each top-``2**k`` entry's Huffman codeword, by position."""
    _root, codes = _build_huffman(dist, k)  # one code per top entry
    return np.array([2.0 ** -len(codes[token]) for token in dist.token_ids[: len(codes)].tolist()])


class HuffmanCodec(Codec):
    """Per-step Huffman coding of the top ``2**k`` likely tokens."""

    name = "huffman"

    def __init__(self, k: int):
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        self.k = k
        self.params = {"k": k}

    def embed_step(self, dist, msg, sample_rng, pad_rng):
        node, _codes = _build_huffman(dist, self.k)
        bits = 0
        while isinstance(node, tuple):
            node = node[next_index(msg, 1, pad_rng)]
            bits += 1
        return node, bits, None

    def extract_step(self, dist, token_id) -> List[int]:
        _root, codes = _build_huffman(dist, self.k)
        code = codes.get(int(token_id))
        if code is None:
            raise DesyncError(f"token {token_id} outside the top {1 << self.k} set")
        return list(code)

    def step_q(self, dist):
        q = _codeword_probs(dist, self.k)
        return np.arange(q.size), q


def _huffman_distortion(dist: ConditionalDistribution, k: int) -> float:
    """KL (bits) between the Huffman codeword distribution and the
    renormalized top-``2**k`` slice, computed in a fixed order from the
    shared integer masses so both ends reach the same float."""
    key = ("huffman_distortion", k)
    hit = dist.cache.get(key)
    if hit is not None:
        return hit
    q = _codeword_probs(dist, k).tolist()
    total = int(dist.masses[: len(q)].sum())
    ps = [mass / total for mass in dist.masses[: len(q)].tolist()]
    d = kl_divergence_bits(q, ps)
    dist.cache[key] = d
    return d


class PatientHuffmanCodec(HuffmanCodec):
    """Huffman embedding gated per step by a distortion threshold.

    A step embeds via Huffman only when the codeword-vs-model KL is below
    ``delta`` bits; otherwise the token is sampled from the full
    distribution and carries nothing.  The receiver recomputes the same
    test from the shared distribution to tell the two step kinds apart.
    """

    name = "patient_huffman"

    def __init__(self, k: int, delta: float):
        super().__init__(k)
        if not delta >= 0:  # NaN too
            raise ConfigError(f"delta must be >= 0, got {delta}")
        self.delta = delta
        self.params = {"k": k, "delta": delta}

    def _patient(self, dist) -> bool:
        return not (_huffman_distortion(dist, self.k) < self.delta)

    # The steps name HuffmanCodec: super() costs a tenth of a warm step on CPython 3.11.
    def embed_step(self, dist, msg, sample_rng, pad_rng):
        if self._patient(dist):
            return sample_token(sample_rng, dist.token_ids, np.cumsum(dist.masses), dist.denominator), 0, None
        return HuffmanCodec.embed_step(self, dist, msg, sample_rng, pad_rng)

    def extract_step(self, dist, token_id) -> List[int]:
        if self._patient(dist):
            return []
        return HuffmanCodec.extract_step(self, dist, token_id)

    def step_q(self, dist):
        if self._patient(dist):
            return np.arange(len(dist)), dist.probs()
        return HuffmanCodec.step_q(self, dist)


class ArithmeticCodec(Codec):
    """Fixed-precision range coder over the renormalized top ``h`` tokens.

    Embedding decodes the message bitstream as if it were the arithmetic
    code of the text: the token whose cumulative interval contains the
    current code window is emitted.  Extraction re-encodes the observed
    tokens; both ends run identical integer interval updates, including
    the straddle (carry) rule, so the re-encoded stream reproduces every
    message bit that embedding resolved.

    The interval state spans sentence boundaries; ``delivered`` is based
    on resolved bits because lookahead bits are not recoverable.
    """

    name = "arithmetic"
    precision = 52  # bits in the code window
    _full = 1 << precision
    _half = _full >> 1
    _quarter = _full >> 2

    def __init__(self, h: int):
        if h < 2:
            raise ConfigError(f"h must be >= 2, got {h}")
        self.h = h
        self.params = {"h": h, "precision": self.precision}
        self.begin_embed()

    def begin_embed(self) -> None:
        self._low = 0
        self._high = self._full - 1
        self._offset: Optional[int] = None  # the code window minus low
        self._pending = 0
        self._resolved = 0

    begin_extract = begin_embed

    def delivered(self, msg: BitMessage) -> bool:
        return self._resolved >= len(msg)

    def _truncated(self, dist: ConditionalDistribution):
        key = ("arith", self.h)
        hit = dist.cache.get(key)
        if hit is None:
            cum = np.cumsum(dist.masses[: self.h]).tolist()
            positions = dict(zip(dist.token_ids[: self.h].tolist(), range(len(cum))))
            if len(positions) < len(cum):
                require_distinct(dist.token_ids[: self.h])
            hit = (cum, cum[-1], positions)
            dist.cache[key] = hit
        return hit

    def _narrow(self, cum: List[int], total: int, j: int) -> None:
        width = self._high - self._low + 1
        lo_cum = cum[j - 1] if j else 0
        self._high = self._low + (width * cum[j]) // total - 1
        self._low = self._low + (width * lo_cum) // total

    def _rescale(self) -> Tuple[List[int], int]:
        """E1/E2/E3 doublings (Witten, Neal and Cleary, CACM 1987): the bits they settle, and their count."""
        low, high, pending, half, quarter = self._low, self._high, self._pending, self._half, self._quarter
        settled: List[int] = []
        doublings = 0
        while True:
            if high < half:
                settled += (0,) + (1,) * pending
                pending = 0
            elif low >= half:
                settled += (1,) + (0,) * pending
                pending = 0
                low -= half
                high -= half
            elif low >= quarter and high < 3 * quarter:
                pending += 1
                low -= quarter
                high -= quarter
            else:
                self._low, self._high, self._pending = low, high, pending
                return settled, doublings
            low <<= 1
            high = (high << 1) | 1
            doublings += 1

    def embed_step(self, dist, msg, sample_rng, pad_rng):
        if self._offset is None:
            self._offset = msg.read(self.precision, pad_rng)
        cum, total, _positions = self._truncated(dist)
        low = self._low
        width = self._high - low + 1
        target = ((self._offset + 1) * total - 1) // width
        j = bisect_right(cum, target)
        self._narrow(cum, total, j)
        self._offset -= self._low - low
        bits = math.log2(width / (self._high - self._low + 1))
        settled, doublings = self._rescale()
        self._resolved += len(settled)
        if doublings:
            self._offset = (self._offset << doublings) | msg.read(doublings, pad_rng)
        return int(dist.token_ids[j]), bits, None

    def extract_step(self, dist, token_id) -> List[int]:
        cum, total, positions = self._truncated(dist)
        j = positions.get(int(token_id))
        if j is None:
            raise DesyncError(f"token {token_id} outside the top {self.h} set")
        self._narrow(cum, total, j)
        return self._rescale()[0]

    def finish_extract(self) -> List[int]:
        # Flush one disambiguating bit plus pending straddle bits.
        self._pending += 1
        if self._low < self._quarter:
            return [0] + [1] * self._pending
        return [1] + [0] * self._pending

    def step_q(self, dist):
        cum, total, _positions = self._truncated(dist)
        return np.arange(len(cum)), dist.masses[: len(cum)] / total


# Each method's parameters and their kinds; make_codec rejects any other.
CODEC_PARAMS: Dict[str, Dict[str, type]] = {
    "adg": {},
    "bins": {"b": int, "partition_seed": int},
    "huffman": {"k": int},
    "patient_huffman": {"k": int, "delta": float},
    "arithmetic": {"h": int},
}


def make_codec(method: str, vocab_size: int, **params):
    """Instantiate a codec by method tag; used by the CLI and the bench grid."""
    kinds = CODEC_PARAMS.get(method) if isinstance(method, str) else None
    if kinds is None:
        raise ConfigError(f"unknown method {method!r}")
    unknown = sorted(set(params) - set(kinds))
    if unknown:
        raise ConfigError(f"{method} takes {', '.join(kinds) or 'no parameters'}, not {', '.join(unknown)}")

    def number(name: str, default=None):
        # Neither kind takes a bool, and an int parameter never truncates a float.
        kind, value = kinds[name], params.get(name, default)
        try:
            if isinstance(value, bool):
                raise TypeError
            return operator.index(value) if kind is int else float(value)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"{method} parameter {name} must be of type {kind.__name__}, got {value!r}") from exc

    if method == "adg":
        return ADGCodec()
    if method == "bins":
        return BinsCodec(number("b"), number("partition_seed", default=0), vocab_size)
    if method == "huffman":
        return HuffmanCodec(number("k"))
    if method == "patient_huffman":
        return PatientHuffmanCodec(number("k", default=3), number("delta"))
    return ArithmeticCodec(number("h"))

"""Conditional next-token distributions, fixed-point quantized.

Sender and receiver must derive bit-identical distributions or extraction
desynchronizes, so every distribution holds positive integer masses, and
all downstream grouping logic compares integers only.  A distribution's
total (``denominator``) is the sum of its masses.  One rule, written once
in ``_hand_out``, apportions exactly ``2**31`` units: each entry takes the
floor of its share, the leftover units go to the largest remainders (lower
index first on ties), and every entry is then floored at one unit.
``quantize`` applies it to float probabilities, for providers that hand
those over; that path is the only float one.  The n-gram model needs no
floats: any finite k is an exact ratio ``a / b``, so its add-k masses come
from integer counts alone, apportioned by the same rule, and match the
apportionment of the exact rational probabilities on every machine.

Every step of building a distribution is linear or near-linear, because a
neural-style provider hands over a fresh one per token.  ``_hand_out``
finds the largest remainders by selection (``np.partition``), not by a
sort.  ``ConditionalDistribution`` puts its entries in canonical order
(mass desc, id asc) with one stable, adaptive argsort of the int64 key
``(-mass << 32) | id``; only masses past ``2**31`` or ids from ``2**32``
on take a two-key sort.  The n-gram model works once per level, a level
being the ids of one count under the context (the unseen ids form one),
and lays its result out in canonical order itself.

Two sources are provided: a trainable add-k / backoff n-gram model, and a
client for an external provider speaking newline-delimited JSON
(``{"context": [ids]}`` -> ``{"ids": [...], "probs": [...]}``) over a
subprocess's stdio or any other text stream.  Provider probabilities are
quantized locally, so the ends never need to agree on float behavior.
"""

from __future__ import annotations

import json
import math
import os
import random
import selectors
import subprocess
import time
from bisect import bisect_right
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .corpus import BOS_ID, Vocabulary
from .errors import ConfigError, EmptyCorpusError, ModelMismatchError, ProviderError, QuantizationError

DENOMINATOR = 1 << 31
INT64_MAX = (1 << 63) - 1
SUM_TOLERANCE = 1e-6
MODEL_FORMAT_VERSION = 1


def quantize(probs: Sequence[float]) -> np.ndarray:
    """Largest-remainder apportionment of ``DENOMINATOR`` among ``probs``, by :func:`_hand_out`.

    Every token keeps nonzero mass and the numerators sum to
    ``DENOMINATOR`` exactly.
    """
    try:
        arr = np.asarray(probs, dtype=np.float64)
    except (OverflowError, TypeError, ValueError) as exc:  # ragged nesting, non-numbers, ints past float range
        raise QuantizationError(f"probabilities are not a vector of numbers: {exc}") from exc
    if arr.ndim != 1 or arr.size == 0:
        raise QuantizationError("expected a nonempty 1-d probability vector")
    total = float(arr.sum())  # a NaN or infinite entry, or a sum past float range, leaves it unfinite
    if not math.isfinite(total):
        raise QuantizationError("probabilities and their sum must be finite")
    if arr.min() < 0:
        raise QuantizationError("probabilities must be nonnegative")
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise QuantizationError(f"probabilities sum to {total!r}, outside 1 +/- {SUM_TOLERANCE}")

    scaled = arr / total
    scaled *= DENOMINATOR  # rounded once more, as (arr / total) * DENOMINATOR is
    out = scaled.astype(np.int64)  # truncation is the floor: every entry is >= 0
    deficit = DENOMINATOR - int(out.sum())
    if not 0 <= deficit < arr.size:
        raise QuantizationError(f"{deficit} leftover units for {arr.size} entries")
    scaled -= out  # the remainders, in place: scaled is not read again
    return _hand_out(out, scaled, deficit)


def _hand_out(out: np.ndarray, keys: np.ndarray, deficit: int) -> np.ndarray:
    """The apportionment rule: ``deficit`` leftover units onto the floors ``out``, then a floor of 1, in place.

    One unit goes to each of the ``deficit`` largest ``keys``, the lowest
    index first among equal keys, so both ends agree: every key above the
    deficit-th largest gets a unit, then the lowest-index keys equal to it
    fill the rest.  Zero masses are then raised to 1, the units taken from
    the largest entry (lowest index on ties), so the total is kept.
    """
    if deficit:
        threshold = np.partition(keys, keys.size - deficit)[keys.size - deficit]
        above = keys > threshold
        out += above
        # At least the threshold itself is left, so the fill is never empty.
        fill = deficit - int(np.count_nonzero(above))
        out[np.flatnonzero(keys == threshold)[:fill]] += 1
    if out.min() == 0:
        out[out == 0] = 1
        excess = int(out.sum()) - DENOMINATOR
        while excess > 0:
            top = int(np.argmax(out))
            take = min(excess, int(out[top]) - 1)
            out[top] -= take
            excess -= take
    return out


class ConditionalDistribution:
    """Integer-mass next-token distribution, sorted by mass desc, ties by id asc.

    Ids and masses are integers, every mass at least 1; ``denominator`` is
    their sum, which must fit in int64.
    The order comes from one stable argsort of the int64 key
    ``(-mass << 32) | id``, close to linear on the nearly sorted input
    providers hand over.  The key fits whenever every mass is at most
    ``2**31`` and every id below ``2**32``, as with every distribution this
    package builds; wider values take a two-key ``np.lexsort``.

    ``cache`` is scratch space for codec-level derived structures (grouping
    trees, Huffman trees); it never leaves the process.
    """

    __slots__ = ("token_ids", "masses", "denominator", "cache", "_positions")

    def __init__(self, token_ids: Sequence[int], masses: Sequence[int]):
        try:
            token_ids, masses = np.asarray(token_ids), np.asarray(masses)
        except ValueError as exc:  # ragged nesting
            raise QuantizationError(f"ids and masses are not vectors: {exc}") from exc
        # An empty list reads as float64, so the size is checked before the dtype.
        if (token_ids.shape != masses.shape or masses.ndim != 1 or not masses.size
                or {token_ids.dtype.kind, masses.dtype.kind} - {"i", "u"}):
            raise QuantizationError("a distribution needs a nonempty 1-d vector of integer ids, one per integer mass")
        # A uint id or mass past int64 wraps negative here, so the checks below reject it.
        token_ids, masses = token_ids.astype(np.int64, copy=False), masses.astype(np.int64, copy=False)
        if int(token_ids.min()) < 0:
            raise QuantizationError("a distribution needs token ids >= 0")
        if int(masses.min()) < 1:
            raise QuantizationError("a distribution needs masses >= 1")
        if int(masses.max()) <= 1 << 31 and int(token_ids.max()) < 1 << 32:
            order = np.argsort((-masses << 32) | token_ids, kind="stable")  # -(2**31) << 32 is -2**63
        else:  # the key would not fit in int64
            order = np.lexsort((token_ids, -masses))
        ids, m = token_ids[order], masses[order]
        # The int64 sum wraps past INT64_MAX; only a largest mass above this bound can get there.
        if m.item(0) > INT64_MAX // m.size and sum(m.tolist()) > INT64_MAX:
            raise QuantizationError(f"masses sum to {sum(m.tolist())}, past the int64 limit {INT64_MAX}")
        self._adopt(ids, m, int(m.sum()))

    def _adopt(self, token_ids: np.ndarray, masses: np.ndarray, denominator: int) -> None:
        self.token_ids, self.masses, self.denominator = token_ids, masses, denominator
        self.cache: Dict = {}
        # None until the first lookup, False after it, then the id->position map.
        self._positions: Union[None, bool, Dict[int, int]] = None

    @classmethod
    def _canonical(cls, token_ids: np.ndarray, masses: np.ndarray) -> "ConditionalDistribution":
        """Adopt int64 ids and masses that the caller laid out in canonical order, without sorting.

        Only the total (``DENOMINATOR``) and the last, smallest mass (>= 1)
        are checked.
        """
        if int(masses.sum()) != DENOMINATOR or masses[-1] < 1:
            raise QuantizationError(f"masses sum to {int(masses.sum())}, not {DENOMINATOR}, or end below 1")
        dist = cls.__new__(cls)
        dist._adopt(token_ids, masses, DENOMINATOR)
        return dist

    def __len__(self) -> int:
        return int(self.token_ids.size)

    def position_of(self, token_id: int) -> Optional[int]:
        """Position of ``token_id``, or None when it has no mass.

        A cold distribution is asked once, so the first lookup scans the
        ids; the map is built from the second lookup on.  The constructor
        does not look for a repeated id, so these checks raise
        ``QuantizationError``: the scan when it finds the id twice, the map
        when it comes out shorter than the ids.
        """
        positions = self._positions
        if positions is None:
            self._positions = False
            hits = np.flatnonzero(self.token_ids == int(token_id))
            if hits.size > 1:
                require_distinct(self.token_ids[hits])
            return int(hits[0]) if hits.size else None
        if positions is False:
            positions = dict(zip(self.token_ids.tolist(), range(len(self))))
            if len(positions) < len(self):
                require_distinct(self.token_ids)
            self._positions = positions
        return positions.get(int(token_id))

    def probs(self) -> np.ndarray:
        return self.masses / float(self.denominator)

    @classmethod
    def from_probs(cls, token_ids: Sequence[int], probs: Sequence[float]) -> "ConditionalDistribution":
        """Quantize ``probs`` to masses summing to ``2**31``; ids must be distinct integers."""
        dist = cls(token_ids, quantize(probs))
        require_distinct(dist.token_ids)
        return dist


def require_distinct(ids: np.ndarray) -> None:
    """Raise ``QuantizationError`` naming the smallest id that ``ids`` lists twice; one sort and an adjacent compare."""
    ids = np.sort(ids)
    twice = ids[1:][ids[1:] == ids[:-1]]
    if twice.size:
        raise QuantizationError(f"token id {int(twice[0])} is listed twice in the distribution")


def sample_token(rng: random.Random, token_ids: np.ndarray, cumsum: np.ndarray, total: int) -> int:
    """Inverse-CDF draw: the token whose cumulative-mass interval holds ``rng.randrange(total)``.

    ``cumsum`` is the running sum of the masses aligned with ``token_ids``
    and ``total`` its last entry.  The interval is found by
    ``bisect.bisect_right`` over the array, not by ``np.searchsorted``: an
    ADG leaf holds a few members, and a numpy call's fixed dispatch cost
    was most of a warm step's draw, while bisect reads only ~log2(n)
    entries.  Masses are at least 1, so ``cumsum`` strictly increases and
    both find the same position.
    """
    return int(token_ids[bisect_right(cumsum, rng.randrange(total))])


class NGramLM:
    """Add-k smoothed n-gram model with whole-context backoff.

    The conditional distribution is the add-k smoothed maximum-likelihood
    estimate under the longest context suffix that was seen in training,
    backing off to shorter contexts when the full context is unseen and
    bottoming out at the smoothed unigram distribution.  (A stupid-backoff
    scale factor on the backed-off level would cancel under normalization,
    so none is applied.)  Every distribution covers the whole vocabulary,
    so every token is reachable.  Instances are immutable after training
    and safe to share across codec streams.

    ``contexts`` is the one table of seen contexts: it maps each context
    tuple, of any length from 1 to ``order - 1`` (its backoff level), to
    its successor ids, their counts and the counts' total.
    """

    def __init__(
        self,
        order: int,
        k: float,
        vocab_size: int,
        vocab_hash: str,
        unigram_counts: np.ndarray,
        contexts: Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray, int]],
    ):
        self.order = order
        self.k = k
        self.vocab_size = vocab_size
        self.vocab_hash = vocab_hash
        self.unigram_counts = unigram_counts
        self.unigram_total = int(unigram_counts.sum())
        self.contexts = contexts
        self._k_ratio = Fraction(k).as_integer_ratio()
        self._ids = np.arange(vocab_size, dtype=np.int64)

    @property
    def context_window(self) -> int:
        """Only the trailing ``order - 1`` tokens influence the conditional."""
        return self.order - 1

    def next_distribution(self, context: Sequence[int]) -> ConditionalDistribution:
        if not context or context[0] != BOS_ID:
            raise ConfigError("context must begin with the BOS id")
        for length in range(min(self.order - 1, len(context)), 0, -1):
            entry = self.contexts.get(tuple(context[-length:]))
            if entry is not None:
                return self._smoothed(*entry)
        seen = np.flatnonzero(self.unigram_counts)
        return self._smoothed(seen, self.unigram_counts[seen], self.unigram_total)

    def _smoothed(self, ids: np.ndarray, counts: np.ndarray, total: int) -> ConditionalDistribution:
        """Apportion ``DENOMINATOR`` among ``(count + k) / (total + k * V)`` in integers alone.

        With ``k = a / b`` exactly, an id's share is ``D * num / den`` for
        ``num = b * count + a`` and ``den = b * total + a * V``: its floor,
        plus one of the leftover units for the largest remainders, lower id
        first on ties, as :func:`_hand_out` gives them.  Ids of one count
        share their floor and remainder, so the arithmetic runs once per
        level: once per distinct count of the seen ids, and once for the
        unseen ids, whose count is 0.  A level's units go to its lowest ids.
        The result is laid out in canonical order directly, level by level in
        count order with ids ascending in each, which holds while no two
        levels tie on a remainder and every level's masses lie below the ones
        before it.
        Otherwise, or when a mass floors at zero, :func:`_hand_out` runs over
        the whole vocabulary by id, and the result is sorted.
        """
        v, (a, b) = self.vocab_size, self._k_ratio
        den = b * total + a * v
        order = np.lexsort((ids, -counts))
        seen, counts = ids[order], counts[order]
        # Each level is (count, size): the runs of one count in count order, then the unseen ids.
        starts = [0, *((counts[1:] != counts[:-1]).nonzero()[0] + 1).tolist()] if seen.size else []
        ends = [*starts[1:], seen.size]
        levels = [(int(c), end - start) for c, start, end in zip(counts[starts].tolist(), starts, ends)]
        if seen.size < v:
            levels.append((0, v - seen.size))
        unseen = np.ones(v, dtype=bool)
        unseen[seen] = False
        ids = np.concatenate((seen, self._ids[unseen]))
        sizes = [size for _count, size in levels]
        floors, rems = zip(*(divmod(DENOMINATOR * (b * count + a), den) for count, _size in levels))
        deficit = DENOMINATOR - sum(floor * size for floor, size in zip(floors, sizes))
        ranked = sorted(set(rems), reverse=True)
        if len(ranked) == len(levels):
            # The leftover units fill whole levels, largest remainder first.
            units, left = [0] * len(levels), deficit
            for level in sorted(range(len(levels)), key=rems.__getitem__, reverse=True):
                units[level] = min(sizes[level], left)
                left -= units[level]
            highs = [floor + (u > 0) for floor, u in zip(floors, units)]
            lows = [floor + (u == size) for floor, u, size in zip(floors, units, sizes)]
            if lows[-1] >= 1 and all(high < low for high, low in zip(highs[1:], lows)):
                values = [m for floor in floors for m in (floor + 1, floor)]
                lengths = [n for u, size in zip(units, sizes) for n in (u, size - u)]
                return ConditionalDistribution._canonical(ids, np.asarray(values, np.int64).repeat(lengths))
        # The whole vocabulary by id: each id takes its level's floor, keyed by
        # its level's remainder rank, so ties between levels go by id.
        rank = {rem: i for i, rem in enumerate(ranked)}
        masses, keys = np.empty(v, np.int64), np.empty(v, np.int64)
        masses[ids], keys[ids] = np.repeat(floors, sizes), np.repeat([-rank[rem] for rem in rems], sizes)
        return ConditionalDistribution(self._ids, _hand_out(masses, keys, deficit))

    def save(self, path: str) -> None:
        # Every length up to order - 1 is listed, even with no context under it; sort_keys orders the rest.
        contexts: Dict[str, Dict[str, list]] = {str(length): {} for length in range(1, self.order)}
        for ctx, (ids, counts, _total) in self.contexts.items():
            contexts.setdefault(str(len(ctx)), {})[",".join(map(str, ctx))] = [ids.tolist(), counts.tolist()]
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "order": self.order,
            "k": self.k,
            "vocab_size": self.vocab_size,
            "vocab_hash": self.vocab_hash,
            "unigram_counts": self.unigram_counts.tolist(),
            "contexts": contexts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))

    @classmethod
    def load(cls, path: str, vocab: Vocabulary) -> "NGramLM":
        """Read a model written by :meth:`save`; any other file, JSON or not, raises ModelMismatchError."""
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if doc.get("format_version") != MODEL_FORMAT_VERSION:
                raise ModelMismatchError(f"unsupported model format in {path}")
            if doc["vocab_hash"] != vocab.content_hash():
                raise ModelMismatchError("model file was trained against a different vocabulary")
            vocab_size = int(doc["vocab_size"])
            if vocab_size != len(vocab):
                raise ModelMismatchError(f"model file {path} is for {vocab_size} tokens, not {len(vocab)}")
            unigram_counts = np.asarray(doc["unigram_counts"], dtype=np.float64)
            if (not _numbers(doc["unigram_counts"], (int, float)) or unigram_counts.shape != (vocab_size,)
                    or not _whole(unigram_counts)):
                raise ModelMismatchError(f"model file {path} needs a unigram count per token, each whole and >= 0")
            order, k = int(doc["order"]), float(doc["k"])
            if order < 2 or not 0 < k < math.inf:
                raise ModelMismatchError(f"model file {path} needs order >= 2 and 0 < k < inf, not {order} and {k}")
            contexts: Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray, int]] = {}
            for length, serial in doc["contexts"].items():
                for key, (ids, counts) in serial.items():
                    ctx = tuple(int(x) for x in key.split(",")) if key else ()
                    if str(len(ctx)) != length:
                        raise ModelMismatchError(
                            f"model file {path} lists context {key!r} of length {len(ctx)} under {length!r}")
                    if not _numbers(ids, (int,)):
                        raise ModelMismatchError(
                            f"model file {path} context {key!r} holds a token id that is not an integer")
                    arr_ids = np.asarray(ids, dtype=np.int64)
                    arr_counts = np.asarray(counts, dtype=np.float64)
                    named = np.concatenate((np.asarray(ctx, dtype=np.int64), arr_ids))
                    if np.any((named < 0) | (named >= vocab_size)):
                        raise ModelMismatchError(
                            f"model file {path} context {key!r} holds a token id outside [0, {vocab_size})")
                    try:
                        require_distinct(arr_ids)
                    except QuantizationError as exc:
                        raise ModelMismatchError(f"model file {path} context {key!r} successors: {exc}") from exc
                    if arr_ids.shape != arr_counts.shape:
                        raise ModelMismatchError(
                            f"model file {path} context {key!r} holds {arr_ids.size} ids but {arr_counts.size} counts")
                    if not _numbers(counts, (int, float)) or not _whole(arr_counts):
                        raise ModelMismatchError(
                            f"model file {path} context {key!r} holds a count that is not a whole number >= 0")
                    contexts[ctx] = (arr_ids, arr_counts, int(arr_counts.sum()))
            return cls(
                order=order,
                k=k,
                vocab_size=vocab_size,
                vocab_hash=doc["vocab_hash"],
                unigram_counts=unigram_counts,
                contexts=contexts,
            )
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ModelMismatchError(f"model file {path} is corrupt: {exc!r}") from exc


def _numbers(values, kinds: Tuple[type, ...]) -> bool:
    """Whether a parsed JSON list holds only values of ``kinds``; ``true`` and ``false`` are never numbers."""
    return set(map(type, values)) <= set(kinds)


def _whole(counts: np.ndarray) -> bool:
    """Whether every count is a finite whole number >= 0."""
    return bool(np.all(np.isfinite(counts) & (counts >= 0) & (counts == np.floor(counts))))


def train_ngram(
    sentences: Sequence[Sequence[int]], order: int, k: float, vocab: Vocabulary
) -> NGramLM:
    """Count n-grams over id sentences (each including BOS and EOS)."""
    if order < 2:
        raise ConfigError(f"order must be >= 2, got {order}")
    if not 0 < k < math.inf:
        raise ConfigError(f"smoothing constant must be positive and finite, got {k}")
    if not sentences:
        raise EmptyCorpusError("cannot train on an empty corpus")

    v = len(vocab)
    unigrams = np.zeros(v, dtype=np.float64)
    raw: Dict[Tuple[int, ...], Dict[int, int]] = {}
    for sent in sentences:
        for t in range(1, len(sent)):
            token = sent[t]
            unigrams[token] += 1
            for length in range(1, order if t >= order else t + 1):  # min() per token cost 30 % of this loop
                bucket = raw.setdefault(tuple(sent[t - length : t]), {})
                bucket[token] = bucket.get(token, 0) + 1

    contexts = {}
    for ctx, bucket in raw.items():
        ids = np.asarray(sorted(bucket), dtype=np.int64)
        counts = np.asarray([bucket[i] for i in ids], dtype=np.float64)
        contexts[ctx] = (ids, counts, int(counts.sum()))
    return NGramLM(order, k, v, vocab.content_hash(), unigrams, contexts)


class _PipeReader:
    """Reply lines from a pipe, each awaited for at most ``timeout`` seconds."""

    def __init__(self, pipe, timeout: float):
        self._pipe = pipe
        self._fd = pipe.fileno()
        self._timeout = timeout
        self._buffer = bytearray()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._fd, selectors.EVENT_READ)

    def readline(self) -> str:
        buffer = self._buffer
        deadline = time.monotonic() + self._timeout
        searched = 0
        while (end := buffer.find(b"\n", searched)) < 0:
            searched = len(buffer)
            if not self._selector.select(deadline - time.monotonic()):
                raise ProviderError(f"provider sent no reply line within {self._timeout} s")
            chunk = os.read(self._fd, 1 << 16)
            if not chunk:  # end of stream: hand back what is left
                end = len(buffer) - 1
                break
            buffer += chunk
        line = bytes(buffer[: end + 1])
        del buffer[: end + 1]
        return line.decode("utf-8")

    def close(self) -> None:
        self._selector.close()
        self._pipe.close()


class ExternalProvider:
    """Client for the newline-delimited JSON provider protocol.

    One connection serves one codec stream.  Replies carry explicit token
    ids and normalized probabilities; quantization happens here.  A reply
    line from :meth:`from_command` that does not arrive within ``timeout``
    seconds raises ``ProviderError``.
    """

    def __init__(self, reader, writer, close=None):
        self._reader = reader
        self._writer = writer
        self._close = close

    @classmethod
    def from_command(cls, argv: Sequence[str], timeout: float = 30.0) -> "ExternalProvider":
        proc = subprocess.Popen(
            list(argv), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )

        # Replies are read from the pipe's descriptor, never through proc.stdout's buffer.
        reader = _PipeReader(proc.stdout, timeout)

        def _close():
            reader.close()
            proc.stdin.close()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # a stalled provider ignores the closed stdin
                proc.kill()
                proc.wait()

        return cls(reader, proc.stdin, close=_close)

    def close(self) -> None:
        if self._close is not None:
            self._close()

    def next_distribution(self, context: Sequence[int]) -> ConditionalDistribution:
        request = json.dumps({"context": [int(c) for c in context]})
        try:
            self._writer.write(request + "\n")
            self._writer.flush()
            line = self._reader.readline()
        except (OSError, ValueError) as exc:
            raise ProviderError(f"provider transport failed: {exc}") from exc
        if not line:
            raise ProviderError("provider closed the stream")
        try:
            reply = json.loads(line)
            ids, probs = reply["ids"], reply["probs"]
            # numpy would read a JSON boolean as 0 or 1.
            if bool in {*map(type, ids), *map(type, probs)}:
                raise ProviderError("provider reply ids and probabilities must not be booleans")
            ids, probs = np.asarray(ids), np.asarray(probs)  # ragged nesting raises ValueError
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderError(f"malformed provider reply: {line!r}") from exc
        # quantize would read the strings "0.5" as numbers.
        if probs.dtype.kind not in "if":
            raise ProviderError("provider reply probabilities must be numbers")
        # The constructor checks the shapes and ids, from_probs the repeated ids, quantize the values.
        try:
            return ConditionalDistribution.from_probs(ids, probs)
        except QuantizationError as exc:
            raise ProviderError(f"provider reply is not a distribution: {exc}") from exc

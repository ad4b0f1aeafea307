"""Conditional next-token distributions, fixed-point quantized.

Sender and receiver must derive bit-identical distributions or extraction
desynchronizes, so every distribution holds positive integer masses, and
all downstream grouping logic compares integers only.  A distribution's
total (``denominator``) is the sum of its masses; ``quantize`` apportions
exactly ``2**31`` among float probabilities (largest-remainder method).
The float path exists solely upstream of quantization.

Every step of building a distribution is linear or near-linear, because a
neural-style provider hands over a fresh one per token.  ``quantize``
finds the largest remainders by selection (``np.partition``), not by a
sort.  ``ConditionalDistribution`` puts its entries in canonical order
(mass desc, id asc) with one stable argsort, which is adaptive on the
nearly sorted input providers give; the two-key sort runs only when a run
of equal masses comes out of id order.

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
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .corpus import BOS_ID, Vocabulary
from .errors import ConfigError, EmptyCorpusError, ModelMismatchError, ProviderError, QuantizationError

DENOMINATOR = 1 << 31
SUM_TOLERANCE = 1e-6
MODEL_FORMAT_VERSION = 1


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
    if not 0 <= deficit < arr.size:
        raise QuantizationError(f"{deficit} leftover units for {arr.size} entries")
    if deficit:
        # Hand the leftover units to the largest fractional remainders;
        # ties resolve to the lower index so both ends agree.  Every
        # remainder above the deficit-th largest gets a unit, then the
        # lowest-index remainders equal to it fill the rest.
        remainders = scaled  # in place: scaled is not read again
        remainders -= out
        threshold = np.partition(remainders, arr.size - deficit)[arr.size - deficit]
        above = remainders > threshold
        out += above
        # At least the threshold itself is left, so the fill is never empty.
        fill = deficit - int(np.count_nonzero(above))
        out[np.flatnonzero(remainders == threshold)[:fill]] += 1

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

    Ids and masses are integers, every mass at least 1; ``denominator`` is their sum.
    The order comes from one stable argsort of the negated masses, which
    keeps equal masses in input order and is close to linear on the nearly
    sorted masses providers hand over.  One vectorised comparison checks
    that every run of equal masses came out in id order; only when one did
    not does the two-key sort run.

    ``cache`` is scratch space for codec-level derived structures (grouping
    trees, Huffman trees); it never leaves the process.
    """

    __slots__ = ("token_ids", "masses", "denominator", "cache", "_positions")

    def __init__(self, token_ids: Sequence[int], masses: Sequence[int]):
        token_ids, masses = np.asarray(token_ids), np.asarray(masses)
        # An empty list reads as float64, so the size is checked before the dtype.
        if token_ids.shape != masses.shape or not masses.size or {token_ids.dtype.kind, masses.dtype.kind} - {"i", "u"}:
            raise QuantizationError("a distribution needs one integer id per integer mass and at least one entry")
        # A uint mass past int64 wraps negative here, so the mass check rejects it.
        token_ids, masses = token_ids.astype(np.int64, copy=False), masses.astype(np.int64, copy=False)
        if int(masses.min()) < 1:
            raise QuantizationError("a distribution needs masses >= 1")
        order = np.argsort(-masses, kind="stable")
        ids, m = token_ids[order], masses[order]
        if np.any((m[1:] == m[:-1]) & (ids[1:] < ids[:-1])):
            order = np.lexsort((token_ids, -masses))
            ids, m = token_ids[order], masses[order]
        self.token_ids, self.masses = ids, m
        self.denominator = int(m.sum())
        self.cache: Dict = {}
        # None until the first lookup, False after it, then the id->position map.
        self._positions: Union[None, bool, Dict[int, int]] = None

    def __len__(self) -> int:
        return int(self.token_ids.size)

    def position_of(self, token_id: int) -> Optional[int]:
        """Position of ``token_id``, or None when it has no mass.

        A cold distribution is asked once, so the first lookup scans the
        ids; the map is built from the second lookup on.
        """
        positions = self._positions
        if positions is None:
            self._positions = False
            hits = np.flatnonzero(self.token_ids == int(token_id))
            # A repeated id answers with its last position, as the map does.
            return int(hits[-1]) if hits.size else None
        if positions is False:
            positions = self._positions = dict(zip(self.token_ids.tolist(), range(len(self))))
        return positions.get(int(token_id))

    def probs(self) -> np.ndarray:
        return self.masses / float(self.denominator)

    @classmethod
    def from_probs(cls, token_ids: Sequence[int], probs: Sequence[float]) -> "ConditionalDistribution":
        """Quantize ``probs`` to masses summing to ``2**31``; ids must be distinct integers."""
        ids = np.asarray(token_ids)
        if ids.size != len(probs):
            raise QuantizationError("ids and probs length mismatch")
        if ids.size != np.unique(ids).size:
            raise QuantizationError("duplicate token ids in distribution")
        return cls(ids, quantize(probs))


def sample_token(rng: random.Random, token_ids: np.ndarray, cumsum: np.ndarray, total: int) -> int:
    """Inverse-CDF draw: the token whose cumulative-mass interval holds ``rng.randrange(total)``.

    ``cumsum`` is the running sum of the masses aligned with ``token_ids``
    and ``total`` its last entry.
    """
    x = rng.randrange(total)
    return int(token_ids[int(np.searchsorted(cumsum, x, side="right"))])


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
    """

    def __init__(
        self,
        order: int,
        k: float,
        vocab_size: int,
        vocab_hash: str,
        unigram_counts: np.ndarray,
        context_tables: Dict[int, Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray, int]]],
    ):
        self.order = order
        self.k = k
        self.vocab_size = vocab_size
        self.vocab_hash = vocab_hash
        self.unigram_counts = unigram_counts
        self.unigram_total = int(unigram_counts.sum())
        self.context_tables = context_tables

    @property
    def context_window(self) -> int:
        """Only the trailing ``order - 1`` tokens influence the conditional."""
        return self.order - 1

    def next_scores(self, context: Sequence[int]) -> np.ndarray:
        v = self.vocab_size
        for length in range(self.order - 1, 0, -1):
            if len(context) < length:
                continue
            entry = self.context_tables.get(length, {}).get(tuple(context[-length:]))
            if entry is None:
                continue
            ids, counts, total = entry
            s = np.full(v, self.k, dtype=np.float64)
            s[ids] += counts
            return s / (total + self.k * v)
        s = self.unigram_counts + self.k
        return s / (self.unigram_total + self.k * v)

    def next_distribution(self, context: Sequence[int]) -> ConditionalDistribution:
        if not context or context[0] != BOS_ID:
            raise ValueError("context must begin with the BOS id")
        scores = self.next_scores(context)
        return ConditionalDistribution(np.arange(self.vocab_size, dtype=np.int64), quantize(scores))

    def save(self, path: str) -> None:
        contexts = {}
        for length, table in sorted(self.context_tables.items()):
            serial = {}
            for ctx in sorted(table):
                ids, counts, _total = table[ctx]
                serial[",".join(map(str, ctx))] = [ids.tolist(), counts.tolist()]
            contexts[str(length)] = serial
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
            if unigram_counts.shape != (vocab_size,):
                raise ModelMismatchError(f"model file {path} does not hold one unigram count per token")
            order, k = int(doc["order"]), float(doc["k"])
            if order < 2 or not 0 < k < math.inf:
                raise ModelMismatchError(f"model file {path} needs order >= 2 and 0 < k < inf, not {order} and {k}")
            tables: Dict[int, Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray, int]]] = {}
            for length, serial in doc["contexts"].items():
                table = {}
                for key, (ids, counts) in serial.items():
                    ctx = tuple(int(x) for x in key.split(",")) if key else ()
                    arr_ids = np.asarray(ids, dtype=np.int64)
                    arr_counts = np.asarray(counts, dtype=np.float64)
                    named = np.concatenate((np.asarray(ctx, dtype=np.int64), arr_ids))
                    if np.any((named < 0) | (named >= vocab_size)):
                        raise ModelMismatchError(
                            f"model file {path} context {key!r} holds a token id outside [0, {vocab_size})")
                    if arr_ids.shape != arr_counts.shape:
                        raise ModelMismatchError(
                            f"model file {path} context {key!r} holds {arr_ids.size} ids but {arr_counts.size} counts")
                    table[ctx] = (arr_ids, arr_counts, int(arr_counts.sum()))
                tables[int(length)] = table
            return cls(
                order=order,
                k=k,
                vocab_size=vocab_size,
                vocab_hash=doc["vocab_hash"],
                unigram_counts=unigram_counts,
                context_tables=tables,
            )
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ModelMismatchError(f"model file {path} is corrupt: {exc!r}") from exc


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
    raw: Dict[int, Dict[Tuple[int, ...], Dict[int, int]]] = {
        length: {} for length in range(1, order)
    }
    for sent in sentences:
        for t in range(1, len(sent)):
            token = sent[t]
            unigrams[token] += 1
            for length in range(1, order):
                if t < length:
                    break
                ctx = tuple(sent[t - length : t])
                bucket = raw[length].setdefault(ctx, {})
                bucket[token] = bucket.get(token, 0) + 1

    tables: Dict[int, Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray, int]]] = {}
    for length, table in raw.items():
        frozen = {}
        for ctx, bucket in table.items():
            ids = np.asarray(sorted(bucket), dtype=np.int64)
            counts = np.asarray([bucket[i] for i in ids], dtype=np.float64)
            frozen[ctx] = (ids, counts, int(counts.sum()))
        tables[length] = frozen
    return NGramLM(order, k, v, vocab.content_hash(), unigrams, tables)


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
        if ids.ndim != 1 or probs.shape != ids.shape or not ids.size:
            raise ProviderError("provider reply ids/probs mismatch")
        # A float, string or nested id gives numpy a non-integer dtype.
        if ids.dtype.kind != "i" or np.any(ids < 0):
            raise ProviderError("provider reply ids must be nonnegative integers")
        if probs.dtype.kind not in "if" or not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise ProviderError("provider reply probabilities must be finite nonnegative numbers")
        try:
            return ConditionalDistribution.from_probs(ids, probs)
        except QuantizationError as exc:
            raise ProviderError(f"provider reply is not a distribution: {exc}") from exc

"""Shared autoregressive generation loop for every stego codec.

A codec (a :class:`Codec` subclass) supplies ``embed_step`` /
``extract_step`` plus optional stream state; this module owns everything
the codecs have in common: the sentence loop, the EOS length constraints,
distribution caching, and the per-step trace used by the metrics layer.

Length constraints are part of the codec contract, not the sampler:
before ``min_len`` content tokens the EOS mass is masked down to 1 (the
excess goes to the largest other entry), and at ``max_len`` the EOS is
forced and carries no bits.  Extraction applies the identical masking, so
both ends group identical integer distributions.
"""

from __future__ import annotations

import json
import math
import random
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bitio import BitMessage
from .corpus import BOS_ID, EOS_ID
from .errors import CapacityError, ConfigError, DesyncError, ProviderError
from .lm import ConditionalDistribution


class CachedProvider:
    """Memoizes quantized distributions (and their EOS-masked variants) by context.

    Holds at most ``MAX_ENTRIES`` token entries, evicting the oldest
    distributions first but always keeping the newest, however large.  A
    no-op EOS mask leaves one object under both of a context's keys, and
    it counts once, for as long as either key holds it.

    The bound counts every distribution's arrays as its own, so it
    over-counts those that are shared: distributions from one
    :class:`~adgstego.lm.NGramLM` share read-only ids and masses across
    every provider over that model, and an in-place write to them raises
    ``ValueError``.  Codec state in each distribution's ``cache`` is never
    shared; the arithmetic codec's id map, for one, is built only by a
    receiver.
    """

    MAX_ENTRIES = 1 << 24  # 16 bytes each before trees; the bundled model's ~1.6 M all fit

    def __init__(self, provider):
        self._provider = provider
        self._cache: "OrderedDict[Tuple, ConditionalDistribution]" = OrderedDict()
        self._entries = 0
        # A provider may declare that only the trailing N context tokens
        # influence its output; keys truncate accordingly so one cached
        # distribution (and its grouping tree) serves every equivalent
        # context.
        self._window = getattr(provider, "context_window", None)

    def get(self, context: Tuple[int, ...], mask_eos: bool) -> ConditionalDistribution:
        if self._window is not None and len(context) > self._window:
            key = (context[len(context) - self._window:], mask_eos)  # [-0:] would keep all of it
        else:
            key = (context, mask_eos)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if mask_eos:
            dist = mask_eos_min(self.get(context, False))
        else:
            dist = self._provider.next_distribution(list(context))
        self._cache[key] = dist
        if self._cache.get((key[0], not mask_eos)) is not dist:
            self._entries += len(dist)
        while self._entries > self.MAX_ENTRIES and len(self._cache) > 1:
            (old_context, masked), old = self._cache.popitem(last=False)
            if self._cache.get((old_context, not masked)) is not old:
                self._entries -= len(old)
        return dist


def mask_eos_min(dist: ConditionalDistribution) -> ConditionalDistribution:
    """Reduce the EOS mass to the 1-unit minimum, excess to the largest entry.

    Keeps the total mass exact so grouping stays well defined.  A no-op when
    EOS is absent or already at minimum mass.  The result is laid out in
    canonical order without a sort: EOS leaves its place for the run of
    mass-1 entries at the end, where it goes by id, and the entry that then
    comes first takes the excess.
    """
    pos = dist.position_of(EOS_ID)
    if pos is None or dist.masses.item(pos) <= 1:
        return dist
    if len(dist) == 1:
        raise ProviderError("the distribution holds only EOS, so EOS cannot be masked")
    ids, masses = dist.token_ids, dist.masses
    # Masses descend, so the entries above 1, EOS among them, come first.
    above = len(masses) - int(np.searchsorted(masses[::-1], 1, side="right"))
    # Without EOS they keep their order, and so does the first entry once it takes
    # the excess, even if it weighed 1.  EOS goes after them and after the mass-1
    # ids below its own; pos <= end, and ids[end + 1:] are those mass-1 entries.
    end = max(above - 1, 1)
    end += int(np.searchsorted(ids[end + 1:], EOS_ID))
    masked = np.concatenate((masses[:pos], masses[pos + 1:end + 1], [1], masses[end + 1:]))
    masked[0] += masses.item(pos) - 1
    return ConditionalDistribution._trusted(
        np.concatenate((ids[:pos], ids[pos + 1:end + 1], [EOS_ID], ids[end + 1:])), masked, dist.denominator)


@dataclass
class StepRecord:
    token: int
    bits: float
    forced: bool = False
    group_sizes: Optional[List[int]] = None  # per-level group counts (grouping codec only)
    kld_qp: Optional[float] = None
    kld_pq: Optional[float] = None
    entropy: Optional[float] = None


# The type of each field that EmbedTrace.save writes; a step omits its None fields.
_TRACE_FIELD_TYPES = {"method": str, "params": dict, "frame_bits": int, "payload_bits": int, "token": int,
                      "bits": (int, float), "kld_qp": (int, float), "kld_pq": (int, float), "entropy": (int, float),
                      "forced": bool, "group_sizes": list}


def _wrong_type(value, kind) -> bool:
    """Whether ``value`` is not a ``kind``; a bool counts only as a bool."""
    return not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)


def _check_trace_record(path: str, record: Dict) -> None:
    """Raise ConfigError naming ``path`` if a field of ``record`` has a type save never writes."""
    for key, value in record.items():
        kind = _TRACE_FIELD_TYPES.get(key)
        if kind is not None and (_wrong_type(value, kind) or kind is list and any(_wrong_type(v, int) for v in value)):
            raise ConfigError(f"trace file {path} has {key} {value!r} of the wrong type")


@dataclass
class EmbedTrace:
    method: str
    params: Dict
    frame_bits: int
    payload_bits: int
    steps: List[StepRecord] = field(default_factory=list)

    @property
    def total_bits(self) -> float:
        return sum(s.bits for s in self.steps)

    @property
    def total_tokens(self) -> int:
        return len(self.steps)

    def save(self, path: str) -> None:
        """One JSON line for the header fields, then one per step without its ``None`` fields."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "steps"}
            fh.write(json.dumps({"record": "header", **header}, sort_keys=True) + "\n")
            for s in self.steps:
                row = {key: value for key, value in asdict(s).items() if value is not None}
                fh.write(json.dumps({"record": "step", **row}, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "EmbedTrace":
        """Read a trace written by :meth:`save`; any other file raises ConfigError."""
        with open(path, encoding="utf-8") as fh:
            try:
                header = json.loads(fh.readline())
                if not isinstance(header, dict) or header.get("record") != "header":
                    raise ConfigError(f"trace file {path} lacks a header record")
                _check_trace_record(path, header)
                trace = cls(**{f.name: header[f.name] for f in fields(cls) if f.name != "steps"})
                for line in fh:
                    if not line.strip():
                        continue
                    row = json.loads(line)
                    if not isinstance(row, dict) or row.pop("record", None) != "step":
                        raise ConfigError(f"trace file {path} holds a line that is not a step record")
                    _check_trace_record(path, row)
                    trace.steps.append(StepRecord(**row))
            except (KeyError, TypeError, json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"trace file {path} is not a trace: {exc!r}") from exc
        return trace


@dataclass
class GenerationConfig:
    min_len: int = 5
    max_len: int = 200
    max_tokens: int = 1_000_000
    sample_seed: int = 0
    pad_seed: int = 1
    collect_stats: bool = False

    def __post_init__(self):
        # At max_len 0 every sentence is a lone forced EOS until max_tokens runs
        # out; at min_len 0 a sentence may be empty, a blank line the corpus reader
        # drops; at max_tokens 0 no step may run, so no message is delivered.
        for name in ("min_len", "max_len", "max_tokens"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")


class Codec:
    """Base class of the codecs driven by :func:`embed_text` and :func:`extract_text`.

    A subclass defines ``name``, ``params`` (a JSON-serializable dict),
    ``embed_step(dist, msg, sample_rng, pad_rng) -> (token, bits, group_sizes)``,
    ``extract_step(dist, token) -> bits`` and ``step_q(dist) -> (positions, probs)``:
    the distribution q the codec induces on uniform message bits, as an int
    array of positions into ``dist`` (its mass-desc, id-asc order) and the
    probability of each.
    The defaults below fit a codec without state between steps; a codec
    with stream state overrides them.
    """

    def begin_embed(self) -> None:
        """Reset stream state before a message is embedded."""

    def begin_extract(self) -> None:
        """Reset stream state before sentences are read back."""

    def delivered(self, msg: BitMessage) -> bool:
        """Whether the receiver can already recover every bit of ``msg``."""
        return msg.exhausted

    def finish_extract(self) -> List[int]:
        """Bits still held in stream state once the last token is read."""
        return []


def _step_stats(dist: ConditionalDistribution, positions, q_probs) -> Tuple[float, float, float]:
    """Per-step KL(q||p), KL(p||q) and H(p), all in bits; ``positions`` index ``dist``."""
    p = dist.probs()
    entropy = float(-(p * np.log2(p)).sum())
    q = np.asarray(q_probs, dtype=np.float64)
    support = q > 0
    qp = float((q[support] * np.log2(q[support] / p[positions[support]])).sum())
    if np.count_nonzero(support) == len(dist):
        covered = np.zeros(len(dist), dtype=np.float64)
        covered[positions] = q
        pq = float((p * np.log2(p / covered)).sum())
    else:
        pq = math.inf
    return qp, pq, entropy


def embed_text(
    codec: Codec, msg: BitMessage, provider, cfg: GenerationConfig
) -> Tuple[List[List[int]], EmbedTrace]:
    """Generate stegotext sentences until the frame is delivered.

    Returns sentences as lists of content token ids (BOS/EOS implicit) and
    the per-step trace.  Raises :class:`CapacityError` when ``max_tokens``
    steps, forced EOS included, pass before the message is delivered.
    """
    if not isinstance(provider, CachedProvider):
        provider = CachedProvider(provider)
    sample_rng = random.Random(cfg.sample_seed)
    pad_rng = random.Random(cfg.pad_seed)
    codec.begin_embed()
    trace = EmbedTrace(
        method=codec.name,
        params=dict(codec.params),
        frame_bits=len(msg),
        payload_bits=msg.payload_bits,
    )
    # Stats depend only on the distribution and the codec parameters.
    stats_key = ("stats", codec.name, tuple(sorted(codec.params.items())))
    sentences: List[List[int]] = []
    while True:
        context = [BOS_ID]
        while True:
            if len(trace.steps) >= cfg.max_tokens and not codec.delivered(msg):
                raise CapacityError(f"message not delivered within {cfg.max_tokens} tokens")
            # context holds BOS and the sentence's content tokens so far.
            if len(context) > cfg.max_len:
                token, record = EOS_ID, StepRecord(token=EOS_ID, bits=0.0, forced=True)
            else:
                dist = provider.get(tuple(context), mask_eos=len(context) <= cfg.min_len)
                token, bits, detail = codec.embed_step(dist, msg, sample_rng, pad_rng)
                record = StepRecord(token=token, bits=float(bits), group_sizes=detail)
                if cfg.collect_stats:
                    stats = dist.cache.get(stats_key)
                    if stats is None:
                        stats = _step_stats(dist, *codec.step_q(dist))
                        dist.cache[stats_key] = stats
                    record.kld_qp, record.kld_pq, record.entropy = stats
            trace.steps.append(record)
            if token == EOS_ID:
                break
            context.append(token)
        sentences.append(context[1:])
        if codec.delivered(msg):
            return sentences, trace


def extract_text(codec: Codec, sentences: Sequence[Sequence[int]], provider, cfg: GenerationConfig) -> List[int]:
    """Recover the raw bitstream from stegotext sentences (frame included).

    Raises :class:`DesyncError` before any model call when the sentences
    hold more steps, EOS included, than embedding can write: ``max_tokens``
    and the rest of the sentence in which the message was delivered, at
    most ``max_len`` more.
    """
    steps = sum(len(s) + 1 for s in sentences)
    if steps > cfg.max_tokens + cfg.max_len:
        raise DesyncError(f"the sentences hold {steps} steps, EOS included, more than the max_tokens + max_len = "
                          f"{cfg.max_tokens} + {cfg.max_len} that embedding can write")
    if not isinstance(provider, CachedProvider):
        provider = CachedProvider(provider)
    codec.begin_extract()
    bits: List[int] = []
    for sentence in sentences:
        context = [BOS_ID]
        for pos, token in enumerate(list(sentence) + [EOS_ID]):
            if pos >= cfg.max_len:
                if token != EOS_ID:
                    raise DesyncError(f"sentence exceeds the {cfg.max_len}-token limit")
                break  # forced EOS carried no bits
            dist = provider.get(tuple(context), mask_eos=pos < cfg.min_len)
            bits.extend(codec.extract_step(dist, token))
            context.append(token)
    bits.extend(codec.finish_extract())
    return bits

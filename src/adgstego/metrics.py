"""Capacity and imperceptibility metrics computed from traces and corpora.

All divergences and rates are reported in bits (log base 2).  The
sentence vectorizer here is a deterministic hashed bag-of-words random
projection; absolute distribution-level KL values therefore depend on the
vectorizer id and seed, which reports must carry, and only cross-method
comparisons under one fixed vectorizer are meaningful.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, StegoError
from .runner import EmbedTrace

VECTORIZER_ID = "hashed-bow-signed-projection-v1"
SIGMA_FLOOR = 1e-6


def embedding_rate(*traces: EmbedTrace, payload_only: bool = False) -> float:
    """Average bits carried per generated token, pooled over ``traces``.

    By default the frame header and padding count as carried bits (the
    rate is a codec property); ``payload_only`` counts at most each
    trace's payload bits instead.
    """
    if not any(t.steps for t in traces):
        raise StegoError("cannot compute an embedding rate from traces without steps")
    if payload_only:
        bits = sum(min(t.total_bits, t.payload_bits) for t in traces)
    else:
        bits = sum(t.total_bits for t in traces)
    return bits / sum(t.total_tokens for t in traces)


def kl_divergence_bits(p: Sequence[float], q: Sequence[float]) -> float:
    """Discrete KL(p || q) in bits; infinite when q lacks mass where p has it."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= 0:
            continue
        if qi <= 0:
            return math.inf
        total += pi * math.log2(pi / qi)
    return total


@dataclass
class Kld1Result:
    mean_qp: float
    mean_pq: Optional[float]  # None when any step made it infinite


def kld1(*traces: EmbedTrace) -> Kld1Result:
    """Average per-step KL between the implicit and model distributions.

    Requires traces recorded with per-step stats; the scored steps of all
    ``traces`` are pooled.  Both directions are averaged, the p||q
    direction only while finite (truncated-support codecs make it
    infinite).
    """
    qps, pqs = [], []
    finite_pq = True
    for s in (s for trace in traces for s in trace.steps if not s.forced):
        if s.kld_qp is None:
            raise StegoError("trace lacks per-step divergence stats")
        qps.append(s.kld_qp)
        if s.kld_pq is None or math.isinf(s.kld_pq):
            finite_pq = False
        else:
            pqs.append(s.kld_pq)
    if not qps:
        raise StegoError("trace has no scored steps")
    mean_pq = (sum(pqs) / len(pqs)) if (finite_pq and pqs) else None
    return Kld1Result(mean_qp=sum(qps) / len(qps), mean_pq=mean_pq)


# Token patterns memoized across calls; the oldest entry is evicted past
# the bound (~1 KB each at the default dimension).
PATTERN_CACHE_ENTRIES = 1 << 14
_pattern_cache: "OrderedDict[Tuple[str, int, int], np.ndarray]" = OrderedDict()


def _token_pattern(token: str, dim: int, seed: int) -> np.ndarray:
    key = (token, dim, seed)
    hit = _pattern_cache.get(key)
    if hit is None:
        digest = hashlib.sha256(f"{seed}:{token}".encode("utf-8")).digest()
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "big")))
        hit = rng.choice(np.asarray([-1.0, 1.0]), size=dim)
        _pattern_cache[key] = hit
        if len(_pattern_cache) > PATTERN_CACHE_ENTRIES:
            _pattern_cache.popitem(last=False)
    return hit


def sentence_vector(tokens: Sequence[str], dim: int = 100, seed: int = 0) -> np.ndarray:
    """Deterministic unit vector for a sentence (order-insensitive).

    Each token hashes to a fixed signed pattern; patterns are summed and
    L2-normalized, so identical bags of words map to identical vectors.
    """
    if dim < 1:
        raise ConfigError(f"vector_dim must be >= 1, got {dim}")
    if not tokens:
        raise StegoError("cannot vectorize an empty sentence")
    v = np.zeros(dim)
    for tok in tokens:
        v += _token_pattern(tok, dim, seed)
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0 else v


def kld2(cover_vectors: Sequence[np.ndarray], stego_vectors: Sequence[np.ndarray]) -> float:
    """Gaussian KL (bits) between per-dimension statistics of two vector sets."""
    if len(cover_vectors) < 2 or len(stego_vectors) < 2:
        raise StegoError("need at least 2 vectors per side")
    x = np.stack(cover_vectors)
    y = np.stack(stego_vectors)
    mu_x, mu_y = x.mean(axis=0), y.mean(axis=0)
    sigma_x = np.maximum(x.std(axis=0), SIGMA_FLOOR)
    sigma_y = np.maximum(y.std(axis=0), SIGMA_FLOOR)
    nats = np.log(sigma_y / sigma_x) + (sigma_x**2 + (mu_x - mu_y) ** 2) / (2 * sigma_y**2) - 0.5
    return float(nats.sum() / math.log(2))


def eer(acc: float, er: float) -> float:
    """Effective embedding rate: capacity discounted by detectability."""
    if not 0.0 <= acc <= 1.0:
        raise ConfigError(f"accuracy {acc} outside [0, 1]")
    if er < 0:
        raise ConfigError(f"embedding rate {er} must be nonnegative")
    acc = max(acc, 1.0 - acc)
    return 2.0 * (1.0 - acc) * er


@dataclass
class MetricReport:
    method: str
    params: Dict
    er: float
    er_payload_only: float
    kld1_qp: float
    kld1_pq: Optional[float]
    kld2: Optional[float]
    eer: Optional[float]
    entropy: Optional[float]  # mean per-step model entropy (bits), if recorded
    sentences: int
    tokens: int
    vectorizer: str = VECTORIZER_ID
    vectorizer_seed: int = 0


def report_from_traces(
    traces: Iterable[EmbedTrace],
    stego_sentences: Optional[Sequence[Sequence[str]]] = None,
    cover_sentences: Optional[Sequence[Sequence[str]]] = None,
    acc: Optional[float] = None,
    vector_dim: int = 100,
    vector_seed: int = 0,
) -> MetricReport:
    """Aggregate one method's traces (and optional texts) into a report."""
    traces = list(traces)
    if not traces:
        raise StegoError("no traces to report on")
    divergence = kld1(*traces)
    kld2_value = None
    if stego_sentences is not None and cover_sentences is not None:
        cover_v = [sentence_vector(s, vector_dim, vector_seed) for s in cover_sentences]
        stego_v = [sentence_vector(s, vector_dim, vector_seed) for s in stego_sentences]
        kld2_value = kld2(cover_v, stego_v)
    er_value = embedding_rate(*traces)
    entropies = [s.entropy for t in traces for s in t.steps if not s.forced and s.entropy is not None]
    return MetricReport(
        method=traces[0].method,
        params=traces[0].params,
        er=er_value,
        er_payload_only=embedding_rate(*traces, payload_only=True),
        kld1_qp=divergence.mean_qp,
        kld1_pq=divergence.mean_pq,
        kld2=kld2_value,
        eer=eer(acc, er_value) if acc is not None else None,
        entropy=sum(entropies) / len(entropies) if entropies else None,
        sentences=len(stego_sentences) if stego_sentences is not None else 0,
        tokens=sum(t.total_tokens for t in traces),
        vectorizer_seed=vector_seed,
    )

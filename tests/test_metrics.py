"""Capacity and imperceptibility metrics."""

import math

import numpy as np
import pytest

from adgstego import ADGCodec, frame
from adgstego import metrics
from adgstego.errors import StegoError
from adgstego.metrics import (
    Kld1Result,
    eer,
    embedding_rate,
    kl_divergence_bits,
    kld1,
    kld2,
    report_from_traces,
    sentence_vector,
)
from adgstego.runner import EmbedTrace, GenerationConfig, StepRecord, embed_text


def make_trace(bits_per_step, payload_bits=16, **stats):
    trace = EmbedTrace(method="adg", params={}, frame_bits=32 + payload_bits, payload_bits=payload_bits)
    for b in bits_per_step:
        trace.steps.append(StepRecord(token=4, bits=float(b), **stats))
    return trace


def test_embedding_rate_total_and_payload_only():
    trace = make_trace([3, 3, 2, 0])
    assert embedding_rate(trace) == pytest.approx(8 / 4)
    assert embedding_rate(trace, payload_only=True) == pytest.approx(8 / 4)
    big = make_trace([30, 30], payload_bits=16)
    assert embedding_rate(big, payload_only=True) == pytest.approx(16 / 2)
    with pytest.raises(StegoError):
        embedding_rate(make_trace([]))


def test_kl_divergence_bits_basic():
    assert kl_divergence_bits([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert kl_divergence_bits([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)
    assert math.isinf(kl_divergence_bits([0.5, 0.5], [1.0, 0.0]))


def test_kld1_skips_forced_and_averages():
    trace = make_trace([1, 1], kld_qp=0.5, kld_pq=0.25, entropy=2.0)
    trace.steps.append(StepRecord(token=3, bits=0.0, forced=True))
    result = kld1(trace)
    assert result == Kld1Result(mean_qp=0.5, mean_pq=0.25)
    assert report_from_traces([trace]).entropy == pytest.approx(2.0)


def test_kld1_infinite_direction_reported_as_none():
    trace = make_trace([1], kld_qp=0.5, kld_pq=math.inf, entropy=2.0)
    assert kld1(trace).mean_pq is None


def test_kld1_requires_stats():
    with pytest.raises(StegoError):
        kld1(make_trace([1, 2]))


def test_kld1_pools_the_steps_of_several_traces():
    a = make_trace([1, 1], kld_qp=0.5, kld_pq=0.25)
    b = make_trace([1], kld_qp=2.0, kld_pq=1.0)
    assert kld1(a, b) == Kld1Result(mean_qp=1.0, mean_pq=0.5)
    b.steps[0].kld_pq = math.inf
    assert kld1(a, b).mean_pq is None


def test_embedding_rate_pools_several_traces():
    a = make_trace([30, 30], payload_bits=16)  # payload-only caps this trace at 16 bits
    b = make_trace([3, 3, 2, 0])
    assert embedding_rate(a, b) == 68 / 6
    assert embedding_rate(a, b, payload_only=True) == (16 + 8) / 6
    with pytest.raises(StegoError):
        embedding_rate(make_trace([]), make_trace([]))


def test_sentence_vector_deterministic_unit_order_insensitive():
    a = sentence_vector(["the", "cat", "sat"], dim=64, seed=1)
    b = sentence_vector(["sat", "the", "cat"], dim=64, seed=1)
    assert np.allclose(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0)
    c = sentence_vector(["the", "cat", "sat"], dim=64, seed=2)
    assert not np.allclose(a, c)
    with pytest.raises(StegoError):
        sentence_vector([], dim=64)


def test_pattern_cache_stays_bounded():
    metrics._pattern_cache.clear()
    try:
        tokens = [f"w{i}" for i in range(metrics.PATTERN_CACHE_ENTRIES + 50)]
        sentence_vector(tokens, dim=4)
        assert len(metrics._pattern_cache) == metrics.PATTERN_CACHE_ENTRIES
        assert ("w0", 4, 0) not in metrics._pattern_cache  # the oldest went first
        assert (tokens[-1], 4, 0) in metrics._pattern_cache
    finally:
        metrics._pattern_cache.clear()


def test_kld2_zero_for_identical_sets_and_positive_for_shifted():
    rng = np.random.default_rng(3)
    x = [rng.normal(size=16) for _ in range(50)]
    assert kld2(x, list(x)) == pytest.approx(0.0, abs=1e-9)
    y = [v + 2.0 for v in x]
    assert kld2(x, y) > 1.0
    with pytest.raises(StegoError):
        kld2(x[:1], x)


def test_eer_formula_and_reflection():
    assert eer(0.873, 1.0) == pytest.approx(0.254)
    assert eer(0.5, 4.0) == pytest.approx(4.0)
    assert eer(1.0, 4.0) == 0.0
    # A detector below chance is as informative as its mirror image.
    assert eer(0.1, 2.0) == eer(0.9, 2.0)
    with pytest.raises(ValueError):
        eer(1.2, 1.0)
    with pytest.raises(ValueError):
        eer(0.5, -1.0)


def test_report_from_traces_aggregates_step_weighted(provider):
    cfg = GenerationConfig(sample_seed=11, pad_seed=12, collect_stats=True)
    traces = []
    for i in range(3):
        cfg.sample_seed = 11 + i
        _s, trace = embed_text(ADGCodec(), frame(bytes([i])), provider, cfg)
        traces.append(trace)
    report = report_from_traces(traces, acc=0.6)
    assert report.method == "adg"
    total_bits = sum(t.total_bits for t in traces)
    total_tokens = sum(t.total_tokens for t in traces)
    assert report.er == pytest.approx(total_bits / total_tokens)
    assert report.eer == pytest.approx(2 * 0.4 * report.er)
    assert report.kld1_qp >= 0
    assert report.kld2 is None
    with pytest.raises(StegoError):
        report_from_traces([])

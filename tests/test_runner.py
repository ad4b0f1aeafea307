"""Generation loop: length constraints, capacity limits, traces, caching."""

import io
import math
import random
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adgstego import ADGCodec, BitMessage, CachedProvider, deframe, frame, make_codec
from adgstego.bitio import HEADER_BITS, bytes_to_bits
from adgstego.corpus import BOS_ID, EOS_ID
from adgstego.errors import CapacityError, ConfigError, DesyncError, ProviderError, StegoError
from adgstego.lm import ConditionalDistribution, ExternalProvider
from adgstego.runner import (
    EmbedTrace,
    GenerationConfig,
    StepRecord,
    _step_stats,
    embed_text,
    extract_text,
    mask_eos_min,
)


def test_mask_eos_min_moves_excess_to_largest():
    dist = ConditionalDistribution([EOS_ID, 7, 8], [50, 30, 20])
    masked = mask_eos_min(dist)
    assert int(masked.masses.sum()) == 100
    pos = masked.position_of(EOS_ID)
    assert int(masked.masses[pos]) == 1
    # EOS was the largest entry, so the excess lands on the next largest.
    assert int(masked.masses[masked.position_of(7)]) == 79


def test_mask_eos_min_noop_without_eos():
    dist = ConditionalDistribution([7, 8], [60, 40])
    assert mask_eos_min(dist) is dist


def test_mask_eos_min_rejects_eos_only_distribution():
    # Every step before min_len asks for the masked distribution.
    reply = '{"ids": [%d], "probs": [1.0]}\n' % EOS_ID
    cached = CachedProvider(ExternalProvider(io.StringIO(reply), io.StringIO()))
    with pytest.raises(ProviderError):
        cached.get((BOS_ID,), mask_eos=True)


def test_min_len_suppresses_early_eos(provider):
    cfg = GenerationConfig(sample_seed=0, pad_seed=1, min_len=5)
    sentences, _ = embed_text(ADGCodec(), frame(b"xy"), provider, cfg)
    assert all(len(s) >= 5 for s in sentences)


def test_max_len_forces_eos_with_zero_bits(provider):
    cfg = GenerationConfig(sample_seed=0, pad_seed=1, min_len=2, max_len=6)
    sentences, trace = embed_text(ADGCodec(), frame(b"payload!"), provider, cfg)
    assert all(len(s) <= 6 for s in sentences)
    forced = [s for s in trace.steps if s.forced]
    for step in forced:
        assert step.token == EOS_ID and step.bits == 0
    # Extraction under the same constraints recovers the stream.
    bits = extract_text(ADGCodec(), sentences, provider, cfg)
    assert bits[: trace.frame_bits] == frame(b"payload!").bits


def test_extract_rejects_overlong_sentence(provider):
    cfg = GenerationConfig(max_len=6)
    with pytest.raises(DesyncError):
        extract_text(ADGCodec(), [[4] * 10], provider, cfg)


def test_capacity_error_on_token_budget(provider):
    cfg = GenerationConfig(sample_seed=0, pad_seed=1, max_tokens=3)
    with pytest.raises(CapacityError):
        embed_text(ADGCodec(), frame(b"far too much payload for three tokens"), provider, cfg)


@pytest.mark.parametrize("setting", [{"min_len": 0}, {"max_len": 0}, {"min_len": -3}, {"max_tokens": 0},
                                     {"max_tokens": -5}],
                         ids=["min-len-zero", "max-len-zero", "min-len-negative", "max-tokens-zero",
                              "max-tokens-negative"])
def test_lengths_below_one_are_rejected(setting):
    # max_len 0 made every sentence a lone forced EOS, which only a budget stopped;
    # min_len 0 let a sentence end empty, a blank line the corpus reader drops;
    # max_tokens -5 once surfaced as a CapacityError "within -5 tokens" at the first step.
    with pytest.raises(ConfigError, match=next(iter(setting))):
        GenerationConfig(**setting)
    GenerationConfig(min_len=1, max_len=1)


def test_cached_provider_returns_identical_objects(model):
    provider = CachedProvider(model)
    a = provider.get((BOS_ID,), False)
    b = provider.get((BOS_ID,), False)
    assert a is b
    masked = provider.get((BOS_ID,), True)
    assert masked is not a
    assert masked is provider.get((BOS_ID,), True)


def test_cached_provider_eviction(model, monkeypatch):
    monkeypatch.setattr(CachedProvider, "MAX_ENTRIES", 2 * model.vocab_size)  # two distributions
    provider = CachedProvider(model)
    first = provider.get((BOS_ID,), False)
    provider.get((BOS_ID, 4), False)
    provider.get((BOS_ID, 5), False)  # evicts the oldest entry
    assert provider.get((BOS_ID,), False) is not first


class SizedProvider:
    """A uniform distribution over as many tokens as the context's last id."""

    def next_distribution(self, context):
        return ConditionalDistribution(range(context[-1]), [1] * context[-1])


def test_cached_provider_bounds_the_entries_it_holds(monkeypatch):
    monkeypatch.setattr(CachedProvider, "MAX_ENTRIES", 10)
    provider = CachedProvider(SizedProvider())
    four, five = provider.get((BOS_ID, 4), False), provider.get((BOS_ID, 5), False)  # 9 entries held
    assert provider.get((BOS_ID, 4), False) is four
    provider.get((BOS_ID, 3), False)  # 12 entries: the oldest goes
    assert provider.get((BOS_ID, 5), False) is five
    assert provider.get((BOS_ID, 4), False) is not four
    big = provider.get((BOS_ID, 20), False)  # above the bound alone: served, and held until the next miss
    assert len(big) == 20 and provider.get((BOS_ID, 20), False) is big


class ContextFreeProvider:
    """One distribution whatever the context, declared with ``context_window = 0``; counts its calls."""

    context_window = 0

    def __init__(self):
        self.calls = 0

    def next_distribution(self, context):
        self.calls += 1
        return ConditionalDistribution([1, 2, 3], [3, 2, 1])


def test_cached_provider_shares_one_entry_across_contexts_when_the_window_is_zero():
    counting = ContextFreeProvider()
    provider = CachedProvider(counting)
    first = provider.get((2,), False)
    assert provider.get((2, 7), False) is first
    assert counting.calls == 1


@pytest.mark.parametrize("cfg, sentences", [
    # 16 steps, EOS included, against a budget of 10 + 5.
    (GenerationConfig(max_tokens=10, max_len=5), [[4] * 4] * 3 + [[]]),
    # A hostile file of 1,000,000 words, 25 to a line: 1,040,000 steps against 1,000,000 + 200.
    (GenerationConfig(), [[4] * 25] * 40_000),
], ids=["one-step-over", "a-million-words"])
def test_extract_refuses_more_steps_than_embedding_writes_before_any_model_call(cfg, sentences):
    counting = ContextFreeProvider()
    with pytest.raises(DesyncError, match="max_tokens \\+ max_len"):
        extract_text(ADGCodec(), sentences, counting, cfg)
    assert counting.calls == 0


def test_a_text_longer_than_max_tokens_that_embedding_wrote_round_trips(model):
    # Embedding stops counting once the message is delivered and finishes that sentence.
    payload = bytes([0, 7, 9, 200])
    cfg = GenerationConfig(sample_seed=0, pad_seed=1, max_len=40, max_tokens=14)
    sentences, trace = embed_text(ADGCodec(), frame(payload), model, cfg)
    assert len(trace.steps) == sum(len(s) + 1 for s in sentences) > cfg.max_tokens
    assert deframe(extract_text(ADGCodec(), sentences, model, cfg)) == bytes_to_bits(payload)


def assert_each_distribution_counted_once(provider):
    held = {id(dist): len(dist) for dist in provider._cache.values()}
    assert provider._entries == sum(held.values())


def test_cached_provider_counts_a_no_op_eos_mask_once(monkeypatch):
    monkeypatch.setattr(CachedProvider, "MAX_ENTRIES", 25)
    provider = CachedProvider(SizedProvider())  # every mass is 1, so masking EOS changes nothing
    ten = provider.get((BOS_ID, 10), False)
    assert provider.get((BOS_ID, 10), True) is ten
    assert_each_distribution_counted_once(provider)
    assert provider._entries == 10
    twelve = provider.get((BOS_ID, 12), True)  # 22 entries held under four keys
    assert provider.get((BOS_ID, 12), False) is twelve and provider.get((BOS_ID, 10), False) is ten
    provider.get((BOS_ID, 5), False)  # 27: both keys of the ten-token distribution go
    assert_each_distribution_counted_once(provider)
    assert provider._entries == 17 and len(provider._cache) == 3
    assert provider.get((BOS_ID, 12), True) is twelve and provider.get((BOS_ID, 10), True) is not ten


def test_cached_provider_counts_masked_and_unmasked_distributions_apart(model, monkeypatch):
    monkeypatch.setattr(CachedProvider, "MAX_ENTRIES", 3 * model.vocab_size)
    provider = CachedProvider(model)
    for word in range(EOS_ID + 1, EOS_ID + 9):
        plain, masked = provider.get((BOS_ID, word), False), provider.get((BOS_ID, word), True)
        assert masked is not plain
        assert_each_distribution_counted_once(provider)
        assert provider._entries <= 3 * model.vocab_size


def test_trace_totals_and_save_load(tmp_path, provider):
    cfg = GenerationConfig(sample_seed=3, pad_seed=4, collect_stats=True)
    _sentences, trace = embed_text(ADGCodec(), frame(b"hi"), provider, cfg)
    assert trace.method == "adg"
    assert trace.frame_bits == 32 + 16
    assert trace.payload_bits == 16
    assert trace.total_tokens == len(trace.steps)
    path = tmp_path / "trace.ndjson"
    trace.save(str(path))
    loaded = EmbedTrace.load(str(path))
    assert loaded.method == trace.method
    assert loaded.frame_bits == trace.frame_bits
    assert len(loaded.steps) == len(trace.steps)
    for a, b in zip(trace.steps, loaded.steps):
        assert (a.token, a.bits, a.forced) == (b.token, b.bits, b.forced)
        assert a.kld_qp == pytest.approx(b.kld_qp)


def test_bare_message_counts_every_bit_as_payload(provider):
    cfg = GenerationConfig(sample_seed=3, pad_seed=4)
    _sentences, trace = embed_text(ADGCodec(), BitMessage([1, 0, 1] * 4), provider, cfg)
    assert trace.frame_bits == trace.payload_bits == 12


def test_stats_collection_fills_all_unforced_steps(provider):
    cfg = GenerationConfig(sample_seed=5, pad_seed=6, collect_stats=True)
    _sentences, trace = embed_text(ADGCodec(), frame(b"stats"), provider, cfg)
    for step in trace.steps:
        if not step.forced:
            assert step.kld_qp is not None
            assert step.entropy is not None and step.entropy > 0
            assert step.kld_qp >= -1e-12


# The bench grid's codec parameters.
FUZZ_CODECS = {
    "adg": {},
    "arithmetic": {"h": 300},
    "bins": {"b": 5},
    "huffman": {"k": 5},
    "patient_huffman": {"k": 3, "delta": 1.0},
}


@pytest.mark.parametrize("method", sorted(FUZZ_CODECS))
@given(data=st.data())
@settings(derandomize=True, max_examples=200, deadline=timedelta(seconds=2))
def test_extract_of_hostile_text_returns_bits_or_a_stego_error(provider, vocab, method, data):
    def codec():
        return make_codec(method, len(vocab), **FUZZ_CODECS[method])

    cfg = GenerationConfig(sample_seed=data.draw(st.integers(0, 99)))
    token = st.integers(-3, len(vocab) + 5)
    kind = data.draw(st.sampled_from(["random", "edited", "truncated", "oversized-header"]))
    if kind == "random":
        sentences = data.draw(st.lists(st.lists(token, max_size=30), max_size=4))
    else:
        payload = data.draw(st.binary(max_size=16))
        if kind == "oversized-header":  # the header promises 2**32 - 1 payload bits
            msg = BitMessage([1] * HEADER_BITS + bytes_to_bits(payload))
        else:
            msg = frame(payload)
        sentences, _trace = embed_text(codec(), msg, provider, cfg)
        if kind == "edited":
            cells = [(i, j) for i, s in enumerate(sentences) for j in range(len(s))]
            i, j = data.draw(st.sampled_from(cells))
            sentences[i][j] = data.draw(token)
        elif kind == "truncated":
            sentences = sentences[: data.draw(st.integers(0, len(sentences) - 1))]
    # A wrong payload still passes here: nothing on the wire authenticates it yet.
    try:
        bits = deframe(extract_text(codec(), sentences, provider, cfg))
    except StegoError:
        return
    assert set(bits) <= {0, 1}


STEP_Q_CODECS = [
    ("adg", {}),
    ("arithmetic", {"h": 300}),
    ("bins", {"b": 5}),
    ("huffman", {"k": 5}),
    ("patient_huffman", {"k": 3, "delta": 0.0}),  # every step samples from p
    ("patient_huffman", {"k": 3, "delta": math.inf}),  # every step is Huffman coded
]


def _zipf4096() -> ConditionalDistribution:
    """A Zipf(1.1)-shaped distribution over 4,096 of 50,257 ids."""
    ids = np.random.default_rng(4096).choice(50_257, size=4096, replace=False)
    probs = 1.0 / np.arange(1, 4097, dtype=np.float64) ** 1.1
    return ConditionalDistribution.from_probs(ids, probs / probs.sum())


def reference_step_stats(dist, q_by_id):
    """KL(q||p), KL(p||q) and H(p) in bits, pairing q and p by token id, summed exactly."""
    p_by_id = dict(zip(dist.token_ids.tolist(), dist.probs().tolist()))
    qp = math.fsum(q * math.log2(q / p_by_id[t]) for t, q in q_by_id.items())
    pq = math.inf
    if q_by_id.keys() == p_by_id.keys():
        pq = math.fsum(p * math.log2(p / q_by_id[t]) for t, p in p_by_id.items())
    return qp, pq, -math.fsum(p * math.log2(p) for p in p_by_id.values())


@pytest.mark.parametrize("method, params", STEP_Q_CODECS,
                         ids=["adg", "arithmetic", "bins", "huffman", "patient-sampled", "patient-huffman"])
@pytest.mark.parametrize("source", ["bundled", "zipf4096"])
def test_step_q_positions_and_step_stats(model, method, params, source):
    if source == "bundled":
        dist, vocab_size = model.next_distribution([BOS_ID]), model.vocab_size
    else:
        dist, vocab_size = _zipf4096(), 50_257
    codec = make_codec(method, vocab_size, **params)
    positions, probs = codec.step_q(dist)
    assert positions.dtype.kind == "i" and positions.shape == probs.shape
    assert np.unique(positions).size == positions.size
    assert 0 <= positions.min() and positions.max() < len(dist)
    assert np.all(probs > 0) and abs(math.fsum(probs) - 1.0) <= 1e-12
    ids = dist.token_ids[positions].tolist()
    if "k" in params and params.get("delta") != 0.0:  # a Huffman codeword per token
        assert probs.tolist() == [2.0 ** -len(codec.extract_step(dist, t)) for t in ids]
    expected = reference_step_stats(dist, dict(zip(ids, probs.tolist())))
    assert _step_stats(dist, positions, probs) == pytest.approx(expected, rel=0, abs=1e-12)


class RepeatedIdProvider:
    """40 entries over a 64-id vocabulary per context, with one id listed twice, as a custom provider could."""

    vocab_size = 64

    def next_distribution(self, context):
        rng = random.Random(repr(tuple(context)))
        ids = [EOS_ID, *rng.sample(range(EOS_ID + 1, self.vocab_size), 39)]
        twice, spare = rng.sample(range(len(ids)), 2)
        ids[spare] = ids[twice]
        return ConditionalDistribution(ids, [rng.randint(1, 1000) for _ in ids])


ROUND_TRIP_CODECS = {**FUZZ_CODECS, "bins": {"b": 2}, "huffman": {"k": 3}}


@pytest.mark.parametrize("method", sorted(ROUND_TRIP_CODECS))
def test_a_repeated_id_never_returns_a_wrong_payload(method):
    provider = RepeatedIdProvider()
    payload = b"\x5a\xc3\x0f\x81"
    for seed in range(30):
        cfg = GenerationConfig(sample_seed=seed, pad_seed=seed + 1000)
        codec = make_codec(method, provider.vocab_size, **ROUND_TRIP_CODECS[method])
        try:
            sentences, _trace = embed_text(codec, frame(payload), provider, cfg)
            codec = make_codec(method, provider.vocab_size, **ROUND_TRIP_CODECS[method])
            bits = deframe(extract_text(codec, sentences, provider, cfg))
        except StegoError:
            continue
        assert bits == bytes_to_bits(payload), (method, seed)

"""Reference codecs: bins, Huffman, patient Huffman, arithmetic."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adgstego import BitMessage, CachedProvider, frame
from adgstego.baselines import (
    ArithmeticCodec,
    BinsCodec,
    HuffmanCodec,
    PatientHuffmanCodec,
    _build_huffman,
    _huffman_distortion,
    make_codec,
)
from adgstego.bitio import bytes_to_bits, deframe
from adgstego.errors import ConfigError, DesyncError, QuantizationError, StegoError
from adgstego.lm import ConditionalDistribution
from adgstego.runner import GenerationConfig, embed_text, extract_text

from conftest import bos_successors, random_distribution


def round_trip(codec_factory, payload, provider, seed=0):
    cfg = GenerationConfig(sample_seed=seed, pad_seed=seed + 1)
    sentences, trace = embed_text(codec_factory(), frame(payload), provider, cfg)
    bits = extract_text(codec_factory(), sentences, provider, cfg)
    assert deframe(bits) == bytes_to_bits(payload)
    return trace


# ---------------------------------------------------------------- bins


def test_bins_round_trip(provider):
    trace = round_trip(lambda: BinsCodec(3, 0, 1000), b"bins payload", provider)
    assert all(s.bits == 3 for s in trace.steps if not s.forced)


def test_bins_partition_is_balanced_and_seeded():
    codec_a = BinsCodec(4, 7, 1000)
    codec_b = BinsCodec(4, 7, 1000)
    codec_c = BinsCodec(4, 8, 1000)
    assert np.array_equal(codec_a.token_to_bin, codec_b.token_to_bin)
    assert not np.array_equal(codec_a.token_to_bin, codec_c.token_to_bin)
    counts = np.bincount(codec_a.token_to_bin, minlength=16)
    assert counts.max() - counts.min() <= 1


def test_bins_embeds_bin_argmax():
    codec = BinsCodec(1, 0, 4)
    dist = ConditionalDistribution([0, 1, 2, 3], [40, 30, 20, 10])
    for bit in (0, 1):
        token, bits, _ = codec.embed_step(dist, BitMessage([bit]), random.Random(0), random.Random(1))
        assert bits == 1
        assert int(codec.token_to_bin[token]) == bit
        # Highest-mass token of that bin.
        in_bin = [t for t in range(4) if codec.token_to_bin[t] == bit]
        assert token == min(in_bin)  # masses are descending in token id here
        assert codec.extract_step(dist, token) == [bit]


def test_bins_empty_bin_cannot_be_embedded_into_and_is_left_out_of_q():
    codec = BinsCodec(2, 0, 40)
    tokens = [t for t in range(40) if codec.token_to_bin[t] != 2]
    dist = ConditionalDistribution(tokens, list(range(len(tokens), 0, -1)))
    with pytest.raises(StegoError, match="bin 2"):
        codec.embed_step(dist, BitMessage([1, 0]), random.Random(0), random.Random(1))
    positions, probs = codec.step_q(dist)
    bins = codec.token_to_bin[dist.token_ids[positions]]
    assert sorted(bins.tolist()) == [0, 1, 3]
    assert positions.tolist() == [int(np.flatnonzero(codec.token_to_bin[dist.token_ids] == b)[0]) for b in bins]
    assert probs.tolist() == [0.25] * 3


@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=100, deadline=None)
def test_bins_table_is_each_bins_first_position(b, seed, data):
    vocab_size = (1 << b) + data.draw(st.integers(0, 60))
    codec = BinsCodec(b, seed, vocab_size)
    tokens = data.draw(st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=vocab_size, unique=True))
    # Masses from a small range, so most runs of equal masses are ordered by id.
    masses = data.draw(st.lists(st.integers(1, 3), min_size=len(tokens), max_size=len(tokens)))
    dist = ConditionalDistribution(tokens, masses)
    expected = [-1] * codec.nbins
    for pos, token in enumerate(dist.token_ids.tolist()):
        if expected[codec.token_to_bin[token]] < 0:
            expected[codec.token_to_bin[token]] = pos
    assert codec._bin_argmax(dist).tolist() == expected


def test_bins_id_outside_the_vocabulary_is_a_desync():
    class PastTheVocabulary:
        def next_distribution(self, context):
            return ConditionalDistribution([150, 3], [60, 40])

    # The table lookup once raised a bare IndexError.
    with pytest.raises(DesyncError, match="100-id vocabulary"):
        embed_text(BinsCodec(2, 0, 100), frame(b"x"), PastTheVocabulary(), GenerationConfig())


def test_bins_vocab_too_small():
    with pytest.raises(StegoError):
        BinsCodec(5, 0, 16)


# ---------------------------------------------------------------- huffman


def test_huffman_tree_on_uniform_is_balanced():
    dist = ConditionalDistribution(list(range(8)), [10] * 8)
    _root, codes = _build_huffman(dist, 3)
    assert sorted(codes) == list(range(8))
    assert all(len(c) == 3 for c in codes.values())


def test_huffman_codes_are_prefix_free_and_ordered():
    rng = random.Random(2)
    for _ in range(20):
        dist = random_distribution(rng, rng.randint(4, 200))
        _root, codes = _build_huffman(dist, 4)
        words = ["".join(map(str, c)) for c in codes.values()]
        for i, w in enumerate(words):
            for j, v in enumerate(words):
                if i != j:
                    assert not v.startswith(w)
        # Kraft equality: the tree is full.
        assert sum(2.0 ** -len(w) for w in words) == pytest.approx(1.0)
        # Strictly higher mass never gets a strictly longer codeword.
        top = len(codes)
        for i in range(top):
            for j in range(i + 1, top):
                if int(dist.masses[i]) > int(dist.masses[j]):
                    t_i, t_j = int(dist.token_ids[i]), int(dist.token_ids[j])
                    assert len(codes[t_i]) <= len(codes[t_j])


def test_huffman_round_trip(provider):
    round_trip(lambda: HuffmanCodec(5), b"huffman payload", provider)


def test_huffman_extract_rejects_tail_token():
    dist = ConditionalDistribution(list(range(10)), [20 - i for i in range(10)])
    codec = HuffmanCodec(2)
    with pytest.raises(DesyncError):
        codec.extract_step(dist, int(dist.token_ids[5]))


# ---------------------------------------------------------------- patient huffman


def test_patient_huffman_threshold_behavior():
    # A sharply peaked distribution has high Huffman distortion: patient.
    peaked = ConditionalDistribution([0, 1, 2, 3], [1000, 10, 5, 5])
    # A dyadic-uniform one has zero distortion: embeds.
    flat = ConditionalDistribution([0, 1, 2, 3], [10, 10, 10, 10])
    codec = PatientHuffmanCodec(2, delta=0.1)
    assert codec._patient(peaked)
    assert not codec._patient(flat)
    token, bits, _ = codec.embed_step(peaked, BitMessage([1, 0]), random.Random(0), random.Random(1))
    assert bits == 0
    assert codec.extract_step(peaked, token) == []
    token, bits, _ = codec.embed_step(flat, BitMessage([1, 0]), random.Random(0), random.Random(1))
    assert bits == 2
    assert codec.extract_step(flat, token) == [1, 0]


def test_patient_huffman_distortion_monotone_cases():
    flat = ConditionalDistribution([0, 1, 2, 3], [10, 10, 10, 10])
    assert _huffman_distortion(flat, 2) == pytest.approx(0.0)
    skew = ConditionalDistribution([0, 1, 2, 3], [70, 20, 6, 4])
    assert _huffman_distortion(skew, 2) > 0


def test_patient_huffman_round_trip(provider):
    for delta in (0.5, 5.0):
        round_trip(lambda: PatientHuffmanCodec(3, delta), b"patience", provider, seed=17)


def test_patient_huffman_delta_zero_cannot_deliver(provider):
    from adgstego.errors import CapacityError

    cfg = GenerationConfig(sample_seed=1, pad_seed=2, max_tokens=100)
    with pytest.raises(CapacityError):
        embed_text(PatientHuffmanCodec(3, 0.0), frame(b"x"), provider, cfg)


def test_patient_huffman_delta_zero_never_embeds():
    rng = random.Random(4)
    codec = PatientHuffmanCodec(3, 0.0)
    for _ in range(10):
        dist = random_distribution(rng, 64)
        assert codec._patient(dist)


def test_patient_huffman_with_infinite_delta_is_huffman(model, provider):
    # Every distortion is finite, so every step embeds through Huffman.
    class Recording(CachedProvider):
        def get(self, context, mask_eos):
            dist = super().get(context, mask_eos)
            seen.append(dist)
            return dist

    cfg = GenerationConfig(sample_seed=8, pad_seed=9, collect_stats=True)
    runs = []
    for codec in (HuffmanCodec(3), PatientHuffmanCodec(3, math.inf)):
        seen = []
        sentences, trace = embed_text(codec, frame(b"patient as huffman"), Recording(model), cfg)
        bits = extract_text(codec, sentences, provider, cfg)
        step_q = [[a.tolist() for a in codec.step_q(dist)] for dist in seen]
        runs.append((sentences, bits, step_q, [(s.bits, s.kld_qp, s.kld_pq) for s in trace.steps]))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------- arithmetic


def test_arithmetic_round_trip(provider):
    round_trip(lambda: ArithmeticCodec(300), b"arithmetic payload bytes", provider)


def test_arithmetic_round_trip_small_h(provider):
    round_trip(lambda: ArithmeticCodec(8), b"tiny head", provider, seed=5)


def test_arithmetic_exact_on_dyadic_distribution():
    # With dyadic renormalized masses each step consumes an integer number
    # of bits and the interval never straddles: coding is exact.
    dist = ConditionalDistribution([0, 1, 2, 3], [8, 4, 2, 2])
    payload = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0]
    embedder = ArithmeticCodec(4)
    embedder.begin_embed()
    msg = BitMessage(payload)
    pad_rng = random.Random(0)
    tokens = []
    while not embedder.delivered(msg) or len(tokens) < 2:
        token, bits, _ = embedder.embed_step(dist, msg, random.Random(0), pad_rng)
        assert float(bits).is_integer()
        tokens.append(token)
        if len(tokens) > 64:
            pytest.fail("message never delivered")
    extractor = ArithmeticCodec(4)
    extractor.begin_extract()
    out = []
    for token in tokens:
        out.extend(extractor.extract_step(dist, token))
    out.extend(extractor.finish_extract())
    assert out[: len(payload)] == payload


def test_arithmetic_fractional_bits_sum_matches_resolution(provider):
    cfg = GenerationConfig(sample_seed=2, pad_seed=3)
    codec = ArithmeticCodec(300)
    sentences, trace = embed_text(codec, frame(b"fractional"), provider, cfg)
    total = sum(s.bits for s in trace.steps)
    # Fractional per-step bits must cover the frame that was delivered.
    assert total >= trace.frame_bits - codec.precision
    assert any(not float(s.bits).is_integer() for s in trace.steps if not s.forced)


def test_arithmetic_receiver_keeps_pace_with_sender(model):
    # Both ends settle bits in the same rescale loop, so after every step
    # the receiver has emitted exactly the bits the sender counts resolved.
    # The 1:2:1 distribution's middle token spans the middle half, so the
    # straddle branch runs whenever it is picked.
    dists = [*bos_successors(model, 8), ConditionalDistribution([0, 1, 2], [1, 2, 1])]
    bit_rng = random.Random(3)
    msg = BitMessage([bit_rng.getrandbits(1) for _ in range(256)])
    embedder, extractor = ArithmeticCodec(300), ArithmeticCodec(300)
    embedder.begin_embed()
    extractor.begin_extract()
    sample_rng, pad_rng = random.Random(4), random.Random(5)
    out, straddled = [], False
    for step in range(1000):
        if embedder.delivered(msg):
            break
        dist = dists[step % len(dists)]
        token, _bits, _ = embedder.embed_step(dist, msg, sample_rng, pad_rng)
        out.extend(extractor.extract_step(dist, token))
        assert len(out) == embedder._resolved
        assert out[: len(msg)] == msg.bits[: len(out)]
        straddled |= embedder._pending > 0
    assert embedder.delivered(msg)
    assert straddled


def test_arithmetic_rejects_tail_token():
    dist = ConditionalDistribution(list(range(10)), [20 - i for i in range(10)])
    codec = ArithmeticCodec(4)
    codec.begin_extract()
    with pytest.raises(DesyncError):
        codec.extract_step(dist, int(dist.token_ids[7]))


def test_arithmetic_parameter_validation():
    with pytest.raises(ValueError):
        ArithmeticCodec(1)
    with pytest.raises(ConfigError, match="not precision"):
        make_codec("arithmetic", 100, h=10, precision=40)


# ---------------------------------------------------------------- factory


def test_make_codec_dispatch():
    assert make_codec("adg", 100).name == "adg"
    assert make_codec("bins", 100, b=2).name == "bins"
    assert make_codec("huffman", 100, k=3).name == "huffman"
    assert make_codec("patient_huffman", 100, delta=1.0).name == "patient_huffman"
    assert make_codec("arithmetic", 100, h=50).name == "arithmetic"
    with pytest.raises(ValueError):
        make_codec("nope", 100)
    assert make_codec("bins", 100, b=np.int64(2)).name == "bins"
    # An int parameter is never truncated from a float or read from a bool.
    for method, name, value in [("huffman", "k", 5.9), ("huffman", "k", True), ("bins", "b", 2.7),
                                ("arithmetic", "h", "50"), ("patient_huffman", "delta", "x")]:
        with pytest.raises(ConfigError, match=f"parameter {name} "):
            make_codec(method, 100, **{name: value})
    # A parameter the method does not take is an error, not ignored.
    for method, params, unknown in [("arithmetic", {"h": 300, "precison": 40}, "precison"),
                                    ("huffman", {"k": 5, "h": 3}, "h")]:
        with pytest.raises(ConfigError, match=f"not {unknown}$"):
            make_codec(method, 100, **params)


def test_huffman_and_arithmetic_tables_reject_a_repeated_id():
    # Id 5 twice: its two leaves once tied a merged subtree on (mass, lowest id), a bare TypeError.
    dist = ConditionalDistribution([5, 5, 7], [2, 1, 1])
    with pytest.raises(QuantizationError, match="token id 5 is listed twice"):
        _build_huffman(dist, 2)
    with pytest.raises(QuantizationError, match="token id 5 is listed twice"):
        ArithmeticCodec(h=300).extract_step(dist, 7)
    # Only the top set counts: a repeat below it builds the same tables as without it.
    dist = ConditionalDistribution([1, 2, 3, 4, 4], [9, 8, 7, 6, 5])
    assert sorted(_build_huffman(dist, 1)[1]) == [1, 2]
    assert ArithmeticCodec(h=3).extract_step(dist, 3) is not None

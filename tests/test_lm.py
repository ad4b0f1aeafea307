"""Quantization, the n-gram model and the external provider protocol."""

import io
import json
import math
import random
import sys
import textwrap
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adgstego.corpus import BOS_ID, EOS_ID, build_vocab
from adgstego.errors import ModelMismatchError, ProviderError, QuantizationError
from adgstego.lm import (
    DENOMINATOR,
    ConditionalDistribution,
    ExternalProvider,
    NGramLM,
    quantize,
    train_ngram,
)


def reference_quantize(probs):
    """Independent largest-remainder apportionment in exact arithmetic."""
    total = Fraction(sum(Fraction(p) for p in probs))
    scaled = [Fraction(p) / total * DENOMINATOR for p in probs]
    out = [int(s) for s in scaled]
    remainders = [s - o for s, o in zip(scaled, out)]
    deficit = DENOMINATOR - sum(out)
    order = sorted(range(len(probs)), key=lambda i: (-remainders[i], i))
    for i in order[:deficit]:
        out[i] += 1
    for i, v in enumerate(out):
        if v == 0:
            out[i] = 1
    excess = sum(out) - DENOMINATOR
    while excess > 0:
        top = max(range(len(out)), key=lambda i: (out[i], -i))
        take = min(excess, out[top] - 1)
        out[top] -= take
        excess -= take
    return out


def test_quantize_worked_example():
    assert quantize([0.4, 0.3, 0.2, 0.1]).tolist() == [
        858993459,
        644245094,
        429496730,
        214748365,
    ]


def test_quantize_matches_exact_reference():
    # Weights over a 2**40 total make every probability, scaled value and
    # fractional remainder exactly representable in floats, so the float
    # implementation and the Fraction reference must agree bit for bit.
    rng = random.Random(11)
    total = 1 << 40
    for _ in range(50):
        n = rng.randint(2, 60)
        weights = [rng.randint(1, 1 << 33) for _ in range(n - 1)]
        weights.append(rng.randint(1, 1 << 8))  # exercise the floor-at-1 path
        weights[0] += total - sum(weights)
        assert weights[0] > 0
        probs = [w / total for w in weights]
        got = quantize(np.asarray(probs)).tolist()
        want = reference_quantize([Fraction(w, total) for w in weights])
        assert got == want


@given(st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=200))
@settings(max_examples=200)
def test_quantize_soundness_property(weights):
    probs = np.asarray(weights)
    probs /= probs.sum()
    out = quantize(probs)
    n = len(probs)
    assert int(out.sum()) == DENOMINATOR
    assert int(out.min()) >= 1
    err = np.abs(out - probs * DENOMINATOR)
    assert float(err.max()) <= n + 1


def test_quantize_input_validation():
    with pytest.raises(QuantizationError):
        quantize([])
    with pytest.raises(QuantizationError):
        quantize([0.5, float("nan"), 0.5])
    with pytest.raises(QuantizationError):
        quantize([0.7, -0.1, 0.4])
    with pytest.raises(QuantizationError):
        quantize([0.7, 0.7])


def test_distribution_sorted_mass_desc_ties_by_id():
    dist = ConditionalDistribution([9, 3, 7], [10, 50, 50])
    assert dist.token_ids.tolist() == [3, 7, 9]
    assert dist.masses.tolist() == [50, 50, 10]
    assert dist.denominator == 110
    assert dist.position_of(9) == 2
    assert dist.position_of(4) is None


def test_distribution_total_is_the_sum_of_its_masses():
    dist = ConditionalDistribution([4, 2, 9, 5], [300, 100, 100, 7])
    assert dist.denominator == 507
    assert dist.probs().sum() == pytest.approx(1.0)


def test_distribution_rejects_empty_or_mismatched():
    for ids, masses in [([], []), ([1, 2], [5]), ([1], [5, 6]), ([0, 1], [1.5, 2.5]), ([0, 1], [True, True]),
                        ([0, 1], [3, "4"]), ([0.5, 1.7], [3, 4]), ([0], np.asarray([2**63 + 5], dtype=np.uint64))]:
        with pytest.raises(QuantizationError):
            ConditionalDistribution(ids, masses)
    for ids in ([0.5, 1.7], [True, False], ["3", 2]):
        with pytest.raises(QuantizationError):
            ConditionalDistribution.from_probs(ids, [0.5, 0.5])


def test_distribution_rejects_zero_mass():
    with pytest.raises(QuantizationError):
        ConditionalDistribution(np.asarray([0, 1]), np.asarray([5, 0]))


def test_distribution_from_probs_rejects_duplicates():
    with pytest.raises(QuantizationError):
        ConditionalDistribution.from_probs([1, 1], [0.5, 0.5])


def _tiny_model(order=2, k=1.0):
    # corpus: "a b . a b . a c"
    sents = [["a", "b"], ["a", "b"], ["a", "c"]]
    vocab = build_vocab(sents, min_count=1)
    ids = [vocab.encode_sentence(s) for s in sents]
    return vocab, train_ngram(ids, order=order, k=k, vocab=vocab)


def test_ngram_counts_shape_the_conditional():
    vocab, model = _tiny_model()
    a, b, c = (vocab.token_to_id[t] for t in "abc")
    p = model.next_scores([BOS_ID, a])
    assert p[b] > p[c] > p[EOS_ID]
    assert abs(p.sum() - 1.0) < 1e-12
    # add-1 smoothing over the seen context "a": counts b=2, c=1, total 3.
    v = len(vocab)
    assert p[b] == pytest.approx((2 + 1) / (3 + v))
    assert p[c] == pytest.approx((1 + 1) / (3 + v))


def test_ngram_unseen_context_backs_off_to_unigram():
    vocab, model = _tiny_model()
    # EOS never occurs as a context in training, so the backoff chain
    # bottoms out at the smoothed unigram distribution.
    p = model.next_scores([BOS_ID, EOS_ID])
    uni = model.unigram_counts + model.k
    uni /= uni.sum()
    assert np.allclose(p, uni)


def test_ngram_longest_seen_suffix_wins():
    sents = [["a", "b", "c"], ["x", "b", "d"]]
    vocab = build_vocab(sents, min_count=1)
    ids = [vocab.encode_sentence(s) for s in sents]
    model = train_ngram(ids, order=3, k=0.5, vocab=vocab)
    a, b, c, d = (vocab.token_to_id[t] for t in "abcd")
    p = model.next_scores([a, b])  # trigram context ("a","b") was seen
    assert p[c] > p[d]
    p2 = model.next_scores([d, b])  # unseen pair falls back to context ("b",)
    assert p2[c] == p2[d] > 0


def test_ngram_distribution_requires_bos():
    _vocab, model = _tiny_model()
    with pytest.raises(ValueError):
        model.next_distribution([5])
    dist = model.next_distribution([BOS_ID])
    assert int(dist.masses.sum()) == DENOMINATOR


def test_train_ngram_validation(vocab):
    with pytest.raises(ValueError):
        train_ngram([[BOS_ID, EOS_ID]], order=1, k=0.5, vocab=vocab)
    with pytest.raises(ValueError):
        train_ngram([[BOS_ID, EOS_ID]], order=2, k=0.0, vocab=vocab)


def test_model_save_load_round_trip(tmp_path):
    vocab, model = _tiny_model()
    path = tmp_path / "model.json"
    model.save(str(path))
    loaded = NGramLM.load(str(path), vocab)
    ctx = [BOS_ID, vocab.token_to_id["a"]]
    assert np.array_equal(
        model.next_distribution(ctx).masses, loaded.next_distribution(ctx).masses
    )


def test_model_load_rejects_other_vocab(tmp_path):
    vocab, model = _tiny_model()
    other = build_vocab([["x", "y"]], min_count=1)
    path = tmp_path / "model.json"
    model.save(str(path))
    with pytest.raises(ModelMismatchError):
        NGramLM.load(str(path), other)


@pytest.mark.parametrize(
    "field, value",
    [("vocab_size", 99), ("unigram_counts", [1.0, 2.0]), ("successor", 99), ("successor", -3), ("context", 99),
     ("counts", [1.0, 2.0])],
)
def test_model_load_rejects_ids_outside_the_vocabulary(tmp_path, field, value):
    vocab, model = _tiny_model()
    path = tmp_path / "model.json"
    model.save(str(path))
    doc = json.loads(path.read_text())
    bigrams = doc["contexts"]["1"]
    if field == "successor":
        bigrams[str(BOS_ID)][0][0] = value
    elif field == "context":
        bigrams[str(value)] = bigrams.pop(str(BOS_ID))
    elif field == "counts":
        bigrams[str(BOS_ID)][1] = value
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelMismatchError):
        NGramLM.load(str(path), vocab)


@pytest.mark.parametrize("field, value", [("order", 1), ("k", 0), ("k", -0.5), ("k", math.inf)])
def test_model_load_rejects_order_below_two_and_k_outside_the_positive_reals(tmp_path, field, value):
    vocab, model = _tiny_model()
    path = tmp_path / "model.json"
    model.save(str(path))
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))  # inf is written as Infinity, which json reads back
    with pytest.raises(ModelMismatchError, match="model.json"):
        NGramLM.load(str(path), vocab)


FAKE_PROVIDER = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        ctx = json.loads(line)["context"]
        n = 4 + (len(ctx) % 3)
        probs = [1.0 / n] * n
        print(json.dumps({"ids": list(range(n)), "probs": probs}), flush=True)
    """
)


def test_external_provider_stdio_round_trip():
    provider = ExternalProvider.from_command([sys.executable, "-c", FAKE_PROVIDER])
    try:
        dist = provider.next_distribution([BOS_ID])
        assert len(dist) == 5
        assert int(dist.masses.sum()) == DENOMINATOR
        dist2 = provider.next_distribution([BOS_ID, 7, 8])
        assert len(dist2) == 4
    finally:
        provider.close()


def test_external_provider_malformed_reply():
    provider = ExternalProvider.from_command(
        [sys.executable, "-c", "import sys; sys.stdin.readline(); print('not json', flush=True)"]
    )
    try:
        with pytest.raises(ProviderError):
            provider.next_distribution([BOS_ID])
    finally:
        provider.close()


def test_external_provider_closed_stream():
    provider = ExternalProvider.from_command([sys.executable, "-c", "pass"])
    try:
        with pytest.raises(ProviderError):
            provider.next_distribution([BOS_ID])
    finally:
        provider.close()


# Reads one request, then sleeps for up to a minute, waking early once
# its stdin closes so the provider's close() returns at once.
STALLING_PROVIDER = textwrap.dedent(
    """
    import select, sys
    sys.stdin.readline()
    sys.stdout.write(sys.argv[1])
    sys.stdout.flush()
    select.select([sys.stdin], [], [], 60)
    """
)


@pytest.mark.parametrize("partial", ["", '{"ids": [1, 2], "probs"'], ids=["silent", "partial-line"])
def test_external_provider_command_read_deadline(partial):
    provider = ExternalProvider.from_command([sys.executable, "-c", STALLING_PROVIDER, partial], timeout=0.5)
    try:
        start = time.monotonic()
        with pytest.raises(ProviderError, match="no reply line within 0.5 s"):
            provider.next_distribution([BOS_ID])
        assert time.monotonic() - start < 10
    finally:
        provider.close()


@pytest.mark.parametrize(
    "reply",
    [
        '{"ids": [1.5, 7], "probs": [0.5, 0.5]}',
        '{"ids": ["a", "b"], "probs": [0.5, 0.5]}',
        '{"ids": [[1], [2]], "probs": [0.5, 0.5]}',
        '{"ids": [[1], [2, 3]], "probs": [0.5, 0.5]}',
        '{"ids": [1, 2], "probs": ["x", 0.5]}',
        '{"ids": 5, "probs": [1.0]}',
        '{"ids": [-1, 7], "probs": [0.5, 0.5]}',
        '{"ids": [1, 2], "probs": [null, 0.5]}',
        '{"ids": [99999999999999999999999, 2], "probs": [0.5, 0.5]}',
        '{"ids": [true, 2], "probs": [0.5, 0.5]}',
        '{"ids": [1, 2], "probs": [true, 0.0]}',
    ],
    ids=["float-id", "string-ids", "nested-ids", "ragged-ids", "string-prob", "scalar-ids", "negative-id",
         "null-prob", "huge-id", "bool-id", "bool-prob"],
)
def test_external_provider_rejects_bad_reply_values(reply):
    provider = ExternalProvider(io.StringIO(reply + "\n"), io.StringIO())
    with pytest.raises(ProviderError):
        provider.next_distribution([BOS_ID])

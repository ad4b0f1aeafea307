"""Quantization, the n-gram model and the external provider protocol."""

import hashlib
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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adgstego.corpus import BOS_ID, EOS_ID, build_vocab
from adgstego.errors import ModelMismatchError, ProviderError, QuantizationError, StegoError
from adgstego.lm import (
    DENOMINATOR,
    ConditionalDistribution,
    ExternalProvider,
    NGramLM,
    quantize,
    require_distinct,
    sample_token,
    train_ngram,
)
from adgstego.runner import mask_eos_min


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


def test_distribution_rejects_a_negative_id():
    # adg once emitted -3 as a stego token; bins would have put it in the bin of id vocab_size - 3.
    for ids in ([-1, 2], [2, -3], np.asarray([2**63, 2], dtype=np.uint64)):
        with pytest.raises(QuantizationError, match="ids >= 0"):
            ConditionalDistribution(ids, [3, 4])
    with pytest.raises(QuantizationError, match="ids >= 0"):
        ConditionalDistribution.from_probs([2, -3], [0.5, 0.5])


def test_distribution_rejects_zero_mass():
    with pytest.raises(QuantizationError):
        ConditionalDistribution(np.asarray([0, 1]), np.asarray([5, 0]))


def test_distribution_from_probs_rejects_duplicates():
    with pytest.raises(QuantizationError):
        ConditionalDistribution.from_probs([1, 1], [0.5, 0.5])


def test_a_repeated_id_is_named_by_its_smallest_value():
    with pytest.raises(QuantizationError, match="token id 4 is listed twice"):
        require_distinct(np.asarray([9, 4, 7, 9, 4, 4]))
    require_distinct(np.asarray([9, 4, 7]))
    require_distinct(np.asarray([], dtype=np.int64))
    with pytest.raises(QuantizationError, match="token id 9 is listed twice"):
        ConditionalDistribution.from_probs([9, 4, 9], [0.25, 0.5, 0.25])


def test_distribution_total_past_int64_raises():
    # The int64 sum once wrapped to a negative denominator (-8613035139737531860 for these 40 masses).
    masses = [random.Random(seed).randrange(2**58, 2**60) for seed in range(40)]
    with pytest.raises(QuantizationError, match="int64"):
        ConditionalDistribution(list(range(40)), masses)
    with pytest.raises(QuantizationError, match="int64"):
        ConditionalDistribution([1, 2], [2**62, 2**62])
    assert ConditionalDistribution([1, 2], [2**62, 2**62 - 1]).denominator == 2**63 - 1
    assert ConditionalDistribution([1, 2, 3], [2**62, 5, 1]).denominator == 2**62 + 6


def test_distribution_from_probs_rejects_a_scalar_probability():
    # len(0.5) once raised a bare TypeError here.
    with pytest.raises(QuantizationError):
        ConditionalDistribution.from_probs([1], 0.5)


@pytest.mark.parametrize("call", [
    lambda: quantize([[0.5], [0.5, 0.1]]),
    lambda: ConditionalDistribution.from_probs([1, 2], [[0.5], [0.5, 0.1]]),
    lambda: ConditionalDistribution.from_probs([1, 2], ["a", "b"]),
    lambda: quantize([10**400, 0.5]),
    lambda: ConditionalDistribution.from_probs([1, 2], [10**400, 0.5]),
], ids=["ragged", "from-probs-ragged", "from-probs-strings", "past-float-range", "from-probs-past-float-range"])
def test_unreadable_probabilities_raise_quantization_error(call):
    # numpy's conversion error was once raised bare.
    with pytest.raises(QuantizationError):
        call()


@pytest.mark.parametrize("call", [
    lambda: ConditionalDistribution([[1], [1, 2]], [1, 1]),
    lambda: ConditionalDistribution([1, 2], [[1], [1, 2]]),
    lambda: ConditionalDistribution.from_probs([[1], [1, 2]], [0.5, 0.5]),
], ids=["ragged-ids", "ragged-masses", "from-probs-ragged-ids"])
def test_ragged_ids_or_masses_raise_quantization_error(call):
    # numpy's "inhomogeneous shape" ValueError was once raised bare.
    with pytest.raises(QuantizationError):
        call()


def _tiny_model(order=2, k=1.0):
    # corpus: "a b . a b . a c"
    sents = [["a", "b"], ["a", "b"], ["a", "c"]]
    vocab = build_vocab(sents, min_count=1)
    ids = [vocab.encode_sentence(s) for s in sents]
    return vocab, train_ngram(ids, order=order, k=k, vocab=vocab)


class _FixedDraw:
    """An rng stand-in whose ``randrange`` returns ``x`` and records each bound it was given."""

    def __init__(self, x):
        self.x, self.bounds = x, []

    def randrange(self, stop):
        self.bounds.append(stop)
        return self.x


@given(st.lists(st.integers(1, 4) | st.integers(1, 10**9), min_size=1, max_size=50), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_sample_token_is_one_inverse_cdf_draw(masses, seed):
    token_ids = np.asarray(random.Random(seed).sample(range(10**6), len(masses)), dtype=np.int64)
    cum = np.cumsum(np.asarray(masses, dtype=np.int64))
    total = int(cum[-1])
    # Every interval's two ends, and the first and last draw.
    for x in {0, total - 1} | {int(c) - 1 for c in cum} | {int(c) for c in cum[:-1]}:
        rng = _FixedDraw(x)
        token = sample_token(rng, token_ids, cum, total)
        assert token == int(token_ids[np.searchsorted(cum, x, side="right")]) and type(token) is int
        assert rng.bounds == [total]
    rng, twin = random.Random(seed), random.Random(seed)
    sample_token(rng, token_ids, cum, total)
    twin.randrange(total)
    assert rng.getstate() == twin.getstate()


def _mass(dist, token):
    return int(dist.masses[dist.position_of(token)])


def reference_ngram_distribution(model, context):
    """The add-k masses of ``model`` at ``context`` from exact Fractions, in canonical order.

    Backs off along the context's suffixes to the longest seen one, then to
    the unigram counts, as the model does, and apportions the exact
    probabilities ``(count + k) / (total + k * V)`` with ``reference_quantize``.
    """
    k, v = Fraction(model.k), model.vocab_size
    counts, total = [int(c) for c in model.unigram_counts], model.unigram_total
    for length in range(min(model.order - 1, len(context)), 0, -1):
        entry = model.contexts.get(tuple(context[-length:]))
        if entry is not None:
            ids, seen, total = entry
            counts = [0] * v
            for token, count in zip(ids.tolist(), seen.tolist()):
                counts[token] = int(count)
            break
    masses = reference_quantize([(c + k) / (total + k * v) for c in counts])
    order = sorted(range(v), key=lambda i: (-masses[i], i))
    return order, [masses[i] for i in order]


def test_ngram_counts_shape_the_conditional():
    vocab, model = _tiny_model()
    a, b, c = (vocab.token_to_id[t] for t in "abc")
    dist = model.next_distribution([BOS_ID, a])
    assert _mass(dist, b) > _mass(dist, c) > _mass(dist, EOS_ID)
    assert dist.denominator == DENOMINATOR
    # add-1 smoothing over the seen context "a": counts b=2, c=1, total 3.
    v = len(vocab)
    assert abs(_mass(dist, b) - Fraction(2 + 1, 3 + v) * DENOMINATOR) < 1
    assert abs(_mass(dist, c) - Fraction(1 + 1, 3 + v) * DENOMINATOR) < 1
    assert (dist.token_ids.tolist(), dist.masses.tolist()) == reference_ngram_distribution(model, [BOS_ID, a])


def test_ngram_unseen_context_backs_off_to_unigram():
    vocab, model = _tiny_model()
    # EOS never occurs as a context in training, so the backoff chain
    # bottoms out at the smoothed unigram distribution.
    dist = model.next_distribution([BOS_ID, EOS_ID])
    uni = [Fraction(int(c)) + 1 for c in model.unigram_counts]
    masses = reference_quantize([u / sum(uni) for u in uni])
    assert [_mass(dist, t) for t in range(len(vocab))] == masses


def test_ngram_longest_seen_suffix_wins():
    sents = [["a", "b", "c"], ["x", "b", "d"]]
    vocab = build_vocab(sents, min_count=1)
    ids = [vocab.encode_sentence(s) for s in sents]
    model = train_ngram(ids, order=3, k=0.5, vocab=vocab)
    a, b, c, d = (vocab.token_to_id[t] for t in "abcd")
    dist = model.next_distribution([BOS_ID, a, b])  # trigram context ("a","b") was seen
    assert _mass(dist, c) > _mass(dist, d)
    dist2 = model.next_distribution([BOS_ID, d, b])  # unseen pair falls back to context ("b",)
    assert _mass(dist2, c) == _mass(dist2, d) > 0
    assert _mass(dist2, c) > _mass(dist2, a)


@given(
    st.integers(2, 3),
    st.sampled_from([0.5, 1.0, 0.1, 1e-3, 1e-9]),
    st.lists(st.lists(st.integers(0, 55), min_size=0, max_size=10), min_size=1, max_size=8),
    st.lists(st.lists(st.integers(0, 59), max_size=3), max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_ngram_masses_match_the_exact_reference(order, k, corpus, extra_contexts):
    sents = [[f"w{i}" for i in sent] for sent in corpus]
    vocab = build_vocab(sents, min_count=1)
    model = train_ngram([vocab.encode_sentence(s) for s in sents], order=order, k=k, vocab=vocab)
    v = len(vocab)
    contexts = [[BOS_ID, *ctx] for ctx in model.contexts]
    contexts += [[BOS_ID], [BOS_ID, EOS_ID]] + [[BOS_ID] + [t % v for t in ctx] for ctx in extra_contexts]
    for context in contexts:
        dist = model.next_distribution(context)
        assert (dist.token_ids.tolist(), dist.masses.tolist()) == reference_ngram_distribution(model, context)


COUNTS = st.integers(0, 6) | st.integers(1 << 20, (1 << 20) + 6) | st.integers(0, 1 << 40)


@given(
    st.integers(1, 56),
    st.sampled_from([0.5, 1.0, 0.1, 1e-3, 1e-9, 3.0]),
    st.lists(COUNTS, max_size=60),
    st.dictionaries(st.integers(0, 59), COUNTS, min_size=1, max_size=60),
)
@example(words=2, k=3.0, unigram=[], successors={0: 6, 2: 1, 3: 5, 4: 4, 5: 6})
@example(words=1, k=3.0, unigram=[], successors={1: 3, 4: 0})
@example(words=1, k=0.5, unigram=[], successors={0: 1 << 40, 1: (1 << 20) + 1, 2: (1 << 20) + 2, 3: (1 << 20) + 3,
                                                  4: (1 << 20) + 4})
@settings(max_examples=150, deadline=None)
def test_ngram_masses_match_the_exact_reference_on_any_count_table(words, k, unigram, successors):
    # Small counts give levels whose remainders tie, so that the leftover
    # units go by id across levels (the first two explicit examples; in the
    # second a seen id of count 0 ties the unseen ones).  Beside a count near
    # 2**40, counts just above 2**20 give levels a few thousand units high
    # and within a unit of each other: in the third explicit example, which
    # has no unseen id, ids 1-4 get one mass, so they come in id order, not
    # in count order.
    v = words + 4
    unigram_counts = np.zeros(v)
    unigram = unigram[: v - EOS_ID]
    unigram_counts[EOS_ID : EOS_ID + len(unigram)] = unigram  # BOS is never a successor
    table = {token % v: count for token, count in successors.items()}
    ids = np.asarray(sorted(table), dtype=np.int64)
    counts = np.asarray([table[t] for t in sorted(table)], dtype=np.float64)
    model = NGramLM(2, k, v, "", unigram_counts, {(BOS_ID,): (ids, counts, int(counts.sum()))})
    for context in ([BOS_ID], [BOS_ID, EOS_ID]):
        dist = model.next_distribution(context)
        assert (dist.token_ids.tolist(), dist.masses.tolist()) == reference_ngram_distribution(model, context)


# SHA-256 over the ids and masses (int64, little-endian) of every
# distribution of the bundled order-2, k = 0.5 model: each seen context in
# id order, then the unigram backoff, each as is and then EOS-masked.
BUNDLED_DISTRIBUTIONS_SHA256 = "578a813e6d323c98c8ec2d366c40bff1d4ae92d6d4a3b0a1c03b2aee4cec1933"


def test_bundled_model_distributions_are_pinned(model):
    contexts = [[BOS_ID, *ctx] for ctx in sorted(model.contexts)] + [[BOS_ID, EOS_ID]]
    assert len(contexts) == 902 and model.vocab_size == 904
    digest = hashlib.sha256()
    for context in contexts:
        dist = model.next_distribution(context)
        for d in (dist, mask_eos_min(dist)):
            digest.update(d.token_ids.astype("<i8").tobytes() + d.masses.astype("<i8").tobytes())
    assert digest.hexdigest() == BUNDLED_DISTRIBUTIONS_SHA256


def test_ngram_distribution_requires_bos():
    _vocab, model = _tiny_model()
    with pytest.raises(ValueError):
        model.next_distribution([5])
    with pytest.raises(StegoError):
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


def test_model_load_rejects_counts_that_are_negative_or_not_whole(tmp_path):
    # Each edit once loaded: -1e9 embedded without error, and the others
    # failed only at the first embed step, the fraction because the table
    # total was truncated to an int.
    vocab, model = _tiny_model()
    path = tmp_path / "model.json"
    model.save(str(path))
    for where, value in [("unigram", -1e9), ("context", -50_000), ("context", 0.5), ("unigram", math.inf)]:
        doc = json.loads(path.read_text())
        if where == "unigram":
            doc["unigram_counts"][0] = value
        else:
            doc["contexts"]["1"][str(BOS_ID)][1][0] = value
        edited = tmp_path / f"{where}-{value}.json"
        edited.write_text(json.dumps(doc))
        with pytest.raises(ModelMismatchError, match=f"{edited.name}.*{where}.*whole"):
            NGramLM.load(str(edited), vocab)


def test_model_load_rejects_booleans_and_fractional_ids(tmp_path):
    # numpy reads a JSON true as 1 and truncates an id of 3.7 to 3, so each edit once loaded without error.
    vocab, model = _tiny_model()
    path = tmp_path / "model.json"
    model.save(str(path))
    for where, field, value in [("unigram", 1, True), ("context", 1, True), ("context", 0, 3.7)]:
        doc = json.loads(path.read_text())
        if where == "unigram":
            doc["unigram_counts"][0] = value
        else:
            doc["contexts"]["1"][str(BOS_ID)][field][0] = value
        edited = tmp_path / f"{where}-{field}-{value}.json"
        edited.write_text(json.dumps(doc))
        with pytest.raises(ModelMismatchError, match=edited.name):
            NGramLM.load(str(edited), vocab)


def test_model_load_rejects_a_successor_listed_twice(tmp_path):
    vocab, model = _tiny_model()
    path = tmp_path / "model.json"
    model.save(str(path))
    doc = json.loads(path.read_text())
    ids, counts = doc["contexts"]["1"][str(BOS_ID)]
    doc["contexts"]["1"][str(BOS_ID)] = [ids + ids[:1], counts + counts[:1]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelMismatchError, match="model.json.*twice"):
        NGramLM.load(str(path), vocab)


def test_model_load_rejects_a_context_listed_under_another_length(tmp_path):
    # Moved from "1" to "2", the BOS context once loaded silently, and the
    # first step backed off to the unigram distribution instead of the trained one.
    vocab, model = _tiny_model()
    path = tmp_path / "model.json"
    model.save(str(path))
    doc = json.loads(path.read_text())
    doc["contexts"]["2"] = {str(BOS_ID): doc["contexts"]["1"].pop(str(BOS_ID))}
    path.write_text(json.dumps(doc))
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
        '{"ids": [9223372036854775808], "probs": [1.0]}',
        '{"ids": [true, 2], "probs": [0.5, 0.5]}',
        '{"ids": [1, 2], "probs": [true, 0.0]}',
        '{"ids": [1, 2], "probs": [NaN, 0.5]}',
        '{"ids": [1, 2], "probs": [Infinity, 0.5]}',
        '{"ids": [1, 2], "probs": [-0.5, 1.5]}',
        '{"ids": [1, 2, 3], "probs": [0.5, 0.5]}',
        '{"ids": [1], "probs": [[1.0]]}',
        '{"ids": [[1, 2]], "probs": [[0.5, 0.5]]}',
        '{"ids": [], "probs": []}',
        '{"ids": [1, 1], "probs": [0.5, 0.5]}',
        '{"ids": [1, 2], "probs": [0.5, 0.6]}',
    ],
    ids=["float-id", "string-ids", "nested-ids", "ragged-ids", "string-prob", "scalar-ids", "negative-id",
         "null-prob", "huge-id", "uint64-id", "bool-id", "bool-prob", "nan-prob", "infinite-prob", "negative-prob",
         "more-ids-than-probs", "nested-probs", "2d-ids-and-probs", "empty", "duplicate-ids", "sum-1.1"],
)
def test_external_provider_rejects_bad_reply_values(reply):
    provider = ExternalProvider(io.StringIO(reply + "\n"), io.StringIO())
    with pytest.raises(ProviderError):
        provider.next_distribution([BOS_ID])

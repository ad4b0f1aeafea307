"""The linear-time distribution build against the frozen sort-based oracle.

``quantize``, the canonical order of ``ConditionalDistribution``, its
``position_of`` and ``runner.mask_eos_min`` must match
``tests/oracle_lm.py`` byte for byte, except that a lookup meeting a
repeated id raises ``QuantizationError`` where the oracle answers.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adgstego.corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID
from adgstego.errors import QuantizationError
from adgstego.lm import ConditionalDistribution, quantize
from adgstego.runner import mask_eos_min

import oracle_lm

ZIPF_VOCAB = 50_257
ZIPF_SUPPORT = 4096


def assert_same_quantize(probs):
    assert quantize(probs).tobytes() == oracle_lm.quantize(probs).tobytes()


def assert_same_order(got, want):
    assert got.token_ids.tobytes() == want.token_ids.tobytes()
    assert got.masses.tobytes() == want.masses.tobytes()
    assert got.denominator == want.denominator


def assert_same_masking(got, want):
    masked, want_masked = mask_eos_min(got), oracle_lm.mask_eos_min(want)
    assert_same_order(masked, want_masked)
    assert (masked is got) == (want_masked is want)


def assert_same_build(token_ids, masses):
    """Canonical order, EOS masking and both kinds of ``position_of`` lookup agree with the oracle."""
    ids = np.asarray(token_ids, dtype=np.int64)
    m = np.asarray(masses, dtype=np.int64)
    got = ConditionalDistribution(ids, m)
    want = oracle_lm.OracleDistribution(ids, m, int(m.sum()))
    assert_same_order(got, want)
    assert_same_masking(got, want)
    absent = int(ids.max()) + 1 if ids.size else 0
    for token in [*ids[:3].tolist(), absent, *ids.tolist()]:
        assert got.position_of(token) == want.position_of(token)


def _is_power_of_two(n):
    return n & (n - 1) == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5000).filter(lambda n: not _is_power_of_two(n)))
def test_quantize_uniform_ties(n):
    # Every remainder is equal, so the threshold fill picks the lowest indices.
    assert_same_quantize(np.full(n, 1.0 / n))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 600),
    st.sampled_from([0.5, 0.1, 1.0, 1.0 / 3.0, 1e-4]),
    st.lists(st.tuples(st.integers(0, 599), st.integers(1, 50)), max_size=40),
)
def test_quantize_add_k_ties(vocab, k, counts):
    scores = np.full(vocab, k)
    for token, count in counts:
        scores[token % vocab] += count
    assert_same_quantize(scores / (sum(c for _t, c in counts) + k * vocab))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.floats(1e-12, 1.0), st.sampled_from([0.0, 1e-12, 0.25])), min_size=1, max_size=300)
       .filter(lambda w: sum(w) > 0))
def test_quantize_random_weights(weights):
    probs = np.asarray(weights)
    assert_same_quantize(probs / probs.sum())


def _distributions(masses):
    """Distinct nonnegative ids in no particular order, with the given masses.

    At least two entries: masking a lone EOS has no other entry to take its excess.
    """
    return st.lists(masses, min_size=2, max_size=120).flatmap(
        lambda m: st.tuples(
            st.lists(st.integers(0, 1000), min_size=len(m), max_size=len(m), unique=True), st.just(m)
        )
    )


@settings(max_examples=200, deadline=None)
@given(_distributions(st.integers(1, 4)))
def test_build_heavy_ties_unsorted_ids(dist):
    assert_same_build(*dist)


@settings(max_examples=150, deadline=None)
@given(_distributions(st.integers(1, 1 << 40)))
def test_build_large_denominators(dist):
    ids, masses = dist
    got = ConditionalDistribution(ids, masses)
    assert_same_order(got, oracle_lm.OracleDistribution.from_masses(ids, masses))
    assert_same_build(ids, masses)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 3)), min_size=2, max_size=60))
@example([(EOS_ID, 3), (5, 1), (5, 2)])
@example([(EOS_ID, 2), (5, 1), (EOS_ID, 1)])
def test_build_repeated_ids(entries):
    # The constructor puts a repeated id in canonical order like any other; a lookup that meets one raises.
    ids, masses = [t for t, _m in entries], [m for _t, m in entries]
    want = oracle_lm.OracleDistribution.from_masses(ids, masses)
    assert_same_order(ConditionalDistribution(ids, masses), want)
    repeated = sorted(t for t in set(ids) if ids.count(t) > 1)
    if not repeated:
        assert_same_build(ids, masses)
        return
    # EOS masking looks up EOS alone, so it agrees with the oracle unless EOS itself is repeated.
    if EOS_ID in repeated:
        with pytest.raises(QuantizationError, match=f"token id {EOS_ID} is listed twice"):
            mask_eos_min(ConditionalDistribution(ids, masses))
    else:
        assert_same_masking(ConditionalDistribution(ids, masses), want)
    for token in [*ids, 31]:
        dist = ConditionalDistribution(ids, masses)
        # The first lookup scans the ids, so only the repeated id itself raises.
        if token in repeated:
            with pytest.raises(QuantizationError, match=f"token id {token} is listed twice"):
                dist.position_of(token)
        else:
            assert dist.position_of(token) == want.position_of(token)
        # The second builds the map, which comes out short, and names the smallest repeated id.
        with pytest.raises(QuantizationError, match=f"token id {repeated[0]} is listed twice"):
            dist.position_of(token)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["largest", "minimum", "tied-at-one", "middle"]),
    st.lists(st.integers(1, 6), min_size=1, max_size=40),
    st.booleans(),
)
def test_mask_eos_cases(case, others, ascending):
    ids = [PAD_ID, UNK_ID, BOS_ID] + list(range(10, 10 + len(others)))
    masses = [1, 1, 1] + others if case == "tied-at-one" else [2, 1, 3] + others
    eos = {"largest": max(masses) + 5, "minimum": 1, "tied-at-one": 1, "middle": 4}[case]
    ids, masses = ids + [EOS_ID], masses + [eos]
    if not ascending:
        ids, masses = ids[::-1], masses[::-1]
    assert_same_build(ids, masses)


def test_mask_eos_at_position_zero_and_already_minimal():
    for ids, masses in [([EOS_ID, 5, 6], [50, 30, 20]), ([5, EOS_ID, 6], [60, 1, 39]),
                        ([PAD_ID, UNK_ID, BOS_ID, EOS_ID, 9], [1, 1, 1, 1, 96]),
                        ([9, EOS_ID, BOS_ID, UNK_ID, PAD_ID], [90, 7, 1, 1, 1])]:
        assert_same_build(ids, masses)


@pytest.mark.parametrize("eos", [0.0, 1e-9, 1e-4, 0.01, 0.5])
def test_zipf4096_provider_shape(eos):
    """The cold benchmark's distributions: EOS first, a Zipf(1.1) profile on random ids."""
    shape = np.arange(1, ZIPF_SUPPORT, dtype=np.float64) ** -1.1
    shape /= shape.sum()
    probs = np.concatenate(([eos], shape * (1.0 - eos)))
    assert_same_quantize(probs)
    rng = np.random.default_rng(int(eos * 1e9) + 7)
    ids = np.empty(ZIPF_SUPPORT, dtype=np.int64)
    ids[0] = EOS_ID
    others = np.delete(np.arange(ZIPF_VOCAB, dtype=np.int64), EOS_ID)
    ids[1:] = others[rng.choice(others.size, ZIPF_SUPPORT - 1, replace=False)]
    assert_same_build(ids, quantize(probs))

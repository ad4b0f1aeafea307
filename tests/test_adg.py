"""Grouping codec: equal grouping, recursion, round trips, induced q."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adgstego import adg
from adgstego import (
    ADGCodec,
    BitMessage,
    deframe,
    embed_text,
    extract_text,
    frame,
    group_count,
    implicit_q,
    make_codec,
)
from adgstego.adg import _Node, equal_group
from adgstego.bitio import bytes_to_bits
from adgstego.errors import DesyncError
from adgstego.lm import DENOMINATOR, ConditionalDistribution, quantize
from adgstego.runner import GenerationConfig

from conftest import random_distribution, sorted_groups
from oracle_grouping import implicit_q as oracle_implicit_q


def test_group_count_boundaries():
    assert group_count(DENOMINATOR, DENOMINATOR) == 1
    assert group_count(DENOMINATOR // 2, DENOMINATOR) == 2
    assert group_count(DENOMINATOR // 2 + 1, DENOMINATOR) == 1
    assert group_count(DENOMINATOR // 4, DENOMINATOR) == 4
    assert group_count(DENOMINATOR // 4 + 1, DENOMINATOR) == 2
    assert group_count(1, 8) == 8
    with pytest.raises(ValueError):
        group_count(0, DENOMINATOR)
    with pytest.raises(ValueError):
        group_count(2, 1)


def worked_dist():
    return ConditionalDistribution(
        np.arange(4, dtype=np.int64), quantize([0.4, 0.3, 0.2, 0.1])
    )


def test_equal_group_worked_example():
    dist = worked_dist()
    grouping = sorted_groups(dist.token_ids, dist.masses, 2)
    assert [g.token_ids.tolist() for g in grouping] == [[0, 3], [1, 2]]
    # Both groups land on exactly half the total mass.
    assert [g.total_mass for g in grouping] == [1 << 30, 1 << 30]


def test_equal_group_single_group_is_identity():
    dist = worked_dist()
    grouping = sorted_groups(dist.token_ids, dist.masses, 1)
    assert len(grouping) == 1
    assert grouping[0].token_ids.tolist() == [0, 1, 2, 3]


def test_equal_group_singleton_fast_path_matches_order():
    # u == n: one token per group, seeded largest first with id-asc ties.
    ids = np.asarray([5, 2, 9, 7], dtype=np.int64)
    masses = np.asarray([10, 30, 30, 10], dtype=np.int64)
    grouping = sorted_groups(ids, masses, 4)
    assert [int(g.token_ids[0]) for g in grouping] == [2, 9, 5, 7]


def test_equal_group_covers_all_tokens_once():
    rng = random.Random(5)
    for _ in range(50):
        dist = random_distribution(rng, rng.randint(2, 64))
        u = group_count(int(dist.masses[0]), dist.denominator)
        grouping = sorted_groups(dist.token_ids, dist.masses, u)
        seen = sorted(int(t) for g in grouping for t in g.token_ids)
        assert seen == sorted(dist.token_ids.tolist())
        assert sum(g.total_mass for g in grouping) == dist.denominator
        assert all(g.total_mass > 0 for g in grouping)


def test_embed_step_worked_example_consumes_one_bit():
    for bit, (token_set, sizes) in enumerate([({0, 3}, 1), ({1, 2}, 1)]):
        dist = worked_dist()
        msg = BitMessage([bit])
        token, bits, levels = ADGCodec().embed_step(dist, msg, random.Random(0), random.Random(1))
        assert bits == 1
        assert levels == [2]
        assert token in token_set
        assert ADGCodec().extract_step(dist, token) == [bit]


def test_grouping_roots_share_one_read_only_position_range():
    # The larger root first: a root past the shared range's length grows it, and the next shares the new one.
    large, small = random_distribution(random.Random(3), 50), worked_dist()
    roots = [adg._tree(large), adg._tree(small)]
    assert [root.token_ids.tolist() for root in roots] == [list(range(50)), list(range(4))]
    assert np.shares_memory(*(root.token_ids for root in roots))
    assert not roots[1].token_ids.flags.writeable


def test_extract_step_rejects_foreign_token():
    dist = worked_dist()
    with pytest.raises(DesyncError):
        ADGCodec().extract_step(dist, 17)


def test_step_round_trip_on_masses_not_summing_to_the_denominator():
    dist = ConditionalDistribution([4, 2, 9, 5, 11, 6], [20, 10, 10, 10, 7, 3])
    assert dist.denominator == 60
    for trial, payload in enumerate([[0, 0, 1], [0, 1, 0], [1, 0, 1], [1, 1, 1]]):
        token, bits, _levels = ADGCodec().embed_step(
            dist, BitMessage(payload), random.Random(trial), random.Random(trial + 1))
        assert bits >= 1
        assert ADGCodec().extract_step(dist, token) == payload[:bits]


def test_step_round_trip_on_random_distributions():
    rng = random.Random(42)
    codec = ADGCodec()
    for trial in range(60):
        dist = random_distribution(rng, rng.randint(2, 300))
        payload = [rng.randint(0, 1) for _ in range(64)]
        msg = BitMessage(payload)
        sample_rng, pad_rng = random.Random(trial), random.Random(trial + 1)
        consumed = []
        while not msg.exhausted:
            token, bits, _levels = codec.embed_step(dist, msg, sample_rng, pad_rng)
            got = codec.extract_step(dist, token)
            assert len(got) == bits
            consumed.extend(got)
            if bits == 0:
                # A distribution with p_max > 1/2 carries nothing; the
                # runner would move on to the next step instead.
                break
        assert consumed[: len(payload)] == payload[: len(consumed)]
        assert msg.bits[: msg.cursor] == consumed[: msg.cursor]


def test_embed_step_is_deterministic():
    rng = random.Random(3)
    dist_a = random_distribution(rng, 128)
    dist_b = ConditionalDistribution(
        dist_a.token_ids.copy(), dist_a.masses.copy()
    )
    payload = [1, 0, 1, 1, 0, 0, 1, 0] * 4
    out_a = ADGCodec().embed_step(dist_a, BitMessage(payload), random.Random(9), random.Random(10))
    out_b = ADGCodec().embed_step(dist_b, BitMessage(payload), random.Random(9), random.Random(10))
    assert out_a == out_b


def test_implicit_q_is_a_distribution_and_close_to_p():
    rng = random.Random(8)
    for _ in range(20):
        dist = random_distribution(rng, rng.randint(4, 200))
        q = implicit_q(dist)
        assert q.shape == dist.token_ids.shape
        assert q.min() > 0
        assert abs(float(q.sum()) - 1.0) < 1e-9
        p = dist.probs()
        kl = float((q * np.log2(q / p)).sum())
        assert kl >= -1e-12
        # The whole point of the codec: the induced distribution stays close.
        assert kl < 1.0


def test_implicit_q_matches_step_frequencies():
    # Feeding uniform bits through embed_step should visit tokens with the
    # implicit_q probabilities; check exact equality of path products on a
    # small distribution by enumerating all bit prefixes.
    dist = ConditionalDistribution([0, 1, 2, 3], [8, 4, 2, 2])
    q = implicit_q(dist)
    # u=2 at the top: groups {0} (mass 8) and {1,2,3} (mass 8); the second
    # group renormalizes to (1/2, 1/4, 1/4) -> u=2 again: {1} and {2,3}.
    expect = {0: 0.5, 1: 0.25, 2: 0.125, 3: 0.125}
    got = {int(t): float(v) for t, v in zip(dist.token_ids, q)}
    assert got == pytest.approx(expect)


def test_single_level_kl_identity():
    rng = random.Random(21)
    for _ in range(50):
        dist = random_distribution(rng, rng.randint(2, 128))
        u = group_count(int(dist.masses[0]), dist.denominator)
        if u < 2:
            continue
        grouping = sorted_groups(dist.token_ids, dist.masses, u)
        etas = [g.total_mass / dist.denominator for g in grouping]
        group_form = sum(e * math.log2(u * e) for e in etas)
        token_form = 0.0
        for g, eta in zip(grouping, etas):
            for m in g.masses:
                p = int(m) / dist.denominator
                token_form += p * math.log2(u * eta)
        assert group_form == pytest.approx(token_form, abs=1e-9)
        assert group_form >= -1e-12


@given(payload=st.binary(max_size=48), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_text_round_trip_property(provider, vocab, payload, seed):
    cfg = GenerationConfig(sample_seed=seed, pad_seed=seed ^ 0xFFFF)
    sentences, _trace = embed_text(make_codec("adg", len(vocab)), frame(payload), provider, cfg)
    raw = extract_text(make_codec("adg", len(vocab)), sentences, provider, cfg)
    assert deframe(raw) == bytes_to_bits(payload)


def test_equal_mass_grouping_matches_the_greedy(monkeypatch):
    # The memo holds the greedy's output on unit masses; on n masses of m
    # the greedy must give the same labels and heads and m-fold totals.
    monkeypatch.setattr(adg, "_unit_memo", {})
    for n in range(2, 401):
        top = group_count(1, n)
        us = [top >> s for s in range(top.bit_length() - 1)]  # group_count, then each smaller power of two >= 2
        for m in (1, 2, 3, 7, 1000, 123457, DENOMINATOR // n):
            masses = np.full(n, m, dtype=np.int64)
            for u in us:
                want = adg._drain(masses, u)
                assert equal_group(masses, u) == want, (n, m, u)
                node = _Node(np.arange(n), masses, n * m, u)
                assert (node._label, node._totals) == want[:2], (n, m, u)


def test_equal_mass_nodes_of_one_shape_leave_the_memo_entry_unchanged(monkeypatch):
    monkeypatch.setattr(adg, "_unit_memo", {})
    n, u = 37, 32
    ones = np.ones(n, dtype=np.int64)
    first = equal_group(ones * 5, u)
    entry = adg._unit_memo[(n, u)]
    snapshot = entry[0].tobytes(), list(entry[1]), list(entry[2])
    second = equal_group(ones * 11, u)
    node = _Node(np.arange(n), ones * 13, n * 13)
    for i in range(n):
        g, k = node.locate(i)
        assert int(node.child(g).token_ids[k]) == i
    assert adg._unit_memo[(n, u)] is entry
    assert (entry[0].tobytes(), entry[1], entry[2]) == snapshot
    assert first[1] == [5 * t for t in entry[1]] and second[1] == [11 * t for t in entry[1]]
    assert first[0] is second[0] is node._label is entry[0]
    assert node._totals == [13 * t for t in entry[1]]


def test_uniform_distribution_round_trip_and_implicit_q(monkeypatch):
    # Quantizing 300 equal probabilities leaves two masses a unit apart, so
    # the same shape is also run with every mass equal.
    monkeypatch.setattr(adg, "_unit_memo", {})
    quantized = ConditionalDistribution.from_probs(list(range(300)), [1 / 300] * 300)
    assert set(quantized.masses.tolist()) == {DENOMINATOR // 300, DENOMINATOR // 300 + 1}
    codec = ADGCodec()
    rng = random.Random(4)
    for dist in (quantized, ConditionalDistribution(list(range(300)), [7] * 300)):
        for trial in range(40):
            payload = [rng.randint(0, 1) for _ in range(16)]
            token, bits, _levels = codec.embed_step(dist, BitMessage(payload), random.Random(trial), random.Random(trial + 1))
            assert bits >= 8
            assert codec.extract_step(dist, token) == payload[:bits]
        assert implicit_q(dist).tobytes() == oracle_implicit_q(dist).tobytes()
    # Equal masses throughout: a 300-member root of 256 groups, whose pairs split in two.
    assert set(adg._unit_memo) == {(300, 256), (2, 2)}


def test_unit_memo_holds_at_most_its_label_budget(monkeypatch):
    monkeypatch.setattr(adg, "UNIT_MEMO_LABELS", 64)
    monkeypatch.setattr(adg, "_unit_memo", {})
    big = np.full(100, 9, dtype=np.int64)
    want = adg._drain(big, 64)
    assert equal_group(big, 64) == want
    node = _Node(np.arange(100), big, 900)
    assert node.u == 64 and (node._label, node._totals) == want[:2]
    assert not adg._unit_memo  # past the budget: grouped, not stored
    for n in (30, 20, 40, 10, 64, 3, 5):
        masses = np.full(n, 4, dtype=np.int64)
        u = group_count(4, 4 * n)
        assert equal_group(masses, u) == adg._drain(masses, u)
        assert (n, u) in adg._unit_memo  # the newest entry always stays
        assert sum(len(label) for label, _, _ in adg._unit_memo.values()) <= 64
    assert list(adg._unit_memo) == [(3, 2), (5, 4)]

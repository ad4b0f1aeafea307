"""The grouping node, ``equal_group`` and ``implicit_q`` against the frozen oracles, and extraction by position."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adgstego import ADGCodec, BitMessage, group_count, implicit_q
from adgstego.adg import SMALL_NODE, _Node, _tree, equal_group
from adgstego.corpus import BOS_ID
from adgstego.errors import StegoError
from adgstego.lm import ConditionalDistribution, quantize

from conftest import bos_successors, sorted_groups, zipf4096_eos_first
from oracle_grouping import equal_group as oracle_equal_group
from oracle_grouping import implicit_q as oracle_implicit_q

ZIPF_VOCAB = 50_257


def _groupings(token_ids, masses, u):
    """``(groups, None)`` from the grouping node and the oracle, or ``(None, error)`` when they raise."""
    out = []
    for fn in (sorted_groups, oracle_equal_group):
        try:
            out.append((fn(token_ids, masses, u), None))
        except StegoError as exc:
            out.append((None, str(exc)))
    return out


def assert_identical(token_ids, masses, u):
    (got, got_err), (want, want_err) = _groupings(token_ids, masses, u)
    assert got_err == want_err
    if want is None:
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.token_ids.dtype == w.token_ids.dtype and g.masses.dtype == w.masses.dtype
        assert g.token_ids.tobytes() == w.token_ids.tobytes()
        assert g.masses.tobytes() == w.masses.tobytes()
        assert type(g.total_mass) is type(w.total_mass) and g.total_mass == w.total_mass
    # equal_group on the same input in grouping order: labels, totals and heads.
    ids, m = np.asarray(token_ids, dtype=np.int64), np.asarray(masses, dtype=np.int64)
    desc = np.lexsort((ids, -m))
    label, totals, heads = equal_group(m[desc], u)
    labels = np.frombuffer(label, np.intc)
    by_group = np.argsort(labels, kind="stable")  # each group's members in grouping order
    starts = np.searchsorted(labels[by_group], np.arange(len(want)))
    assert heads == by_group[starts].tolist()  # a group's head is its first member
    for members, total, w in zip(np.split(ids[desc][by_group], starts[1:]), totals, want, strict=True):
        in_order = np.lexsort((w.token_ids, -w.masses))  # the oracle's one group at u = 1 keeps the input order
        assert members.tobytes() == w.token_ids[in_order].tobytes()
        assert type(total) is int and total == w.total_mass


def assert_identical_for_every_u(token_ids, masses):
    u = 1
    while u <= len(masses):
        assert_identical(token_ids, masses, u)
        u *= 2


@st.composite
def distributions(draw, mass_strategy, max_size=160):
    n = draw(st.integers(1, max_size))
    masses = draw(st.lists(mass_strategy, min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(0, 10 * max_size), min_size=n, max_size=n, unique=True))
    return ids, masses


def at_buffer_bound(value, *args):
    """``@example``s at nodes of ``SMALL_NODE - 1``, ``SMALL_NODE`` and ``SMALL_NODE + 1`` members.

    The greedy reads a node of up to ``SMALL_NODE`` members from lists and a
    larger one from typed buffers, so both kinds meet the oracle in every
    run, not only when hypothesis draws those sizes.  Each example's first
    argument is ``(ids, [value(i) for i in range(n)])``, ids running
    against the grouping order; ``args`` follow it.
    """
    def decorate(test):
        for n in (SMALL_NODE - 1, SMALL_NODE, SMALL_NODE + 1):
            test = example((list(range(n, 0, -1)), [value(i) for i in range(n)]), *args)(test)
        return test
    return decorate


def heavy_head(i):
    """A heavy head over a flat, uneven tail: runs, nearest-mass picks and holes."""
    return 10**6 // (i + 1) ** 2 + (i * 7_919) % 13


def small_count(i):
    """Counts 0..6 with long runs of ties, as add-k smoothing sees them."""
    return (i * i) % 7


@settings(max_examples=150, deadline=None)
@given(distributions(st.integers(1, 10**9)))
@at_buffer_bound(heavy_head)
def test_random_masses_every_u(dist):
    assert_identical_for_every_u(*dist)


@settings(max_examples=150, deadline=None)
@given(distributions(st.integers(0, 6)), st.integers(1, 3))
@at_buffer_bound(small_count, 1)
def test_add_k_style_ties_every_u(dist, k):
    # Add-k smoothing turns small counts into a few distinct masses with
    # long runs of ties: (count + k/2) scaled to integers.
    ids, counts = dist
    assert_identical_for_every_u(ids, [2 * c + k for c in counts])


@settings(max_examples=100, deadline=None)
@given(distributions(st.integers(1, 50)), st.randoms(use_true_random=False))
def test_unsorted_and_sorted_inputs_agree(dist, rng):
    ids, masses = dist
    order = sorted(range(len(ids)), key=lambda i: (-masses[i], ids[i]))
    rng.shuffle(order)
    assert_identical_for_every_u([ids[i] for i in order], [masses[i] for i in order])
    by_desc = sorted(zip(ids, masses), key=lambda pair: (-pair[1], pair[0]))
    assert_identical_for_every_u([i for i, _ in by_desc], [m for _, m in by_desc])


def test_long_runs_and_holes_against_oracle():
    # Heavy-headed profiles over wide flat tails: many run steps, and the
    # nearest() picks punch holes that cut later runs short.
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(50, 600)
        head = [rng.randint(1_000, 100_000) for _ in range(rng.randint(1, 8))]
        tail = [rng.choice([1, 1, 2, 3, 50]) for _ in range(n)]
        masses = head + tail
        ids = rng.sample(range(10 * len(masses)), len(masses))
        assert_identical_for_every_u(ids, masses)


@pytest.fixture(scope="module")
def zipf50k():
    """Fully supported Zipf(1.1) over 50,257 ids, ranks on a fixed permutation."""
    probs = 1.0 / np.arange(1, ZIPF_VOCAB + 1, dtype=np.float64) ** 1.1
    ids = np.random.default_rng(20_230_101).permutation(ZIPF_VOCAB).astype(np.int64)
    return ConditionalDistribution(ids, quantize(probs / probs.sum()))


def test_zipf50k_first_two_levels_against_oracle(zipf50k):
    u = group_count(int(zipf50k.masses[0]), zipf50k.denominator)
    assert_identical(zipf50k.token_ids, zipf50k.masses, u)
    for g in sorted_groups(zipf50k.token_ids, zipf50k.masses, u):
        assert_identical(g.token_ids, g.masses, group_count(int(g.masses[0]), g.total_mass))


def test_extract_recovers_every_token_along_the_embed_path():
    rng = np.random.default_rng(5)
    ids = rng.choice(ZIPF_VOCAB, size=4096, replace=False).astype(np.int64)
    probs = 1.0 / np.arange(1, 4097, dtype=np.float64) ** 1.1
    dist = ConditionalDistribution(ids, quantize(probs / probs.sum()))
    codec = ADGCodec()
    for token in dist.token_ids.tolist():
        bits = codec.extract_step(dist, token)
        sampled, consumed, sizes = codec.embed_step(dist, BitMessage(bits), random.Random(token), random.Random(0))
        assert consumed == len(bits)
        leaf, at = _tree(dist), 0
        for u in sizes:
            chunk = bits[at : at + u.bit_length() - 1]
            leaf = leaf.child(int("".join(map(str, chunk)), 2))
            at += len(chunk)
        assert at == len(bits)
        assert dist.position_of(token) in leaf.token_ids.tolist()
        assert codec.extract_step(dist, sampled) == bits


def assert_implicit_q_identical(token_ids, masses):
    dist = ConditionalDistribution(token_ids, masses)
    assert implicit_q(dist).tobytes() == oracle_implicit_q(dist).tobytes()


@settings(max_examples=150, deadline=None)
@given(distributions(st.integers(1, 10**9)))
@example(([7], [5]))  # the root is a single token
@example(([1, 2], [3, 1]))  # the root is a leaf
@example((list(range(8)), [5] * 8))  # the root holds u singletons
@example((list(range(16, 0, -1)), [4] * 16))  # the same, ties broken against the given order
# Leaf (u < 2), flat (u singletons) and split groups on one level: the
# root's, the second level's across several nodes, and four levels deep.
@example((list(range(7, 0, -1)), [9, 9, 5, 5, 5, 3, 2]))
@example((list(range(8, 0, -1)), [12, 9, 6, 6, 4, 4, 3, 3]))
@example((list(range(10, 0, -1)), [12, 7, 6, 6, 5, 3, 3, 2, 2, 1]))
def test_implicit_q_random_masses_against_oracle(dist):
    assert_implicit_q_identical(*dist)


@settings(max_examples=150, deadline=None)
@given(distributions(st.integers(0, 6)), st.integers(1, 3))
def test_implicit_q_add_k_style_ties_against_oracle(dist, k):
    ids, counts = dist
    assert_implicit_q_identical(ids, [2 * c + k for c in counts])


def test_implicit_q_zipf50k_against_oracle(zipf50k):
    assert implicit_q(zipf50k).tobytes() == oracle_implicit_q(zipf50k).tobytes()


def test_implicit_q_bundled_model_against_oracle(model):
    for dist in bos_successors(model, 60):
        assert implicit_q(dist).tobytes() == oracle_implicit_q(dist).tobytes()


@pytest.mark.parametrize("eos", [0.0, 1e-4, 0.01, 0.2, 0.5])
def test_implicit_q_zipf4096_eos_first_against_oracle(eos):
    dist = zipf4096_eos_first(eos, seed=int(eos * 1e9) + 7)
    assert implicit_q(dist).tobytes() == oracle_implicit_q(dist).tobytes()


def test_implicit_q_builds_no_node(monkeypatch, model):
    def refuse(*_args, **_kwargs):
        raise AssertionError("implicit_q built a _Node")

    dists = [zipf4096_eos_first(eos, seed=3) for eos in (0.0, 0.2)] + bos_successors(model, 5)
    want = [oracle_implicit_q(dist).tobytes() for dist in dists]
    monkeypatch.setattr(_Node, "__init__", refuse)
    monkeypatch.setattr(_Node, "child", refuse)
    assert [implicit_q(dist).tobytes() for dist in dists] == want
    assert all("adg_tree" not in dist.cache for dist in dists)


def test_implicit_q_leaves_the_cached_tree_as_it_found_it():
    probs = 1.0 / np.arange(1, 4097, dtype=np.float64) ** 1.1
    ids = np.random.default_rng(5).choice(ZIPF_VOCAB, size=4096, replace=False).astype(np.int64)
    dist = ConditionalDistribution(ids, quantize(probs / probs.sum()))
    implicit_q(dist)
    assert "adg_tree" not in dist.cache
    ADGCodec().embed_step(dist, BitMessage([0] * 8), random.Random(0), random.Random(0))
    root = _tree(dist)
    totals, children = len(root._totals), sorted(root._children)
    assert totals < root.u and children == [0]  # the embedding left the root's grouping unfinished
    implicit_q(dist)
    assert dist.cache.keys() == {"adg_tree"} and _tree(dist) is root
    assert len(root._totals) == totals and sorted(root._children) == children


def pareto_add_k(seed, n, alpha, k):
    """Heavy-tailed counts, mostly 0 and 1, smoothed add-k style: few masses, long runs of ties."""
    rng = np.random.default_rng(seed)
    counts = np.floor(rng.pareto(alpha, n)).astype(np.int64)
    return rng.permutation(10 * n)[:n], 2 * counts + k


@pytest.mark.parametrize(
    "seed, n, alpha, k",
    [(1, 5_000, 1.2, 1), (2, 5_000, 0.9, 1), (1, 5_000, 2.0, 3), (2, 8_192, 1.2, 2), (3, 12_000, 1.2, 1)],
)
def test_tie_heavy_large_distributions_against_oracle(seed, n, alpha, k):
    # Nearest-mass picks among tied masses take consecutive indices.  At u
    # = 64 and 256 the holes form clusters of up to ~100 indices that the
    # hole skip and the run cut must cross.
    ids, masses = pareto_add_k(seed, n, alpha, k)
    largest = 1 << (n.bit_length() - 1)
    for u in sorted({2, 16, 64, 256, group_count(int(masses.max()), int(masses.sum())), largest}):
        assert_identical(ids, masses, u)


def assert_locate_matches_groups(node):
    groups = [node.child(g) for g in range(node.u)]
    members = node.token_ids.tolist()
    for index, position in enumerate(members):
        g, member = node.locate(index)
        assert groups[g].token_ids[member] == position
    assert sum(len(g.token_ids) for g in groups) == len(members)


def test_locate_tables_agree_with_groups(model):
    probs = np.arange(1, 4096, dtype=np.float64) ** -1.1
    probs = np.concatenate(([0.05], 0.95 * probs / probs.sum()))
    ids = np.random.default_rng(11).choice(ZIPF_VOCAB, size=4096, replace=False).astype(np.int64)
    root = _tree(ConditionalDistribution(ids, quantize(probs)))
    assert_locate_matches_groups(root)
    assert_locate_matches_groups(max((root.child(g) for g in range(root.u)), key=lambda g: len(g.token_ids)))
    assert_locate_matches_groups(_tree(model.next_distribution([BOS_ID])))


def canonical_node(ids, masses, u):
    """A fresh tree node over ``ids`` in grouping order (mass desc, id asc), as the tree holds positions."""
    order = sorted(range(len(ids)), key=lambda i: (-masses[i], ids[i]))
    ids = np.asarray([ids[i] for i in order], dtype=np.int64)
    masses = np.asarray([masses[i] for i in order], dtype=np.int64)
    return _Node(ids, masses, int(masses.sum()), u), ids, masses


def assert_same_group(got, want):
    assert got.token_ids.tobytes() == want.token_ids.tobytes()
    assert got.masses.tobytes() == want.masses.tobytes()
    assert type(got.total_mass) is type(want.total_mass) and got.total_mass == want.total_mass


def assert_requests_match_oracle(ids, masses, log_u, requests):
    u = 1 << min(log_u, len(ids).bit_length() - 1)
    if u < 2:
        return
    node, ids, masses = canonical_node(ids, masses, u)
    try:
        want = oracle_equal_group(ids, masses, u)
    except StegoError as exc:
        with pytest.raises(StegoError, match=str(exc)):
            [node.child(g) for g in range(u)]
        return
    for kind, k in requests:
        if kind == "child":
            assert_same_group(node.child(k % u), want[k % u])
        elif kind == "locate":
            g, member = node.locate(k % len(ids))
            assert want[g].token_ids[member] == ids[k % len(ids)]
        else:
            for got, w in zip([node.child(g) for g in range(u)], want, strict=True):
                assert_same_group(got, w)
    for g in range(u):  # the answers so far leave the rest of the grouping intact
        assert_same_group(node.child(g), want[g])
    for i, position in enumerate(ids.tolist()):
        g, member = node.locate(i)
        assert want[g].token_ids[member] == position


requests = st.lists(st.tuples(st.sampled_from(["child", "locate", "groups"]), st.integers(0, 10**6)), max_size=12)


# A member of the first group, one deep in the node, then every group.
BOUND_REQUESTS = [("child", 0), ("locate", 40), ("groups", 0)]


@settings(max_examples=150, deadline=None)
@given(distributions(st.integers(1, 10**9)), st.integers(1, 8), requests)
@at_buffer_bound(heavy_head, 4, BOUND_REQUESTS)
def test_resumable_node_random_masses_any_request_order(dist, log_u, reqs):
    assert_requests_match_oracle(*dist, log_u, reqs)


@settings(max_examples=150, deadline=None)
@given(distributions(st.integers(0, 6)), st.integers(1, 3), st.integers(1, 8), requests)
@at_buffer_bound(small_count, 2, 4, BOUND_REQUESTS)
def test_resumable_node_add_k_ties_any_request_order(dist, k, log_u, reqs):
    ids, counts = dist
    assert_requests_match_oracle(ids, [2 * c + k for c in counts], log_u, reqs)


def test_locate_on_a_node_never_grouped():
    # Each lookup is the first request on a fresh node: positions in early
    # groups, nearest-mass holes and the last group alike.
    ids, masses = pareto_add_k(4, 700, 1.2, 1)
    _, ids, masses = canonical_node(ids.tolist(), masses.tolist(), 1)
    for u in (group_count(int(masses[0]), int(masses.sum())), 64):
        want = oracle_equal_group(ids, masses, u)
        for i, position in enumerate(ids.tolist()):
            g, member = _Node(ids, masses, int(masses.sum()), u).locate(i)
            assert want[g].token_ids[member] == position


def test_child_zero_leaves_the_last_group_unformed():
    # The 4,096-token Zipf shape: the root splits 4 ways and its tail node,
    # ~3,900 tokens, 256 ways.
    probs = 1.0 / np.arange(1, 4097, dtype=np.float64) ** 1.1
    ids = np.random.default_rng(5).choice(ZIPF_VOCAB, size=4096, replace=False).astype(np.int64)
    root = _tree(ConditionalDistribution(ids, quantize(probs / probs.sum())))
    tail = root.child(root.u - 1)
    assert tail.u == 256 and len(tail.token_ids) > 3_800
    first = tail.child(0)
    assert len(tail._totals) < tail.u  # the last group's total is recorded only when the greedy ends
    assert_same_group(first, oracle_equal_group(tail.token_ids, tail.masses, tail.u)[0])

"""Adaptive dynamic grouping codec: equal grouping, recursive embed, extract.

All grouping decisions compare exact integers (masses) or exact rationals
(running group means), never floats, so sender and receiver reconstruct
identical groupings from the same quantized distribution on any platform.

The number of groups for a (sub)distribution with maximum mass ``p_max``
over total mass ``M`` is the largest power of two ``u`` with
``u * p_max <= M``.  Equal grouping then seeds each of the first ``u - 1``
groups with the largest remaining token and greedily tops it up with the
token whose mass is nearest the remaining gap, accepting a candidate only
while ``candidate_mass < 2 * gap``; the last group takes the rest.

The greedy walks the tokens in mass-desc order with id-asc ties, so the
largest remaining token with the lowest id is simply the first alive
index.  When even that token falls short of the gap, the nearest mass is
the largest one and it fits; the step repeats while the alive run from
the front lasts and its masses stay under the gap, so one bisect on
prefix sums settles the whole run and moving the front kills it.  Only
nearest-mass picks leave holes past the front, so a run ends at the next
hole at the latest, and union-find pointers over the holes alone skip
them: a call's Python work follows the tokens it places in groups
``0..u-2``, not its size.  A label array filled from the front's ranges
and the holes gives the groups with one stable argsort.

One node type, :class:`_Node`, is both a group that ``equal_group``
returns and a level of the grouping tree: a node's own groups are its
children.  The tree groups a distribution's positions, not its token ids,
so a token's position is the same at every level.

Embedding selects a group per ``log2(u)`` message bits and recurses into
it (pruning: only the selected group is ever regrouped) until the current
group's renormalized maximum exceeds one half, then samples a token within
the final group.  Extraction replays the recursion, at each level taking
the group that holds the observed token, and carries the token's index
among the node's members down the tree.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import runner
from .bitio import BitMessage, deframe, index_to_bits, next_index
from .errors import DesyncError, StegoError
from .lm import ConditionalDistribution, sample_token
from .runner import EmbedTrace, GenerationConfig


def group_count(p_max_mass: int, denominator: int) -> int:
    """Largest power of two ``u`` with ``u * p_max_mass <= denominator``."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    if not 1 <= p_max_mass <= denominator:
        raise ValueError(f"p_max mass {p_max_mass} outside [1, {denominator}]")
    return 1 << ((denominator // p_max_mass).bit_length() - 1)


def _skip(pointers: Dict[int, int], i: int) -> int:
    """Follow ``pointers`` from ``i`` to the first index without one, compressing the path."""
    root = i
    while root in pointers:
        root = pointers[root]
    while i != root:
        pointers[i], i = root, pointers[i]
    return root


def equal_group(token_ids: Sequence[int], masses: Sequence[int], u: int) -> List["_Node"]:
    """Partition a distribution into ``u`` near-equal groups.

    Nearest-mass ties prefer the lower mass, then the lower token id, so
    the result is unique for a given input.  The input need not be sorted;
    each group's members come out in mass-desc, id-asc order.
    """
    if u < 1 or (u & (u - 1)) != 0:
        raise StegoError(f"group count {u} is not a power of two")
    ids = np.asarray(token_ids, dtype=np.int64)
    m = np.asarray(masses, dtype=np.int64)
    n = int(ids.size)
    if u == 1:
        return [_Node(ids.copy(), m.copy(), int(m.sum()))]
    if u > n:
        raise StegoError(f"cannot form {u} groups from {n} tokens")
    desc = np.lexsort((ids, -m))  # mass desc, then id asc
    ids, m = ids[desc], m[desc]
    if u == n:
        # Every group is a singleton; the top-up loop never fires (the max
        # is >= the mean).
        return [_Node(ids[i : i + 1], m[i : i + 1], int(m[i])) for i in range(n)]

    # Typed buffers: copied in O(n) without making a Python int per element.
    prefix = array("q", bytes(8))  # prefix[i] = sum(m[:i])
    prefix.frombytes(m.cumsum().tobytes())
    neg = array("q", (-m).tobytes())  # mass i is -neg[i]; ascending, for bisect
    # The dead indices are [0, front) and the sorted holes.  Union-find
    # pointers over the holes alone skip them: an index with no pointer is
    # alive if it lies in [front, n).
    holes: List[int] = []
    nxt: Dict[int, int] = {}  # hole -> a later index
    prv: Dict[int, int] = {}  # hole -> an earlier index
    hole_group: Dict[int, int] = {}
    stops: List[int] = []  # front after each group; group g holds [stops[g-1], stops[g]) but holes

    # The running mean is the exact rational remaining / slots; comparisons
    # against it cross-multiply by slots so everything stays in integers.
    remaining = prefix[n]
    front = 0
    for g in range(u - 1):
        slots = u - g
        front = _skip(nxt, front)
        if front >= n:
            raise StegoError("ran out of tokens while forming groups")
        gmass = -neg[front]  # the head: the largest alive token
        front += 1
        while gmass * slots < remaining:
            # The gap is eps = eps_num / slots; a mass reaches it iff >= ceil(eps).
            eps_num = remaining - gmass * slots
            ceil_eps = -(-eps_num // slots)
            front = _skip(nxt, front)
            if front >= n:
                break
            if -neg[front] * slots < eps_num:
                # No alive mass reaches the gap, so the nearest is the largest
                # alive token, and it fits.  That repeats while the alive run
                # from front lasts and its prefix sum stays under the gap.
                h = bisect_right(holes, front)  # the next hole, if any, ends the run
                stop = min([bisect_left(prefix, prefix[front] + ceil_eps) - 1, *holes[h : h + 1]])
                gmass += prefix[stop] - prefix[front]
                front = stop
                continue
            # Nearest to the gap: the largest mass below it or the smallest
            # at or above it (which exists), each its lowest-id alive holder;
            # equidistant candidates resolve to the lower mass.
            k = bisect_right(neg, -ceil_eps)  # indices [0, k) reach the gap
            cand = _skip(prv, k - 1)
            cand_mass = -neg[cand]
            if cand > front and neg[cand - 1] == neg[cand]:  # tied: find the lowest-id alive holder
                cand = _skip(nxt, max(bisect_left(neg, neg[cand]), front))
            below = _skip(nxt, k)
            if below < n and 2 * eps_num <= (cand_mass - neg[below]) * slots:
                cand, cand_mass = below, -neg[below]
            if cand_mass * slots >= 2 * eps_num:
                break
            nxt[cand], prv[cand] = cand + 1, cand - 1
            insort(holes, cand)
            hole_group[cand] = g
            gmass += cand_mass
        remaining -= gmass
        stops.append(front)
    if _skip(nxt, front) >= n:
        raise StegoError("equal grouping left the final group empty")

    # Group members keep the mass-desc order: a stable sort by label.
    label = np.bincount(stops, minlength=n).cumsum()  # the number of stops at or below each index
    if hole_group:
        label[list(hole_group)] = list(hole_group.values())
    order = np.argsort(label, kind="stable")
    sizes = np.bincount(label, minlength=u)
    starts = np.cumsum(sizes) - sizes
    g_ids, g_masses = ids[order], m[order]
    totals = np.add.reduceat(g_masses, starts)
    return [
        _Node(g_ids[s : s + k], g_masses[s : s + k], t)
        for s, k, t in zip(starts.tolist(), sizes.tolist(), totals.tolist())
    ]


class _Node:
    """A group of a distribution, and the grouping tree below it.

    In the tree, ``token_ids`` holds positions into ``dist.token_ids``, not
    token ids: position order is mass desc with id-asc ties, so positions
    keep the grouping tie-break order, and every node's members are sorted.
    A node's grouping is computed on first use and cached; its groups are
    its children, so repeated embedding and extraction against one
    distribution share one tree.  Extraction also builds, once per node,
    two int32 tables aligned with the members: each member's group and its
    index inside that group.
    """

    __slots__ = ("token_ids", "masses", "total_mass", "_groups", "_group_of", "_index_in", "_cumsum", "_member_ids")

    def __init__(self, token_ids: np.ndarray, masses: np.ndarray, total_mass: int):
        self.token_ids = token_ids
        self.masses = masses
        self.total_mass = total_mass
        self._groups: Optional[List[_Node]] = None
        self._group_of: Optional[array] = None
        self._index_in: Optional[array] = None
        self._cumsum: Optional[np.ndarray] = None
        self._member_ids: Optional[np.ndarray] = None

    @property
    def u(self) -> int:
        return group_count(int(self.masses[0]), self.total_mass)

    def groups(self) -> List["_Node"]:
        if self._groups is None:
            self._groups = equal_group(self.token_ids, self.masses, self.u)
        return self._groups

    def child(self, index: int) -> "_Node":
        return self.groups()[index]

    def locate(self, index: int) -> Tuple[int, int]:
        """The group holding member ``index`` and the member's index inside that group."""
        if self._group_of is None:
            groups = self.groups()
            sizes = np.array([g.token_ids.size for g in groups], dtype=np.int32)
            # Member positions are sorted and unique, as are each group's: any argsort of the
            # groups laid end to end gives member order, and the stable kind merges them fastest.
            order = np.argsort(np.concatenate([g.token_ids for g in groups]), kind="stable")
            starts = np.cumsum(sizes, dtype=np.int32) - sizes
            group_of = np.repeat(np.arange(sizes.size, dtype=np.int32), sizes)
            index_in = np.arange(order.size, dtype=np.int32) - np.repeat(starts, sizes)
            # Typed int32 buffers: indexing one is quicker than ndarray.item.
            self._group_of = array("i", group_of[order].tobytes())
            self._index_in = array("i", index_in[order].tobytes())
        return self._group_of[index], self._index_in[index]

    def sample(self, rng: random.Random, dist_token_ids: np.ndarray) -> int:
        """A token drawn in proportion to its mass; the node holds positions into ``dist_token_ids``."""
        if self._cumsum is None:
            self._cumsum = np.cumsum(self.masses)
            self._member_ids = dist_token_ids[self.token_ids]
        return sample_token(rng, self._member_ids, self._cumsum, self.total_mass)


def _tree(dist: ConditionalDistribution) -> _Node:
    node = dist.cache.get("adg_tree")
    if node is None:
        node = _Node(np.arange(len(dist), dtype=np.int64), dist.masses, dist.denominator)
        dist.cache["adg_tree"] = node
    return node


def embed_step(
    dist: ConditionalDistribution,
    msg: BitMessage,
    sample_rng: random.Random,
    pad_rng: random.Random,
) -> Tuple[int, int, List[Tuple[int, int]]]:
    """One generation step: returns (token_id, bits_consumed, level_trace).

    ``level_trace`` holds one ``(u, selected_index)`` pair per recursion
    level; ``bits_consumed`` is the sum of their ``log2(u)``.
    """
    node = _tree(dist)
    levels: List[Tuple[int, int]] = []
    bits = 0
    while True:
        u = node.u
        if u < 2:
            break
        r = u.bit_length() - 1
        index = next_index(msg, r, pad_rng)
        levels.append((u, index))
        bits += r
        node = node.child(index)
    return node.sample(sample_rng, dist.token_ids), bits, levels


def extract_step(dist: ConditionalDistribution, observed_token: int) -> List[int]:
    """Replay the grouping recursion and emit the observed token's group indices."""
    position = dist.position_of(observed_token)
    if position is None:
        raise DesyncError(f"token {observed_token} absent from the shared distribution")
    node = _tree(dist)
    member = position  # the root's members are all positions, in order
    bits: List[int] = []
    while True:
        u = node.u
        if u < 2:
            return bits
        index, member = node.locate(member)
        bits.extend(index_to_bits(index, u.bit_length() - 1))
        node = node.child(index)


def implicit_q(dist: ConditionalDistribution) -> np.ndarray:
    """The token distribution induced by uniform-bit embedding.

    Returns probabilities aligned with ``dist.token_ids``: each recursion
    level contributes a factor ``1/u`` for its group, and the final group
    contributes the token's renormalized mass.
    """
    cached = dist.cache.get("adg_q")
    if cached is not None:
        return cached
    # Its own walk over the tree's node type.  It calls equal_group directly,
    # so the tree caches only what embedding and extraction built: walking
    # the cached tree instead kept ~20x the memory alive and ran slower.
    q = np.zeros(len(dist), dtype=np.float64)
    root = _Node(np.arange(len(dist), dtype=np.int64), dist.masses, dist.denominator)
    stack: List[Tuple[_Node, float]] = [(root, 1.0)]
    while stack:
        node, scale = stack.pop()
        u = node.u
        if u < 2:
            q[node.token_ids] += scale * (node.masses.astype(np.float64) / node.total_mass)
        elif u == len(node.token_ids):
            # All groups are singletons, each reached with probability 1/u.
            q[node.token_ids] += scale / u
        else:
            child_scale = scale / u
            stack.extend((g, child_scale) for g in equal_group(node.token_ids, node.masses, u))
    dist.cache["adg_q"] = q
    return q


class ADGCodec(runner.Codec):
    """Adapter exposing the grouping codec through the shared runner loop."""

    name = "adg"

    def __init__(self):
        self.params: Dict = {}

    def embed_step(self, dist, msg, sample_rng, pad_rng):
        token, bits, levels = embed_step(dist, msg, sample_rng, pad_rng)
        return token, bits, [u for u, _ in levels]

    def extract_step(self, dist, token_id):
        return extract_step(dist, token_id)

    def step_q(self, dist):
        return dist.token_ids, implicit_q(dist)


def embed(
    msg: BitMessage,
    provider,
    cfg: Optional[GenerationConfig] = None,
) -> Tuple[List[List[int]], EmbedTrace]:
    """Embed a framed message; see :func:`runner.embed_text` for the contract."""
    return runner.embed_text(ADGCodec(), msg, provider, cfg or GenerationConfig())


def extract(
    sentences: Sequence[Sequence[int]],
    provider,
    cfg: Optional[GenerationConfig] = None,
) -> List[int]:
    """Recover the payload bits from stegotext sentences."""
    raw = runner.extract_text(ADGCodec(), sentences, provider, cfg or GenerationConfig())
    return deframe(raw)

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
them: the Python work follows the tokens placed in groups ``0..u-2``, not
the number of tokens.

The greedy is resumable.  It runs as one generator per node, paused after
each group, and a node forms groups only as far as a request needs:
embedding stops after the selected group, extraction once the observed
token is placed, so neither forms the groups past the one it recurses
into.  The greedy records its decisions in one label table aligned with
the node's members: placing a member writes its group, and every member
starts labelled ``u - 1``, the last group, which takes whatever the
greedy leaves.  Group ``g`` is the members labelled ``g``, and a member's
label is final once the groups up to it are formed.  Forming a group and
locating a member both read that table.  The greedy also records each
group's head, its first and largest member, so a group's own ``u`` is
known without building the group.

One node type, :class:`_Node`, is both a group that ``equal_group``
returns and a level of the grouping tree: a node's own groups are its
children.  The tree groups a distribution's positions, not its token ids:
positions are already in grouping order, so no level sorts, and a token's
position is the same at every level.

Embedding selects a group per ``log2(u)`` message bits and recurses into
it (pruning: only the selected group is ever regrouped) until the current
group's renormalized maximum exceeds one half, then samples a token within
the final group.  Extraction replays the recursion, at each level taking
the group that holds the observed token, and carries the token's index
among the node's members down the tree.

``implicit_q`` needs every group's probability, so it walks a fresh tree
of its own and runs each node's greedy to the end.  A group whose head
mass and total make it a leaf (``u < 2``), or that holds ``u``
singletons, is written into q at once with its node's other such groups;
only the groups that split further become nodes.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import runner
from .bitio import index_to_bits, next_index
from .errors import DesyncError, StegoError
from .lm import ConditionalDistribution, sample_token


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
        return [_Node(ids.copy(), m.copy(), int(m.sum()), 1)]
    if u > n:
        raise StegoError(f"cannot form {u} groups from {n} tokens")
    desc = np.lexsort((ids, -m))  # mass desc, then id asc
    return _Node(ids[desc], m[desc], int(m.sum()), u).groups()


def _greedy(m: np.ndarray, u: int, label: array, totals: List[int], heads: List[int]):
    """Equal grouping's greedy over the mass-desc masses ``m``, paused after each group.

    Placing member i in group g sets ``label[i] = g``; ``label`` starts at
    ``u - 1`` throughout, so the last group's members need no store.  Group
    g's mass is ``totals[g]`` and its head, its first and so its largest
    member, is ``heads[g]``.  The generator yields after each of groups
    ``0..u-2`` and returns once the last group is recorded, which frees its
    buffers.
    """
    n = m.size
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

    # The running mean is the exact rational remaining / slots; comparisons
    # against it cross-multiply by slots so everything stays in integers.
    remaining = prefix[n]
    front = 0
    for g in range(u - 1):
        slots = u - g
        front = _skip(nxt, front)
        if front >= n:
            raise StegoError("ran out of tokens while forming groups")
        heads.append(front)
        gmass = -neg[front]  # the head: the largest alive token
        label[front] = g
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
                label[front:stop] = array("i", [g]) * (stop - front)
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
            label[cand] = g
            gmass += cand_mass
        remaining -= gmass
        totals.append(gmass)
        yield
    front = _skip(nxt, front)  # the last group's head
    if front >= n:
        raise StegoError("equal grouping left the final group empty")
    heads.append(front)
    totals.append(remaining)


class _Node:
    """A group of a distribution, and the grouping tree below it.

    In the tree, ``token_ids`` holds positions into ``dist.token_ids``, not
    token ids: position order is mass desc with id-asc ties, so positions
    keep the grouping tie-break order, and every node's members are sorted.
    ``u`` is the number of groups the members split into.

    A node's grouping is resumable: a suspended :func:`_greedy` forms one
    group at a time, only as far as a request needs.  ``child(g)`` forms
    groups up to ``g`` and builds that group's node alone; ``locate(i)``
    forms groups until member ``i`` is placed; ``groups()`` is every
    ``child(g)``.  Children are cached, so repeated embedding and
    extraction against one distribution share one tree.  The greedy writes
    each member's group into the int32 table ``_label`` as it places the
    member, and ``child`` and ``locate`` read it.  Once the greedy ends
    its typed buffers and union-find pointers are freed; the labels, group
    totals and group heads stay, and ``implicit_q`` reads them.
    ``locate`` memoizes each member's index inside its group in a second
    int32 table, so a repeated lookup is two array reads.
    """

    __slots__ = ("token_ids", "masses", "total_mass", "u", "_children", "_greedy", "_label", "_totals",
                 "_heads", "_index_in", "_cumsum", "_member_ids")

    def __init__(self, token_ids: np.ndarray, masses: np.ndarray, total_mass: int, u: Optional[int] = None):
        self.token_ids = token_ids
        self.masses = masses
        self.total_mass = total_mass
        if u is None:
            # Members are in mass-desc order, so the first mass is the largest.
            u = group_count(int(masses[0]), total_mass)
        self.u = u
        self._children: Dict[int, _Node] = {}
        self._index_in: Optional[array] = None
        self._cumsum: Optional[np.ndarray] = None
        self._member_ids: Optional[np.ndarray] = None
        if self.u > 1:
            self._label = array("i", [u - 1]) * len(token_ids)
            self._totals: List[int] = []
            self._heads: List[int] = []
            self._greedy = _greedy(masses, u, self._label, self._totals, self._heads)

    def _form(self, g: int) -> None:
        """Run the greedy until group ``g`` is formed."""
        totals = self._totals
        if len(totals) <= g:
            for _ in self._greedy:
                if len(totals) > g:
                    break

    def groups(self) -> List["_Node"]:
        return [self.child(g) for g in range(self.u)]

    def child(self, g: int) -> "_Node":
        node = self._children.get(g)
        if node is None:
            self._form(g)
            index = (np.frombuffer(self._label, np.intc) == g).nonzero()[0]
            node = self._children[g] = _Node(self.token_ids[index], self.masses[index], self._totals[g])
        return node

    def locate(self, i: int) -> Tuple[int, int]:
        """The group holding member ``i`` and the member's index inside that group."""
        label, index_in = self._label, self._index_in
        if index_in is None:
            index_in = self._index_in = array("i", [-1]) * len(label)
        k = index_in[i]
        if k < 0:
            # Member i's group is formed once the groups up to its label are.
            # A member still labelled u - 1 is unplaced or in the last group,
            # so the label is read again after each group is formed.
            totals = self._totals
            if len(totals) <= label[i]:
                for _ in self._greedy:
                    if len(totals) > label[i]:
                        break
            k = index_in[i] = label[:i].count(label[i])
        return label[i], k

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


def implicit_q(dist: ConditionalDistribution) -> np.ndarray:
    """The token distribution induced by uniform-bit embedding.

    Returns probabilities aligned with ``dist.token_ids``: each recursion
    level contributes a factor ``1/u`` for its group, and the final group
    contributes the token's renormalized mass.
    """
    # A fresh root, not the cached tree, so the tree holds only what
    # embedding and extraction built.  A group's u follows from its head
    # mass and total, so a node writes its leaf groups and its groups of u
    # singletons straight into q, and only the other groups become nodes.
    node = _Node(np.arange(len(dist), dtype=np.int64), dist.masses, dist.denominator)
    if node.u < 2:
        return dist.probs()  # the root is a leaf: embedding samples from p
    q = np.zeros(len(dist), dtype=np.float64)
    stack = [(node, 1.0)]
    while stack:
        node, scale = stack.pop()
        for _ in node._greedy:
            pass
        scale /= node.u
        positions, masses, totals = node.token_ids, node.masses, node._totals
        label = np.frombuffer(node._label, np.intc)
        tot = np.asarray(totals, dtype=np.int64)
        us = [group_count(h, t) for h, t in zip(masses[node._heads].tolist(), totals)]
        if max(us) < 2:
            q[positions] = scale * (masses / tot[label])
            continue
        us = np.asarray(us, dtype=np.int64)
        leaf = us < 2
        flat = ~leaf & (us == np.bincount(label, minlength=len(us)))
        at = leaf[label]
        q[positions[at]] = scale * (masses[at] / tot[label[at]])
        at = flat[label]
        q[positions[at]] = scale / us[label[at]]
        stack.extend((node.child(g), scale) for g in (~(leaf | flat)).nonzero()[0].tolist())
    return q


class ADGCodec(runner.Codec):
    """The grouping codec, driven by the shared runner loop."""

    name = "adg"

    def __init__(self):
        self.params: Dict = {}

    def embed_step(self, dist, msg, sample_rng, pad_rng):
        """One step: returns (token_id, bits, group_sizes), with one ``u`` per recursion level."""
        node = _tree(dist)
        group_sizes: List[int] = []
        bits = 0
        while True:
            u = node.u
            if u < 2:
                return node.sample(sample_rng, dist.token_ids), bits, group_sizes
            r = u.bit_length() - 1
            group_sizes.append(u)
            bits += r
            node = node.child(next_index(msg, r, pad_rng))

    def extract_step(self, dist, token_id) -> List[int]:
        """Replay the grouping recursion and emit the observed token's group indices."""
        member = dist.position_of(token_id)  # the root's members are all positions, in order
        if member is None:
            raise DesyncError(f"token {token_id} absent from the shared distribution")
        node = _tree(dist)
        bits: List[int] = []
        while True:
            u = node.u
            if u < 2:
                return bits
            index, member = node.locate(member)
            bits.extend(index_to_bits(index, u.bit_length() - 1))
            node = node.child(index)

    def step_q(self, dist):
        return np.arange(len(dist)), implicit_q(dist)

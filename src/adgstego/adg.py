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
Embedding selects a group per ``log2(u)`` message bits and recurses into
it (pruning: only the selected group is ever regrouped) until the current
group's renormalized maximum exceeds one half, then samples a token within
the final group.  Extraction replays the recursion on the group containing
the observed token.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
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


@dataclass
class Group:
    """One cell of a grouping; members keep the global mass-desc order."""

    token_ids: np.ndarray
    masses: np.ndarray
    total_mass: int


class _AliveIndex:
    """Union-find "next/previous alive" pointers over a static sorted array."""

    def __init__(self, n: int):
        self.n = n
        self.nxt = list(range(n + 1))
        self.prv = list(range(n))

    def kill(self, i: int) -> None:
        self.nxt[i] = i + 1
        self.prv[i] = i - 1

    def next_alive(self, i: int) -> int:
        """First alive index >= i, or n."""
        nxt = self.nxt
        root = i
        while root < self.n and nxt[root] != root:
            root = nxt[root]
        while i < self.n and nxt[i] != root:
            nxt[i], i = root, nxt[i]
        return root

    def prev_alive(self, i: int) -> int:
        """Last alive index <= i, or -1."""
        if i < 0:
            return -1
        prv = self.prv
        root = i
        while root >= 0 and prv[root] != root:
            root = prv[root]
        while i >= 0 and prv[i] != root:
            prv[i], i = root, prv[i]
        return root


def equal_group(token_ids: Sequence[int], masses: Sequence[int], u: int) -> List[Group]:
    """Partition a mass-desc sorted distribution into ``u`` near-equal groups.

    Nearest-mass ties prefer the lower mass, then the lower token id, so
    the result is unique for a given input.
    """
    if u < 1 or (u & (u - 1)) != 0:
        raise StegoError(f"group count {u} is not a power of two")
    ids = np.asarray(token_ids, dtype=np.int64)
    m = np.asarray(masses, dtype=np.int64)
    n = int(ids.size)
    total = int(m.sum())
    if u == 1:
        return [Group(ids.copy(), m.copy(), total)]
    if u > n:
        raise StegoError(f"cannot form {u} groups from {n} tokens")
    if u == n:
        # Every group is a singleton, seeded in mass-desc order with
        # id-asc ties; the top-up loop never fires (the max is >= the mean).
        order = np.lexsort((ids, -m))
        return [Group(ids[i : i + 1], m[i : i + 1], int(m[i])) for i in order]

    asc = np.lexsort((ids, m))  # mass asc, then id asc
    masses_asc: List[int] = m[asc].tolist()
    ids_asc: List[int] = ids[asc].tolist()
    alive = _AliveIndex(n)

    def canonical_alive_with_mass(mass: int) -> int:
        # Lowest-id alive holder of this mass value.
        return alive.next_alive(bisect_left(masses_asc, mass))

    def pop_head() -> int:
        j = alive.prev_alive(n - 1)
        if j < 0:
            raise StegoError("ran out of tokens while forming groups")
        head = canonical_alive_with_mass(masses_asc[j])
        alive.kill(head)
        return head

    def nearest(eps_num: int, slots: int) -> Optional[int]:
        # eps = eps_num / slots; first mass >= eps is the first >= ceil(eps).
        lo = bisect_left(masses_asc, -(-eps_num // slots))
        above = alive.next_alive(lo) if lo < n else n
        below_raw = alive.prev_alive(lo - 1)
        below = canonical_alive_with_mass(masses_asc[below_raw]) if below_raw >= 0 else -1
        if below < 0 and above >= n:
            return None
        if below < 0:
            return above
        if above >= n:
            return below
        # Equidistant candidates resolve to the lower mass.
        if 2 * eps_num <= (masses_asc[below] + masses_asc[above]) * slots:
            return below
        return above

    # The running mean is the exact rational remaining / slots; comparisons
    # against it cross-multiply by slots so everything stays in integers.
    remaining = total
    member_lists: List[List[int]] = []
    for i in range(1, u):
        slots = u - i + 1
        head = pop_head()
        gmass = masses_asc[head]
        members = [head]
        while gmass * slots < remaining:
            eps_num = remaining - gmass * slots
            cand = nearest(eps_num, slots)
            if cand is None or masses_asc[cand] * slots >= 2 * eps_num:
                break
            alive.kill(cand)
            members.append(cand)
            gmass += masses_asc[cand]
        remaining -= gmass
        member_lists.append(members)

    tail = []
    j = alive.next_alive(0)
    while j < n:
        tail.append(j)
        j = alive.next_alive(j + 1)
    if not tail:
        raise StegoError("equal grouping left the final group empty")
    member_lists.append(tail)

    groups = []
    for members in member_lists:
        members.sort(key=lambda idx: (-masses_asc[idx], ids_asc[idx]))
        g_ids = np.asarray([ids_asc[idx] for idx in members], dtype=np.int64)
        g_masses = np.asarray([masses_asc[idx] for idx in members], dtype=np.int64)
        groups.append(Group(g_ids, g_masses, int(g_masses.sum())))
    return groups


class _Node:
    """One recursion level: a mass-desc sorted slice of the vocabulary.

    Children are materialized lazily and cached, so repeated embedding and
    extraction against the same distribution share one grouping tree.
    """

    __slots__ = ("token_ids", "masses", "total", "_groups", "_children", "_member_map", "_cumsum")

    def __init__(self, token_ids: np.ndarray, masses: np.ndarray, total: int):
        self.token_ids = token_ids
        self.masses = masses
        self.total = total
        self._groups: Optional[List[Group]] = None
        self._children: Dict[int, "_Node"] = {}
        self._member_map: Optional[Dict[int, int]] = None
        self._cumsum: Optional[np.ndarray] = None

    @property
    def u(self) -> int:
        return group_count(int(self.masses[0]), self.total)

    def groups(self) -> List[Group]:
        if self._groups is None:
            self._groups = equal_group(self.token_ids, self.masses, self.u)
        return self._groups

    def child(self, index: int) -> "_Node":
        node = self._children.get(index)
        if node is None:
            g = self.groups()[index]
            node = _Node(g.token_ids, g.masses, g.total_mass)
            self._children[index] = node
        return node

    def group_of(self, token_id: int) -> Optional[int]:
        if self._member_map is None:
            mapping: Dict[int, int] = {}
            for idx, g in enumerate(self.groups()):
                for t in g.token_ids:
                    mapping[int(t)] = idx
            self._member_map = mapping
        return self._member_map.get(int(token_id))

    def sample(self, rng: random.Random) -> int:
        if self._cumsum is None:
            self._cumsum = np.cumsum(self.masses)
        return sample_token(rng, self.token_ids, self._cumsum, self.total)


def _tree(dist: ConditionalDistribution) -> _Node:
    node = dist.cache.get("adg_tree")
    if node is None:
        node = _Node(dist.token_ids, dist.masses, dist.denominator)
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
    return node.sample(sample_rng), bits, levels


def extract_step(dist: ConditionalDistribution, observed_token: int) -> List[int]:
    """Replay the grouping recursion and emit the observed token's group indices."""
    if dist.position_of(observed_token) is None:
        raise DesyncError(f"token {observed_token} absent from the shared distribution")
    node = _tree(dist)
    bits: List[int] = []
    while True:
        u = node.u
        if u < 2:
            return bits
        index = node.group_of(observed_token)
        if index is None:
            raise DesyncError(f"token {observed_token} fell out of the grouping recursion")
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
    # Recursion over positions into dist (position order is mass desc with
    # id-asc ties, so positions preserve the grouping tie-break order and
    # can stand in for token ids).
    q = np.zeros(len(dist), dtype=np.float64)
    n = len(dist)
    stack: List[Tuple[np.ndarray, np.ndarray, int, float]] = [
        (np.arange(n, dtype=np.int64), dist.masses, dist.denominator, 1.0)
    ]
    while stack:
        pos, m, total, scale = stack.pop()
        u = group_count(int(m[0]), total)
        if u < 2:
            q[pos] += scale * (m.astype(np.float64) / total)
        elif u == len(pos):
            # All groups are singletons, each reached with probability 1/u.
            q[pos] += scale / u
        else:
            child_scale = scale / u
            for g in equal_group(pos, m, u):
                stack.append((g.token_ids, g.masses, g.total_mass, child_scale))
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

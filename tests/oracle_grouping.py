"""Test oracle: the original one-step-at-a-time ``equal_group``, kept verbatim.

It walks the greedy in mass-asc order with a union-find "next alive"
index and one ``nearest()`` call per accepted token.  The tests check
that :func:`adgstego.adg.equal_group` returns byte-identical groups.

``implicit_q`` is the stack walk over 4-tuples that predates the merged
grouping node, built on this module's ``equal_group`` and kept verbatim
except that it neither reads nor fills ``dist.cache``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from adgstego.adg import group_count
from adgstego.errors import StegoError
from adgstego.lm import ConditionalDistribution


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


def implicit_q(dist: ConditionalDistribution) -> np.ndarray:
    """The token distribution induced by uniform-bit embedding.

    Returns probabilities aligned with ``dist.token_ids``: each recursion
    level contributes a factor ``1/u`` for its group, and the final group
    contributes the token's renormalized mass.
    """
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
    return q

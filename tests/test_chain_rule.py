"""ADG's per-step divergences by the chain rule over internal grouping nodes.

p and q factor through the same grouping tree, and a leaf samples exactly
from p, so by the chain rule for relative entropy (Cover and Thomas,
*Elements of Information Theory*) both directions are sums over the
internal nodes alone:

    KL(q||p) = sum over nodes of P_q(node) * sum_g (1/u) * log2((1/u) / p_g)
    KL(p||q) = sum over nodes of P_p(node) * sum_g p_g * log2(p_g * u)

where p_g is group g's mass over its node's mass.  This path reads only
the greedy's integer grouping and the heads it records, and shares no
float operation with ``implicit_q`` or ``_step_stats``.
"""

import math

import numpy as np
import pytest

from adgstego.adg import ADGCodec, equal_group, group_count
from adgstego.runner import _step_stats

from conftest import bos_successors, zipf4096_eos_first

REL = 1e-12  # relative bound between the chain-rule sums and _step_stats


def chain_rule_kl(dist):
    """KL(q||p) and KL(p||q) in bits, summed over the internal nodes of ``dist``'s grouping tree."""
    qp, pq = [], []
    stack = [(dist.masses, dist.denominator, 1.0)]  # a node's masses, total and P_q
    while stack:
        masses, total, reach_q = stack.pop()
        u = group_count(int(masses[0]), total)
        if u < 2:
            continue  # a leaf adds nothing; only the root is pushed without this check
        label, totals, heads = equal_group(masses, u)
        labels = np.frombuffer(label, np.intc)
        for g, (t, head) in enumerate(zip(totals, heads)):
            assert label.index(g) == head  # a group's head is its first member
            p_g = t / total
            qp.append(reach_q / u * math.log2(1 / (u * p_g)))
            pq.append(t / dist.denominator * math.log2(p_g * u))
            if group_count(int(masses[head]), t) >= 2:
                stack.append((masses[labels == g], t, reach_q / u))
    return math.fsum(qp), math.fsum(pq)


def assert_chain_rule_matches_step_stats(dist):
    qp, pq, _entropy = _step_stats(dist, *ADGCodec().step_q(dist))
    want_qp, want_pq = chain_rule_kl(dist)
    assert qp == pytest.approx(want_qp, rel=REL, abs=0)
    assert pq == pytest.approx(want_pq, rel=REL, abs=0)


def test_chain_rule_on_bundled_bos_successors(model):
    dists = bos_successors(model, 60)
    assert any(chain_rule_kl(d)[0] > 0 for d in dists)
    for dist in dists:
        assert_chain_rule_matches_step_stats(dist)


@pytest.mark.parametrize("eos", [0.0, 1e-4, 0.01, 0.2, 0.5])
def test_chain_rule_on_zipf4096(eos):
    assert_chain_rule_matches_step_stats(zipf4096_eos_first(eos, seed=int(eos * 1e9) + 11))

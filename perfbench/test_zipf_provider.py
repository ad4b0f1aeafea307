"""Tests of the synthetic provider: ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from adgstego.corpus import BOS_ID, EOS_ID  # noqa: E402
from adgstego.lm import DENOMINATOR  # noqa: E402
from zipf_provider import SUPPORT, VOCAB_SIZE, ZipfProvider, eos_share  # noqa: E402


def test_same_seed_and_context_give_the_same_distribution():
    context = [BOS_ID, 17, 40_000, 5]
    a = ZipfProvider(seed=7).next_distribution(context)
    b = ZipfProvider(seed=7).next_distribution(list(context))
    assert np.array_equal(a.token_ids, b.token_ids)
    assert np.array_equal(a.masses, b.masses)


def test_seed_and_context_both_change_the_layout():
    base = ZipfProvider(seed=7).next_distribution([BOS_ID, 1])
    other_seed = ZipfProvider(seed=8).next_distribution([BOS_ID, 1])
    other_context = ZipfProvider(seed=7).next_distribution([BOS_ID, 2])
    assert not np.array_equal(base.token_ids, other_seed.token_ids)
    assert not np.array_equal(base.token_ids, other_context.token_ids)


def test_quantized_masses_sum_to_2_31_over_distinct_vocabulary_ids():
    provider = ZipfProvider(seed=3)
    for context in ([BOS_ID], [BOS_ID] + list(range(10, 22))):
        dist = provider.next_distribution(context)
        ids = dist.token_ids.tolist()
        assert len(ids) == len(set(ids)) == SUPPORT
        assert EOS_ID in ids and 0 <= min(ids) and max(ids) < VOCAB_SIZE
        assert int(dist.masses.sum()) == DENOMINATOR == 1 << 31
        assert int(dist.masses.min()) >= 1


def test_draws_reach_the_whole_vocabulary():
    provider = ZipfProvider(seed=5)
    seen = set()
    for i in range(40):
        seen.update(provider.next_distribution([BOS_ID, i]).token_ids.tolist())
    assert len(seen) > 0.9 * VOCAB_SIZE


def test_eos_share_grows_with_sentence_length():
    provider = ZipfProvider(seed=3)
    shares = [eos_share(n) for n in range(16)]
    assert shares == sorted(shares) and shares[-1] == 0.5
    late = provider.next_distribution([BOS_ID] + [9] * 12)
    assert late.token_ids[0] == EOS_ID  # EOS is the most likely token late in a sentence

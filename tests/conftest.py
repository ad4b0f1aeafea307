"""Shared fixtures: the bundled corpus pipeline built once per session."""

import os
import random
from pathlib import Path

import numpy as np
import pytest

from adgstego import CachedProvider, build_vocab, preprocess, split, train_ngram
from adgstego.adg import _Node
from adgstego.bundled import toy_corpus_path
from adgstego.corpus import BOS_ID, EOS_ID, PreprocessConfig
from adgstego.lm import ConditionalDistribution, quantize
from adgstego.runner import mask_eos_min

# Environment for tests that launch ``python -m adgstego.cli``: the child
# imports this checkout's package whether or not PYTHONPATH is set.
SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p),
}


@pytest.fixture(scope="session")
def toy_sentences():
    with open(toy_corpus_path(), encoding="utf-8") as fh:
        raw = fh.read()
    return preprocess(raw, PreprocessConfig(docs_per_line=True))


@pytest.fixture(scope="session")
def vocab(toy_sentences):
    return build_vocab(toy_sentences, min_count=10)


@pytest.fixture(scope="session")
def split_ids(toy_sentences, vocab):
    train, test = split(toy_sentences, 0.9, seed=0)
    return (
        [vocab.encode_sentence(s) for s in train],
        [vocab.encode_sentence(s) for s in test],
    )


@pytest.fixture(scope="session")
def model(split_ids, vocab):
    train_ids, _ = split_ids
    return train_ngram(train_ids, order=2, k=0.5, vocab=vocab)


@pytest.fixture(scope="session")
def provider(model):
    # Shared across tests so grouping trees built on one distribution are
    # reused by every test touching the same context.
    return CachedProvider(model)


def random_distribution(rng: random.Random, size: int) -> ConditionalDistribution:
    """A quantized distribution over ids 0..size-1 with random masses."""
    weights = [rng.random() ** 2 + 1e-9 for _ in range(size)]
    total = sum(weights)
    probs = np.asarray([w / total for w in weights])
    return ConditionalDistribution(np.arange(size, dtype=np.int64), quantize(probs))


def sorted_groups(token_ids, masses, u: int):
    """The ``u`` equal groups of a distribution given in any order, as grouping nodes.

    The members are sorted into grouping order (mass desc, id asc) and a
    fresh ``_Node`` forms every group, so each group's members come out in
    that order.  ``u == 1`` returns the input as one group, unsorted.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    m = np.asarray(masses, dtype=np.int64)
    if u == 1:
        return [_Node(ids.copy(), m.copy(), int(m.sum()), 1)]
    desc = np.lexsort((ids, -m))
    node = _Node(ids[desc], m[desc], int(m.sum()), u)
    return [node.child(g) for g in range(u)]


def bos_successors(model, count: int):
    """The model's distributions after BOS and ``count`` evenly spaced words, each as is and EOS-masked."""
    words = range(EOS_ID + 1, model.vocab_size, max(1, (model.vocab_size - EOS_ID - 1) // count))
    dists = [model.next_distribution([BOS_ID, w]) for w in words[:count]]
    return [d for dist in dists for d in (dist, mask_eos_min(dist))]


def zipf4096_eos_first(eos: float, seed: int) -> ConditionalDistribution:
    """The cold benchmark's shape: EOS first, then a Zipf(1.1) profile on 4,095 random ids of 50,257."""
    shape = np.arange(1, 4096, dtype=np.float64) ** -1.1
    probs = np.concatenate(([eos], shape / shape.sum() * (1.0 - eos)))
    ids = np.empty(4096, dtype=np.int64)
    ids[0] = EOS_ID
    others = np.delete(np.arange(50_257, dtype=np.int64), EOS_ID)
    ids[1:] = others[np.random.default_rng(seed).choice(others.size, 4095, replace=False)]
    return ConditionalDistribution(ids, quantize(probs))

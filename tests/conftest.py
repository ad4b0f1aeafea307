"""Shared fixtures: the bundled corpus pipeline built once per session."""

import os
import random
from pathlib import Path

import numpy as np
import pytest

from adgstego import CachedProvider, build_vocab, preprocess, split, train_ngram
from adgstego.bundled import toy_corpus_path
from adgstego.corpus import PreprocessConfig
from adgstego.lm import ConditionalDistribution, quantize

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

"""Synthetic neural-style next-token provider for the cold-cache workload.

Every context gets the same Zipf(1.1) mass profile, truncated to its top
4,095 ranks as a top-k sampler would, over a GPT-2 sized vocabulary of
50,257 ids.  Which ids hold those ranks is a random draw without
replacement seeded by a keyed hash of (seed, full context), so over many
contexts every id of the vocabulary turns up.  EOS sits outside that
draw: its share grows with the sentence length, as a language model's
does, so sentences end after eight to ten tokens instead of running to
``max_len``.
The provider declares no ``context_window``, so a ``CachedProvider`` keys
every distinct context separately and almost never hits, as with a neural
model.  Nothing is downloaded or read from disk.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from adgstego import lm
from adgstego.corpus import EOS_ID

VOCAB_SIZE = 50_257
ZIPF_EXPONENT = 1.1
SUPPORT = 4096  # tokens with nonzero mass in each distribution: EOS plus the top ranks
EOS_MAX = 0.5
EOS_LENGTH = 10  # content tokens at which EOS reaches EOS_MAX


def eos_share(content_tokens: int) -> float:
    """EOS probability after ``content_tokens`` tokens: near zero early, steep later."""
    return EOS_MAX * min(1.0, max(content_tokens, 1) / EOS_LENGTH) ** 4


class ZipfProvider:
    """Deterministic function of (seed, context) -> quantized distribution."""

    def __init__(self, seed: int):
        shape = np.arange(1, SUPPORT, dtype=np.float64) ** -ZIPF_EXPONENT
        self._shape = shape / shape.sum()
        self._others = np.delete(np.arange(VOCAB_SIZE, dtype=np.int64), EOS_ID)
        self._key = seed.to_bytes(8, "big", signed=True)

    def next_distribution(self, context: Sequence[int]) -> lm.ConditionalDistribution:
        ctx = np.asarray(context, dtype=np.int64).tobytes()
        digest = hashlib.blake2b(ctx, digest_size=16, key=self._key).digest()
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "big")))
        eos = eos_share(len(context) - 1)  # the context starts with BOS
        ids = np.empty(self._shape.size + 1, dtype=np.int64)
        ids[0] = EOS_ID
        ids[1:] = self._others[rng.choice(self._others.size, self._shape.size, replace=False)]
        probs = np.concatenate(([eos], self._shape * (1.0 - eos)))
        return lm.ConditionalDistribution(ids, lm.quantize(probs))

"""Golden output: the stegotext and the extracted bits of every codec, pinned.

The provider here builds integer masses straight from a hash of the
context, so no float quantization is involved and the digests depend on
the codecs and the generation loop alone.  A change that alters any
emitted token or extracted bit (tie-breaks, sampling draws, padding
draws, interval arithmetic) changes a digest; a refactor must not.
"""

import hashlib

import pytest

from adgstego import CachedProvider, GenerationConfig, embed_text, extract_text, frame, make_codec
from adgstego.bitio import bytes_to_bits, deframe
from adgstego.corpus import BOS_ID, EOS_ID
from adgstego.lm import ConditionalDistribution

VOCAB_SIZE = 64

# The default `adgstego bench` grid, partition seed included.
BENCH_GRID = {
    "bins": {"b": 5, "partition_seed": 3},
    "huffman": {"k": 5},
    "patient_huffman": {"k": 3, "delta": 1.0},
    "arithmetic": {"h": 300},
    "adg": {},
}

GOLDEN = {
    "bins": (
        "d3a7e9e309bd7b64a87c9e40fce6376b5b0111f1859e8aba95598902a6e0088e",
        "034b28c7fc60d0915b366f257acfdc97704e5f078bc840a40038878966deffc0",
    ),
    "huffman": (
        "3d292ffe0a8338cc14e6987f4c90977365c73a3b0ce168becbd012d7a7cd9bc8",
        "df02d9545229c6ce76556100b9ea7a4553833cad6b88144b638e1773bd271399",
    ),
    "patient_huffman": (
        "b59a5407094fa53d7a23a6ec299aed0aa5a07bad559b9b0e495223cf25207921",
        "d044cfdee115139cde100eff08e7e06da8504e284142c4eba8aa1252e0ece243",
    ),
    "arithmetic": (
        "3f9fec3937e1450f96ee301035c57a6d8a2a72138d58e1ce463b824080694f04",
        "663ebeeebaa92293f035d732ffe18c29deaf9a05fe4cd815c211b8d92882b440",
    ),
    "adg": (
        "42d17ff2992d2360bf9e147c12806ea59a373705f9204d5f497de07707ecfa50",
        "de64a54805a7cb7c259adc0c8501435dfea8098944558c333491d70848c89473",
    ),
}


class HashMassProvider:
    """Integer masses over ids ``0..VOCAB_SIZE-1`` (BOS excluded), keyed by the last two tokens."""

    context_window = 2

    def next_distribution(self, context):
        tail = ",".join(map(str, context[-2:])).encode()
        stream = b"".join(hashlib.sha256(tail + b":%d" % i).digest() for i in range(2))
        ids = [t for t in range(VOCAB_SIZE) if t != BOS_ID]
        masses = [1 + stream[t] ** 3 for t in ids]
        eos = ids.index(EOS_ID)
        masses[eos] = sum(masses) // 11
        if stream[63] % 4 == 0:
            # Some contexts have one dominant token: adg embeds nothing
            # there and patient Huffman falls back to plain sampling.
            top = stream[62] % len(ids)
            masses[top] += sum(masses) * (1 + stream[61] % 32)
        return ConditionalDistribution(ids, masses)


def run_codec(method):
    sender = make_codec(method, VOCAB_SIZE, **BENCH_GRID[method])
    receiver = make_codec(method, VOCAB_SIZE, **BENCH_GRID[method])
    send_provider = CachedProvider(HashMassProvider())
    recv_provider = CachedProvider(HashMassProvider())
    stego, extracted = hashlib.sha256(), hashlib.sha256()
    for i in range(3):
        payload = hashlib.sha256(b"golden:%d" % i).digest()[:8]
        cfg = GenerationConfig(sample_seed=1 + i, pad_seed=2 + i)
        sentences, _trace = embed_text(sender, frame(payload), send_provider, cfg)
        bits = extract_text(receiver, sentences, recv_provider, cfg)
        assert deframe(bits) == bytes_to_bits(payload)
        for sentence in sentences:
            stego.update(",".join(map(str, sentence)).encode() + b"\n")
        stego.update(b"\n")
        extracted.update("".join(map(str, bits)).encode() + b"\n")
    return stego.hexdigest(), extracted.hexdigest()


@pytest.mark.parametrize("method", sorted(BENCH_GRID))
def test_golden_stego_and_extracted_bits(method):
    assert run_codec(method) == GOLDEN[method]

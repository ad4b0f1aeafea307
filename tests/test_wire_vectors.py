"""Wire vectors: what the receiver must rebuild bit for bit, pinned in ``vectors/wire.json``.

The file is a specification a second implementation can test against:

- ``quantize``: float inputs (``float.hex``) and the masses they quantize
  to.  The two Zipf shapes are given by their recipe, with SHA-256
  digests of the float64 inputs and of the int64 masses.
- ``grouping``: every internal node of the grouping tree of a few integer
  distributions, by its path of group indices from the root: its group
  count ``u``, each member's group (``labels``), each group's mass
  (``totals``) and each group's first member (``heads``).  Members are
  the node's positions in mass-desc, id-asc order, counted from 0.
- ``frame``: the frame bits of a payload.
- ``padding``: a short framed message read past its end in a fixed
  sequence of widths, with the pad RNG's seed: each read's value (bits
  big-endian), the cursor after it, and the pad RNG's next 32-bit draw
  after the last read.  Each bit past the end is one ``getrandbits(1)``.
- ``codecs``: the token each codec emits over a fixed bit string, how
  many message bits it has read after each step, and the bits
  (``extracted``) a fresh receiver reads back from those tokens: one
  ``extract_step`` per token, then ``finish_extract``.

The vectors were generated once and are never regenerated to make a
change pass; a deliberate wire change regenerates them and says so.
Regenerate with ``PYTHONPATH=src python3 tests/test_wire_vectors.py``.
"""

import hashlib
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from adgstego import BitMessage, frame, make_codec, next_index, quantize
from adgstego.adg import _Node
from adgstego.lm import ConditionalDistribution

VECTORS = Path(__file__).resolve().parent / "vectors" / "wire.json"

# The default `adgstego bench` grid, as in test_golden.py.
CODEC_PARAMS = {
    "adg": {},
    "arithmetic": {"h": 300},
    "bins": {"b": 5, "partition_seed": 3},
    "huffman": {"k": 5},
    "patient_huffman": {"k": 3, "delta": 1.0},
}
CODEC_VOCAB = 160


def _hash_ints(label: str, n: int, mod: int) -> list:
    stream = b"".join(hashlib.sha256(f"{label}:{i}".encode()).digest() for i in range(-(-n // 32)))
    return [1 + b % mod for b in stream[:n]]


def _sha256(arr: np.ndarray, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.dtype(dtype).newbyteorder("<")).tobytes()).hexdigest()


def _zipf_probs(support: int, eos: float, exponent: float) -> np.ndarray:
    """The Zipf shape over ``support`` ranks; with ``eos`` > 0, EOS takes that share first."""
    ranks = support - 1 if eos else support
    shape = np.arange(1, ranks + 1, dtype=np.float64) ** -exponent
    shape = shape / shape.sum()
    return np.concatenate(([eos], shape * (1.0 - eos))) if eos else shape


def _add_k(counts, k):
    total = sum(counts)
    return [(c + k) / (total + k * len(counts)) for c in counts]


QUANTIZE_LISTED = {
    "add-k ties": _add_k([7, 3, 3, 3, 1, 1, 0, 0, 0, 0, 0], 0.5),
    "thirds": [1 / 3, 1 / 3, 1 / 3],
    "zeros": [0.5, 0.0, 0.25, 0.0, 0.25],
    "below one unit": [1 - 3e-10, 1e-10, 1e-10, 1e-10],
}
QUANTIZE_RECIPES = {
    "zipf 4096 eos-first": {"support": 4096, "eos": 0.03125, "exponent": 1.1},
    "zipf 50257 full": {"support": 50257, "eos": 0.0, "exponent": 1.1},
}

GROUPING_MASSES = {
    "ties": [9, 9, 6, 6, 6, 4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1],
    "add-k": sorted(quantize(QUANTIZE_LISTED["add-k ties"]).tolist(), reverse=True),
    "hash": sorted((m * m for m in _hash_ints("grouping", 40, 256)), reverse=True),
}


def _codec_dists():
    """A spread distribution, then one with a dominant token (patient Huffman's sampling branch)."""
    ids = [2 + 3 * i for i in range(48)]
    spread = _hash_ints("codec", 48, 256)
    dominant = list(spread)
    dominant[5] += 20 * sum(spread)
    return [(ids, spread), (ids, dominant)]


CODEC_BITS = "".join(format(b, "08b") for b in hashlib.sha256(b"wire vectors").digest()[:16])
CODEC_STEPS = [0, 1, 0, 0]  # indices into the distributions, one per step
SAMPLE_SEED, PAD_SEED = 11, 12

PADDING_PAYLOAD = b"\xa5"  # 40 frame bits: the third read crosses the end, the rest are all padding
PADDING_WIDTHS = [1, 5, 52, 1, 5, 52]


def quantize_vectors():
    listed = [{"name": name, "probs": [float(p).hex() for p in probs], "masses": quantize(probs).tolist()}
              for name, probs in QUANTIZE_LISTED.items()]
    recipes = []
    for name, recipe in QUANTIZE_RECIPES.items():
        probs = _zipf_probs(**recipe)
        masses = quantize(probs)
        recipes.append({"name": name, **recipe, "probs_sha256": _sha256(probs, np.float64),
                        "masses_sha256": _sha256(masses, np.int64), "masses_head": masses[:8].tolist()})
    return listed, recipes


def grouping_vectors(masses):
    """Every internal node of the grouping tree over ``masses`` (mass-desc), root first."""
    m = np.asarray(masses, dtype=np.int64)
    queue = [((), _Node(np.arange(m.size, dtype=np.int64), m, int(m.sum())))]
    nodes = []
    while queue:
        path, node = queue.pop(0)
        if node.u < 2:
            continue
        labels = np.empty(len(node.token_ids), dtype=np.int64)
        totals, heads = [], []
        for g in range(node.u):
            child = node.child(g)
            members = np.searchsorted(node.token_ids, child.token_ids)
            labels[members] = g
            totals.append(int(child.total_mass))
            heads.append(int(members[0]))
            queue.append((path + (g,), child))
        nodes.append({"path": list(path), "u": node.u, "labels": labels.tolist(), "totals": totals, "heads": heads})
    return nodes


def codec_vectors(method):
    codec = make_codec(method, CODEC_VOCAB, **CODEC_PARAMS[method])
    dists = [ConditionalDistribution(ids, masses) for ids, masses in _codec_dists()]
    codec.begin_embed()
    msg = BitMessage(int(b) for b in CODEC_BITS)
    sample_rng, pad_rng = random.Random(SAMPLE_SEED), random.Random(PAD_SEED)
    tokens, cursors = [], []
    for step in CODEC_STEPS:
        token, _bits, _detail = codec.embed_step(dists[step], msg, sample_rng, pad_rng)
        tokens.append(int(token))
        cursors.append(msg.cursor)
    # A fresh receiver reads the tokens back over the same distributions.
    receiver = make_codec(method, CODEC_VOCAB, **CODEC_PARAMS[method])
    receiver.begin_extract()
    extracted = []
    for step, token in zip(CODEC_STEPS, tokens):
        extracted += receiver.extract_step(dists[step], token)
    extracted += receiver.finish_extract()
    return {"method": method, "params": CODEC_PARAMS[method], "tokens": tokens, "cursors": cursors,
            "extracted": "".join(map(str, extracted))}


def _read(msg, r, pad_rng):
    """The next ``r`` bits big-endian, through ``next_index`` at most 32 at a time."""
    value = 0
    while r:
        width = min(r, 32)
        value = (value << width) | next_index(msg, width, pad_rng)
        r -= width
    return value


def padding_vectors():
    msg, pad_rng = frame(PADDING_PAYLOAD), random.Random(PAD_SEED)
    values, cursors = [], []
    for r in PADDING_WIDTHS:
        values.append(_read(msg, r, pad_rng))
        cursors.append(msg.cursor)
    return {"payload_hex": PADDING_PAYLOAD.hex(), "pad_seed": PAD_SEED, "widths": PADDING_WIDTHS,
            "values": values, "cursors": cursors, "next_pad_draw": pad_rng.getrandbits(32)}


def build_vectors():
    listed, recipes = quantize_vectors()
    return {
        "quantize": {"denominator": 1 << 31, "listed": listed, "recipes": recipes},
        "grouping": [{"name": name, "masses": list(masses), "nodes": grouping_vectors(masses)}
                     for name, masses in GROUPING_MASSES.items()],
        "frame": {"payload_hex": "a5", "bits": "".join(map(str, frame(b"\xa5").bits))},
        "padding": padding_vectors(),
        "codecs": {
            "vocab_size": CODEC_VOCAB,
            "bits": CODEC_BITS,
            "sample_seed": SAMPLE_SEED,
            "pad_seed": PAD_SEED,
            "distributions": [{"ids": ids, "masses": masses} for ids, masses in _codec_dists()],
            "steps": CODEC_STEPS,
            "results": [codec_vectors(method) for method in sorted(CODEC_PARAMS)],
        },
    }


def dumps(vectors) -> str:
    """JSON with each list of numbers or strings on one line."""
    text = json.dumps(vectors, indent=1, sort_keys=True)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


@pytest.fixture(scope="module")
def vectors():
    with open(VECTORS, encoding="utf-8") as fh:
        return json.load(fh)


def test_quantize_listed_inputs(vectors):
    for case in vectors["quantize"]["listed"]:
        probs = [float.fromhex(p) for p in case["probs"]]
        assert quantize(probs).tolist() == case["masses"], case["name"]


@pytest.mark.parametrize("name", sorted(QUANTIZE_RECIPES))
def test_quantize_zipf_shapes(vectors, name):
    case = next(c for c in vectors["quantize"]["recipes"] if c["name"] == name)
    probs = _zipf_probs(case["support"], case["eos"], case["exponent"])
    # The recipe runs numpy's power and sum, so check the input before blaming quantize.
    assert _sha256(probs, np.float64) == case["probs_sha256"], "the recipe built other float inputs"
    masses = quantize(probs)
    assert masses[:8].tolist() == case["masses_head"]
    assert _sha256(masses, np.int64) == case["masses_sha256"]


def test_grouping_trees(vectors):
    for case in vectors["grouping"]:
        assert grouping_vectors(case["masses"]) == case["nodes"], case["name"]


def test_frame_bits(vectors):
    case = vectors["frame"]
    assert "".join(map(str, frame(bytes.fromhex(case["payload_hex"])).bits)) == case["bits"]


def test_padding_past_the_end(vectors):
    case = vectors["padding"]
    assert (PADDING_PAYLOAD.hex(), PAD_SEED, PADDING_WIDTHS) == (case["payload_hex"], case["pad_seed"], case["widths"])
    assert padding_vectors() == case


def test_codec_tokens(vectors):
    case = vectors["codecs"]
    assert [{"ids": ids, "masses": masses} for ids, masses in _codec_dists()] == case["distributions"]
    assert (CODEC_BITS, CODEC_STEPS, SAMPLE_SEED, PAD_SEED) == (case["bits"], case["steps"], case["sample_seed"],
                                                                case["pad_seed"])
    for expected in case["results"]:
        assert codec_vectors(expected["method"]) == expected, expected["method"]


if __name__ == "__main__":
    VECTORS.parent.mkdir(exist_ok=True)
    VECTORS.write_text(dumps(build_vectors()), encoding="utf-8")
    print(f"wrote {VECTORS}")

"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v``; each test prints a single
``[acceptance] ...: PASS/FAIL`` line (visible even under capture) so the
seven verdicts can be read off any CI log at a glance.
"""

import csv
import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from adgstego import frame, group_count
from adgstego.baselines import make_codec
from adgstego.bitio import deframe
from adgstego.cli import main
from adgstego.corpus import BOS_ID, EOS_ID, build_vocab
from adgstego.lm import DENOMINATOR, ConditionalDistribution, quantize, train_ngram
from adgstego.runner import GenerationConfig, embed_text, extract_text

from conftest import CLI_ENV, random_distribution, sorted_groups


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


CODEC_GRID = [
    ("adg", {}),
    ("bins", {"b": 5}),
    ("huffman", {"k": 5}),
    ("patient_huffman", {"k": 3, "delta": 1.0}),
    ("arithmetic", {"h": 300}),
]


# ------------------------------------------------------------------ 1
# Round trip: extract(embed(payload)) == payload for 1,000 random
# payloads of 0..1024 bits, through the grouping codec and all four
# baselines, in under 60 seconds total.


def test_round_trip_identity_for_all_codecs(provider, vocab, capsys):
    rng = random.Random(1000)
    payloads = [
        [rng.randint(0, 1) for _ in range(rng.randint(0, 1024))] for _ in range(1000)
    ]
    started = time.perf_counter()
    failures = 0
    for method, kw in CODEC_GRID:
        for i, payload in enumerate(payloads):
            cfg = GenerationConfig(sample_seed=i, pad_seed=100_000 + i)
            sentences, _ = embed_text(
                make_codec(method, len(vocab), **kw), frame(payload), provider, cfg
            )
            got = deframe(
                extract_text(make_codec(method, len(vocab), **kw), sentences, provider, cfg)
            )
            if got != payload:
                failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 60.0
    _verdict(
        capsys,
        "1/7 round-trip identity",
        ok,
        f"{5 * len(payloads) - failures}/{5 * len(payloads)} payload round trips "
        f"across 5 codecs in {elapsed:.1f}s (budget 60s)",
    )


# ------------------------------------------------------------------ 2
# Single-level distortion identity: the token-form KL between the model
# distribution p and the one-level stego distribution q equals the group
# form sum(eta_i * log2(u * eta_i)); the group form is non-negative and
# vanishes exactly when the group masses are exactly uniform.


def _single_level_forms(dist):
    """(token-form KL(p||q), group form, group masses) for one grouping level."""
    u = group_count(int(dist.masses[0]), dist.denominator)
    grouping = sorted_groups(dist.token_ids, dist.masses, u)
    total = float(dist.denominator)
    etas = [g.total_mass / total for g in grouping]
    group_form = math.fsum(e * math.log2(u * e) for e in etas)
    token_form = 0.0
    for g, eta in zip(grouping, etas):
        # Within the final group q's conditional equals p's, so the token
        # terms reduce to p_t * log2(u * eta_g).
        for m in g.masses:
            token_form += (int(m) / total) * math.log2(u * eta)
    return token_form, group_form, [g.total_mass for g in grouping]


def test_single_level_distortion_identity(capsys):
    rng = random.Random(20_000)
    n_trials = 10_000
    worst_gap = 0.0
    worst_floor = 0.0
    uniform_hits = 0
    for trial in range(n_trials):
        if trial % 10 == 0:
            # Every tenth distribution is engineered so the grouping is
            # exactly uniform: dyadic masses whose equal partition exists.
            j = rng.randint(1, 9)
            parts = [DENOMINATOR >> j] * (1 << j)
            take = rng.randrange(len(parts))
            parts[take : take + 1] = [parts[take] >> 1, parts[take] >> 1]
            rng.shuffle(parts)
            dist = ConditionalDistribution(
                np.arange(len(parts), dtype=np.int64),
                np.asarray(parts, dtype=np.int64),
            )
        else:
            dist = random_distribution(rng, rng.randint(2, 512))
        token_form, group_form, sums = _single_level_forms(dist)
        worst_gap = max(worst_gap, abs(token_form - group_form))
        worst_floor = min(worst_floor, group_form)
        if len(set(sums)) == 1:
            uniform_hits += 1
            assert abs(group_form) <= 1e-12
            assert abs(token_form) <= 1e-9
    ok = worst_gap <= 1e-9 and worst_floor >= -1e-12 and uniform_hits >= n_trials // 10
    _verdict(
        capsys,
        "2/7 single-level distortion identity",
        ok,
        f"{n_trials} distributions: max |token-form - group-form| = {worst_gap:.2e} "
        f"(tol 1e-9), min group form = {worst_floor:.2e} (floor -1e-12), "
        f"{uniform_hits} exactly-uniform groupings all at zero (tol 1e-12)",
    )


# ------------------------------------------------------------------ 3
# Greedy-vs-optimal bracket: over every distribution with at most 12
# power-of-two masses summing to a power of two, the greedy equal
# grouping's distortion is never below the optimal partition's, and both
# are exactly zero whenever a perfectly equal partition exists.


def _integer_partitions(total, max_part, max_parts):
    """Non-increasing positive-integer mass lists summing to ``total``."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for part in range(min(max_part, total), 0, -1):
        if part * max_parts < total:
            break
        for rest in _integer_partitions(total - part, part, max_parts - 1):
            yield (part,) + rest


def _optimal_group_cost(masses, u):
    """min over partitions into u nonempty cells of sum(s * log2(s))."""
    values = sorted(set(masses), reverse=True)

    def to_counts(items):
        bag = {}
        for x in items:
            bag[x] = bag.get(x, 0) + 1
        return tuple(bag.get(v, 0) for v in values)

    @lru_cache(maxsize=None)
    def best(counts, groups_left):
        n = sum(counts)
        if groups_left == 1:
            s = sum(v * c for v, c in zip(values, counts))
            return s * math.log2(s)
        if n < groups_left:
            return math.inf
        # Symmetry breaking: the cell containing the largest remaining
        # element; enumerate sub-multisets of the rest.
        first = next(i for i, c in enumerate(counts) if c)
        avail = list(counts)
        avail[first] -= 1
        picks = [range(c + 1) for c in avail]
        result = math.inf
        for chosen in itertools.product(*picks):
            s = values[first] + sum(v * c for v, c in zip(values, chosen))
            rest = tuple(a - c for a, c in zip(avail, chosen))
            rest_n = sum(rest)
            if rest_n < groups_left - 1:
                continue
            sub = best(rest, groups_left - 1)
            cand = s * math.log2(s) + sub
            if cand < result:
                result = cand
        return result

    return best(to_counts(masses), u)


def test_greedy_grouping_brackets_optimal(capsys):
    # Exhaustive grid: every distribution of at most 12 integer masses over
    # a power-of-two denominator up to 2^5.  The greedy grouping must never
    # beat the true optimum; on the sub-grid where all masses are
    # themselves powers of two the greedy is additionally exact whenever an
    # exactly equal partition exists (each mass divides all larger ones, so
    # the nearest-gap top-up can never overshoot).  On general integer
    # masses exactness is unattainable for any polynomial heuristic - e.g.
    # (5,4,4,1,1,1) splits exactly as {5,1,1,1}/{4,4} but greedy pairs the
    # 5 with a 4 - so the zero-distortion clause is asserted on the dyadic
    # sub-grid only.
    cases = checked = pow2_cases = exact_cases = 0
    worst_violation = 0.0
    for m in range(1, 6):
        total = 1 << m
        for masses in _integer_partitions(total, total, 12):
            if len(masses) < 2:
                continue
            cases += 1
            u = group_count(masses[0], total)
            if u < 2:
                continue
            checked += 1
            dist = ConditionalDistribution(
                np.arange(len(masses), dtype=np.int64),
                np.asarray(masses, dtype=np.int64),
            )
            _, greedy_kl, _sums = _single_level_forms(dist)
            opt_cost = _optimal_group_cost(masses, u)
            # Shared constant: KL = cost/total + log2(u/total).
            opt_kl = opt_cost / total + math.log2(u / total)
            worst_violation = max(worst_violation, opt_kl - greedy_kl)
            assert greedy_kl >= opt_kl - 1e-12, masses
            if all(x & (x - 1) == 0 for x in masses):
                pow2_cases += 1
                if abs(opt_kl) <= 1e-12:  # an exact equal partition exists
                    exact_cases += 1
                    assert abs(greedy_kl) <= 1e-12, masses
    ok = checked > 0 and worst_violation <= 1e-12 and exact_cases > 0
    _verdict(
        capsys,
        "3/7 greedy grouping vs optimal partition",
        ok,
        f"{cases} distributions (<=12 masses, power-of-two totals), {checked} with "
        f"u>=2: greedy KL >= optimal KL (worst gap {worst_violation:.2e}); greedy "
        f"exact on all {exact_cases} perfectly partitionable power-of-two-mass "
        f"cases (of {pow2_cases})",
    )


# ------------------------------------------------------------------ 4
# Reported-results cross-check: the effective-rate formula
# 2*(1 - Acc)*ER reproduces the externally reported effective rates from
# the reported (rate, detector accuracy) pairs, and the fixed-rate bins
# codec embeds exactly b bits per (non-forced) token.

# Externally reported measurements on three corpora (movie, news, tweet).
# Each cell: (embedding rate, detector-1 accuracy, detector-2 accuracy,
# reported effective rate 1, reported effective rate 2).
REPORTED = {
    ("bins", 1): [
        (1.000, 0.873, 0.854, 0.254, 0.292),
        (1.000, 0.887, 0.856, 0.226, 0.287),
        (1.000, 0.787, 0.814, 0.425, 0.373),
    ],
    ("bins", 2): [
        (2.000, 0.812, 0.802, 0.752, 0.794),
        (2.000, 0.855, 0.830, 0.582, 0.680),
        (2.000, 0.739, 0.753, 1.044, 0.988),
    ],
    ("bins", 3): [
        (3.000, 0.810, 0.789, 1.137, 1.266),
        (3.000, 0.833, 0.819, 0.999, 1.089),
        (3.000, 0.720, 0.733, 1.683, 1.605),
    ],
    ("bins", 4): [
        (4.000, 0.825, 0.832, 1.396, 1.344),
        (4.000, 0.843, 0.852, 1.252, 1.180),
        (4.000, 0.748, 0.760, 2.020, 1.924),
    ],
    ("bins", 5): [
        (5.000, 0.876, 0.872, 1.245, 1.280),
        (5.000, 0.877, 0.882, 1.230, 1.180),
        (5.000, 0.750, 0.786, 2.500, 2.135),
    ],
    ("huffman", 1): [
        (1.000, 0.891, 0.891, 0.218, 0.219),
        (1.000, 0.891, 0.885, 0.219, 0.231),
        (1.000, 0.785, 0.806, 0.430, 0.387),
    ],
    ("huffman", 2): [
        (1.824, 0.838, 0.836, 0.593, 0.600),
        (1.824, 0.851, 0.826, 0.546, 0.635),
        (1.841, 0.749, 0.758, 0.924, 0.893),
    ],
    ("huffman", 3): [
        (2.509, 0.796, 0.760, 1.024, 1.202),
        (2.518, 0.816, 0.785, 0.927, 1.083),
        (2.595, 0.684, 0.702, 1.638, 1.549),
    ],
    ("huffman", 4): [
        (3.145, 0.713, 0.690, 1.809, 1.950),
        (3.224, 0.768, 0.718, 1.496, 1.821),
        (3.266, 0.634, 0.632, 2.387, 2.404),
    ],
    ("huffman", 5): [
        (3.705, 0.673, 0.645, 2.427, 2.627),
        (3.872, 0.710, 0.664, 2.249, 2.602),
        (3.932, 0.602, 0.593, 3.133, 3.200),
    ],
    ("patient", 1.0): [
        (1.125, 0.588, 0.578, 0.927, 0.949),
        (0.809, 0.559, 0.542, 0.713, 0.740),
        (0.988, 0.528, 0.552, 0.933, 0.886),
    ],
    ("patient", 1.5): [
        (1.711, 0.654, 0.683, 1.182, 1.083),
        (1.460, 0.674, 0.683, 0.952, 0.925),
        (1.668, 0.589, 0.581, 1.369, 1.400),
    ],
    ("patient", 2.0): [
        (2.129, 0.722, 0.714, 1.184, 1.220),
        (1.905, 0.725, 0.726, 1.050, 1.044),
        (2.201, 0.650, 0.661, 1.541, 1.490),
    ],
    ("arithmetic", 100): [
        (4.224, 0.601, 0.582, 3.371, 3.527),
        (4.412, 0.630, 0.608, 3.269, 3.459),
        (4.308, 0.547, 0.554, 3.908, 3.843),
    ],
    ("arithmetic", 200): [
        (4.651, 0.565, 0.556, 4.051, 4.125),
        (4.908, 0.594, 0.559, 3.981, 4.324),
        (4.805, 0.537, 0.561, 4.449, 4.219),
    ],
    ("arithmetic", 300): [
        (4.903, 0.571, 0.562, 4.207, 4.290),
        (5.127, 0.558, 0.566, 4.532, 4.450),
        (4.942, 0.532, 0.534, 4.630, 4.606),
    ],
    ("adg", None): [
        (5.147, 0.548, 0.544, 4.648, 4.699),
        (5.650, 0.543, 0.519, 5.164, 5.435),
        (5.411, 0.496, 0.497, 5.373, 5.384),
    ],
}


def test_effective_rate_formula_against_reported_values(provider, vocab, capsys):
    hits = total = 0
    for cells in REPORTED.values():
        for er, acc1, acc2, eer1, eer2 in cells:
            for acc, reported in ((acc1, eer1), (acc2, eer2)):
                total += 1
                if abs(2 * (1 - acc) * er - reported) <= 0.02:
                    hits += 1
    # Spot checks called out by the release contract.
    assert 2 * (1 - 0.873) * 1.000 == pytest.approx(0.254, abs=1e-12)
    assert 2 * (1 - 0.891) * 1.000 == pytest.approx(0.218, abs=1e-12)

    # The reported fixed-rate codec rates are b exactly, and so is the
    # implementation's on the built-in model (over non-forced steps).
    bins_exact = all(cells[c][0] == float(b) for (m, b), cells in REPORTED.items()
                     if m == "bins" for c in range(3))
    for b in range(1, 6):
        cfg = GenerationConfig(sample_seed=b, pad_seed=50 + b)
        _, trace = embed_text(
            make_codec("bins", len(vocab), b=b), frame(b"exact rate"), provider, cfg
        )
        steps = [s for s in trace.steps if not s.forced]
        bins_exact = bins_exact and all(s.bits == float(b) for s in steps)

    ok = hits / total >= 0.90 and bins_exact
    _verdict(
        capsys,
        "4/7 effective-rate formula vs reported values",
        ok,
        f"{hits}/{total} reported cells reproduced within 0.02 "
        f"({hits / total:.1%}, need 90%); fixed-rate codec embeds exactly b "
        f"bits/token for b=1..5: {bins_exact}",
    )


# ------------------------------------------------------------------ 5
# Desk-scale trend reproduction on the bundled corpus, plus
# ------------------------------------------------------------------ 6
# Determinism: byte-identical repeated bench runs and a cross-process
# embed/extract hand-off through the model file alone.


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("acceptance_cli")
    corpus_path = subprocess.run(
        [sys.executable, "-m", "adgstego.cli", "toy-corpus"],
        capture_output=True, text=True, check=True, env=CLI_ENV,
    ).stdout.strip()
    assert main([
        "preprocess", "--in", corpus_path,
        "--out-train", str(d / "train.txt"),
        "--out-test", str(d / "test.txt"),
        "--out-vocab", str(d / "vocab.tsv"),
    ]) == 0
    assert main([
        "train", "--corpus", str(d / "train.txt"),
        "--vocab", str(d / "vocab.tsv"),
        "--out", str(d / "model.json"),
    ]) == 0
    return d


def _run_bench(d, out_name):
    assert main([
        "bench",
        "--model", str(d / "model.json"),
        "--vocab", str(d / "vocab.tsv"),
        "--corpus", str(d / "test.txt"),
        "--out", str(d / out_name),
    ]) == 0
    return (d / out_name).read_bytes()


def _parse_bench(raw):
    lines = raw.decode().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    rows = list(csv.reader(body))
    return [dict(zip(rows[0], r)) for r in rows[1:]]


def test_distortion_ordering_and_capacity_on_bundled_model(cli_artifacts, capsys):
    started = time.perf_counter()
    rows = {r["method"]: r for r in _parse_bench(_run_bench(cli_artifacts, "bench.csv"))}
    elapsed = time.perf_counter() - started
    kld = {m: float(rows[m]["kld1_qp"]) for m in ("adg", "arithmetic", "huffman", "bins")}
    ordered = kld["adg"] < kld["arithmetic"] < kld["huffman"] < kld["bins"]
    er, entropy = float(rows["adg"]["er"]), float(rows["adg"]["entropy"])
    close = abs(er - entropy) <= 0.10 * entropy
    ok = ordered and close and elapsed < 600.0
    _verdict(
        capsys,
        "5/7 distortion ordering and capacity",
        ok,
        "KLD1 " + " < ".join(f"{m}={kld[m]:.3f}" for m in ("adg", "arithmetic", "huffman", "bins"))
        + f" ordering={ordered}; rate {er:.3f} vs mean entropy {entropy:.3f} "
        f"({abs(er - entropy) / entropy:.1%} apart, need <=10%); "
        f"bench took {elapsed:.0f}s (budget 600s)",
    )


def test_determinism_across_runs_and_processes(cli_artifacts, capsys):
    d = cli_artifacts
    first = _run_bench(d, "bench_a.csv")
    second = _run_bench(d, "bench_b.csv")
    identical = first == second

    # Sender and receiver in separate processes, sharing only the model,
    # vocabulary and config defaults (stand-in for two machines).
    payload = "feedface0badc0de"
    base = [sys.executable, "-m", "adgstego.cli"]
    subprocess.run(
        base + [
            "embed", "--model", str(d / "model.json"), "--vocab", str(d / "vocab.tsv"),
            "--hex", payload, "--out-stego", str(d / "wire.txt"),
        ],
        check=True, capture_output=True, env=CLI_ENV,
    )
    recovered = subprocess.run(
        base + [
            "extract", "--model", str(d / "model.json"), "--vocab", str(d / "vocab.tsv"),
            "--stego", str(d / "wire.txt"), "--hex-out",
        ],
        check=True, capture_output=True, text=True, env=CLI_ENV,
    ).stdout.strip()
    ok = identical and recovered == payload
    _verdict(
        capsys,
        "6/7 determinism",
        ok,
        f"repeated bench runs byte-identical={identical} "
        f"({len(first)} bytes); cross-process extract recovered payload={recovered == payload}",
    )


# ------------------------------------------------------------------ 7
# Quantization soundness: for 1e5 random float distributions the integer
# masses sum exactly to the fixed denominator and each entry is within
# (n+1) mass units of the exact scaled probability.  On the n-gram path,
# over random add-k models, every distribution sums to the denominator and
# every entry lies within one unit of its exact scaled probability, except
# the entries the min-1 floor lowered to pay for the ones it raised.


def _ngram_mass_errors(model, ctx, entry):
    """Worst error among the entries the min-1 floor left alone, in units, and how many it raised and lowered.

    ``ctx`` is a seen context, or None for the unigram counts; ``entry`` is
    the table row, ``(ids, counts, total)``, that the model backs off to.
    The errors are exact: with k = a/b an entry's scaled probability is
    ``D * num / den``, ``num = b * count + a`` and ``den = b * total + a * V``.
    """
    v = model.vocab_size
    # EOS is never followed by a token in training, so no seen context holds
    # it before another token: padding with EOS reaches ``ctx`` itself.
    context = [BOS_ID, EOS_ID] if ctx is None else [BOS_ID] + [EOS_ID] * (model.order - 1 - len(ctx)) + list(ctx)
    dist = model.next_distribution(context)
    a, b = Fraction(model.k).as_integer_ratio()
    ids, counts, total = entry
    nums = [a] * v
    for token, count in zip(ids.tolist(), counts.tolist()):
        nums[token] = b * int(count) + a
    den = b * int(total) + a * v
    assert sum(nums) == den
    worst, raised, lowered = Fraction(0), 0, 0
    for token, mass in zip(dist.token_ids.tolist(), dist.masses.tolist()):
        err = Fraction(mass * den - DENOMINATOR * nums[token], den)
        if err <= -1:
            lowered += 1
        else:
            worst = max(worst, abs(err))
            raised += DENOMINATOR * nums[token] < den
    return dist.denominator, len(dist), worst, raised, lowered


def test_quantization_soundness_at_scale(capsys):
    rng = np.random.default_rng(7_000)
    n_trials = 100_000
    worst_rel = 0.0
    sums_exact = True
    for _ in range(n_trials):
        n = int(rng.integers(1, 513))
        probs = rng.random(n) + 1e-12
        probs /= probs.sum()
        out = quantize(probs)
        if int(out.sum()) != DENOMINATOR:
            sums_exact = False
        err = float(np.abs(out - probs * DENOMINATOR).max())
        worst_rel = max(worst_rel, err / (n + 1))

    # The n-gram path, against its exact scaled probabilities.
    rand = random.Random(7_001)
    n_models, n_dists, ngram_sums_exact, worst, floored, unexplained = 150, 0, True, Fraction(0), 0, 0
    for _ in range(n_models):
        words = [f"w{i}" for i in range(rand.randint(1, 200))]
        sents = [rand.choices(words, k=rand.randint(0, 12)) for _ in range(rand.randint(1, 30))]
        vocab = build_vocab(sents, min_count=1)
        k = rand.choice([0.5, 1.0, 0.1, 1e-3, 1e-9, rand.uniform(1e-6, 3.0)])
        model = train_ngram([vocab.encode_sentence(s) for s in sents], order=rand.randint(2, 3), k=k, vocab=vocab)
        uni = np.flatnonzero(model.unigram_counts)
        rows = [(None, (uni, model.unigram_counts[uni], model.unigram_total))] + list(model.contexts.items())
        for ctx, entry in rows:
            total, size, err, raised, lowered = _ngram_mass_errors(model, ctx, entry)
            n_dists += 1
            ngram_sums_exact &= total == DENOMINATOR and size == model.vocab_size
            worst = max(worst, err)
            floored += lowered > 0
            unexplained += lowered > 0 and not raised
    ok = sums_exact and worst_rel <= 1.0 and ngram_sums_exact and worst < 1 and not unexplained
    _verdict(
        capsys,
        "7/7 quantization soundness",
        ok,
        f"{n_trials} distributions (n in 1..512): all sums == 2^31 ({sums_exact}); "
        f"max per-entry error = {worst_rel:.3f} of the (n+1)/2^31 bound; "
        f"{n_dists} distributions of {n_models} random add-k models: all sums == 2^31 over the whole vocabulary "
        f"({ngram_sums_exact}), max error of an entry the min-1 floor left alone = {float(worst):.3f} units (< 1), "
        f"{floored} distributions lowered entries to floor others, {unexplained} of them with none to floor",
    )

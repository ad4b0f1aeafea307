#!/usr/bin/env python3
"""Run the benchmark on two revisions in alternating pairs and write a ``BENCH_<n>.json``.

    python3 tools/bench_pairs.py PARENT CHANGE --seeds 1-10 --seconds 40 --out BENCH_20.json

Each revision is exported with ``git archive`` into a temporary directory
and run from there unchanged, one run at a time: at every seed, each
workload of ``BENCHMARK.json`` runs ``perfbench/run.py`` once per side,
the parent first at odd seeds and the change first at even ones.  The
output file is rewritten after every pair, so an interrupted session keeps
the pairs it finished.

Per workload the file holds every run's result line, with the head stego
digest of each codec, the unscaled per-codec rates (payload bits over
embed or extract seconds, from the detail line), the unscaled set-up,
stats and report times (the median of each one's raw times in the detail
line) and the reference kernel's speed; and per metric, each side's
median and quartiles, the count of pairs the change won by the metric's
direction in ``BENCHMARK.json`` (equal values count for neither side) and
the change's median over the parent's, minus 1.  The unscaled figures get
medians and win counts too, rates being better higher and times lower.
``head_stego_sha256_equal`` and ``er_kld1_equal`` say whether every pair
agreed on each codec's head stego digest and on ``er.adg`` and
``kld1_qp.adg``.  The whole run takes about ``2 x workloads x seeds x
(seconds + 15 s)``.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
EXACT = ("er.adg", "kld1_qp.adg")  # output figures: a speedup must leave them equal
UNSCALED_TIMES = ("setup_s", "stats_s", "report_s")  # lists of raw seconds in the detail line

NOTE = (
    "Both trees were exported with git archive from the named commits and run unchanged, one run at a time, "
    "every workload at each seed. 'change_wins' counts the pairs in which the change read better, by each "
    "metric's direction in BENCHMARK.json; equal values count for neither side. 'quartiles' are the first and "
    "third quartiles of statistics.quantiles(n=4). 'median_change' is the change's median over the parent's, "
    "minus 1. 'unscaled_bps' are each run's per-codec rates from the detail line (payload_bits / embed_s or "
    "extract_s), not divided by the reference kernel's speed; 'unscaled_s' are the medians of each run's raw "
    "setup_s, stats_s and report_s times from the detail line, not multiplied by the kernel's speed. "
    "'unscaled_median' and 'unscaled_change_wins' cover both, rates higher and times lower being better. "
    "'reference_speed' is the kernel's speed over the timed phase as a multiple of its nominal one, the "
    "divisor of that run's scaled rates. "
    "'head_stego_sha256_equal' compares each codec's head stego digest of the two sides at every seed; "
    "'er_kld1_equal' compares er.adg and kld1_qp.adg."
)


def _nominal_units_per_s() -> float:
    spec = importlib.util.spec_from_file_location("perfbench_reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.NOMINAL_UNITS_PER_S


def run_record(detail: dict, result: dict, nominal_units_per_s: float) -> dict:
    """One run as stored: its result line, head stego digests, unscaled rates and times, and reference speed."""
    unscaled = {}
    for name, codec in detail["codecs"].items():
        for kind, seconds in (("embed", codec["embed_s"]), ("extract", codec["extract_s"])):
            unscaled[f"{kind}_bps.{name}"] = codec["payload_bits"] / seconds if seconds > 0 else 0.0
    return {
        "result": result,
        "stego_sha256": {name: codec["stego_sha256"] for name, codec in sorted(detail["codecs"].items())},
        "unscaled_bps": unscaled,
        "unscaled_s": {name: statistics.median(detail[name]) for name in UNSCALED_TIMES},
        "reference_speed": detail["reference_units"] / detail["reference_s"] / nominal_units_per_s,
    }


def _wins(parent: List[float], change: List[float], better: str) -> int:
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def _quartiles(values: List[float]) -> List[float]:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return [q[0], q[2]]


def _ratio(change: float, parent: float) -> float:
    return change / parent - 1 if parent else 0.0


def summarize(runs: Dict[str, Dict[str, dict]], directions: Dict[str, str]) -> dict:
    """The per-workload summary of paired runs.

    ``runs`` maps each side to ``{seed: run_record(...)}``, over the same
    seeds; ``directions`` maps each end-to-end metric to ``"higher"`` or
    ``"lower"``, the better way.
    """
    seeds = sorted(runs["parent"], key=int)
    series = {side: {name: [runs[side][s]["result"]["metrics"][name]["value"] for s in seeds]
                     for name in directions} for side in SIDES}
    # Unscaled rates are better higher, unscaled times lower.
    first = runs["parent"][seeds[0]]
    unscaled_better = {**dict.fromkeys(first["unscaled_bps"], "higher"), **dict.fromkeys(first["unscaled_s"], "lower")}
    merged = {side: [{**runs[side][s]["unscaled_bps"], **runs[side][s]["unscaled_s"]} for s in seeds] for side in SIDES}
    unscaled = {side: {name: [m[name] for m in merged[side]] for name in unscaled_better} for side in SIDES}
    median = {side: {name: statistics.median(v) for name, v in series[side].items()} for side in SIDES}
    unscaled_median = {side: {name: statistics.median(v) for name, v in unscaled[side].items()} for side in SIDES}
    return {
        "seeds": [int(s) for s in seeds],
        "runs": runs,
        "median": median,
        "quartiles": {side: {name: _quartiles(v) for name, v in series[side].items()} for side in SIDES},
        "change_wins": {name: _wins(series["parent"][name], series["change"][name], better)
                        for name, better in directions.items()},
        "median_change": {name: _ratio(median["change"][name], median["parent"][name]) for name in directions},
        "unscaled_median": unscaled_median,
        "unscaled_change_wins": {name: _wins(unscaled["parent"][name], unscaled["change"][name], better)
                                 for name, better in unscaled_better.items()},
        "reference_speed_median": {side: statistics.median(runs[side][s]["reference_speed"] for s in seeds)
                                   for side in SIDES},
        "head_stego_sha256_equal": all(runs["parent"][s]["stego_sha256"] == runs["change"][s]["stego_sha256"]
                                       for s in seeds),
        "er_kld1_equal": all(series["parent"][name] == series["change"][name] for name in EXACT),
        "failed": {side: sum(runs[side][s]["result"]["failed"] for s in seeds) for side in SIDES},
        "correct": {side: all(runs[side][s]["result"]["correct"] for s in seeds) for side in SIDES},
    }


def parse_seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def export(rev: str, into: Path) -> str:
    """Extract ``rev``'s committed files into ``into``; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter, where this Python has it, refuses links and paths out of ``into``.
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return commit


def bench(tree: Path, workload: str, seed: int, seconds: float):
    """One ``perfbench/run.py`` run in ``tree``: (detail, result line)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{tree.name} {workload} seed {seed} failed with exit code {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def machine() -> str:
    return (f"{os.cpu_count()}-CPU {platform.machine()} {platform.system()}, Python {platform.python_version()}, "
            f"numpy {version('numpy')}; one run at a time")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="an inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--title", default="")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    nominal = _nominal_units_per_s()
    runs = {w: {side: {} for side in SIDES} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(rev, trees[side]) for side, rev in zip(SIDES, (args.parent, args.change))}
        for seed in args.seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    detail, result = bench(trees[side], workload, seed, args.seconds)
                    runs[workload][side][str(seed)] = run_record(detail, result, nominal)
                    print(f"seed {seed} {workload} {side}: correct={result['correct']} "
                          f"failed={result['failed']}", file=sys.stderr, flush=True)
            out = {
                "title": args.title,
                "command": f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds:g}",
                "machine": machine(),
                "pairing": ("alternating pairs per workload: the parent runs first at odd seeds, "
                            "the change at even seeds"),
                "parent": commits["parent"],
                "change": commits["change"],
                "workloads": {w: summarize(runs[w], directions) for w in workloads},
                "note": NOTE,
            }
            args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

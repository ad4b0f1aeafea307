#!/usr/bin/env python3
"""Benchmark of the adgstego codecs: embed/extract goodput per codec.

    python3 perfbench/run.py --workload bigram-warm --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` the run
is instrumented and reports the per-layer ones, after replaying the same
messages without instrumentation in a fresh process to get the tracing
overhead and to check that the stego output did not change.  The line
before it, ``{"detail": ...}``, carries what is not a metric: message
counts and the SHA-256 of each codec's stego token stream.  See
``perfbench/README.md`` for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("bigram-warm", "zipf50k-cold")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run exactly these units per task (used for the untraced replay).
    parser.add_argument("--replay", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def metric_units(kind: str):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def emit(detail, correct, attempted, failed, values, kind) -> None:
    units = metric_units(kind)
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"benchmark produced no value for {missing}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }))


def describe(args, result) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": result.setup_s,
        "stats_s": result.evaluation.stats_s,
        "report_s": result.evaluation.report_s,
        "timed_s": result.timed_s,
        "reference_units": result.units["reference"],
        "reference_s": result.reference_s,
        "setup_speed": result.setup_speed,
        "stats_speed": result.evaluation.stats_speed,
        "report_speed": result.evaluation.report_speed,
        "units": result.units,
        "codecs": {
            name: {
                "units": run.units,
                "messages": run.messages,
                "failed": run.failed,
                "tokens": run.tokens,
                "payload_bits": run.payload_bits,
                "carried_bits": run.carried_bits,
                "embed_s": run.embed_s,
                "extract_s": run.extract_s,
                "stego_sha256": run.head.get("stego_sha256"),
                "stream_sha256": run.stream.hexdigest(),
            }
            for name, run in result.runs.items()
        },
    }


def scaled_median(seconds, speeds) -> float:
    return statistics.median(s * v for s, v in zip(seconds, speeds))


def end_to_end(result) -> dict:
    """The end-to-end metrics, every timing at the reference kernel's nominal speed.

    A codec's rate is divided by ``result.speed``, how fast the machine
    ran the reference kernel over the timed phase against its nominal
    speed; a set-up or evaluation pass is multiplied by the kernel's speed
    just around it (see ``reference.py``).  The detail line keeps the raw
    timings.
    """
    speed = result.speed
    evaluation = result.evaluation
    values = {"setup_s": scaled_median(result.setup_s, result.setup_speed)}
    for name, run in result.runs.items():
        values[f"embed_bps.{name}"] = run.rate(run.embed_s) / speed
        values[f"extract_bps.{name}"] = run.rate(run.extract_s) / speed
    head = result.runs["adg"].head
    values["er.adg"] = head["carried_bits"] / head["tokens"] if head.get("tokens") else 0.0
    values["kld1_qp.adg"] = evaluation.reports["adg"].kld1_qp
    values["stats_s"] = scaled_median(evaluation.stats_s, evaluation.stats_speed)
    values["report_s"] = scaled_median(evaluation.report_s, evaluation.report_speed)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def all_delivered(result) -> bool:
    return all(run.messages > 0 for run in result.runs.values())


def replay(args, counts):
    """The same units, uninstrumented, in a fresh process: (detail, result line)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "0", "--replay", json.dumps(counts),
    ]
    # The replay does at most what the traced run did, untraced, plus one set-up.
    timeout = 2 * args.seconds + 60
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"untraced replay failed with exit code {proc.returncode}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def traced_run(args, workload) -> int:
    from adgstego import lm
    from tracer import Tracer, install_layers, layer_metrics
    from zipf_provider import ZipfProvider

    tracer = Tracer()
    install_layers(tracer, [lm.NGramLM, ZipfProvider])
    try:
        result = workload.run(args.seed, args.seconds, tracer=tracer, setup_repeats=1)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"))

    counts = result.units
    base_detail, base = replay(args, counts)
    detail = describe(args, result)
    same_output = all(
        detail["codecs"][name]["stream_sha256"] == base_detail["codecs"][name]["stream_sha256"]
        for name in result.runs
    )
    if not same_output:
        print("traced and untraced runs produced different stego output", file=sys.stderr)
    detail.update(
        untraced_timed_s=base_detail["timed_s"],
        same_stego_as_untraced=same_output,
        spans_stored=len(tracer.span_start),
        spans_dropped=tracer.dropped,
        adg_embed_step_samples=len(tracer.durations.get("adg.embed_step", [])),
    )
    values = layer_metrics(tracer, result.runs["adg"].depths)
    values["trace.overhead_ratio"] = result.timed_s / base_detail["timed_s"]
    session = result.session
    correct = same_output and base["correct"] and session.failed == 0 and all_delivered(result)
    emit(detail, correct, session.attempted + base["attempted"], session.failed + base["failed"],
         values, "per_layer")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adgstego" / "__init__.py").is_file():
        print(f"error: no adgstego package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS as registry

    workload = registry[args.workload]
    if args.trace:
        return traced_run(args, workload)
    counts = json.loads(args.replay) if args.replay else None
    result = workload.run(args.seed, args.seconds, counts=counts,
                          setup_repeats=1 if counts else None)
    session = result.session
    emit(describe(args, result), session.failed == 0 and all_delivered(result),
         session.attempted, session.failed, end_to_end(result), "end_to_end")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``tools/bench_pairs.py``: the summary of paired benchmark runs, on made-up result lines."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIRECTIONS = {"embed_bps.adg": "higher", "stats_s": "lower", "er.adg": "higher", "kld1_qp.adg": "lower"}


def _record(embed, stats, er=9.0, kld=0.03, digest="aa", failed=0, embed_s=2.0, reference=(280, 1.0),
            raw_stats=(0.2, 0.4, 0.3)):
    detail = {
        "codecs": {"adg": {"payload_bits": 1000, "embed_s": embed_s, "extract_s": 0.0, "stego_sha256": digest}},
        "reference_units": reference[0],
        "reference_s": reference[1],
        "setup_s": [1.5],
        "stats_s": list(raw_stats),
        "report_s": [0.02, 0.01],
    }
    metrics = {"embed_bps.adg": embed, "stats_s": stats, "er.adg": er, "kld1_qp.adg": kld}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {name: {"value": value, "unit": ""} for name, value in metrics.items()}}
    return bench_pairs.run_record(detail, result, 140.0)


def test_run_record_keeps_digests_unscaled_rates_and_reference_speed():
    record = _record(5.0, 0.3, embed_s=4.0, reference=(700, 2.5))
    assert record["stego_sha256"] == {"adg": "aa"}
    assert record["unscaled_bps"] == {"embed_bps.adg": 250.0, "extract_bps.adg": 0.0}
    # Each time is the median of the run's raw passes, not scaled by the kernel's speed.
    assert record["unscaled_s"] == {"setup_s": 1.5, "stats_s": 0.3, "report_s": 0.015}
    assert record["reference_speed"] == pytest.approx(2.0)
    assert record["result"]["metrics"]["embed_bps.adg"]["value"] == 5.0


def test_summary_medians_quartiles_and_wins_follow_each_metrics_direction():
    parent = {"1": _record(10, 0.5), "2": _record(20, 0.4), "3": _record(30, 0.3), "4": _record(40, 0.2),
              "10": _record(50, 0.1)}
    change = {"1": _record(15, 0.5), "2": _record(20, 0.3, raw_stats=(0.25,)),
              "3": _record(25, 0.4, raw_stats=(0.2,)), "4": _record(60, 0.1, raw_stats=(0.1, 0.2)),
              "10": _record(70, 0.2, embed_s=1.0, raw_stats=(0.5,))}
    summary = bench_pairs.summarize({"parent": parent, "change": change}, DIRECTIONS)
    assert summary["seeds"] == [1, 2, 3, 4, 10]  # numeric order, not string order
    assert summary["median"]["parent"]["embed_bps.adg"] == 30
    assert summary["median"]["change"]["embed_bps.adg"] == 25
    assert summary["quartiles"]["parent"]["embed_bps.adg"] == [15.0, 45.0]  # statistics.quantiles(n=4)
    # Higher is better: seeds 1, 4 and 10 win, the tie at seed 2 counts for neither side.
    assert summary["change_wins"]["embed_bps.adg"] == 3
    # Lower is better: seeds 2 and 4 win, seed 1 ties, seeds 3 and 10 lose.
    assert summary["change_wins"]["stats_s"] == 2
    assert summary["median_change"]["embed_bps.adg"] == pytest.approx(25 / 30 - 1)
    assert summary["unscaled_median"]["change"]["embed_bps.adg"] == 500.0
    assert summary["unscaled_change_wins"]["embed_bps.adg"] == 1
    # Unscaled times are better lower: seeds 2, 3 and 4 win, seed 10 loses, seed 1 ties.
    assert summary["unscaled_median"]["parent"]["stats_s"] == 0.3
    assert summary["unscaled_median"]["change"]["stats_s"] == 0.25
    assert summary["unscaled_change_wins"]["stats_s"] == 3
    assert summary["unscaled_change_wins"]["setup_s"] == 0 and summary["unscaled_median"]["change"]["setup_s"] == 1.5
    assert summary["reference_speed_median"] == {"parent": 2.0, "change": 2.0}
    assert summary["head_stego_sha256_equal"] and summary["er_kld1_equal"]
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["correct"] == {"parent": True, "change": True}


def test_summary_reports_a_changed_digest_an_unequal_figure_and_failures():
    parent = {"1": _record(10, 0.5), "2": _record(20, 0.4)}
    change = {"1": _record(10, 0.5, digest="bb"), "2": _record(20, 0.4, kld=0.031, failed=2)}
    summary = bench_pairs.summarize({"parent": parent, "change": change}, DIRECTIONS)
    assert not summary["head_stego_sha256_equal"]
    assert not summary["er_kld1_equal"]
    assert summary["failed"] == {"parent": 0, "change": 2}
    assert summary["correct"] == {"parent": True, "change": False}
    assert summary["change_wins"]["embed_bps.adg"] == 0 and summary["change_wins"]["kld1_qp.adg"] == 0


def test_seed_ranges():
    assert bench_pairs.parse_seeds("3-5") == [3, 4, 5]
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.parse_seeds("5-3")

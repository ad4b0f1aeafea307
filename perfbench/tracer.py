"""Span tracer installed on the adgstego package from outside.

``install_layers`` replaces module-level functions and class methods of
the package with thin wrappers that open a span on entry and close it on
exit; ``uninstall`` puts the originals back.  Nothing under ``src/`` is
edited.  A wrapper that only counts calls is used on the hottest paths
(one call per bit or per cache lookup), where a span would cost more than
the work it measures.

Spans live in memory in columnar arrays (name, parent, message id, start,
end) and are written out once the run ends.  Self time is computed as the
spans close: a span's duration minus the durations of its direct
children.  Every span carries the id of the message being processed when
it opened (``-1`` during set-up), so one message's spans can be pulled
out of the dump.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import Counter, defaultdict
from typing import Dict, List, Optional

import numpy as np

MAX_STORED_SPANS = 1_000_000  # ~34 MB of span columns; later spans are only aggregated


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_message = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.calls: Counter = Counter()
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.counters: Counter = Counter()
        self.message = -1
        self._keep_durations: set = set()
        # Open spans: [name id, stored index or -1, start, child time].
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def parent_name(self) -> Optional[str]:
        return self.names[self._stack[-1][0]] if self._stack else None

    def _enter(self, nid: int) -> None:
        start = time.perf_counter()
        if len(self.span_start) < MAX_STORED_SPANS:
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][1] if self._stack else -1)
            self.span_message.append(self.message)
            self.span_start.append(start)
            self.span_end.append(start)
        else:
            index = -1
            self.dropped += 1
        self._stack.append([nid, index, start, 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        nid, index, start, child = self._stack.pop()
        if index >= 0:
            self.span_end[index] = end
        duration = end - start
        name = self.names[nid]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if name in self._keep_durations:
            self.durations[name].append(duration)
        if self._stack:
            self._stack[-1][3] += duration

    # -- installation ----------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, on_call=None, keep_durations=False,
             inside: Optional[str] = None) -> None:
        """Wrap ``owner.attr`` so each call records a span called ``name``.

        A call made directly inside an open span called ``inside`` records
        nothing, so its time stays with that caller.
        """
        fn = getattr(owner, attr)
        nid = self._name_id(name)
        if keep_durations:
            self._keep_durations.add(name)
        enter, leave, stack = self._enter, self._exit, self._stack
        inside_id = self._name_id(inside) if inside else -1

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == inside_id:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        wrapper.__wrapped__ = fn
        self.patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` so each call bumps the counter ``name``."""
        fn = getattr(owner, attr)
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        self.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def percentile_us(self, name: str, q: int) -> float:
        """The ``q``-th percentile (1..99) of a kept span's duration, in microseconds."""
        values = self.durations.get(name, [])
        if len(values) < 2:
            return 1e6 * values[0] if values else 0.0
        return 1e6 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]

    def dump(self, path: str) -> None:
        """Write the stored spans as a NumPy archive (names index ``name``)."""
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            message=np.frombuffer(self.span_message, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def install_layers(tracer: Tracer, provider_classes) -> None:
    """Instrument every layer the benchmark reports on.

    ``provider_classes`` are the classes whose ``next_distribution`` sits
    under ``CachedProvider``; its calls are the cache misses.
    """
    from adgstego import adg, baselines, bitio, corpus, lm, metrics, runner

    for cls in provider_classes:
        tracer.span(cls, "next_distribution", "lm.next_distribution")
    tracer.span(lm, "quantize", "lm.quantize")
    tracer.span(lm.ConditionalDistribution, "__init__", "lm.dist_init")
    tracer.span(lm, "train_ngram", "lm.train")
    for fn in ("preprocess", "build_vocab", "split"):
        tracer.span(corpus, fn, "corpus." + fn)

    tracer.span(runner, "embed_text", "runner.embed_text")
    tracer.span(runner, "extract_text", "runner.extract_text")
    tracer.span(runner, "mask_eos_min", "runner.mask_eos")
    tracer.span(runner, "_step_stats", "runner.step_stats")
    # CachedProvider.get recurses once for the EOS-masked variant; only
    # the outer call is a lookup.
    depth = [0]
    get = runner.CachedProvider.get

    def lookup(self, context, mask_eos):
        if depth[0] == 0:
            tracer.counters["runner.cache.lookups"] += 1
        depth[0] += 1
        try:
            return get(self, context, mask_eos)
        finally:
            depth[0] -= 1

    tracer.patch(runner.CachedProvider, "get", lookup)

    def on_equal_group(args):
        tracer.counters["adg.equal_group.tokens"] += len(args[0])
        if tracer.parent_name() != "adg.implicit_q":
            tracer.counters["adg.equal_group.tree"] += 1

    tracer.span(adg, "equal_group", "adg.equal_group", on_call=on_equal_group)
    tracer.span(adg, "implicit_q", "adg.implicit_q")
    tracer.count(adg._Node, "child", "adg.tree.levels")

    codecs = {
        "adg": adg.ADGCodec,
        "arithmetic": baselines.ArithmeticCodec,
        "huffman": baselines.HuffmanCodec,
        "patient_huffman": baselines.PatientHuffmanCodec,
        "bins": baselines.BinsCodec,
    }
    for name, cls in codecs.items():
        # Patient Huffman delegates its embedding steps to a HuffmanCodec;
        # that time belongs to the patient codec.
        inside = "patient_huffman" if name == "huffman" else None
        for step in ("embed_step", "extract_step"):
            tracer.span(cls, step, f"{name}.{step}", keep_durations=step == "embed_step" and name == "adg",
                        inside=inside and f"{inside}.{step}")
    tracer.span(baselines, "_build_huffman", "baselines.huffman_tree")
    tracer.span(baselines, "_huffman_distortion", "baselines.huffman_distortion")
    tracer.span(baselines.ArithmeticCodec, "_truncated", "baselines.arith_table")
    tracer.span(baselines.BinsCodec, "_bin_argmax", "baselines.bins_table")

    # The codecs bound next_index into their own namespaces at import.
    tracer.count(adg, "next_index", "bitio.next_index")
    tracer.count(baselines, "next_index", "bitio.next_index")
    tracer.span(bitio, "frame", "bitio.frame")
    tracer.span(bitio, "deframe", "bitio.deframe")

    tracer.span(metrics, "report_from_traces", "metrics.report")
    tracer.span(metrics, "kld1", "metrics.kld1")
    tracer.span(metrics, "sentence_vector", "metrics.sentence_vector")
    tracer.span(metrics, "kld2", "metrics.kld2")


CODEC_NAMES = ("adg", "arithmetic", "huffman", "patient_huffman", "bins")


def layer_metrics(tracer: Tracer, depths: List[int]) -> Dict[str, float]:
    """Per-layer values by metric name (the units live in BENCHMARK.json)."""
    calls, total, own, counters = tracer.calls, tracer.total_s, tracer.self_s, tracer.counters
    misses = calls["lm.next_distribution"]
    lookups = counters["runner.cache.lookups"]
    levels = counters["adg.tree.levels"]
    out = {
        "lm.next_distribution.calls": misses,
        "lm.next_distribution.self_s": own["lm.next_distribution"],
        "lm.quantize.calls": calls["lm.quantize"],
        "lm.quantize.s": total["lm.quantize"],
        "lm.dist_init.calls": calls["lm.dist_init"],
        "lm.dist_init.s": total["lm.dist_init"],
        "runner.mask_eos.calls": calls["runner.mask_eos"],
        "runner.mask_eos.s": total["runner.mask_eos"],
        "runner.cache.hits": lookups - misses,
        "runner.cache.misses": misses,
        "runner.cache.hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "adg.equal_group.calls": calls["adg.equal_group"],
        "adg.equal_group.s": total["adg.equal_group"],
        "adg.equal_group.tokens": counters["adg.equal_group.tokens"],
        "adg.tree.levels": levels,
        "adg.tree.reuse_ratio": 1.0 - counters["adg.equal_group.tree"] / levels if levels else 0.0,
        "adg.depth.mean": statistics.fmean(depths) if depths else 0.0,
        "adg.depth.max": max(depths, default=0),
        "adg.implicit_q.calls": calls["adg.implicit_q"],
        "adg.implicit_q.self_s": own["adg.implicit_q"],
        "runner.step_stats.calls": calls["runner.step_stats"],
        "runner.step_stats.s": total["runner.step_stats"],
    }
    for name in CODEC_NAMES:
        out[name + ".embed_step.self_s"] = own[name + ".embed_step"]
        out[name + ".extract_step.self_s"] = own[name + ".extract_step"]
    out.update({
        "runner.embed_text.self_s": own["runner.embed_text"],
        "runner.extract_text.self_s": own["runner.extract_text"],
        "bitio.next_index.calls": counters["bitio.next_index"],
        "adg.embed_step.p50_us": tracer.percentile_us("adg.embed_step", 50),
        "adg.embed_step.p99_us": tracer.percentile_us("adg.embed_step", 99),
        "baselines.huffman_tree.calls": calls["baselines.huffman_tree"],
        "baselines.huffman_tree.s": total["baselines.huffman_tree"],
        "baselines.huffman_distortion.s": total["baselines.huffman_distortion"],
        "baselines.arith_table.s": total["baselines.arith_table"],
        "baselines.bins_table.s": total["baselines.bins_table"],
        "metrics.report.s": total["metrics.report"],
        "metrics.sentence_vector.s": total["metrics.sentence_vector"],
        "corpus.setup.s": sum(total["corpus." + fn] for fn in ("preprocess", "build_vocab", "split")),
        "lm.train.s": total["lm.train"],
    })
    return out

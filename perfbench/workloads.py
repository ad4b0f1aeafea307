"""The benchmark's workloads, driven through the public adgstego API.

Every workload is a closed loop: one sender and one receiver, one message
at a time, the next message only after the previous round trip has been
checked.  A workload run has two parts:

1. set-up, repeated and timed (``setup_s`` is the median), half of the
   repeats before the timed phase and half after it;
2. the timed phase, in which tasks take turns, each with its own share of
   the run's time: one task per codec, which sends that codec's next
   message, one that runs units of the reference kernel, and two
   evaluation tasks, which compute the per-step statistics of every
   codec's first messages (its head) and build the metric reports over
   them.  Payload bits and embed and extract wall time are summed per
   codec; each evaluation pass is timed on its own.

Interleaving every task over the whole phase means that a slow spell of
the machine lands on all of them alike instead of on one, the reference
kernel included, so the kernel's speed over the phase says how fast the
machine ran for all of them (``reference.py``).

All inputs come from the workload seed.  Payloads, sampling seeds and
padding seeds are drawn from one stream per workload, so message ``j`` is
the same for every codec.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from adgstego import baselines, bitio, bundled, corpus, lm, metrics, runner

import reference
from zipf_provider import VOCAB_SIZE, ZipfProvider

clock = time.perf_counter
MAX_HEAD_FAILURES = 3
EVALUATIONS = ("stats", "report")

# The default bench grid of the adgstego CLI (partition seed included),
# pinned here so that a change of CLI defaults cannot change the benchmark.
CODECS: Dict[str, Dict] = {
    "adg": {},
    "arithmetic": {"h": 300},
    "huffman": {"k": 5},
    "patient_huffman": {"k": 3, "delta": 1.0},
    "bins": {"b": 5, "partition_seed": 3},
}


def make_pair(name: str, vocab_size: int):
    """Separate sender and receiver codec objects, as on two machines."""
    return tuple(baselines.make_codec(name, vocab_size, **CODECS[name]) for _ in range(2))


def message_stream(tag: str, seed: int, payload_bytes: int, **gen) -> Iterator[Tuple[bytes, runner.GenerationConfig]]:
    rng = random.Random(f"{tag}:{seed}")
    while True:
        payload = rng.randbytes(payload_bytes)
        cfg = runner.GenerationConfig(
            sample_seed=rng.getrandbits(32), pad_seed=rng.getrandbits(32), **gen
        )
        yield payload, cfg


@dataclass
class Sent:
    """One checked round trip, kept for the evaluation passes."""

    cfg: runner.GenerationConfig
    sentences: List[List[int]]
    trace: runner.EmbedTrace


@dataclass
class CodecRun:
    """What the timed phase measured for one codec."""

    name: str
    units: int = 0  # messages attempted
    messages: int = 0
    failed: int = 0
    payload_bits: int = 0
    embed_s: float = 0.0
    extract_s: float = 0.0
    tokens: int = 0
    carried_bits: float = 0.0
    depths: List[int] = field(default_factory=list)
    stream: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    head: Dict = field(default_factory=dict)  # snapshot once the first messages are in
    first: List[Sent] = field(default_factory=list)

    def rate(self, seconds: float) -> float:
        """Payload bits per second of ``seconds`` (the run's embed or extract time)."""
        return self.payload_bits / seconds if seconds > 0 else 0.0

    def snapshot(self) -> None:
        self.head = {
            "stego_sha256": self.stream.hexdigest(),
            "tokens": self.tokens,
            "carried_bits": self.carried_bits,
        }


@dataclass
class Session:
    """Bookkeeping shared by every round trip of one workload run."""

    tracer: Optional[object] = None
    attempted: int = 0
    failed: int = 0
    message_id: int = 0

    def round_trip(self, pair, payload: bytes, cfg, sender: Callable, receiver: Callable,
                   run: Optional[CodecRun] = None) -> Optional[Sent]:
        """Embed then extract one payload and check it.

        ``sender`` and ``receiver`` return the provider each side uses;
        the receiver's is asked for only after embedding has returned.
        Any exception or a payload mismatch counts as one failed
        operation, and the run goes on.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.message = self.message_id
        self.message_id += 1
        send_codec, recv_codec = pair
        try:
            t0 = clock()
            sentences, trace = runner.embed_text(send_codec, bitio.frame(payload), sender(), cfg)
            t1 = clock()
            got = bitio.deframe(runner.extract_text(recv_codec, sentences, receiver(), cfg))
            t2 = clock()
        except Exception:  # a failed operation is counted, never dropped
            traceback.print_exc(file=sys.stderr)
            got = None
        ok = got == bitio.bytes_to_bits(payload)
        if not ok:
            self.failed += 1
            if got is not None:
                print(f"round trip mismatch: codec {send_codec.name}, message {self.message_id - 1}",
                      file=sys.stderr)
        if run is None:
            return None
        if not ok:
            run.failed += 1
            return None
        run.messages += 1
        run.payload_bits += 8 * len(payload)
        run.embed_s += t1 - t0
        run.extract_s += t2 - t1
        run.tokens += trace.total_tokens
        run.carried_bits += trace.total_bits
        if send_codec.name == "adg":
            run.depths.extend(len(s.group_sizes) for s in trace.steps if s.group_sizes is not None)
        for sentence in sentences:
            run.stream.update(",".join(map(str, sentence)).encode() + b"\n")
        run.stream.update(b"\n")
        return Sent(cfg, sentences, trace)


def scored_traces(codec, sents: Sequence[Sent], limit: int, provider) -> List[runner.EmbedTrace]:
    """The messages' embed traces, cut after their first ``limit`` scored steps.

    The per-step divergence stats are computed now, by replaying each
    message's contexts through ``provider`` and filling in what
    ``collect_stats=True`` would have recorded.
    """
    out = []
    for sent in sents:
        if limit <= 0:
            break
        trace = sent.trace
        cut = runner.EmbedTrace(trace.method, dict(trace.params), trace.frame_bits, trace.payload_bits)
        records = iter(trace.steps)
        for sentence in sent.sentences:
            context = [corpus.BOS_ID]
            for pos, token in enumerate([*sentence, corpus.EOS_ID]):
                record = dataclasses.replace(next(records))
                if not record.forced:
                    if limit <= 0:
                        break
                    limit -= 1
                    dist = provider.get(tuple(context), mask_eos=pos < sent.cfg.min_len)
                    record.kld_qp, record.kld_pq, record.entropy = runner._step_stats(
                        dist, *codec.step_q(dist))
                cut.steps.append(record)
                context.append(token)
        out.append(cut)
    return out


def token_sample(sentences, tokens: int, piece: int = 10) -> List[List[str]]:
    """The first ``tokens`` tokens of a text, regrouped into pieces of ``piece`` tokens.

    A fixed amount of text in a fixed number of pieces keeps the report's
    work the same from seed to seed; only which tokens it sees changes.
    """
    flat = [token for sentence in sentences for token in sentence][:tokens]
    return [flat[i : i + piece] for i in range(0, len(flat), piece)]


@dataclass
class Evaluation:
    """Timings of the evaluation passes and the last metric reports."""

    stats_s: List[float] = field(default_factory=list)
    report_s: List[float] = field(default_factory=list)
    # The reference kernel's speed right around each pass.
    stats_speed: List[float] = field(default_factory=list)
    report_speed: List[float] = field(default_factory=list)
    traces: Dict[str, List[runner.EmbedTrace]] = field(default_factory=dict)
    reports: Dict[str, metrics.MetricReport] = field(default_factory=dict)


@dataclass
class Result:
    setup_s: List[float]
    setup_speed: List[float]  # the reference kernel's speed right around each set-up
    runs: Dict[str, CodecRun]
    evaluation: Evaluation
    session: Session
    units: Dict[str, int]  # tasks done, by task name
    reference_s: float  # time spent in the reference kernel's units

    @property
    def speed(self) -> float:
        """The machine's speed over the timed phase, as a multiple of the nominal one."""
        return reference.speed(self.units["reference"], self.reference_s)

    @property
    def timed_s(self) -> float:
        return sum(r.embed_s + r.extract_s for r in self.runs.values())


class Workload:
    """Common run logic: set-up, then codecs and evaluation passes interleaved."""

    name = ""
    setup_repeats = 5
    weights: Dict[str, float] = {}  # each codec's share of the timed phase
    # The evaluation tasks' shares, on the same scale.  A pass is timed
    # whole, so it sees the machine's speed changes within it; the metric
    # is the median pass, so each task needs many passes spread over the
    # run.  A stats pass costs about twenty report passes.
    evaluation_weights = {"stats": 0.3, "report": 0.08}
    # The reference kernel's share, on the same scale; it runs from the start.
    reference_weight = 0.1
    min_passes = 3  # evaluation passes always completed, even past the deadline
    head_messages = 2  # always completed, so head digests compare across runs
    scored_steps = 80  # per codec, for kld1 and the report
    report_tokens = 500  # stego and cover tokens per codec in the report

    def setup(self, seed: int, session: Session):
        raise NotImplementedError

    def unit(self, state, name: str, run: CodecRun, session: Session) -> None:
        """One message for codec ``name``; snapshots ``run`` once its head is complete."""
        raise NotImplementedError

    def scored(self, state, name: str, run: CodecRun) -> List[runner.EmbedTrace]:
        """The head's traces with stats for its first ``scored_steps`` steps."""
        raise NotImplementedError

    def surface(self, state, sentence: Sequence[int]) -> List[str]:
        raise NotImplementedError

    def cover(self, state) -> List[List[str]]:
        raise NotImplementedError

    def stats_pass(self, state, runs: Dict[str, CodecRun], out: Evaluation, kernel) -> None:
        """Per-step stats for every codec's scored steps, computed anew (fresh providers)."""
        out.traces, seconds, speed = kernel.around(
            lambda: {name: self.scored(state, name, run) for name, run in runs.items()})
        out.stats_s.append(seconds)
        out.stats_speed.append(speed)

    def report_pass(self, state, runs: Dict[str, CodecRun], out: Evaluation, kernel) -> None:
        """One metric report per codec over its scored traces and text samples.

        The sentence-vector module keeps a memo of token patterns; it is
        emptied first, outside the clock, so that every pass does the work
        of a fresh process.
        """
        samples = {}
        for name, run in runs.items():
            stego = (self.surface(state, s) for sent in run.first for s in sent.sentences)
            samples[name] = (token_sample(stego, self.report_tokens),
                             token_sample(self.cover(state), self.report_tokens))
        metrics._pattern_cache.clear()
        reports, seconds, speed = kernel.around(lambda: {
            name: metrics.report_from_traces(out.traces[name], stego, cover)
            for name, (stego, cover) in samples.items()})
        out.reports = reports
        out.report_s.append(seconds)
        out.report_speed.append(speed)

    def head_size(self, name: str) -> int:
        return self.head_messages

    def keep_head(self, run: CodecRun, sent: Optional[Sent]) -> None:
        """Add ``sent`` to the head until it has its messages and the report's text."""
        if sent is None or run.head:
            return
        run.first.append(sent)
        tokens = sum(len(s) for kept in run.first for s in kept.sentences)
        if len(run.first) >= self.head_size(run.name) and tokens >= self.report_tokens:
            run.snapshot()

    def run(self, seed: int, seconds: float, counts: Optional[Dict[str, int]] = None,
            tracer=None, setup_repeats: Optional[int] = None) -> Result:
        """Time-bounded when ``counts`` is None, else exactly ``counts[task]`` units per task.

        The next unit goes to the task furthest below its share of the
        time spent so far.  The evaluation tasks join once every codec's
        head is complete, level with the codecs, so that their passes
        spread over the rest of the phase.  A report pass scores the
        traces of the last stats pass.
        """
        session = Session(tracer=tracer)
        kernel = reference.Reference()
        setup_s, setup_speed = [], []

        def set_up():
            gc.collect()
            state, seconds, speed = kernel.around(lambda: self.setup(seed, session))
            setup_s.append(seconds)
            setup_speed.append(speed)
            return state

        # Half the set-ups come before the timed phase and half after it,
        # so that like the rest they sample the machine over the whole run.
        repeats = setup_repeats or self.setup_repeats
        for _ in range(repeats - repeats // 2):
            state = None  # let the previous set-up go before building the next
            state = set_up()
        runs = {name: CodecRun(name) for name in self.weights}
        evaluation = Evaluation()
        shares = {**self.weights, **self.evaluation_weights, "reference": self.reference_weight}
        spent = dict.fromkeys(shares, 0.0)
        done = dict.fromkeys(shares, 0)
        ready = [*runs, "reference"]
        deadline = clock() + seconds
        while True:
            # An evaluation task joins, level with the codecs, once it has
            # something to work on: every head for stats, a stats pass's
            # scored traces for reports.
            joins = {"stats": all(r.head for r in runs.values()), "report": bool(evaluation.traces)}
            for name, can_join in joins.items():
                if can_join and name not in ready:
                    spent[name] = shares[name] * min(spent[n] / shares[n] for n in runs)
                    ready.append(name)
            if counts is not None:
                todo = [n for n in ready if done[n] < counts[n]]
            elif clock() < deadline:
                todo = ready
            else:
                todo = [n for n in runs if not runs[n].head]
                todo += ["reference"] if done["reference"] < self.min_passes else []
                todo += [n for n in EVALUATIONS if n in ready and done[n] < self.min_passes]
            if not todo:
                break
            name = min(todo, key=lambda n: spent[n] / shares[n])
            t0 = clock()
            if name in runs:
                run = runs[name]
                if run.failed >= MAX_HEAD_FAILURES and not run.head:
                    raise RuntimeError(f"{name}: {run.failed} failed round trips before its first messages")
                self.unit(state, name, run, session)
                run.units += 1
            elif name == "reference":
                kernel.unit()
            else:
                if tracer is not None:
                    tracer.message = -1
                getattr(self, name + "_pass")(state, runs, evaluation, kernel)
            spent[name] += clock() - t0
            done[name] += 1
        state = None
        for _ in range(repeats // 2):
            set_up()
        return Result(setup_s, setup_speed, runs, evaluation, session, done, spent["reference"])


# -- the bundled bigram model ------------------------------------------------

@dataclass
class Bigram:
    vocab: corpus.Vocabulary
    model: lm.NGramLM
    test: List[List[str]]


def build_bigram() -> Bigram:
    """The CLI's default corpus pipeline and order-2, k = 0.5 model."""
    with open(bundled.toy_corpus_path(), encoding="utf-8") as fh:
        raw = fh.read()
    sentences = corpus.preprocess(raw, corpus.PreprocessConfig(docs_per_line=True))
    vocab = corpus.build_vocab(sentences, min_count=10)
    train, test = corpus.split(sentences, 0.9, seed=0)
    model = lm.train_ngram([vocab.encode_sentence(s) for s in train], order=2, k=0.5, vocab=vocab)
    return Bigram(vocab, model, test)


def shuffled_cover(test: Sequence[Sequence[str]], seed: int) -> List[List[str]]:
    cover = [list(s) for s in test]
    random.Random(f"cover:{seed}").shuffle(cover)
    return cover


class BigramWarm(Workload):
    """Long-lived caches on the bundled model: per-step overhead is the cost.

    Each codec cycles through a pool of messages that set-up has already
    sent once through its long-lived sender and receiver caches, so every
    distribution and every grouping-tree node the timed phase needs is
    cached.  (Fresh messages would keep growing the grouping codec's trees
    for minutes: with about 9 bits a token each distribution has hundreds
    of tree nodes.)
    """

    name = "bigram-warm"
    setup_repeats = 4
    # A stats pass here takes about a second, long enough for the
    # machine's speed to change within it, so one pass's scaled time still
    # varies by 10-25 % and the median needs more passes than the default
    # share gives.
    evaluation_weights = {"stats": 0.6, "report": 0.08}
    weights = {"adg": 0.3, "arithmetic": 0.175, "huffman": 0.175, "patient_huffman": 0.175, "bins": 0.175}
    payload_bytes = 256
    # The pool's first messages; one pass over a codec's pool, or more if
    # the report needs more text, is its head.
    # Long messages keep the tokens wasted after the last payload bit (the
    # rest of that sentence) a small share.  The grouping codec's cold pass
    # dominates set-up, so its pool is the smallest.
    pool_messages = {"adg": 3, "arithmetic": 8, "huffman": 8, "patient_huffman": 8, "bins": 8}
    # The grouping codec seldom samples EOS on this model, so its last
    # sentence would run on for up to 200 tokens after the payload ends, a
    # share of the message that changes a lot from seed to seed.  Capping
    # sentences at 40 tokens keeps that waste small; the other codecs'
    # sentences are shorter than that anyway.
    max_len = 40

    def head_size(self, name):
        return self.pool_messages[name]

    def setup(self, seed, session):
        bigram = build_bigram()
        stream = message_stream(self.name, seed, self.payload_bytes, max_len=self.max_len)
        pool = [next(stream) for _ in range(max(self.pool_messages.values()))]
        state = {"bigram": bigram, "cover": shuffled_cover(bigram.test, seed), "pool": pool, "codecs": {}}
        for name in CODECS:
            pair = make_pair(name, len(bigram.vocab))
            providers = (runner.CachedProvider(bigram.model), runner.CachedProvider(bigram.model))
            for payload, cfg in pool[: self.pool_messages[name]]:
                session.round_trip(pair, payload, cfg, lambda: providers[0], lambda: providers[1])
            state["codecs"][name] = (pair, providers)
        return state

    def unit(self, state, name, run, session):
        pair, providers = state["codecs"][name]
        payload, cfg = state["pool"][run.units % self.pool_messages[name]]
        sent = session.round_trip(pair, payload, cfg, lambda: providers[0], lambda: providers[1], run)
        self.keep_head(run, sent)

    def scored(self, state, name, run):
        provider = runner.CachedProvider(state["bigram"].model)
        return scored_traces(state["codecs"][name][0][0], run.first, self.scored_steps, provider)

    def surface(self, state, sentence):
        return state["bigram"].vocab.decode(sentence)

    def cover(self, state):
        return state["cover"]


class ZipfCold(Workload):
    """A neural-sized vocabulary that never repeats a context: every step is cold."""

    name = "zipf50k-cold"
    # One set-up takes well under a tenth of a second (mostly the bins
    # codecs' vocabulary shuffle), so many are needed for a steady median.
    setup_repeats = 60
    weights = {"adg": 0.4, "arithmetic": 0.15, "huffman": 0.15, "patient_huffman": 0.15, "bins": 0.15}
    payload_bytes = 8
    max_len = 16
    # A small head lets the evaluation passes start early in the run.
    head_messages = 5
    report_tokens = 150  # about what five messages hold
    # implicit_q regroups a distribution's whole tree, so the evaluation
    # passes score fewer steps here.
    scored_steps = 4

    def setup(self, seed, session):
        return {
            "provider": ZipfProvider(seed),
            "pairs": {name: make_pair(name, VOCAB_SIZE) for name in CODECS},
            "streams": {name: message_stream(self.name, seed, self.payload_bytes, max_len=self.max_len)
                        for name in CODECS},
            "seed": seed,
        }

    def unit(self, state, name, run, session):
        # Each side gets a fresh cache per message, as one CLI invocation
        # per message would; the receiver's is built after the sender's is gone.
        provider = state["provider"]
        payload, cfg = next(state["streams"][name])
        fresh = lambda: runner.CachedProvider(provider)  # noqa: E731
        self.keep_head(run, session.round_trip(state["pairs"][name], payload, cfg, fresh, fresh, run))

    def scored(self, state, name, run):
        provider = runner.CachedProvider(state["provider"])
        return scored_traces(state["pairs"][name][0], run.first, self.scored_steps, provider)

    def surface(self, state, sentence):
        return [str(t) for t in sentence]

    def cover(self, state):
        # The synthetic model's marginal over token ids is uniform (every
        # context draws its ids at random), so cover text is uniform ids.
        rng = random.Random(f"cover:{state['seed']}")
        return [[str(rng.randrange(VOCAB_SIZE)) for _ in range(10)] for _ in range(self.report_tokens // 10)]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (BigramWarm(), ZipfCold())}

"""Command-line surface wiring corpus -> LM -> codec -> metrics pipelines.

Every randomized stage takes its seed from one config block, and the
seeds are echoed into output headers, so two runs with identical configs
produce byte-identical artifacts.  Data goes to files, logs to stderr.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import logging
import random
import sys
from typing import Dict, List, Optional, Sequence

import yaml

from . import baselines, bundled, corpus, lm, metrics, runner
from .bitio import bits_to_bytes, deframe, frame
from .errors import ConfigError, DesyncError, StegoError

log = logging.getLogger("adgstego")

DEFAULT_CONFIG: Dict = {
    "preprocess": {
        "min_len": 5,
        "max_len": 200,
        "docs_per_line": True,
        "min_count": 10,
        "split_ratio": 0.9,
    },
    "lm": {"order": 2, "k": 0.5},
    "codec": {
        "method": "adg",
        "b": 3,
        "k": 3,
        "delta": 1.0,
        "h": 100,
        "min_len": 5,
        "max_len": 200,
        "max_tokens": 1_000_000,
    },
    "seeds": {
        "split": 0,
        "sample": 1,
        "pad": 2,
        "partition": 3,
        "payload": 4,
        "cover": 5,
        "vector": 0,
    },
    "bench": {
        "n_sentences": 500,
        "payload_bits": 64,
        "vector_dim": 100,
        "methods": [
            {"method": "bins", "b": 5},
            {"method": "huffman", "k": 5},
            {"method": "patient_huffman", "k": 3, "delta": 1.0},
            {"method": "arithmetic", "h": 300},
            {"method": "adg"},
        ],
    },
}


def _merge(base: Dict, override: Dict, path: str = "") -> Dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        key_path = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {key_path}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {key_path} must be a mapping")
            out[key] = _merge(base[key], value, key_path)
        else:
            out[key] = _typed(base[key], value, key_path)
    return out


def _typed(default, value, key_path: str):
    """``value`` as the type of ``default``; a float key also takes an int or a string float() reads."""
    kind = type(default)
    if type(value) is kind or (kind is float and type(value) in (int, str)):
        try:
            return kind(value)
        except (OverflowError, ValueError):
            pass
    raise ConfigError(f"config key {key_path} must be of type {kind.__name__}, got {value!r}")


def _parse_yaml(stream, where: str):
    try:
        return yaml.safe_load(stream)
    except yaml.YAMLError as exc:
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError(f"{where} is not valid YAML: {problem}") from exc


def load_config(path: Optional[str], overrides: Sequence[str]) -> Dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        loaded = _parse_yaml(corpus.read_text(path), f"config file {path}") or {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} is not a mapping")
        cfg = _merge(cfg, loaded)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        value = _parse_yaml(raw, f"--set {dotted}")
        node: Dict = {}
        leaf = node
        keys = dotted.split(".")
        for key in keys[:-1]:
            leaf[key] = {}
            leaf = leaf[key]
        leaf[keys[-1]] = value
        cfg = _merge(cfg, node)
    return cfg


def _generation_config(cfg: Dict) -> runner.GenerationConfig:
    codec, seeds = cfg["codec"], cfg["seeds"]
    return runner.GenerationConfig(
        min_len=codec["min_len"], max_len=codec["max_len"], max_tokens=codec["max_tokens"],
        sample_seed=seeds["sample"], pad_seed=seeds["pad"],
    )


def _codec_from_config(spec: Dict, cfg: Dict, vocab_size: int):
    params = {k: v for k, v in spec.items() if k != "method"}
    if spec.get("method") == "bins":
        params.setdefault("partition_seed", cfg["seeds"]["partition"])
    return baselines.make_codec(spec.get("method"), vocab_size, **params)


def _section_codec(cfg: Dict, vocab_size: int):
    # The codec section holds every method's keys; the selected method takes only its own.
    takes = {"method", *baselines.CODEC_PARAMS.get(cfg["codec"]["method"], ())}
    return _codec_from_config({k: v for k, v in cfg["codec"].items() if k in takes}, cfg, vocab_size)


def _load_model(model_path: str, vocab_path: str):
    vocab = corpus.Vocabulary.load(vocab_path)
    model = lm.NGramLM.load(model_path, vocab)
    return model, vocab


def cmd_preprocess(args, cfg: Dict) -> None:
    pre = cfg["preprocess"]
    sentences = corpus.preprocess(
        corpus.read_text(args.input),
        corpus.PreprocessConfig(
            min_len=pre["min_len"], max_len=pre["max_len"], docs_per_line=pre["docs_per_line"]
        ),
    )
    vocab = corpus.build_vocab(sentences, min_count=pre["min_count"])
    train, test = corpus.split(sentences, pre["split_ratio"], cfg["seeds"]["split"])
    corpus.write_corpus(args.out_train, train)
    corpus.write_corpus(args.out_test, test)
    vocab.save(args.out_vocab)
    log.info(
        "preprocessed %d sentences (train=%d test=%d vocab=%d)",
        len(sentences), len(train), len(test), len(vocab),
    )


def cmd_train(args, cfg: Dict) -> None:
    vocab = corpus.Vocabulary.load(args.vocab)
    sentences = [vocab.encode_sentence(s) for s in corpus.read_corpus(args.corpus)]
    model = lm.train_ngram(sentences, cfg["lm"]["order"], cfg["lm"]["k"], vocab)
    model.save(args.out)
    log.info("trained order-%d model over %d sentences", model.order, len(sentences))


def _read_payload(args) -> bytes:
    if args.hex is not None:
        try:
            return bytes.fromhex(args.hex.strip())
        except ValueError as exc:
            raise ConfigError(f"--hex is not a hex string: {exc}") from exc
    with open(args.input, "rb") as fh:
        return fh.read()


def cmd_embed(args, cfg: Dict) -> None:
    model, vocab = _load_model(args.model, args.vocab)
    codec = _section_codec(cfg, len(vocab))
    msg = frame(_read_payload(args))
    gen_cfg = _generation_config(cfg)
    gen_cfg.collect_stats = bool(args.out_trace)
    sentences, trace = runner.embed_text(codec, msg, model, gen_cfg)
    corpus.write_corpus(args.out_stego, (vocab.decode(s) for s in sentences))
    if args.out_trace:
        trace.params["seeds"] = dict(cfg["seeds"])
        trace.save(args.out_trace)
    log.info(
        "embedded %d payload bits into %d sentences / %d tokens",
        trace.payload_bits, len(sentences), trace.total_tokens,
    )


def cmd_extract(args, cfg: Dict) -> None:
    model, vocab = _load_model(args.model, args.vocab)
    codec = _section_codec(cfg, len(vocab))
    sentences = []
    for surface in corpus.read_corpus(args.stego):
        try:
            sentences.append([vocab.encode_token_strict(t) for t in surface])
        except KeyError as exc:
            raise DesyncError(f"stegotext token {exc.args[0]!r} not in the vocabulary") from exc
    payload_bits = deframe(runner.extract_text(codec, sentences, model, _generation_config(cfg)))
    if len(payload_bits) % 8:
        raise DesyncError(f"the frame holds {len(payload_bits)} payload bits, not a whole number of bytes")
    payload = bits_to_bytes(payload_bits)
    if args.hex_out:
        print(payload.hex())
    else:
        with open(args.output, "wb") as fh:
            fh.write(payload)
    log.info("recovered %d payload bytes", len(payload))


def _bench_cell(model, vocab, cfg: Dict, codec, cell_key: str, cover: List[List[str]]):
    n_sentences, payload_bits = cfg["bench"]["n_sentences"], cfg["bench"]["payload_bits"]
    gen_cfg = _generation_config(cfg)
    gen_cfg.collect_stats = True
    sample_seed, pad_seed = gen_cfg.sample_seed, gen_cfg.pad_seed
    digest = hashlib.sha256(f"{cfg['seeds']['payload']}:{cell_key}".encode("utf-8")).digest()
    payload_rng = random.Random(int.from_bytes(digest[:8], "big"))
    provider = runner.CachedProvider(model)
    traces, stego_sentences = [], []
    message_index = 0
    while len(stego_sentences) < n_sentences:
        payload = bytes(
            payload_rng.getrandbits(8) for _ in range(payload_bits // 8)
        )
        gen_cfg.sample_seed = sample_seed + message_index
        gen_cfg.pad_seed = pad_seed + message_index
        sentences, trace = runner.embed_text(codec, frame(payload), provider, gen_cfg)
        traces.append(trace)
        stego_sentences.extend(vocab.decode(s) for s in sentences)
        message_index += 1
    stego_sentences = stego_sentences[:n_sentences]
    report = metrics.report_from_traces(
        traces,
        stego_sentences=stego_sentences,
        cover_sentences=cover[: len(stego_sentences)],
        vector_dim=cfg["bench"]["vector_dim"],
        vector_seed=cfg["seeds"]["vector"],
    )
    return report


# MetricReport fields the bench CSV leaves out: ``eer`` needs a detector's
# accuracy, and the vectorizer is named in a header comment.
_BENCH_OMITTED = ("eer", "vectorizer", "vectorizer_seed")


def _csv_text(name: str, value) -> str:
    if isinstance(value, dict):
        return '"' + json.dumps(value, sort_keys=True).replace('"', "'") + '"'
    if isinstance(value, float):
        return f"{value:.6f}"
    if value is None:
        # kld1_pq is None when some step made it infinite.
        return "inf" if name == "kld1_pq" else ""
    return str(value)


def cmd_bench(args, cfg: Dict) -> None:
    specs = cfg["bench"]["methods"]
    # A spec's keys become make_codec keyword arguments, so they must be
    # strings, and its JSON form keys the cell's payload seed.
    if not all(isinstance(spec, dict) and all(isinstance(key, str) for key in spec) for spec in specs):
        raise ConfigError(f"config key bench.methods must be a list of mappings, got {specs!r}")
    try:
        cell_keys = [json.dumps(spec, sort_keys=True) for spec in specs]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key bench.methods holds a value with no JSON form: {exc}") from exc
    payload_bits, vector_dim = cfg["bench"]["payload_bits"], cfg["bench"]["vector_dim"]
    if payload_bits < 0 or payload_bits % 8:
        raise ConfigError(f"config key bench.payload_bits must be a nonnegative multiple of 8, got {payload_bits}")
    if vector_dim < 1:
        raise ConfigError(f"config key bench.vector_dim must be >= 1, got {vector_dim}")
    model, vocab = _load_model(args.model, args.vocab)
    # Every spec's codec is built before the first cell runs, so a bad spec fails at once.
    codecs = [_codec_from_config(spec, cfg, len(vocab)) for spec in specs]
    test_sentences = corpus.read_corpus(args.corpus)
    cover_rng = random.Random(cfg["seeds"]["cover"])
    cover = list(test_sentences)
    cover_rng.shuffle(cover)
    rows = []
    for codec, cell_key in zip(codecs, cell_keys):
        log.info("bench cell: %s", cell_key)
        rows.append(_bench_cell(model, vocab, cfg, codec, cell_key, cover))
    columns = [f.name for f in dataclasses.fields(metrics.MetricReport) if f.name not in _BENCH_OMITTED]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("# seeds=" + json.dumps(cfg["seeds"], sort_keys=True) + "\n")
        fh.write("# vectorizer=" + metrics.VECTORIZER_ID + "\n")
        fh.write(",".join(columns) + "\n")
        for r in rows:
            fh.write(",".join(_csv_text(name, getattr(r, name)) for name in columns) + "\n")
    log.info("wrote %d bench rows to %s", len(rows), args.out)


def cmd_metrics(args, cfg: Dict) -> None:
    trace = runner.EmbedTrace.load(args.trace)
    stego = corpus.read_corpus(args.stego) if args.stego else None
    cover = corpus.read_corpus(args.cover) if args.cover else None
    report = metrics.report_from_traces(
        [trace],
        stego_sentences=stego,
        cover_sentences=cover[: len(stego)] if (cover and stego) else None,
        acc=args.acc,
        vector_dim=cfg["bench"]["vector_dim"],
        vector_seed=cfg["seeds"]["vector"],
    )
    text = json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adgstego", description=__doc__)
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE", dest="overrides",
        help="override a config key, e.g. --set codec.method=huffman",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="tokenize raw text, build vocab, split")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--out-vocab", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train the built-in n-gram model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="embed a payload into stegotext")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--in", dest="input", help="payload file")
    group.add_argument("--hex", help="payload as a hex string")
    p.add_argument("--out-stego", required=True)
    p.add_argument("--out-trace")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="recover a payload from stegotext")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--stego", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", dest="output", help="payload output file")
    group.add_argument("--hex-out", action="store_true", help="print payload as hex")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("bench", help="run the method grid and emit a metric CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True, help="test split for covertext sampling")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("metrics", help="compute a metric report from artifacts")
    p.add_argument("--trace", required=True)
    p.add_argument("--stego")
    p.add_argument("--cover")
    p.add_argument("--acc", type=float, help="external steganalysis accuracy")
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("toy-corpus", help="print the bundled toy corpus path")
    p.set_defaults(func=lambda args, cfg: print(bundled.toy_corpus_path()))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config, args.overrides)
        args.func(args, cfg)
    except OSError as exc:
        log.error("%s: %s", exc.filename or "file", exc.strerror or exc)
        return 1
    except StegoError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

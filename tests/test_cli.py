"""End-to-end command-line pipeline on the bundled corpus."""

import json
import logging
import math
import subprocess
import sys

import pytest

from adgstego import embed_text, frame, make_codec, runner
from adgstego.bundled import toy_corpus_path
from adgstego.cli import DEFAULT_CONFIG, _generation_config, _load_model, load_config, main
from adgstego.corpus import write_corpus
from adgstego.errors import ConfigError

from conftest import CLI_ENV


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """Artifacts from preprocess + train, shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    corpus_path = subprocess.run(
        [sys.executable, "-m", "adgstego.cli", "toy-corpus"],
        capture_output=True, text=True, check=True, env=CLI_ENV,
    ).stdout.strip()
    assert main(
        [
            "preprocess",
            "--in", corpus_path,
            "--out-train", str(d / "train.txt"),
            "--out-test", str(d / "test.txt"),
            "--out-vocab", str(d / "vocab.tsv"),
        ]
    ) == 0
    assert main(
        [
            "train",
            "--corpus", str(d / "train.txt"),
            "--vocab", str(d / "vocab.tsv"),
            "--out", str(d / "model.json"),
        ]
    ) == 0
    return d


def test_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None, ["lm.order=4", "codec.method=huffman"])
    assert cfg["lm"]["order"] == 4
    assert cfg["codec"]["method"] == "huffman"
    assert DEFAULT_CONFIG["lm"]["order"] == 2  # defaults untouched

    path = tmp_path / "cfg.yaml"
    path.write_text("lm:\n  k: 2.5\n")
    assert load_config(str(path), [])["lm"]["k"] == 2.5

    # A float key reads an int as a float, and YAML 1.1 leaves 1e-3 and inf as strings.
    cfg = load_config(None, ["lm.k=1", "codec.delta=inf"])
    assert type(cfg["lm"]["k"]) is float and cfg["lm"]["k"] == 1.0
    assert cfg["codec"]["delta"] == math.inf
    assert load_config(None, ["lm.k=1e-3"])["lm"]["k"] == 0.001


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        load_config(None, ["lm.nope=1"])
    with pytest.raises(ConfigError):
        load_config(None, ["malformed"])


def test_embed_extract_round_trip(workdir, capsys):
    payload = "deadbeefcafef00d"
    assert main(
        [
            "embed",
            "--model", str(workdir / "model.json"),
            "--vocab", str(workdir / "vocab.tsv"),
            "--hex", payload,
            "--out-stego", str(workdir / "stego.txt"),
            "--out-trace", str(workdir / "trace.ndjson"),
        ]
    ) == 0
    assert main(
        [
            "extract",
            "--model", str(workdir / "model.json"),
            "--vocab", str(workdir / "vocab.tsv"),
            "--stego", str(workdir / "stego.txt"),
            "--hex-out",
        ]
    ) == 0
    assert capsys.readouterr().out.strip() == payload


def test_embed_extract_other_codecs(workdir, capsys):
    payload = "0123456789abcdef"
    for overrides in (
        ["--set", "codec.method=huffman", "--set", "codec.k=5"],
        ["--set", "codec.method=arithmetic", "--set", "codec.h=200"],
        ["--set", "codec.method=bins", "--set", "codec.b=4"],
        ["--set", "codec.method=patient_huffman", "--set", "codec.k=4", "--set", "codec.delta=0.5"],
    ):
        assert main(
            overrides + [
                "embed",
                "--model", str(workdir / "model.json"),
                "--vocab", str(workdir / "vocab.tsv"),
                "--hex", payload,
                "--out-stego", str(workdir / "stego2.txt"),
            ]
        ) == 0
        assert main(
            overrides + [
                "extract",
                "--model", str(workdir / "model.json"),
                "--vocab", str(workdir / "vocab.tsv"),
                "--stego", str(workdir / "stego2.txt"),
                "--hex-out",
            ]
        ) == 0
        assert capsys.readouterr().out.strip() == payload


def test_extract_with_wrong_codec_fails_cleanly(workdir, capsys):
    assert main(
        [
            "embed",
            "--model", str(workdir / "model.json"),
            "--vocab", str(workdir / "vocab.tsv"),
            "--hex", "aabbccdd",
            "--out-stego", str(workdir / "stego3.txt"),
        ]
    ) == 0
    # Extracting with a different codec yields garbage or a clean error,
    # never the payload.
    code = main(
        [
            "--set", "codec.method=huffman", "--set", "codec.k=5",
            "extract",
            "--model", str(workdir / "model.json"),
            "--vocab", str(workdir / "vocab.tsv"),
            "--stego", str(workdir / "stego3.txt"),
            "--hex-out",
        ]
    )
    out = capsys.readouterr().out.strip()
    assert code == 1 or out != "aabbccdd"


def test_missing_file_exits_nonzero(tmp_path):
    assert main(
        [
            "train",
            "--corpus", str(tmp_path / "absent.txt"),
            "--vocab", str(tmp_path / "absent.tsv"),
            "--out", str(tmp_path / "model.json"),
        ]
    ) == 1


@pytest.fixture
def adg_trace(workdir, tmp_path):
    """An adg embedding's trace, written by this fixture rather than by another test."""
    path = tmp_path / "trace.ndjson"
    assert main(
        [
            "embed",
            "--model", str(workdir / "model.json"),
            "--vocab", str(workdir / "vocab.tsv"),
            "--hex", "deadbeefcafef00d",
            "--out-stego", str(tmp_path / "stego.txt"),
            "--out-trace", str(path),
        ]
    ) == 0
    return path


def test_metrics_report_from_trace(adg_trace, capsys):
    assert main(
        [
            "metrics",
            "--trace", str(adg_trace),
            "--acc", "0.7",
        ]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "adg"
    assert report["er"] > 0
    assert report["eer"] == pytest.approx(2 * 0.3 * report["er"])


def test_bench_small_grid(workdir):
    out = workdir / "bench.csv"
    assert main(
        [
            "--set", "bench.n_sentences=8",
            "--set", "bench.methods=[{method: bins, b: 3}, {method: adg}]",
            "bench",
            "--model", str(workdir / "model.json"),
            "--vocab", str(workdir / "vocab.tsv"),
            "--corpus", str(workdir / "test.txt"),
            "--out", str(out),
        ]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# seeds=")
    assert lines[1].startswith("# vectorizer=")
    import csv

    parsed = list(csv.reader(lines[2:]))
    header = parsed[0]
    rows = [dict(zip(header, row)) for row in parsed[1:]]
    by_method = {r["method"]: r for r in rows}
    assert float(by_method["bins"]["er"]) == 3.0  # b bits per token, exactly
    assert float(by_method["adg"]["er"]) > 3.0
    assert float(by_method["adg"]["kld1_qp"]) < float(by_method["bins"]["kld1_qp"])


def test_bad_hex_payload_exits_nonzero(workdir):
    assert main(
        [
            "embed",
            "--model", str(workdir / "model.json"),
            "--vocab", str(workdir / "vocab.tsv"),
            "--hex", "zz",
            "--out-stego", str(workdir / "stego4.txt"),
        ]
    ) == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"record": "step", "token": 4, "bits": 1.0}\n',
        "not a trace\n",
        '{"record": "header", "method": "adg", "params": {}, "frame_bits": 32, '
        '"payload_bits": 0}\n42\n',
    ],
    ids=["no-header", "not-json", "step-not-object"],
)
def test_metrics_on_malformed_trace_exits_nonzero(tmp_path, text):
    path = tmp_path / "trace.ndjson"
    path.write_text(text)
    assert main(["metrics", "--trace", str(path)]) == 1


def _embed_argv(workdir, tmp_path):
    return [
        "embed",
        "--model", str(workdir / "model.json"),
        "--vocab", str(workdir / "vocab.tsv"),
        "--hex", "aabb",
        "--out-stego", str(tmp_path / "stego.txt"),
    ]


def _ragged_frame_extract_argv(workdir, tmp_path):
    # A frame holding 12 payload bits, embedded with the default config.
    model, vocab = _load_model(str(workdir / "model.json"), str(workdir / "vocab.tsv"))
    sentences, _ = embed_text(make_codec("adg", len(vocab)), frame([1, 0] * 6), model,
                              _generation_config(load_config(None, [])))
    write_corpus(str(tmp_path / "stego.txt"), (vocab.decode(s) for s in sentences))
    return [
        "extract",
        "--model", str(workdir / "model.json"),
        "--vocab", str(workdir / "vocab.tsv"),
        "--stego", str(tmp_path / "stego.txt"),
        "--hex-out",
    ]


def _train_argv(workdir, tmp_path):
    return ["train", "--corpus", str(workdir / "train.txt"), "--vocab", str(workdir / "vocab.tsv"),
            "--out", str(tmp_path / "model.json")]


def _preprocess_argv(tmp_path):
    return ["preprocess", "--in", toy_corpus_path(), "--out-train", str(tmp_path / "train.txt"),
            "--out-test", str(tmp_path / "test.txt"), "--out-vocab", str(tmp_path / "vocab.tsv")]


def _model_file_argv(text):
    def build(workdir, tmp_path):
        (tmp_path / "model.json").write_text(text)
        argv = _embed_argv(workdir, tmp_path)
        argv[argv.index("--model") + 1] = str(tmp_path / "model.json")
        return argv
    return build


def _edited_model_argv(edit):
    """Embed with the trained model after ``edit`` changed its JSON document."""
    def build(workdir, tmp_path):
        doc = json.loads((workdir / "model.json").read_text())
        edit(doc)
        return _model_file_argv(json.dumps(doc))(workdir, tmp_path)
    return build


def _bos_successor(token_id):
    def edit(doc):
        doc["contexts"]["1"]["2"][0][0] = token_id  # the first successor of the BOS context
    return edit


def _payload_directory_argv(workdir, tmp_path):
    argv = _embed_argv(workdir, tmp_path)
    at = argv.index("--hex")
    argv[at : at + 2] = ["--in", str(tmp_path)]
    return argv


def _bench_argv(workdir, tmp_path):
    return ["bench", "--model", str(workdir / "model.json"), "--vocab", str(workdir / "vocab.tsv"),
            "--corpus", str(workdir / "test.txt"), "--out", str(tmp_path / "bench.csv")]


def _small_bench_argv(workdir, tmp_path):
    """``bench`` over one fast cell of a few sentences."""
    return (["--set", "bench.n_sentences=4", "--set", "bench.methods=[{method: bins, b: 2}]"]
            + _bench_argv(workdir, tmp_path))


def _trace_argv(header=None, step=None):
    """``metrics --trace`` on a valid one-step trace, with ``header`` and ``step`` fields overridden."""
    def build(workdir, tmp_path):
        rows = [{"record": "header", "method": "adg", "params": {}, "frame_bits": 32, "payload_bits": 0,
                 **(header or {})},
                {"record": "step", "token": 4, "bits": 1.0, "kld_qp": 0.1, "kld_pq": 0.2, "entropy": 1.0,
                 **(step or {})}]
        (tmp_path / "trace.ndjson").write_text("".join(json.dumps(row) + "\n" for row in rows))
        return ["metrics", "--trace", str(tmp_path / "trace.ndjson")]
    return build


def _metrics_argv(workdir, tmp_path):
    (tmp_path / "trace.ndjson").write_text(
        '{"record": "header", "method": "adg", "params": {}, "frame_bits": 32, "payload_bits": 0}\n'
        '{"record": "step", "token": 4, "bits": 1.0, "kld_qp": 0.1, "kld_pq": 0.2, "entropy": 1.0}\n'
    )
    return ["metrics", "--trace", str(tmp_path / "trace.ndjson"),
            "--stego", str(workdir / "test.txt"), "--cover", str(workdir / "test.txt")]


def _extract_argv(workdir, tmp_path):
    return ["extract", "--model", str(workdir / "model.json"), "--vocab", str(workdir / "vocab.tsv"),
            "--stego", str(workdir / "test.txt"), "--hex-out"]


def _not_utf8_argv(build_argv, flag):
    """``build_argv``'s command with the file after ``flag`` replaced by one holding byte 0xff."""
    def build(workdir, tmp_path):
        (tmp_path / "not-utf8.txt").write_bytes(b"one two three four five\n\xff six\n")
        argv = build_argv(workdir, tmp_path)
        argv[argv.index(flag) + 1] = str(tmp_path / "not-utf8.txt")
        return argv
    return build


def _vocab_without_reserved_ids_argv(workdir, tmp_path):
    (tmp_path / "vocab.tsv").write_text("0\tword\t12\n1\tother\t11\n")
    argv = _embed_argv(workdir, tmp_path)
    argv[argv.index("--vocab") + 1] = str(tmp_path / "vocab.tsv")
    return argv


@pytest.mark.parametrize(
    "build_argv",
    [
        _ragged_frame_extract_argv,
        lambda w, t: ["--set", "codec.method=nope"] + _embed_argv(w, t),
        lambda w, t: ["--set", "codec.method=bins", "--set", "codec.b=0"] + _embed_argv(w, t),
        lambda w, t: ["--set", "codec.min_len=abc"] + _embed_argv(w, t),
        lambda w, t: ["--set", "codec.min_len=0"] + _embed_argv(w, t),
        lambda w, t: ["--set", "codec.max_len=0"] + _embed_argv(w, t),
        lambda w, t: ["--set", "codec.max_tokens=0"] + _embed_argv(w, t),
        _vocab_without_reserved_ids_argv,
        lambda w, t: ["--set", "lm.order=abc"] + _train_argv(w, t),
        lambda w, t: ["--set", "lm.order=1"] + _train_argv(w, t),
        lambda w, t: ["--set", "lm.k=0"] + _train_argv(w, t),
        lambda w, t: ["--set", "lm.k=nan"] + _train_argv(w, t),
        lambda w, t: ["--set", "preprocess.split_ratio=1.5"] + _preprocess_argv(t),
        lambda w, t: _metrics_argv(w, t) + ["--acc", "1.5"],
        _model_file_argv("{"),
        _model_file_argv('{"format_version":1}'),
        lambda w, t: ["--set", "lm.order=[1"] + _train_argv(w, t),
        _payload_directory_argv,
        lambda w, t: ["--set", "bench.methods=[5]"] + _bench_argv(w, t),
        lambda w, t: ["--set", "bench.methods=5"] + _bench_argv(w, t),
        lambda w, t: ["--set", "bench.methods=[{method: adg, x: 2020-01-01}]"] + _bench_argv(w, t),
        lambda w, t: ["--set", "bench.payload_bits=12"] + _bench_argv(w, t),
        lambda w, t: ["--set", "bench.payload_bits=-8"] + _bench_argv(w, t),
        lambda w, t: ["--set", "bench.payload_bits=16.9"] + _bench_argv(w, t),
        lambda w, t: ["--set", "codec.min_len=true"] + _embed_argv(w, t),
        lambda w, t: ["--set", "preprocess.docs_per_line=nope"] + _preprocess_argv(t),
        lambda w, t: ["--set", "bench.methods=[{method: huffman, k: 5.9}]"] + _bench_argv(w, t),
        lambda w, t: ["--set", "bench.methods=[{method: arithmetic, h: 300, precison: 40}]"] + _bench_argv(w, t),
        lambda w, t: ["--set", "bench.vector_dim=-1"] + _small_bench_argv(w, t),
        lambda w, t: ["--set", "bench.vector_dim=0"] + _small_bench_argv(w, t),
        lambda w, t: ["--set", "bench.vector_dim=-1"] + _metrics_argv(w, t),
        _edited_model_argv(_bos_successor(99999)),
        _edited_model_argv(_bos_successor(-3)),
        _edited_model_argv(lambda doc: doc.update(vocab_size=5)),
        _edited_model_argv(lambda doc: doc["contexts"]["1"].update({"99999": doc["contexts"]["1"].pop("2")})),
        _edited_model_argv(lambda doc: doc.update(order=1)),
        _edited_model_argv(lambda doc: doc.update(k=0)),
        _trace_argv(step={"bits": "x"}),
        _trace_argv(header={"payload_bits": "abc"}),
        _trace_argv(step={"kld_pq": [1]}),
        _not_utf8_argv(_extract_argv, "--stego"),
        _not_utf8_argv(_train_argv, "--corpus"),
        _not_utf8_argv(_bench_argv, "--corpus"),
        _not_utf8_argv(_metrics_argv, "--stego"),
        _not_utf8_argv(_metrics_argv, "--cover"),
        _not_utf8_argv(lambda w, t: _preprocess_argv(t), "--in"),
        _not_utf8_argv(lambda w, t: ["--config", "", "toy-corpus"], "--config"),
    ],
    ids=["ragged-frame", "unknown-method", "bins-b-zero", "min-len-not-int", "min-len-zero", "max-len-zero",
         "max-tokens-zero", "vocab-without-reserved-ids",
         "lm-order-not-int", "lm-order-one", "lm-k-zero", "lm-k-nan", "split-ratio-above-one",
         "metrics-acc-above-one", "model-not-json", "model-without-fields", "set-value-not-yaml",
         "payload-is-a-directory", "bench-method-not-mapping", "bench-methods-not-list",
         "bench-method-value-not-json", "bench-payload-bits-not-whole-bytes", "bench-payload-bits-negative",
         "bench-payload-bits-float", "min-len-bool", "docs-per-line-not-bool", "bench-method-k-float",
         "bench-method-unknown-parameter", "bench-vector-dim-negative", "bench-vector-dim-zero",
         "metrics-vector-dim-negative",
         "model-successor-id-past-vocab", "model-successor-id-negative",
         "model-vocab-size-wrong", "model-context-id-past-vocab", "model-order-one", "model-k-zero",
         "trace-bits-not-number", "trace-payload-bits-not-int", "trace-kld-not-number", "stego-not-utf8",
         "train-corpus-not-utf8", "bench-corpus-not-utf8", "metrics-stego-not-utf8", "metrics-cover-not-utf8",
         "preprocess-in-not-utf8", "config-not-utf8"],
)
def test_bad_input_exits_with_one_error_line(workdir, tmp_path, caplog, build_argv):
    argv = build_argv(workdir, tmp_path)
    caplog.clear()
    assert main(argv) == 1
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and errors[0].exc_info is None


def test_bench_rejects_a_later_bad_spec_before_any_cell_runs(workdir, tmp_path, caplog, monkeypatch):
    def embed_text(*args, **kwargs):
        raise AssertionError("a cell ran before every spec was checked")

    monkeypatch.setattr(runner, "embed_text", embed_text)
    caplog.clear()
    assert main(["--set", "bench.methods=[{method: adg}, {method: arithmetic, h: 300, precison: 40}]"]
                + _bench_argv(workdir, tmp_path)) == 1
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and errors[0].exc_info is None


@pytest.mark.parametrize("setting", ["bench.vector_dim=0", "bench.payload_bits=16.9", "codec.min_len=true",
                                     "preprocess.docs_per_line=nope"])
def test_config_fault_is_named_before_the_model_loads(tmp_path, caplog, setting):
    absent = str(tmp_path / "absent")
    caplog.clear()
    assert main(["--set", setting, "bench", "--model", absent, "--vocab", absent, "--corpus", absent,
                 "--out", str(tmp_path / "bench.csv")]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and errors[0].startswith("ConfigError: config key " + setting.split("=")[0])

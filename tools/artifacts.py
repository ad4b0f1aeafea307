"""Print SHA-256 digests of the README quick-start artifacts built from one ``src/`` tree.

Runs the README's CLI quick start (toy corpus -> preprocess -> train ->
embed -> extract -> metrics -> bench) with ``python -m adgstego.cli`` in a
fresh temporary directory, importing the package from the given ``src/``
directory, and prints one digest per artifact: the bench CSV, the stego
file, the trace, the extracted hex, the ``metrics`` JSON and the trained
``model.json``.  Two checkouts print the same lines exactly when these
artifacts are byte-identical.  Run from anywhere:

    python3 tools/artifacts.py                  # this checkout's src/
    python3 tools/artifacts.py path/to/other/src
    python3 tools/artifacts.py --check tests/vectors/wire-digests.txt

``--check FILE`` also compares the digests that FILE lists (lines in the
format printed here) and exits 1 if one differs.  The committed file
lists the wire artifacts only, the stego file and the extracted hex: the
bench CSV, the trace and the metrics JSON hold float statistics from
numpy, which may differ between CPUs without any change on the wire, and
the model file is printed so that a change to training or to the model
format shows, not gated.

The whole run takes about 15 s on one core of a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(DEFAULT_SRC),
                        help="directory holding the adgstego package (default: this checkout's src/)")
    parser.add_argument("--check", metavar="FILE",
                        help="exit 1 unless each digest listed in FILE matches the one printed")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    if not (src / "adgstego" / "cli.py").is_file():
        parser.error(f"{src} holds no adgstego package")
    env = {**os.environ, "PYTHONPATH": str(src)}

    with tempfile.TemporaryDirectory(prefix="adgstego-artifacts-") as tmp:
        work = Path(tmp)

        def cli(*argv: str) -> bytes:
            done = subprocess.run([sys.executable, "-m", "adgstego.cli", *argv],
                                  cwd=work, env=env, capture_output=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr.decode("utf-8", "replace"))
                raise SystemExit(f"adgstego {argv[0]} exited with {done.returncode}")
            return done.stdout

        corpus = cli("toy-corpus").decode("utf-8").strip()
        print(f"# adgstego from {src}, toy corpus {corpus}", file=sys.stderr)
        cli("preprocess", "--in", corpus,
            "--out-train", "train.txt", "--out-test", "test.txt", "--out-vocab", "vocab.tsv")
        cli("train", "--corpus", "train.txt", "--vocab", "vocab.tsv", "--out", "model.json")
        cli("embed", "--model", "model.json", "--vocab", "vocab.tsv",
            "--hex", "deadbeefcafef00d", "--out-stego", "stego.txt", "--out-trace", "trace.ndjson")
        extracted = cli("extract", "--model", "model.json", "--vocab", "vocab.tsv",
                        "--stego", "stego.txt", "--hex-out")
        report = cli("metrics", "--trace", "trace.ndjson", "--acc", "0.7")
        cli("bench", "--model", "model.json", "--vocab", "vocab.tsv",
            "--corpus", "test.txt", "--out", "bench.csv")

        artifacts = {
            "bench.csv": (work / "bench.csv").read_bytes(),
            "stego.txt": (work / "stego.txt").read_bytes(),
            "trace.ndjson": (work / "trace.ndjson").read_bytes(),
            "extract --hex-out": extracted,
            "metrics --acc 0.7": report,
            "model.json": (work / "model.json").read_bytes(),
        }
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            expected = [line.rstrip("\n").split("  ", 1) for line in fh if line.strip()]
        wrong = [name for digest, name in expected if digests.get(name) != digest]
        if wrong:
            print(f"digests differ from {args.check}: {', '.join(wrong)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

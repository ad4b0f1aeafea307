"""Corpus preprocessing, vocabulary construction and train/test splitting.

All functions are pure over immutable inputs and deterministic: the
sentence splitter is rule based (terminal ``. ! ?`` followed by
whitespace) instead of delegating to an NLP toolkit, so the same raw text
produces the same sentences on every platform.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import ConfigError, EmptyCorpusError

PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3
PAD, UNK, BOS, EOS = "_pad", "_unk", "_bos", "_eos"
RESERVED = [PAD, UNK, BOS, EOS]

# Keep letters, digits and intra-word apostrophes; sentence-final . ! ?
# survive only long enough to drive splitting.
_TAG_RE = re.compile(r"<[^>]*>")
_DROP_RE = re.compile(r"[^a-z0-9'\s.!?]")
_SPLIT_RE = re.compile(r"[.!?]+(?=\s|$)")
_TERMINAL_RE = re.compile(r"[.!?]")


@dataclass
class PreprocessConfig:
    min_len: int = 5
    max_len: int = 200
    docs_per_line: bool = False  # treat each input line as its own document


def _split_document(doc: str, config: PreprocessConfig) -> List[List[str]]:
    doc = _TAG_RE.sub(" ", doc)
    doc = _DROP_RE.sub(" ", doc)
    sentences = []
    for raw in _SPLIT_RE.split(doc):
        raw = _TERMINAL_RE.sub(" ", raw)
        tokens = [t for t in raw.split() if t.strip("'")]
        if config.min_len <= len(tokens) <= config.max_len:
            sentences.append(tokens)
    return sentences


def preprocess(raw_text: str, config: PreprocessConfig | None = None) -> List[List[str]]:
    """Lowercase, strip HTML tags and punctuation, split into sentences.

    Returns tokenized sentences (surface strings, no BOS/EOS).  Sentences
    outside ``[min_len, max_len]`` content tokens are dropped.  Raises
    :class:`EmptyCorpusError` only when the input itself carries no text;
    an input whose sentences are all filtered out yields an empty list.
    """
    if config is None:
        config = PreprocessConfig()
    if not raw_text.strip():
        raise EmptyCorpusError("input text is empty")
    text = raw_text.lower()
    documents = text.splitlines() if config.docs_per_line else [text]
    out: List[List[str]] = []
    for doc in documents:
        out.extend(_split_document(doc, config))
    return out


class Vocabulary:
    """Bijective id <-> surface mapping with fixed reserved ids 0..3."""

    def __init__(self, tokens: Sequence[str], counts: Dict[str, int]):
        self.id_to_token: List[str] = list(RESERVED) + list(tokens)
        self.token_to_id: Dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ConfigError("duplicate surface forms in vocabulary")
        self.counts = dict(counts)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode_token(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def encode_token_strict(self, token: str) -> int:
        """Lookup without the UNK fallback; KeyError signals a mismatch."""
        return self.token_to_id[token]

    def encode_sentence(self, tokens: Iterable[str]) -> List[int]:
        """Token ids with leading BOS and trailing EOS."""
        return [BOS_ID] + [self.encode_token(t) for t in tokens] + [EOS_ID]

    def decode(self, ids: Iterable[int]) -> List[str]:
        return [self.id_to_token[i] for i in ids]

    def _lines(self) -> List[str]:
        lines = []
        for i, tok in enumerate(self.id_to_token):
            lines.append(f"{i}\t{tok}\t{self.counts.get(tok, 0)}")
        return lines

    def content_hash(self) -> str:
        payload = "\n".join(self._lines()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self._lines()) + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        id_to_token: List[str] = []
        counts: Dict[str, int] = {}
        try:
            with open(path, encoding="utf-8") as fh:
                rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
            rows = [(int(idx), tok, int(count)) for idx, tok, count in rows]
        except ValueError as exc:  # not UTF-8, not three fields, or a non-integer id or count
            raise ConfigError(f"vocabulary file {path} is not id<TAB>token<TAB>count lines: {exc}") from exc
        for idx, tok, count in rows:
            if idx != len(id_to_token):
                raise ConfigError(f"vocabulary file {path} ids out of order at {idx}")
            id_to_token.append(tok)
            counts[tok] = count
        if id_to_token[:4] != RESERVED:
            raise ConfigError(f"vocabulary file {path} lacks the reserved _pad/_unk/_bos/_eos ids")
        return cls(id_to_token[4:], counts)


def build_vocab(sentences: Sequence[Sequence[str]], min_count: int = 10) -> Vocabulary:
    """Count surface forms and keep those occurring at least ``min_count`` times.

    Everything rarer maps to ``_unk``.  Kept tokens are id-ordered by
    descending count, ties broken lexicographically, so the mapping is
    reproducible from the corpus alone.
    """
    if not sentences:
        raise EmptyCorpusError("no sentences to build a vocabulary from")
    counts: Dict[str, int] = {}
    for sent in sentences:
        for tok in sent:
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count and t not in RESERVED),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(kept, counts)


def split(
    sentences: Sequence[Sequence[str]], ratio: float = 0.9, seed: int = 0
) -> Tuple[List[Sequence[str]], List[Sequence[str]]]:
    """Deterministic shuffled split into (train, test) by train fraction."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"train fraction {ratio} outside (0, 1)")
    if len(sentences) < 2:
        raise EmptyCorpusError("need at least 2 sentences to split")
    order = list(range(len(sentences)))
    random.Random(seed).shuffle(order)
    n_train = min(max(round(ratio * len(sentences)), 1), len(sentences) - 1)
    train = [sentences[i] for i in order[:n_train]]
    test = [sentences[i] for i in order[n_train:]]
    return train, test


def write_corpus(path: str, sentences: Iterable[Sequence[str]]) -> None:
    """One sentence per line, space-separated surface tokens."""
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            fh.write(" ".join(sent) + "\n")


def read_text(path: str) -> str:
    """The text of a UTF-8 file; a file that is not UTF-8 raises ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def read_corpus(path: str) -> List[List[str]]:
    return [line.split() for line in read_text(path).split("\n") if line.strip()]

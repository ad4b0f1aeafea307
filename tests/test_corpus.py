"""Preprocessing, vocabulary and split determinism."""

import pytest

from adgstego.corpus import (
    BOS_ID,
    EOS_ID,
    UNK_ID,
    PreprocessConfig,
    Vocabulary,
    build_vocab,
    preprocess,
    read_corpus,
    split,
    write_corpus,
)
from adgstego.errors import ConfigError, EmptyCorpusError


def test_preprocess_strips_tags_case_and_punctuation():
    raw = "This is a <b>GREAT</b> test, truly great stuff! Short one."
    out = preprocess(raw, PreprocessConfig(min_len=1))
    assert out == [
        ["this", "is", "a", "great", "test", "truly", "great", "stuff"],
        ["short", "one"],
    ]


def test_preprocess_keeps_apostrophes_and_digits():
    out = preprocess("It's over 9000 points don't you know.", PreprocessConfig(min_len=1))
    assert out == [["it's", "over", "9000", "points", "don't", "you", "know"]]


def test_preprocess_length_filter():
    raw = "one two three four five six. too short."
    assert preprocess(raw, PreprocessConfig(min_len=5, max_len=200)) == [
        ["one", "two", "three", "four", "five", "six"]
    ]


def test_preprocess_split_needs_boundary_whitespace():
    # An internal dot (e.g. a decimal) does not end a sentence.
    out = preprocess("the value 3.5 rose a lot today.", PreprocessConfig(min_len=1))
    assert out == [["the", "value", "3", "5", "rose", "a", "lot", "today"]]


def test_preprocess_empty_input_raises():
    with pytest.raises(EmptyCorpusError):
        preprocess("   \n  ")


def test_preprocess_all_filtered_is_empty_list():
    assert preprocess("hi there.", PreprocessConfig(min_len=5)) == []


def test_preprocess_docs_per_line():
    raw = "a b c d e f\ng h i j k l"
    cfg = PreprocessConfig(min_len=1, docs_per_line=True)
    assert len(preprocess(raw, cfg)) == 2


def test_build_vocab_order_and_min_count():
    sents = [["b", "a", "a", "c"], ["a", "b", "c"], ["d"]]
    vocab = build_vocab(sents, min_count=2)
    # Reserved ids first, then count desc with lexicographic ties.
    assert vocab.id_to_token[:4] == ["_pad", "_unk", "_bos", "_eos"]
    assert vocab.id_to_token[4:] == ["a", "b", "c"]
    assert "d" not in vocab.token_to_id
    assert vocab.encode_token("d") == UNK_ID


def test_encode_sentence_frames_with_bos_eos():
    vocab = build_vocab([["a", "a"]], min_count=1)
    ids = vocab.encode_sentence(["a", "zzz"])
    assert ids[0] == BOS_ID and ids[-1] == EOS_ID
    assert ids[2] == UNK_ID


def test_encode_token_strict_raises():
    vocab = build_vocab([["a", "a"]], min_count=1)
    with pytest.raises(KeyError):
        vocab.encode_token_strict("zzz")


def test_vocab_save_load_round_trip(tmp_path):
    vocab = build_vocab([["b", "a", "a"], ["b", "c", "c", "c"]], min_count=1)
    path = tmp_path / "vocab.tsv"
    vocab.save(str(path))
    loaded = Vocabulary.load(str(path))
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.content_hash() == vocab.content_hash()


def test_content_hash_tracks_content():
    a = build_vocab([["a", "b"]], min_count=1)
    b = build_vocab([["a", "c"]], min_count=1)
    assert a.content_hash() != b.content_hash()


def test_split_deterministic_and_disjoint():
    sents = [[str(i)] for i in range(100)]
    train1, test1 = split(sents, 0.9, seed=3)
    train2, test2 = split(sents, 0.9, seed=3)
    assert train1 == train2 and test1 == test2
    assert len(train1) == 90 and len(test1) == 10
    flat = {s[0] for s in train1} | {s[0] for s in test1}
    assert len(flat) == 100
    train3, _ = split(sents, 0.9, seed=4)
    assert train3 != train1


def test_split_bounds():
    with pytest.raises(ValueError):
        split([["a"], ["b"]], 1.0)
    with pytest.raises(EmptyCorpusError):
        split([["a"]], 0.5)


def test_corpus_file_round_trip(tmp_path):
    sents = [["a", "b"], ["c", "d", "e"]]
    path = tmp_path / "corpus.txt"
    write_corpus(str(path), sents)
    assert read_corpus(str(path)) == sents


def test_read_corpus_splits_lines_as_text_mode_iteration_does(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes("a b\r\nc\rd\x0ce\n\n  \n\xe9 f\x85g\u2028h".encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        expected = [line.split() for line in fh if line.strip()]
    assert read_corpus(str(path)) == expected == [["a", "b"], ["c"], ["d", "e"], ["\xe9", "f", "g", "h"]]


def test_read_corpus_of_non_utf8_file_names_it(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"caf\xe9 au lait\n")
    with pytest.raises(ConfigError, match="latin1.txt is not UTF-8"):
        read_corpus(str(path))


def test_bundled_corpus_is_usable(toy_sentences, vocab):
    assert len(toy_sentences) > 1000
    assert all(5 <= len(s) <= 200 for s in toy_sentences)
    assert len(vocab) > 100

"""Deterministic generative linguistic steganography: a grouping-based
codec, four reference codecs, an n-gram LM backend and evaluation metrics.
"""

from .adg import ADGCodec, group_count, implicit_q
from .baselines import ArithmeticCodec, BinsCodec, HuffmanCodec, PatientHuffmanCodec, make_codec
from .bitio import BitMessage, deframe, frame, index_to_bits, next_index
from .corpus import PreprocessConfig, Vocabulary, build_vocab, preprocess, split
from .lm import ConditionalDistribution, ExternalProvider, NGramLM, quantize, train_ngram
from .runner import CachedProvider, EmbedTrace, GenerationConfig, embed_text, extract_text

__version__ = "0.1.0"

__all__ = [
    "ADGCodec",
    "ArithmeticCodec",
    "BinsCodec",
    "BitMessage",
    "CachedProvider",
    "ConditionalDistribution",
    "EmbedTrace",
    "ExternalProvider",
    "GenerationConfig",
    "HuffmanCodec",
    "NGramLM",
    "PatientHuffmanCodec",
    "PreprocessConfig",
    "Vocabulary",
    "build_vocab",
    "deframe",
    "embed_text",
    "extract_text",
    "frame",
    "group_count",
    "implicit_q",
    "index_to_bits",
    "make_codec",
    "next_index",
    "preprocess",
    "quantize",
    "split",
    "train_ngram",
]

"""Embedding generation (paper §IV-A): Word2Vec over walk sentences.

The paper trains gensim Word2Vec (skip-gram window 3 for text-to-data, CBOW
window 15 for text-only tasks). We train skip-gram with hierarchical
softmax for all tasks and keep the paper's window sizes — documented
deviation (the paper reports graph-embedding alternatives comparable in
quality, so the training objective is not load-bearing).

:func:`skipgram` is the one trainer: the compiled kernel ``_skipgram.c``,
word2vec.c's update with Spark ML's hyper-parameters, built with ``cc`` on
first use in a process and called through ``ctypes`` on integer token ids.
It trains a fixed number of contiguous sentence shards (four, a constant
of the kernel, not the core count) on one thread each, each on its own
copy of the weights, in rounds of about 256 words per shard; after every
round each changed row becomes the global row plus the sum of the shards'
changes to it, in shard order, and every copy takes the merged row. So the
vectors are a function of the sentences and the seed, on any number of
cores. ``run_tdmatch`` hands it the walks' node indices as they come out
of :func:`repro.core.walks.walk_corpus`. :func:`train_embeddings` (walk
sentences) and :func:`train_token_embeddings` (token sentences, for the
baselines) are DataFrame adapters: one collect of the sentences, the same
trainer, the vectors as a local relation.
"""
from __future__ import annotations

import ctypes
import functools
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graph import pandas_frame

SOURCE = Path(__file__).with_name("_skipgram.c")
# no -march=native or -ffast-math: the vectors must not depend on the CPU
CFLAGS = ("-O3", "-ffp-contract=off", "-pthread", "-shared", "-fPIC")
MAX_CODE_LENGTH = 40
LEARNING_RATE = 0.025  # Spark ML's default stepSize
# sg_train's failure codes
TRAIN_ERRORS = {-1: "ran out of memory", -2: "could not start its threads"}

_i8, _i32, _i64, _f32 = (
    np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
    for t in (np.int8, np.int32, np.int64, np.float32)
)


@functools.lru_cache(maxsize=None)
def _kernel() -> ctypes.CDLL:
    """The compiled kernel, built once per process into a temporary
    directory (the loaded library outlives its file)."""
    cc = shutil.which("cc")
    if cc is None:
        raise RuntimeError(
            "training embeddings needs a C compiler named `cc` on PATH "
            f"to build {SOURCE.name}"
        )
    with tempfile.TemporaryDirectory(prefix="repro-skipgram-") as tmp:
        lib = str(Path(tmp) / "skipgram.so")
        build = subprocess.run(
            [cc, *CFLAGS, "-o", lib, str(SOURCE), "-lm"], capture_output=True, text=True
        )
        if build.returncode != 0:
            raise RuntimeError(f"`cc` failed to build {SOURCE.name}:\n{build.stderr}")
        dll = ctypes.CDLL(lib)
    dll.sg_huffman.argtypes = [ctypes.c_int32, _i64, _i8, _i32, _i32]
    dll.sg_huffman.restype = ctypes.c_int
    dll.sg_train.argtypes = [
        _i32, _i64, ctypes.c_int64, _i8, _i32, _i32, ctypes.c_int32, ctypes.c_int32,
        ctypes.c_int32, ctypes.c_int32, ctypes.c_double, ctypes.c_uint64, _f32, _f32,
    ]
    dll.sg_train.restype = ctypes.c_int
    return dll


def huffman(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(code, point, codelen)`` of the Huffman tree over word counts
    sorted descending: word ``w``'s path from the root is the bits
    ``code[w, :codelen[w]]``, scored against the inner nodes
    ``point[w, :codelen[w]]``."""
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    if (np.diff(counts) > 0).any() or (len(counts) and counts[-1] < 1):
        raise ValueError("counts must be positive and sorted descending")
    n = len(counts)
    code = np.zeros((n, MAX_CODE_LENGTH), dtype=np.int8)
    point = np.zeros((n, MAX_CODE_LENGTH), dtype=np.int32)
    codelen = np.zeros(n, dtype=np.int32)
    rc = _kernel().sg_huffman(n, counts, code, point, codelen)
    if rc != 0:
        raise RuntimeError(
            "out of memory" if rc == -1 else f"a Huffman code is longer than {MAX_CODE_LENGTH} bits"
        )
    return code, point, codelen


def skipgram(
    tokens: np.ndarray,
    offsets: np.ndarray,
    *,
    vector_size: int = 64,
    window: int = 3,
    min_count: int = 1,
    seed: int = 0,
    max_iter: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Skip-gram vectors of the sentences ``tokens[offsets[s]:offsets[s + 1]]``
    of non-negative integer ids -> ``(ids, vectors)``: the ids that occur at
    least ``min_count`` times, by count descending and then id ascending
    (the vocabulary and Huffman order), and their float32 vectors, row for
    row. Tokens under ``min_count`` are dropped from their sentences before
    training, as Spark ML does.
    """
    if vector_size < 1 or window < 1 or max_iter < 1:
        raise ValueError("vector_size, window and max_iter must be positive")
    tokens = np.asarray(tokens)
    offsets = np.asarray(offsets, dtype=np.int64)
    if tokens.size and tokens.min() < 0:
        raise ValueError("token ids must be non-negative")
    if not len(offsets) or offsets[0] != 0 or offsets[-1] != len(tokens) or (np.diff(offsets) < 0).any():
        raise ValueError("offsets must rise from 0 to len(tokens)")
    counts = np.bincount(tokens.astype(np.int64), minlength=0)
    ids = np.flatnonzero(counts >= max(min_count, 1))
    ids = ids[np.argsort(-counts[ids], kind="stable")]
    vectors = np.zeros((len(ids), vector_size), dtype=np.float32)
    if not len(ids):
        return ids, vectors
    rank = np.full(len(counts), -1, dtype=np.int32)
    rank[ids] = np.arange(len(ids), dtype=np.int32)
    words = rank[tokens]
    kept = np.zeros(len(words) + 1, dtype=np.int64)
    np.cumsum(words >= 0, out=kept[1:])
    words, offsets = np.ascontiguousarray(words[words >= 0]), kept[offsets]
    code, point, codelen = huffman(counts[ids])
    syn1 = np.zeros_like(vectors)
    rc = _kernel().sg_train(
        words, offsets, len(offsets) - 1, code, point, codelen, len(ids), vector_size,
        window, max_iter, LEARNING_RATE, seed % 2**64, vectors, syn1,
    )
    if rc != 0:
        raise RuntimeError(f"the skip-gram kernel {TRAIN_ERRORS.get(rc, f'failed with code {rc}')}")
    return ids, vectors


def vector_rows(names, vectors: np.ndarray, col: str) -> pd.DataFrame:
    """pandas(col, vector) of named float32 vectors, as float64 arrays."""
    return pd.DataFrame({col: names, "vector": list(vectors.astype(np.float64))})


def _train_sentences(sentences: DataFrame, col: str, out_col: str, **kw) -> DataFrame:
    """The adapters' path: collect the column ``col`` of token arrays in
    one action, number its distinct tokens in sorted order, train, and
    return DataFrame(out_col, vector) as a local relation."""
    sents = [s for s in sentences.select(col).toPandas()[col] if s is not None]
    flat = np.concatenate([np.zeros(0, dtype=object)] + [np.asarray(s, dtype=object) for s in sents])
    tokens, names = pd.factorize(flat, sort=True)
    offsets = np.zeros(len(sents) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sents], out=offsets[1:])
    ids, vectors = skipgram(tokens, offsets, **kw)
    return pandas_frame(
        sentences.sparkSession, vector_rows(names[ids], vectors, out_col),
        f"{out_col} string, vector array<double>",
    )


def train_embeddings(
    walks: DataFrame,
    *,
    vector_size: int = 64,
    window: int = 3,
    min_count: int = 1,
    seed: int = 0,
    max_iter: int = 1,
) -> DataFrame:
    """Train Word2Vec on walk sentences -> DataFrame(node, vector).

    ``walks`` must have a column ``walk: array<string>``. On the walks of
    :func:`repro.core.walks.generate_walks` this gives the vectors that
    :func:`skipgram` gives on the same walks as node indices. Only the
    benchmark's traced run (``tdbench/stages.py``) calls it.
    """
    return _train_sentences(
        walks, "walk", "node", vector_size=vector_size, window=window,
        min_count=min_count, seed=seed, max_iter=max_iter,
    )


def train_token_embeddings(
    sentences: DataFrame,
    *,
    tokens_col: str = "tokens",
    vector_size: int = 64,
    window: int = 5,
    min_count: int = 1,
    seed: int = 0,
    max_iter: int = 1,
) -> DataFrame:
    """Word2Vec over plain token sentences (baselines / background model).

    Returns DataFrame(word, vector: array<double>).
    """
    return _train_sentences(
        sentences, tokens_col, "word", vector_size=vector_size, window=window,
        min_count=min_count, seed=seed, max_iter=max_iter,
    )


def mean_pool(doc_tokens: DataFrame, word_vectors: DataFrame, *, id_col: str = "doc") -> DataFrame:
    """Document embedding = mean of in-vocabulary token vectors [38].

    ``doc_tokens``: DataFrame(id_col, token). ``word_vectors``: DataFrame
    (word, vector). Documents with no in-vocabulary token are dropped
    (callers treat them as unmatched).
    """
    joined = doc_tokens.join(
        word_vectors.withColumnRenamed("word", "token"), "token"
    )
    return (
        joined.groupBy(id_col)
        .agg(F.collect_list("vector").alias("_vs"))
        .select(
            id_col,
            F.expr(
                "transform(sequence(0, size(_vs[0]) - 1), "
                "i -> aggregate(_vs, cast(0.0 as double), (acc, v) -> acc + v[i]) / size(_vs))"
            ).alias("vector"),
        )
    )

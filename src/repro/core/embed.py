"""Embedding generation (paper §IV-A): Word2Vec over walk sentences.

The paper trains gensim Word2Vec (skip-gram window 3 for text-to-data, CBOW
window 15 for text-only tasks). We train skip-gram with hierarchical
softmax for all tasks and keep the paper's window sizes — documented
deviation (the paper reports graph-embedding alternatives comparable in
quality, so the training objective is not load-bearing).

:func:`skipgram` is the one trainer: the compiled kernel ``_skipgram.c``,
word2vec.c's update with Spark ML's hyper-parameters, built with ``cc``
at most once per (source bytes, ``CFLAGS``, compiler) into ``__pycache__``
beside the source, loaded from there by every later process, and called
through ``ctypes`` on integer token ids.
It trains a fixed number of contiguous sentence shards (four, a constant
of the kernel, not the core count) on one thread each, each on its own
copy of the weights, in rounds of about 256 words per shard, or about as
many words as the vocabulary has when that is fewer; after every round
each changed row becomes the global row plus the sum of the shards'
changes to it, in shard order, and every copy takes the merged row. So the
vectors are a function of the sentences and the seed, on any number of
cores. ``run_tdmatch`` hands it the walks' node indices as they come out
of :func:`repro.core.walks.walk_corpus`. :func:`token_vectors` trains it on
sentences of string tokens (the baselines' word vectors);
:func:`train_embeddings` is its DataFrame adapter for walk sentences.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

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


def _library(cc: str) -> Path:
    """The kernel's shared library in the build cache, ``__pycache__``
    beside ``SOURCE``, keyed by the source bytes, ``CFLAGS`` and the
    compiler (its real path, size and mtime). A missing build is written
    to a temporary file there and renamed onto its keyed name, so no
    process loads a half-written library and builders that race each end
    with a whole one; a new build removes the other keys' libraries."""
    compiler = os.path.realpath(cc)
    stat = os.stat(compiler)
    key = hashlib.sha256(
        b"\0".join([SOURCE.read_bytes(), " ".join(CFLAGS).encode(),
                    f"{compiler} {stat.st_size} {stat.st_mtime_ns}".encode()])
    ).hexdigest()[:16]
    cache = SOURCE.parent / "__pycache__"
    lib = cache / f"{SOURCE.stem}.{key}.so"
    if lib.exists():
        return lib
    cache.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{SOURCE.stem}.", suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        build = subprocess.run(
            [cc, *CFLAGS, "-o", tmp, str(SOURCE), "-lm"], capture_output=True, text=True
        )
        if build.returncode != 0:
            raise RuntimeError(f"`cc` failed to build {SOURCE.name}:\n{build.stderr}")
        os.chmod(tmp, SOURCE.stat().st_mode & 0o777)  # mkstemp's 0600 would hide it from other users
        os.replace(tmp, lib)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    for old in cache.glob(f"{SOURCE.stem}.*.so"):
        if old != lib:  # a loaded library stays mapped after its file goes
            old.unlink(missing_ok=True)
    return lib


@functools.lru_cache(maxsize=None)
def _kernel() -> ctypes.CDLL:
    """The compiled kernel, loaded once per process from the build cache
    (:func:`_library`); ``cc`` runs only when the cache has no build of
    this source, these flags and this compiler."""
    cc = shutil.which("cc")
    if cc is None:
        raise RuntimeError(
            "training embeddings needs a C compiler named `cc` on PATH "
            f"to build {SOURCE.name}"
        )
    dll = ctypes.CDLL(str(_library(cc)))
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


def token_vectors(sentences, **kw) -> Tuple[np.ndarray, np.ndarray]:
    """``(words, vectors)`` of :func:`skipgram` over sentences of string
    tokens, in the given order: the distinct tokens are numbered in sorted
    order, and ``words`` and the float32 ``vectors`` are in the kernel's
    vocabulary order, row for row. ``kw`` are :func:`skipgram`'s."""
    flat = np.concatenate([np.zeros(0, dtype=object)] + [np.asarray(s, dtype=object) for s in sentences])
    tokens, names = pd.factorize(flat, sort=True)
    offsets = np.zeros(len(sentences) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sentences], out=offsets[1:])
    ids, vectors = skipgram(tokens, offsets, **kw)
    return names[ids], vectors


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

    ``walks`` must have a column ``walk: array<string>``; it is collected
    in one action, trained by :func:`token_vectors` and returned as a local
    relation. On the walks of :func:`repro.core.walks.generate_walks` this
    gives the vectors that :func:`skipgram` gives on the same walks as node
    indices. Only the benchmark's traced run (``tdbench/stages.py``) calls
    it.
    """
    sents = [s for s in walks.select("walk").toPandas()["walk"] if s is not None]
    names, vectors = token_vectors(
        sents, vector_size=vector_size, window=window, min_count=min_count, seed=seed,
        max_iter=max_iter,
    )
    return pandas_frame(
        walks.sparkSession, vector_rows(names, vectors, "node"), "node string, vector array<double>"
    )

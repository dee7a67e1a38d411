"""Shared plumbing for baselines: document views, tokens, word vectors and
mean-pooled document vectors.

Baselines operate on flat documents, not on the graph. A *document view* is
a DataFrame(doc: string, text: string). Tables are serialized to text with
the ``[COL] attr [VAL] value`` convention the paper borrows from Ditto.
Like the pipeline, the baselines collect each view once and do the rest on
the driver: tokens (``content_tokens``), Word2Vec (``core.embed``),
pooling and ranking (``core.match.top_k_rows``).
"""
from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.embed import token_vectors
from ..core.graph import TableCorpus
from ..core.match import top_k_rows
from ..core.preprocess import content_tokens

WordVectors = Dict[str, np.ndarray]  # word -> float64 vector


def serialize_table(corpus: TableCorpus) -> DataFrame:
    """TableCorpus -> (doc, text) rows serialized as "[COL] a [VAL] v ..."."""
    parts = []
    for a in corpus.attr_cols:
        parts.extend([F.lit(f"[COL] {a} [VAL]"), F.col(a).cast("string")])
    return corpus.df.select(
        F.col(corpus.id_col).cast("string").alias("doc"),
        F.concat_ws(" ", *parts).alias("text"),
    )


def text_view(corpus) -> DataFrame:
    """Any corpus -> (doc, text); tables are serialized."""
    if corpus.kind == "table":
        return serialize_table(corpus)
    return corpus.df.select(
        F.col(corpus.id_col).cast("string").alias("doc"),
        F.col(corpus.text_col).alias("text"),
    )


def doc_tokens(corpus) -> pd.DataFrame:
    """pandas(doc, tokens) of a corpus' text view, collected in one action
    and tokenized on the driver, stop-words removed and stemmed.

    ``[COL]``/``[VAL]`` markers survive as tokens ("col"/"val"), as they do
    for the serialized baselines in the paper.
    """
    pdf = text_view(corpus).toPandas()
    return pd.DataFrame({"doc": pdf["doc"], "tokens": [content_tokens(t or "") for t in pdf["text"]]})


def truth_pairs(truth: DataFrame) -> pd.DataFrame:
    """pandas(query, target) of a ground-truth DataFrame, ids as strings."""
    return truth.select(F.col("query").cast("string"), F.col("target").cast("string")).toPandas()


def split_folds(queries: Sequence[str], n_folds: int, seed: int) -> List[List[str]]:
    """``queries`` in a seeded random order, dealt into ``n_folds`` folds."""
    order = list(np.random.default_rng(seed).permutation(queries))
    return [order[i::n_folds] for i in range(n_folds)]


def word_vectors(sentences, **kw) -> WordVectors:
    """Skip-gram word vectors of token sentences (``core.embed.token_vectors``;
    ``kw`` are ``skipgram``'s), as float64."""
    words, vectors = token_vectors(list(sentences), **kw)
    return dict(zip(words, vectors.astype(np.float64)))


def mean_vector(tokens: Iterable[str], wv: WordVectors) -> Optional[np.ndarray]:
    """Mean of the in-vocabulary token vectors [38], or None when there is
    none."""
    vs = [wv[t] for t in tokens if t in wv]
    return np.mean(vs, axis=0) if vs else None


def _fallback_vector(doc: str, dim: int) -> np.ndarray:
    """A deterministic near-zero vector for a document with no
    in-vocabulary token, so it still ranks (badly) rather than vanishing,
    as it would under a real pre-trained encoder."""
    return np.random.default_rng(zlib.crc32(doc.encode())).normal(0, 0.01, dim)


def doc_vectors(docs: pd.DataFrame, wv: WordVectors) -> pd.DataFrame:
    """pandas(id, vector) of documents pandas(doc, tokens): each one's
    :func:`mean_vector`, or its ``_fallback_vector``."""
    dim = len(next(iter(wv.values())))
    vectors = []
    for doc, tokens in zip(docs["doc"], docs["tokens"]):
        v = mean_vector(tokens, wv)
        vectors.append(_fallback_vector(doc, dim) if v is None else v)
    return pd.DataFrame({"id": docs["doc"], "vector": vectors})


def top_k_scores(scored: pd.DataFrame, *, k: int) -> pd.DataFrame:
    """pandas(query, target, score, rank) of scored pairs
    pandas(query, target, score): rank 1..k of each query's targets by
    descending score, ties by target id."""
    ranked = scored.sort_values(["query", "score", "target"], ascending=[True, False, True])
    ranked["rank"] = (ranked.groupby("query").cumcount() + 1).astype(np.int32)
    return ranked[ranked["rank"] <= k].reset_index(drop=True)


def pooled_rank(query: pd.DataFrame, target: pd.DataFrame, wv: WordVectors, *, k: int) -> pd.DataFrame:
    """pandas(query, target, score, rank): the top-k targets of each query
    document by the cosine of their :func:`doc_vectors`."""
    return top_k_rows(doc_vectors(query, wv), doc_vectors(target, wv), k=k)

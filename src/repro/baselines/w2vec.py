"""W2VEC baseline (paper §V, "training-based"): Word2Vec trained on the
task's own documents (both corpora serialized to sentences), documents
embedded as the mean of their token vectors, matched by cosine top-k.

This is the paper's weakest trained baseline: serialization loses the
structural dependencies the graph keeps (§IV-A discussion), which is why
its results are poor on text-to-data tasks.
"""
from __future__ import annotations

from typing import Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.match import matches_frame
from .common import WordVectors, doc_tokens, pooled_rank, word_vectors

W2Vec = Tuple[pd.DataFrame, pd.DataFrame, WordVectors]  # query docs, target docs, vectors


def w2vec_train(
    query_corpus, target_corpus, *, vector_size: int = 64, window: int = 5, seed: int = 0
) -> W2Vec:
    """Both corpora tokenized (pandas(doc, tokens)) and the word vectors
    trained on their sentences, query documents first."""
    q, t = doc_tokens(query_corpus), doc_tokens(target_corpus)
    wv = word_vectors(
        [*q["tokens"], *t["tokens"]], vector_size=vector_size, window=window, min_count=1, seed=seed
    )
    return q, t, wv


def w2vec_rank(trained: W2Vec, *, k: int) -> pd.DataFrame:
    """pandas(query, target, score, rank) by mean-pooled word vectors."""
    q, t, wv = trained
    return pooled_rank(q, t, wv, k=k)


def w2vec_match(
    spark: SparkSession,
    query_corpus,
    target_corpus,
    *,
    k: int = 20,
    vector_size: int = 64,
    window: int = 5,
    seed: int = 0,
) -> DataFrame:
    """Train-on-task Word2Vec matcher -> (query, target, score, rank)."""
    trained = w2vec_train(query_corpus, target_corpus, vector_size=vector_size, window=window, seed=seed)
    return matches_frame(spark, w2vec_rank(trained, k=k))

"""D2VEC baseline: Doc2Vec-DBOW substitute (paper uses gensim Doc2Vec).

DBOW learns a document vector that predicts the document's words. With only
a skip-gram Word2Vec trainer (``core.embed``), we reproduce the objective by
injecting the document-id token into the document's token stream every
``inject_every`` positions: skip-gram then trains the id token against all
its word contexts — the same "doc vector predicts words" gradient. The
document embedding is the learned id-token vector; a document with no
tokens gets none and is not ranked.
"""
from __future__ import annotations

from typing import List, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.match import matches_frame, top_k_rows
from .common import doc_tokens, word_vectors

_DOC_PREFIX = "docid::"

D2Vec = Tuple[pd.DataFrame, pd.DataFrame]  # pandas(id, vector) of the query and target docs


def _inject(tokens: List[str], doc_tok: str, every: int) -> List[str]:
    """``tokens`` with ``doc_tok`` before every ``every``-th one."""
    return [x for i, t in enumerate(tokens) for x in ((doc_tok, t) if i % every == 0 else (t,))]


def d2vec_train(
    query_corpus,
    target_corpus,
    *,
    vector_size: int = 64,
    window: int = 5,
    inject_every: int = 2,
    max_iter: int = 3,
    seed: int = 0,
) -> D2Vec:
    """The query and target documents' id-token vectors.

    The doc token is injected every ``inject_every`` positions and training
    runs ``max_iter`` epochs — dense enough that the id vector really
    aggregates the document's word contexts (gensim's DBOW trains the doc
    vector against every word; this approximates that gradient budget).
    """
    sides = {"q": doc_tokens(query_corpus), "t": doc_tokens(target_corpus)}
    wv = word_vectors(
        [
            _inject(tokens, f"{_DOC_PREFIX}{side}::{doc}", inject_every)
            for side, docs in sides.items()
            for doc, tokens in zip(docs["doc"], docs["tokens"])
        ],
        vector_size=vector_size, window=window, min_count=1, seed=seed, max_iter=max_iter,
    )

    def side_vectors(side: str) -> pd.DataFrame:
        pre = f"{_DOC_PREFIX}{side}::"
        rows = [(w[len(pre):], v) for w, v in wv.items() if w.startswith(pre)]
        return pd.DataFrame(rows, columns=["id", "vector"])

    return side_vectors("q"), side_vectors("t")


def d2vec_rank(trained: D2Vec, *, k: int) -> pd.DataFrame:
    """pandas(query, target, score, rank) by the cosine of the id vectors."""
    return top_k_rows(*trained, k=k)


def d2vec_match(
    spark: SparkSession,
    query_corpus,
    target_corpus,
    *,
    k: int = 20,
    vector_size: int = 64,
    window: int = 5,
    inject_every: int = 2,
    max_iter: int = 3,
    seed: int = 0,
) -> DataFrame:
    """DBOW-style matcher -> (query, target, score, rank)."""
    trained = d2vec_train(
        query_corpus, target_corpus, vector_size=vector_size, window=window,
        inject_every=inject_every, max_iter=max_iter, seed=seed,
    )
    return matches_frame(spark, d2vec_rank(trained, k=k))

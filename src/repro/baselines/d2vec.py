"""D2VEC baseline: Doc2Vec-DBOW substitute (paper uses gensim Doc2Vec).

DBOW learns a document vector that predicts the document's words. With only
a skip-gram Word2Vec trainer (``core.embed``), we reproduce the objective by
injecting the document-id token into the document's token stream every
``window`` positions: skip-gram then trains the id token against all its
word contexts — the same "doc vector predicts words" gradient. The document
embedding is the learned id-token vector.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.embed import train_token_embeddings
from ..core.match import top_k_matches
from .common import doc_tokens, text_view

_DOC_PREFIX = "docid::"


def _inject(view: DataFrame, *, side: str, window: int) -> DataFrame:
    toks = doc_tokens(view)
    return toks.select(
        F.concat(F.lit(_DOC_PREFIX + side + "::"), "doc").alias("doc_tok"), "tokens"
    ).select(
        F.expr(
            "flatten(transform(tokens, (t, i) -> "
            f"CASE WHEN i % {window} = 0 THEN array(doc_tok, t) ELSE array(t) END))"
        ).alias("tokens")
    )


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
    """DBOW-style matcher -> (query, target, score, rank).

    The doc token is injected every ``inject_every`` positions and training
    runs ``max_iter`` epochs — dense enough that the id vector really
    aggregates the document's word contexts (gensim's DBOW trains the doc
    vector against every word; this approximates that gradient budget).
    """
    qv, tv = text_view(query_corpus), text_view(target_corpus)
    corpus = _inject(qv, side="q", window=inject_every).unionByName(
        _inject(tv, side="t", window=inject_every)
    )
    wv = train_token_embeddings(
        corpus, vector_size=vector_size, window=window, min_count=1,
        seed=seed, max_iter=max_iter,
    ).cache()

    def _side(side: str) -> DataFrame:
        pre = _DOC_PREFIX + side + "::"
        return (
            wv.where(F.col("word").startswith(pre))
            .select(F.expr(f"substring(word, {len(pre) + 1})").alias("node"), "vector")
        )

    return top_k_matches(_side("q"), _side("t"), k=k)

"""The "pre-trained on generic corpora" substrate and the S-BE substitute.

The paper's pre-trained baselines (SentenceBERT, Wikipedia2Vec) are trained
on web-scale generic text: strong on common words, blind to domain-specific
vocabulary. Offline we reproduce that *property* (the thing the paper's
comparisons hinge on) by training Word2Vec on a large synthetic general
corpus over ``GENERAL_WORDS`` — with synonym-group members used
interchangeably in the same contexts, so known synonyms genuinely land close
in the space, as they do in Wikipedia2Vec.

``sbe_match`` is the SentenceBERT stand-in: sentence embedding = mean of
background word vectors; tokens outside the background vocabulary (all
domain pseudo-words, entity names, numbers) contribute nothing. Documents
with zero in-vocabulary tokens get a deterministic pseudo-random vector so
they still produce (bad) rankings rather than vanishing, like a real
pre-trained encoder would.
"""
from __future__ import annotations

import zlib
from typing import Iterable, Optional

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.embed import mean_pool, train_token_embeddings
from ..core.match import top_k_matches
from ..datasets.common import GENERAL_WORDS, SYNONYM_GROUPS, SYNONYM_WORDS
from ..core.preprocess import stem
from .common import exploded_tokens, text_view

_CACHE: dict = {}


def background_sentences(rng: np.random.Generator, n: int) -> list:
    """Generic-corpus sentences with topical structure.

    Real pre-training corpora have topical co-occurrence; random word soup
    would give pure-noise vectors. Words are partitioned into topics and a
    sentence draws mostly from one topic (plus global words), so same-topic
    words — and synonym-group members, which swap freely within a sentence
    slot — end up with genuinely close vectors.
    """
    syn_lookup = {}
    for g in SYNONYM_GROUPS:
        for w in g:
            syn_lookup[w] = g
    vocab = GENERAL_WORDS + [w for w in SYNONYM_WORDS if w not in set(GENERAL_WORDS)]
    n_topics = 20
    topics = [vocab[i::n_topics] for i in range(n_topics)]
    out = []
    for _ in range(n):
        topic = topics[int(rng.integers(n_topics))]
        length = int(rng.integers(6, 14))
        sent = [
            topic[int(rng.integers(len(topic)))]
            if rng.random() < 0.75
            else vocab[int(rng.integers(len(vocab)))]
            for _ in range(length)
        ]
        sent = [
            syn_lookup[w][int(rng.integers(len(syn_lookup[w])))] if w in syn_lookup else w
            for w in sent
        ]
        out.append([stem(w) for w in sent])
    return out


def background_model(
    spark: SparkSession,
    *,
    n_sentences: int = 6000,
    vector_size: int = 64,
    seed: int = 0,
) -> DataFrame:
    """Word vectors of the general-domain background model (cached per
    session — pre-trained models are trained once, not per task)."""
    key = (id(spark), n_sentences, vector_size, seed)
    if key in _CACHE:
        return _CACHE[key]
    rng = np.random.default_rng(seed)
    sents = background_sentences(rng, n_sentences)
    sdf = spark.createDataFrame(pd.DataFrame({"tokens": sents}))
    vecs = train_token_embeddings(
        sdf, vector_size=vector_size, window=5, min_count=2, seed=seed, max_iter=1
    ).cache()
    vecs.count()
    _CACHE[key] = vecs
    return vecs


def _fallback_vector(doc: str, dim: int) -> list:
    rng = np.random.default_rng(zlib.crc32(doc.encode()))
    return [float(x) for x in rng.normal(0, 0.01, dim)]


def doc_embeddings(
    view: DataFrame, word_vectors: DataFrame, *, do_stem: bool = True
) -> DataFrame:
    """(doc, text) -> (doc, vector) mean-pooled; OOV-only docs get a
    deterministic near-zero fallback vector."""
    spark = view.sparkSession
    toks = exploded_tokens(view, do_stem=do_stem)
    pooled = mean_pool(toks, word_vectors, id_col="doc")
    dim = len(word_vectors.select("vector").first()["vector"])
    missing = view.select("doc").join(pooled.select("doc"), "doc", "left_anti")

    @F.udf("array<double>")
    def _fb(doc):
        return _fallback_vector(doc, dim)

    return pooled.unionByName(missing.select("doc", _fb("doc").alias("vector")))


def sbe_match(
    spark: SparkSession,
    query_corpus,
    target_corpus,
    *,
    k: int = 20,
    seed: int = 0,
    word_vectors: Optional[DataFrame] = None,
) -> DataFrame:
    """S-BE substitute: rank targets by cosine of mean-pooled background
    embeddings. Returns (query, target, score, rank)."""
    wv = word_vectors if word_vectors is not None else background_model(spark, seed=seed)
    q = doc_embeddings(text_view(query_corpus), wv).withColumnRenamed("doc", "node")
    t = doc_embeddings(text_view(target_corpus), wv).withColumnRenamed("doc", "node")
    return top_k_matches(q, t, k=k)

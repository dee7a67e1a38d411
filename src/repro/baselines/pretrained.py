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
with zero in-vocabulary tokens get a deterministic pseudo-random vector
(``common._fallback_vector``).
"""
from __future__ import annotations

import functools

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.match import matches_frame
from ..core.preprocess import stem
from ..datasets.common import GENERAL_WORDS, SYNONYM_GROUPS, SYNONYM_WORDS
from .common import WordVectors, doc_tokens, pooled_rank, word_vectors


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


@functools.lru_cache(maxsize=None)
def background_model(*, n_sentences: int = 6000, vector_size: int = 64, seed: int = 0) -> WordVectors:
    """Word vectors of the general-domain background model (cached per
    process — pre-trained models are trained once, not per task)."""
    sents = background_sentences(np.random.default_rng(seed), n_sentences)
    return word_vectors(sents, vector_size=vector_size, window=5, min_count=2, seed=seed, max_iter=1)


def sbe_rank(query_corpus, target_corpus, wv: WordVectors, *, k: int) -> pd.DataFrame:
    """pandas(query, target, score, rank) by the cosine of the documents'
    mean-pooled background vectors. S-BE has no train step: the corpora are
    tokenized here."""
    return pooled_rank(doc_tokens(query_corpus), doc_tokens(target_corpus), wv, k=k)


def sbe_match(
    spark: SparkSession, query_corpus, target_corpus, *, k: int = 20, seed: int = 0
) -> DataFrame:
    """S-BE substitute: rank targets by cosine of mean-pooled background
    embeddings. Returns (query, target, score, rank)."""
    return matches_frame(spark, sbe_rank(query_corpus, target_corpus, background_model(seed=seed), k=k))

"""Supervised matcher baselines: DITTO*, DEEP-M*, TAPAS*, L-BE*.

All are substitutes for fine-tuned transformers (DESIGN.md §4) built on the
shared ``kfold_rank`` harness with baseline-specific feature families:

* **DITTO*** — entity matcher over ``[COL]/[VAL]``-serialized pairs; purely
  lexical pair features (the serialized-text signal Ditto consumes).
* **DEEP-M*** — DeepMatcher-style: features from embeddings *trained on the
  task corpora* (its RNN/attention summarizers are fed fastText trained
  in-domain) plus overlap.
* **TAPAS*** — table-pre-trained: features from the *general background*
  embeddings over (sentence, serialized row) — pre-trained on generic
  corpora, fine-tuned on the 60% labels; inherits domain-vocabulary
  blindness, the failure the paper reports.
* **L-BE*** — BERT-large fine-tuned for multi-label classification
  (Audit task): a trained Rocchio/centroid multi-label classifier over
  TF-IDF — supervised, strongest at K=1, degrades for documents with many
  labels (the paper's observed shape).

Each has a train step (``*_train``) and a rank step (``kfold_rank``,
``lbe_rank``); its ``*_match`` composes the two.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.match import matches_frame
from .common import doc_tokens, split_folds, top_k_scores, truth_pairs
from .features import PairFeaturizer, tfidf
from .pretrained import background_model
from .rank import KFold, kfold_rank, kfold_train
from .w2vec import w2vec_train


def ditto_train(
    spark: SparkSession, query_corpus, target_corpus, truth: DataFrame,
    *, seed: int = 0, n_folds: int = 5,
) -> KFold:
    fz = PairFeaturizer(
        doc_tokens(query_corpus), doc_tokens(target_corpus),
        features=["tfidf_cos", "jaccard", "rare", "num_match"],
    )
    return kfold_train(spark, fz, truth, seed=seed, n_folds=n_folds)


def ditto_match(
    spark: SparkSession, query_corpus, target_corpus, truth: DataFrame,
    *, k: int = 20, seed: int = 0, n_folds: int = 5,
) -> DataFrame:
    trained = ditto_train(spark, query_corpus, target_corpus, truth, seed=seed, n_folds=n_folds)
    return matches_frame(spark, kfold_rank(trained, k=k))


def deepmatcher_train(
    spark: SparkSession, query_corpus, target_corpus, truth: DataFrame,
    *, seed: int = 0, n_folds: int = 5, vector_size: int = 64,
) -> KFold:
    """Its own embeddings are W2VEC's word vectors (window 5)."""
    q, t, own = w2vec_train(query_corpus, target_corpus, vector_size=vector_size, seed=seed)
    fz = PairFeaturizer(q, t, features=["own_cos", "jaccard", "overlap"], own_vectors=own)
    return kfold_train(spark, fz, truth, seed=seed, n_folds=n_folds)


def deepmatcher_match(
    spark: SparkSession, query_corpus, target_corpus, truth: DataFrame,
    *, k: int = 20, seed: int = 0, n_folds: int = 5, vector_size: int = 64,
) -> DataFrame:
    trained = deepmatcher_train(
        spark, query_corpus, target_corpus, truth, seed=seed, n_folds=n_folds, vector_size=vector_size
    )
    return matches_frame(spark, kfold_rank(trained, k=k))


def tapas_train(
    spark: SparkSession, query_corpus, target_corpus, truth: DataFrame,
    *, seed: int = 0, n_folds: int = 5,
) -> KFold:
    fz = PairFeaturizer(
        doc_tokens(query_corpus), doc_tokens(target_corpus),
        features=["bg_cos", "overlap", "num_match"], bg_vectors=background_model(seed=seed),
    )
    return kfold_train(spark, fz, truth, seed=seed, n_folds=n_folds)


def tapas_match(
    spark: SparkSession, query_corpus, target_corpus, truth: DataFrame,
    *, k: int = 20, seed: int = 0, n_folds: int = 5,
) -> DataFrame:
    trained = tapas_train(spark, query_corpus, target_corpus, truth, seed=seed, n_folds=n_folds)
    return matches_frame(spark, kfold_rank(trained, k=k))


# ---------------------------------------------------------------------------
# L-BE*: supervised multi-label document -> concept classifier (Table III)
# ---------------------------------------------------------------------------


# concept ids, doc id -> TF-IDF row, per fold (test docs, concept centroids)
LBe = Tuple[List[str], Dict[str, np.ndarray], List[Tuple[List[str], np.ndarray]]]


def lbe_train(
    docs_corpus, taxonomy_corpus, truth: DataFrame,
    *, n_folds: int = 5, seed: int = 0, label_weight: float = 0.5,
) -> LBe:
    """L-BE* substitute's train step: a cross-validated centroid (Rocchio)
    multi-label classifier. A concept's centroid is the mean TF-IDF vector
    of its training documents blended with the concept's own label
    vector."""
    docs = doc_tokens(docs_corpus)
    tax = doc_tokens(taxonomy_corpus)
    doc_vecs, concept_vecs, _ = tfidf(
        dict(zip(docs["doc"], docs["tokens"])), dict(zip(tax["doc"], tax["tokens"]))
    )
    words = dict.fromkeys(w for v in (*doc_vecs.values(), *concept_vecs.values()) for w in v)
    column = {w: i for i, w in enumerate(words)}

    def dense(v: Dict[str, float]) -> np.ndarray:
        row = np.zeros(len(column))
        row[[column[w] for w in v]] = list(v.values())
        return row

    labels_of = truth_pairs(truth).groupby("query")["target"].apply(list).to_dict()
    queries = sorted(set(labels_of) & set(docs["doc"]))
    rows_of = {q: dense(doc_vecs[q]) for q in queries}
    concepts = list(tax["doc"])

    folds = []
    for test_q in split_folds(queries, n_folds, seed):
        train_q = [q for q in queries if q not in set(test_q)]
        centroids = np.zeros((len(concepts), len(column)))
        for ci, c in enumerate(concepts):
            members = [rows_of[q] for q in train_q if c in set(labels_of.get(q, []))]
            v = np.mean(members, axis=0) if members else np.zeros(len(column))
            v = (1 - label_weight) * v + label_weight * dense(concept_vecs[c])
            n = np.linalg.norm(v)
            centroids[ci] = v / n if n > 0 else v
        folds.append((test_q, centroids))
    return concepts, rows_of, folds


def lbe_rank(trained: LBe, *, k: int) -> pd.DataFrame:
    """pandas(query, target, score, rank): each fold's test documents'
    concepts by cosine to the fold's centroids, ties by concept id."""
    concepts, rows_of, folds = trained
    scored = pd.DataFrame(
        [
            (q, c, score)
            for test_q, centroids in folds
            for q in test_q
            for c, score in zip(concepts, centroids @ rows_of[q])
        ],
        columns=["query", "target", "score"],
    )
    return top_k_scores(scored, k=k)


def lbe_match(
    spark: SparkSession, docs_corpus, taxonomy_corpus, truth: DataFrame,
    *, k: int = 10, n_folds: int = 5, seed: int = 0, label_weight: float = 0.5,
) -> DataFrame:
    """L-BE* -> (query, target, score, rank)."""
    trained = lbe_train(
        docs_corpus, taxonomy_corpus, truth, n_folds=n_folds, seed=seed, label_weight=label_weight
    )
    return matches_frame(spark, lbe_rank(trained, k=k))

"""Supervised pair-scoring harness + the RANK* baseline.

RANK* in the paper is a learning-to-rank reranker with a pairwise loss [39],
fine-tuned on 60% of the annotated pairs and reported with 5-fold cross
validation. Our substitute trains a Spark ML logistic regression over pair
features (DESIGN.md §4): positives are ground-truth pairs, negatives are the
hardest non-matching candidates by TF-IDF (plus random ones), mirroring how
rerankers are trained from retrieval candidates.

``kfold_train`` and ``kfold_rank`` are the train and rank steps of every
supervised pair baseline: queries are split into folds; each fold's
rankings are produced by a model trained on the *other* folds' labels, and
the per-fold rankings are concatenated so metrics cover every query — the
paper's CV protocol. The features and the scoring run on the driver; only
the fit runs in Spark.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.ml.classification import LogisticRegression
from pyspark.ml.functions import array_to_vector
from pyspark.sql import DataFrame, SparkSession

from ..core.graph import pandas_frame
from ..core.match import matches_frame
from .common import WordVectors, doc_tokens, split_folds, top_k_scores, truth_pairs
from .features import PairFeaturizer, sparse_dot

# the featurizer and, per fold, (test queries, LR coefficients, intercept)
KFold = Tuple[PairFeaturizer, List[Tuple[List[str], np.ndarray, float]]]


def _training_pairs(
    featurizer: PairFeaturizer,
    truth_pdf: pd.DataFrame,
    train_queries: Sequence[str],
    *,
    neg_per_pos: int = 5,
    seed: int = 0,
) -> pd.DataFrame:
    """(query, target, label) rows: gold positives + sampled hard negatives."""
    rng = np.random.default_rng(seed)
    truth = truth_pdf[truth_pdf["query"].isin(train_queries)]
    pos_of = truth.groupby("query")["target"].apply(set).to_dict()
    targets = list(featurizer.t_tokens)
    rows = []
    for q in train_queries:
        gold = pos_of.get(q, set())
        if not gold:
            continue
        qv = featurizer.q_tfidf.get(q, {})
        # hard negatives: highest tf-idf cosine non-gold targets
        sims = [(sparse_dot(qv, featurizer.t_tfidf.get(t, {})), t) for t in targets if t not in gold]
        sims.sort(reverse=True)
        n_hard = min(len(sims), max(1, neg_per_pos * len(gold) // 2))
        negs = [t for _, t in sims[:n_hard]]
        n_rand = neg_per_pos * len(gold) - len(negs)
        pool = [t for t in targets if t not in gold and t not in set(negs)]
        if n_rand > 0 and pool:
            negs += [pool[int(i)] for i in rng.choice(len(pool), size=min(n_rand, len(pool)), replace=False)]
        rows.extend({"query": q, "target": t, "label": 1.0} for t in gold)
        rows.extend({"query": q, "target": t, "label": 0.0} for t in negs)
    return pd.DataFrame(rows)


def kfold_train(
    spark: SparkSession,
    featurizer: PairFeaturizer,
    truth: DataFrame,
    *,
    n_folds: int = 5,
    train_frac: float = 0.6,
    neg_per_pos: int = 5,
    seed: int = 0,
) -> KFold:
    """Per fold, a logistic regression fit on ``train_frac`` of the
    *training* queries' labeled pairs. A fold whose pairs hold a single
    label gets no model, and its queries no ranking."""
    truth_pdf = truth_pairs(truth)
    queries = sorted(set(featurizer.q_tokens) & set(truth_pdf["query"]))
    models = []
    for fi, test_q in enumerate(split_folds(queries, n_folds, seed)):
        train_pool = [q for q in queries if q not in set(test_q)]
        train_q = train_pool[: max(1, int(len(queries) * train_frac))]
        tp = _training_pairs(featurizer, truth_pdf, train_q, neg_per_pos=neg_per_pos, seed=seed + fi)
        if tp.empty or tp["label"].nunique() < 2:
            continue
        train_df = pandas_frame(
            spark, featurizer.featurize(tp),
            "query string, target string, label double, features array<double>",
        ).withColumn("f", array_to_vector("features"))
        lr = LogisticRegression(featuresCol="f", labelCol="label", maxIter=50, regParam=0.01)
        model = lr.fit(train_df)
        models.append((test_q, model.coefficients.toArray(), model.intercept))
    return featurizer, models


def kfold_rank(trained: KFold, *, k: int) -> pd.DataFrame:
    """pandas(query, target, score, rank): each fold's test queries × every
    target, scored by the fold's model (the probability of a match) and
    ranked by descending score, then target id."""
    featurizer, models = trained
    pairs = featurizer.featurize(featurizer.all_pairs())
    parts = []
    for test_q, coef, intercept in models:
        fold = pairs[pairs["query"].isin(test_q)]
        margin = np.stack(fold["features"].to_numpy()) @ coef + intercept
        parts.append(fold[["query", "target"]].assign(score=1.0 / (1.0 + np.exp(-margin))))
    return top_k_scores(pd.concat(parts or [pd.DataFrame(columns=["query", "target", "score"])]), k=k)


def rank_train(
    spark: SparkSession,
    query_corpus,
    target_corpus,
    truth: DataFrame,
    *,
    bg_vectors: WordVectors = None,
    seed: int = 0,
    n_folds: int = 5,
) -> KFold:
    """RANK*'s train step: LTR over lexical + pre-trained-embedding features."""
    features = ["tfidf_cos", "jaccard", "overlap", "rare"]
    if bg_vectors is not None:
        features.append("bg_cos")
    fz = PairFeaturizer(
        doc_tokens(query_corpus), doc_tokens(target_corpus), features=features, bg_vectors=bg_vectors
    )
    return kfold_train(spark, fz, truth, seed=seed, n_folds=n_folds)


def rank_match(
    spark: SparkSession,
    query_corpus,
    target_corpus,
    truth: DataFrame,
    *,
    k: int = 20,
    bg_vectors: WordVectors = None,
    seed: int = 0,
    n_folds: int = 5,
) -> DataFrame:
    """RANK* baseline -> (query, target, score, rank)."""
    trained = rank_train(
        spark, query_corpus, target_corpus, truth, bg_vectors=bg_vectors, seed=seed, n_folds=n_folds
    )
    return matches_frame(spark, kfold_rank(trained, k=k))

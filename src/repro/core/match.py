"""Matching metadata nodes (paper §IV-B): top-k cosine neighbours.

Given embeddings for query documents (first corpus) and target documents
(second corpus), return the top-k targets per query by cosine similarity.

Two implementations:

* :func:`top_k_rows` — production path, on the driver: L2-normalize both
  sides (a few thousand vectors here) and rank with one dense matmul and a
  stable sort (DESIGN.md layering note). ``run_tdmatch`` calls it on the
  skip-gram vectors it trained; :func:`top_k_matches` collects two
  embedding DataFrames in one action and calls it.
* :func:`top_k_matches_join` — pure Spark-SQL formulation (explode vector
  dimensions, join, aggregate, window rank). Quadratic shuffle, used in
  tests to cross-check the dense path and as the reference semantics.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from .graph import pandas_frame


def _unit_rows(pdf: pd.DataFrame) -> Tuple[np.ndarray, np.ndarray]:
    """(ids ascending, L2-normalized vectors in that order) of a frame
    (id, vector); zero vectors stay zero."""
    ids = pdf["id"].to_numpy(dtype=object)
    order = np.argsort(ids, kind="stable")
    mat = np.stack(pdf["vector"].map(np.asarray))[order] if len(pdf) else np.zeros((0, 0))
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return ids[order], mat / norms


def top_k_rows(query: pd.DataFrame, target: pd.DataFrame, *, k: int) -> pd.DataFrame:
    """pandas(query, target, score, rank) of two driver frames (id, vector):
    rank 1..k of the targets per query, by cosine similarity.

    Deterministic: ties in score are broken by target id (ascending), so two
    runs of the same pipeline produce identical ranked lists.
    """
    q_ids, q = _unit_rows(query)
    t_ids, t = _unit_rows(target)
    kk = min(k, len(t_ids)) if len(q_ids) else 0
    sims = q @ t.T if kk else np.zeros((len(q_ids), 0))
    # targets are in id order, so a stable sort on -score breaks ties by id
    top = np.argsort(-sims, axis=1, kind="stable")[:, :kk]
    return pd.DataFrame(
        {
            "query": np.repeat(q_ids, kk),
            "target": t_ids[top.ravel()],
            "score": np.take_along_axis(sims, top, axis=1).ravel(),
            "rank": np.tile(np.arange(1, kk + 1, dtype=np.int32), len(q_ids)),
        }
    )


def matches_frame(spark: SparkSession, ranked: pd.DataFrame) -> DataFrame:
    """The rows of :func:`top_k_rows` as a DataFrame: a local relation in
    one partition, which keeps its order and spares each action on it a
    shuffle."""
    schema = "query string, target string, score double, rank int"
    return pandas_frame(spark, ranked, schema).coalesce(1)


def top_k_matches(
    query_emb: DataFrame,
    target_emb: DataFrame,
    *,
    k: int,
    query_col: str = "node",
    target_col: str = "node",
) -> DataFrame:
    """DataFrame(query, target, score, rank): :func:`top_k_rows` of two
    embedding DataFrames, collected in one action."""
    # one collect for both sides: Spark can reuse an exchange they share
    sides = query_emb.select(
        F.lit(True).alias("is_query"), F.col(query_col).cast("string").alias("id"), "vector"
    ).unionByName(
        target_emb.select(
            F.lit(False).alias("is_query"), F.col(target_col).cast("string").alias("id"), "vector"
        )
    ).toPandas()
    ranked = top_k_rows(sides[sides["is_query"]], sides[~sides["is_query"]], k=k)
    return matches_frame(query_emb.sparkSession, ranked)


def top_k_matches_join(
    query_emb: DataFrame,
    target_emb: DataFrame,
    *,
    k: int,
    query_col: str = "node",
    target_col: str = "node",
) -> DataFrame:
    """Reference Spark-SQL top-k cosine via dimension-explode + join."""

    def _explode_norm(emb: DataFrame, idc: str, side: str) -> DataFrame:
        norm = F.sqrt(
            F.aggregate("vector", F.lit(0.0), lambda a, x: a + x * x)
        )
        return (
            emb.select(
                F.col(idc).alias(side),
                F.posexplode(
                    F.transform("vector", lambda x: x / F.when(norm == 0, 1.0).otherwise(norm))
                ).alias("dim", side + "_v"),
            )
        )

    qe = _explode_norm(query_emb, query_col, "query")
    te = _explode_norm(target_emb, target_col, "target")
    scores = (
        qe.join(te, "dim")
        .groupBy("query", "target")
        .agg(F.sum(F.col("query_v") * F.col("target_v")).alias("score"))
    )
    w = Window.partitionBy("query").orderBy(F.desc("score"), F.asc("target"))
    return (
        scores.withColumn("rank", F.row_number().over(w))
        .where(F.col("rank") <= k)
        .select("query", "target", F.round("score", 9).alias("score"), "rank")
    )


def average_scores(a: DataFrame, b: DataFrame, *, k: int) -> DataFrame:
    """Combine two matchers by averaging cosine scores (paper §V-F2).

    Missing (query, target) pairs on one side contribute score 0; the
    combined list is re-ranked per query.
    """
    pa = a.select("query", "target", F.col("score").alias("sa"))
    pb = b.select("query", "target", F.col("score").alias("sb"))
    both = pa.join(pb, ["query", "target"], "full").fillna(0.0, ["sa", "sb"])
    combo = both.select(
        "query", "target", ((F.col("sa") + F.col("sb")) / 2).alias("score")
    )
    w = Window.partitionBy("query").orderBy(F.desc("score"), F.asc("target"))
    return (
        combo.withColumn("rank", F.row_number().over(w))
        .where(F.col("rank") <= k)
        .select("query", "target", "score", "rank")
    )

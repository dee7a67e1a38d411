"""Data-node merging (paper §II-C).

Three merge families:

* **stemming** — already applied during pre-processing (see
  ``core.preprocess.stem``), so equal stems land on one data node at graph
  creation time;
* **numeric bucketing** — merge numeric data nodes into equal-width buckets
  whose width follows the Freedman–Diaconis rule (2·IQR·n^(-1/3)), or a
  user-supplied width (the paper reports width 7 working best on
  CoronaCheck);
* **synonym / acronym / typo merging** — map variant terms onto a canonical
  term using an external dictionary, or derive the dictionary from
  "pre-trained" embeddings with a cosine threshold γ calibrated as the mean
  cosine over a known-synonym list (the paper's γ = 0.57 recipe on
  Wikipedia2Vec).

A merge is a relabeling of data-node ids followed by edge rewriting; the
rewrite is expressed as Spark joins so the oracle can check it. The
relabeling itself (bucket labels, resolved synonym chains) is computed on the
driver, so no merge runs a Python UDF.
"""
from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graph import DATA, DATA_PREFIX, Graph, canonical_edges, pandas_frame
from .preprocess import _NUMERIC_RE


def numeric_terms(graph: Graph) -> DataFrame:
    """Data nodes whose term is numeric: DataFrame(id, value: double).

    Numeric means :func:`preprocess.is_numeric`; its pattern is matched by
    Spark's ``rlike`` (the Java and Python regexes agree on it).
    """
    return (
        graph.nodes.where(F.col("type") == DATA)
        .select("id", F.expr(f"substring(id, {len(DATA_PREFIX) + 1})").alias("term"))
        .where(F.col("term").rlike(_NUMERIC_RE.pattern))
        .select("id", F.col("term").cast("double").alias("value"))
    )


def freedman_diaconis_width(values: DataFrame, col: str = "value") -> Optional[float]:
    """FD bin width 2·IQR/n^(1/3) via approxQuantile; None if degenerate."""
    n = values.count()
    if n < 2:
        return None
    q1, q3 = values.approxQuantile(col, [0.25, 0.75], 0.001)
    iqr = q3 - q1
    if iqr <= 0:
        return None
    return 2.0 * iqr / (n ** (1.0 / 3.0))


def bucket_label(value: float, width: float, origin: float) -> str:
    """Stable bucket term for a numeric value (equal-width binning)."""
    idx = int(math.floor((value - origin) / width))
    lo = origin + idx * width
    return f"num[{lo:.6g},{lo + width:.6g})"


def merge_numeric_buckets(
    graph: Graph, *, width: Optional[float] = None
) -> Tuple[Graph, int]:
    """Replace numeric data nodes by bucket data nodes (equal-width bins).

    Returns the merged graph and the number of nodes removed by the merge.
    ``width=None`` applies the Freedman–Diaconis rule over the numeric data
    nodes' values. Merging is skipped (graph returned unchanged) when there
    are fewer than two distinct numeric values.
    """
    nums = numeric_terms(graph)
    if width is None:
        width = freedman_diaconis_width(nums)
    pdf = nums.toPandas()
    if width is None or width <= 0 or len(pdf) < 2:
        return graph, 0
    origin = float(pdf["value"].min())
    mapping = pd.DataFrame({
        "old_id": pdf["id"],
        "new_id": [DATA_PREFIX + bucket_label(v, float(width), origin) for v in pdf["value"]],
    })
    return apply_node_mapping(
        graph, pandas_frame(graph.nodes.sparkSession, mapping, "old_id string, new_id string")
    )


def apply_node_mapping(graph: Graph, mapping: DataFrame) -> Tuple[Graph, int]:
    """Rewrite the graph under an (old_id -> new_id) data-node mapping.

    Ids not in the mapping are untouched. Merged nodes inherit type ``data``.
    Returns (new graph, #nodes removed). Self-loops and duplicate edges
    produced by the merge are dropped by canonicalization.
    """
    mapping = mapping.where(F.col("old_id") != F.col("new_id")).cache()
    n_before = graph.num_nodes()

    def _rewrite(df: DataFrame, col: str) -> DataFrame:
        return (
            df.join(F.broadcast(mapping.withColumnRenamed("old_id", col)), col, "left")
            .withColumn(col, F.coalesce("new_id", F.col(col)))
            .drop("new_id")
        )

    edges = canonical_edges(_rewrite(_rewrite(graph.edges, "src"), "dst"))
    nodes = (
        _rewrite(graph.nodes.withColumnRenamed("id", "src"), "src")
        .select(F.col("src").alias("id"), "type", "corpus")
        .groupBy("id")
        .agg(F.first("type").alias("type"), F.first("corpus").alias("corpus"))
    )
    out = Graph(nodes, edges, graph.term_corpus).materialize()
    mapping.unpersist()
    return out, n_before - out.num_nodes()


def merge_synonyms(graph: Graph, synonyms: DataFrame) -> Tuple[Graph, int]:
    """Merge data nodes using a (variant, canonical) term dictionary.

    Only variants present in the graph are rewritten; the canonical node is
    created implicitly by the rewrite if absent. Chains (a->b, b->c) are
    resolved transitively up to length 8 before applying.
    """
    pdf = synonyms.select(
        F.col("variant").cast("string"), F.col("canonical").cast("string")
    ).toPandas()
    m = dict(zip(pdf["variant"], pdf["canonical"]))
    resolved = {}
    for v in m:
        c, hops = m[v], 0
        while c in m and hops < 8 and m[c] != c:
            c, hops = m[c], hops + 1
        resolved[v] = c
    rows = [
        (DATA_PREFIX + v, DATA_PREFIX + c) for v, c in resolved.items() if v != c
    ]
    if not rows:
        return graph, 0
    spark = graph.nodes.sparkSession
    mapping = spark.createDataFrame(
        pd.DataFrame(rows, columns=["old_id", "new_id"])
    ).join(F.broadcast(graph.nodes.select(F.col("id").alias("old_id"))), "old_id", "left_semi")
    return apply_node_mapping(graph, mapping)


def calibrate_gamma(embeddings: pd.DataFrame, synonym_pairs: pd.DataFrame) -> float:
    """γ = mean cosine similarity over known synonym pairs (§II-C recipe).

    ``embeddings``: pandas(word, vector list). ``synonym_pairs``: pandas
    (a, b). Pairs with an out-of-vocabulary side are ignored.
    """
    vecs = {w: np.asarray(v, dtype=float) for w, v in zip(embeddings["word"], embeddings["vector"])}
    sims = []
    for a, b in zip(synonym_pairs["a"], synonym_pairs["b"]):
        va, vb = vecs.get(a), vecs.get(b)
        if va is None or vb is None:
            continue
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        if na == 0 or nb == 0:
            continue
        sims.append(float(va @ vb / (na * nb)))
    if not sims:
        raise ValueError("no synonym pair is covered by the embedding vocabulary")
    return float(np.mean(sims))


def synonym_pairs_from_embeddings(
    embeddings: pd.DataFrame, terms: pd.Series, gamma: float
) -> pd.DataFrame:
    """All (variant, canonical) pairs among ``terms`` with cosine ≥ γ.

    Brute-force over the in-vocabulary terms (vocabulary here is the
    background model, thousands of words at our scale). The
    lexicographically-smaller term is chosen as canonical so merging is
    deterministic.
    """
    inv = [t for t in terms if t in set(embeddings["word"])]
    if len(inv) < 2:
        return pd.DataFrame(columns=["variant", "canonical"])
    vecs = {w: np.asarray(v, dtype=float) for w, v in zip(embeddings["word"], embeddings["vector"])}
    mat = np.stack([vecs[t] for t in inv])
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    mat = mat / norms
    sim = mat @ mat.T
    rows = []
    n = len(inv)
    for i in range(n):
        for j in range(i + 1, n):
            if sim[i, j] >= gamma:
                a, b = sorted((inv[i], inv[j]))
                rows.append((b, a))
    return pd.DataFrame(rows, columns=["variant", "canonical"]).drop_duplicates()

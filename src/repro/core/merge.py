"""Data-node merging (paper §II-C).

Three merge families:

* **stemming** — already applied during pre-processing (see
  ``core.preprocess.stem``), so equal stems land on one data node at graph
  creation time;
* **numeric bucketing** — merge numeric data nodes into equal-width buckets
  whose width follows the Freedman–Diaconis rule (2·IQR·n^(-1/3)), or a
  user-supplied width (the paper reports width 7 working best on
  CoronaCheck);
* **synonym / acronym / typo merging** — merge the terms that an external
  (variant, canonical) dictionary connects, each connected component onto
  the data node of its smallest term; the graph records that term for
  every term of the component, so a KB fact on any of them reaches the
  node. The datasets ship their dictionary;
  the paper's other source, pairs of pre-trained embeddings above a cosine
  threshold γ, is not reproduced.

A merge is a relabeling of data-node ids followed by edge rewriting. Both
run on the graph's driver rows with pandas (left joins on the mapping), so
no merge runs a Spark job beyond collecting its dictionary; the DuckDB
oracle checks the rewrite against the same joins in SQL.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graph import DATA, DATA_PREFIX, Graph, canonical_rows
from .preprocess import is_numeric


def numeric_terms(graph: Graph) -> pd.DataFrame:
    """Data nodes whose term is numeric (:func:`preprocess.is_numeric`):
    pandas(id, value: float)."""
    nodes = graph.node_rows
    ids = nodes.loc[nodes["type"] == DATA, "id"]
    terms = ids.str[len(DATA_PREFIX) :]
    numeric = terms.map(is_numeric).astype(bool)
    return pd.DataFrame(
        {"id": ids[numeric], "value": terms[numeric].astype(float)}
    ).reset_index(drop=True)


def freedman_diaconis_width(values) -> Optional[float]:
    """FD bin width 2·IQR/n^(1/3) of a sequence of floats, with the exact
    quartiles (the ⌈q·n⌉-th smallest value); None if degenerate."""
    n = len(values)
    if n < 2:
        return None
    q1, q3 = np.quantile(np.asarray(values, dtype=float), [0.25, 0.75], method="inverted_cdf")
    iqr = float(q3 - q1)
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
        width = freedman_diaconis_width(nums["value"].to_numpy())
    if width is None or width <= 0 or len(nums) < 2:
        return graph, 0
    origin = float(nums["value"].min())
    mapping = pd.DataFrame({
        "old_id": nums["id"],
        "new_id": [DATA_PREFIX + bucket_label(v, float(width), origin) for v in nums["value"]],
    })
    return apply_node_mapping(graph, mapping)


def apply_node_mapping(graph: Graph, mapping: pd.DataFrame) -> Tuple[Graph, int]:
    """Rewrite the graph under a pandas(old_id, new_id) node mapping.

    Ids not in the mapping are untouched; a merged node keeps the type and
    corpus of one of the nodes merged into it. Returns (new graph, #nodes
    removed). Self-loops and duplicate edges produced by the merge are
    dropped by canonicalization.
    """
    mapping = mapping[mapping["old_id"] != mapping["new_id"]]

    def _rewrite(df: pd.DataFrame, col: str) -> pd.DataFrame:
        out = df.merge(mapping.rename(columns={"old_id": col}), on=col, how="left")
        out[col] = out["new_id"].where(out["new_id"].notna(), out[col])
        return out.drop(columns="new_id")

    edges = _rewrite(_rewrite(graph.edge_rows, "src"), "dst")
    nodes = _rewrite(graph.node_rows, "id").drop_duplicates("id")
    out = graph.with_rows(nodes, canonical_rows(edges["src"], edges["dst"]))
    return out, graph.num_nodes() - out.num_nodes()


def merge_synonyms(graph: Graph, synonyms: DataFrame) -> Tuple[Graph, int]:
    """Merge data nodes using a (variant, canonical) term dictionary.

    Each row is an undirected edge between two terms; every connected
    component of the dictionary becomes one data node, named by the
    component's smallest term, so the result depends only on the set of
    unordered pairs. Only terms present in the graph are rewritten; the
    component's node is created by the rewrite if its smallest term is
    absent. The merged graph's ``aliases`` send every other term of a
    component to that smallest term; expansion and the §II-B filter read
    the KB through them. ``synonyms``, a DataFrame(variant, canonical) as
    every caller holds it (``tdbench/stages.py`` too), is collected in one
    action.
    """
    pdf = synonyms.select(
        F.col("variant").cast("string"), F.col("canonical").cast("string")
    ).toPandas()
    if pdf.empty:
        return graph, 0
    parent: dict = {}

    def root(t: str) -> str:
        while parent.setdefault(t, t) != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for a, b in zip(pdf["variant"], pdf["canonical"]):
        ra, rb = root(a), root(b)
        # a root is the smallest term of its component
        parent[max(ra, rb)] = min(ra, rb)
    aliases = {t: root(t) for t in parent if root(t) != t}
    mapping = pd.DataFrame(
        [(DATA_PREFIX + t, DATA_PREFIX + r) for t, r in aliases.items()],
        columns=["old_id", "new_id"],
    )
    merged, removed = apply_node_mapping(
        graph, mapping[mapping["old_id"].isin(graph.node_rows["id"])]
    )
    return replace(merged, aliases=aliases), removed

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

A merge is a relabeling of data-node ids followed by edge rewriting. Both
run on the graph's driver rows with pandas (left joins on the mapping), so
no merge runs a Spark job beyond collecting its dictionary; the DuckDB
oracle checks the rewrite against the same joins in SQL.
"""
from __future__ import annotations

import math
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


# the relative error of the Freedman–Diaconis quartiles, as the width was
# first computed with Spark's approxQuantile; the same width keeps the
# same buckets
_FD_RELATIVE_ERROR = 0.001


def approx_quantile(values: np.ndarray, q: float, relative_error: float) -> float:
    """Spark's ``approxQuantile(col, [q], relative_error)`` of fewer than
    50,000 values in one partition, computed on the driver
    (``relative_error < q < 1 - relative_error``).

    Spark inserts the sorted values into a Greenwald–Khanna summary
    (``QuantileSummaries``): the ``i``-th value gets ``g = 1`` and
    ``delta = floor(2·eps·i)`` (0 for the first and the last). One
    compression pass from the top merges a value into the sample above it
    while ``1 + g + delta`` of that sample stays below ``2·eps·n``. The
    answer is the first sample whose rank range covers ``ceil(q·n)``
    within half the largest ``g + delta``. Below ``1 / (2·eps)`` values
    nothing merges and every ``delta`` is 0, so the answer is the
    ``ceil(q·n)``-th smallest value; above, it can be a neighbour of it.
    """
    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    delta = np.floor(2 * relative_error * np.arange(1, n + 1)).astype(np.int64)
    delta[[0, -1]] = 0
    threshold = 2 * relative_error * n
    head = [v[-1], 1, int(delta[-1])]  # value, g, delta
    samples = []
    for i in range(n - 2, 0, -1):
        if 1 + head[1] + head[2] < threshold:
            head[1] += 1
        else:
            samples.append(head)
            head = [v[i], 1, int(delta[i])]
    samples.append(head)
    if n > 1:
        samples.append([v[0], 1, 0])
    samples.reverse()
    target = max(g + d for _, g, d in samples) // 2
    rank = math.ceil(q * n)
    min_rank = 0
    for value, g, d in samples[:-1]:
        min_rank += g
        if min_rank + d - target <= rank <= min_rank + target:
            return float(value)
    return float(samples[-1][0])


def freedman_diaconis_width(values) -> Optional[float]:
    """FD bin width 2·IQR/n^(1/3) of a sequence of floats, with the
    quartiles Spark's ``approxQuantile(…, 0.001)`` gives (see
    :func:`approx_quantile`); None if degenerate."""
    n = len(values)
    if n < 2:
        return None
    q1, q3 = (approx_quantile(values, q, _FD_RELATIVE_ERROR) for q in (0.25, 0.75))
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

    Only variants present in the graph are rewritten; the canonical node is
    created implicitly by the rewrite if absent. Chains (a->b, b->c) are
    resolved transitively up to length 8 before applying.
    ``synonyms``, a DataFrame(variant, canonical) as every caller holds it
    (``tdbench/stages.py`` too), is collected in one action.
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
    mapping = pd.DataFrame(rows, columns=["old_id", "new_id"])
    return apply_node_mapping(graph, mapping[mapping["old_id"].isin(graph.node_rows["id"])])


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

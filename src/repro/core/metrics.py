"""Evaluation measures used in the paper's tables.

* :func:`ranking_metrics_pdf` — MRR, MAP@k, HasPositive@k (Tables I, II,
  IV, V, VI), on the driver over pandas frames: a ranked list is queries × k
  rows. The DuckDB oracle cross-checks it in tests.
* :func:`path_metrics` — Exact and Node Precision/Recall/F-score for the
  taxonomy-matching task (Table III), including the Node score of formula
  (1) with the two most-general taxonomy levels excluded.

Conventions: ``ranked(query, target, rank)`` with rank 1-based and dense per
query; ``truth(query, target)``; queries present in ``truth`` but absent
from ``ranked`` score zero (a matcher that returns nothing is penalized).
MAP@k uses AP@k = (Σ_{hits r≤k} precision@r) / min(R, k) with R = number of
relevant targets for the query.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import pandas as pd


def ranking_metrics_pdf(
    ranked: pd.DataFrame, truth: pd.DataFrame, *, ks: Sequence[int] = (1, 5, 20)
) -> Dict[str, float]:
    """MRR / MAP@k / HasPositive@k over all queries in ``truth``."""
    truth = truth.astype({"query": str, "target": str}).drop_duplicates()
    queries = sorted(set(truth["query"]))
    if not queries:
        raise ValueError("empty ground truth")
    rel_of = truth.groupby("query")["target"].apply(set).to_dict()
    ranked = ranked.astype({"query": str, "target": str})
    by_q = {q: g.sort_values("rank") for q, g in ranked.groupby("query")}

    out = {"MRR": 0.0}
    for k in ks:
        out[f"MAP@{k}"] = 0.0
        out[f"HasPositive@{k}"] = 0.0
    for q in queries:
        gold = rel_of[q]
        g = by_q.get(q)
        if g is None:
            continue
        ranks = list(g["rank"])
        rel = [t in gold for t in g["target"]]
        first = next((r for r, ok in zip(ranks, rel) if ok), None)
        if first is not None:
            out["MRR"] += 1.0 / first
        for k in ks:
            hits = 0
            ap = 0.0
            for r, ok in zip(ranks, rel):
                if r > k:
                    break
                if ok:
                    hits += 1
                    ap += hits / r
            if hits:
                out[f"MAP@{k}"] += ap / min(len(gold), k)
                out[f"HasPositive@{k}"] += 1.0
    n = len(queries)
    return {m: v / n for m, v in out.items()}


# ---------------------------------------------------------------------------
# Table III: Exact / Node scores over taxonomy paths
# ---------------------------------------------------------------------------


def root_to_node_paths(
    taxonomy: pd.DataFrame, *, id_col: str = "concept_id", parent_col: str = "parent_id",
    label_col: str = "label",
) -> Dict[str, Tuple[str, ...]]:
    """concept id -> root-to-node path of labels (root first)."""
    def canon(v) -> str:
        # nullable numeric id columns arrive as floats ("4.0"); normalize so
        # parent references resolve against the string id keys
        if isinstance(v, float) and v.is_integer():
            return str(int(v))
        return str(v)

    parents = {
        canon(i): (None if pd.isna(p) else canon(p))
        for i, p in zip(taxonomy[id_col], taxonomy[parent_col])
    }
    labels = {canon(i): str(l) for i, l in zip(taxonomy[id_col], taxonomy[label_col])}
    out: Dict[str, Tuple[str, ...]] = {}
    for cid in labels:
        path: List[str] = []
        cur, hops = cid, 0
        while cur is not None and hops < 64:
            path.append(labels[cur])
            cur = parents.get(cur)
            hops += 1
        out[cid] = tuple(reversed(path))
    return out


def node_score(p1: Tuple[str, ...], p2: Tuple[str, ...], *, exclude_levels: int = 2) -> float:
    """Formula (1): |nodes(p1') ∩ nodes(p2')| / max(|p1'|, |p2'|).

    ``exclude_levels`` most-general levels (root and the level under it by
    default) are dropped before intersecting. Two paths that are both fully
    inside the excluded levels compare equal iff their full paths are equal.
    """
    a, b = set(p1[exclude_levels:]), set(p2[exclude_levels:])
    if not a and not b:
        return 1.0 if p1 == p2 else 0.0
    # nodes(p') is a set in formula (1): repeated labels on a path (possible,
    # as taxonomy nodes may share text) count once on both sides
    return len(a & b) / max(len(a), len(b))


def path_metrics(
    predictions: pd.DataFrame,
    truth: pd.DataFrame,
    paths: Dict[str, Tuple[str, ...]],
    *,
    k: int,
    mode: str = "exact",
    exclude_levels: int = 2,
) -> Dict[str, float]:
    """Exact / Node P, R, F for top-k concept predictions per document.

    ``predictions``: pandas(query, target, rank); ``truth``: pandas(query,
    target). Targets are concept ids resolvable through ``paths``. Scores
    are macro-averaged over documents in the ground truth.
    """
    if mode not in ("exact", "node"):
        raise ValueError(f"bad mode {mode!r}")
    preds = predictions[predictions["rank"] <= k]
    pred_by_doc = {
        q: list(g.sort_values("rank")["target"].astype(str))
        for q, g in preds.groupby("query")
    }
    truth_by_doc = {
        str(q): sorted(set(g["target"].astype(str)))
        for q, g in truth.groupby("query")
    }

    p_sum = r_sum = 0.0
    n_docs = len(truth_by_doc)
    for doc, gold in truth_by_doc.items():
        got = pred_by_doc.get(doc, [])
        gold_paths = [paths[c] for c in gold]
        got_paths = [paths[c] for c in got]
        if mode == "exact":
            gold_set = set(gold_paths)
            hits = [p for p in got_paths if p in gold_set]
            p = len(hits) / len(got_paths) if got_paths else 0.0
            r = len({p for p in got_paths} & gold_set) / len(gold_set)
        else:
            p = (
                sum(
                    max(node_score(gp, tp, exclude_levels=exclude_levels) for tp in gold_paths)
                    for gp in got_paths
                )
                / len(got_paths)
                if got_paths
                else 0.0
            )
            r = sum(
                max(
                    (node_score(tp, gp, exclude_levels=exclude_levels) for gp in got_paths),
                    default=0.0,
                )
                for tp in gold_paths
            ) / len(gold_paths)
        p_sum += p
        r_sum += r

    prec = p_sum / n_docs
    rec = r_sum / n_docs
    f = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
    return {"P": prec, "R": rec, "F": f}

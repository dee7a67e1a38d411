"""Tests for MRR / MAP@k / HasPositive@k and the Table III path scores."""
import math

import pandas as pd
import pytest

from repro.core.metrics import (
    node_score,
    path_metrics,
    ranking_metrics_pdf,
    root_to_node_paths,
)


def _ranked(rows):
    return pd.DataFrame(rows, columns=["query", "target", "rank"])


def _truth(rows):
    return pd.DataFrame(rows, columns=["query", "target"])


MRR_SQL = """
    SELECT AVG(rr) AS mrr FROM (
        SELECT t.query, COALESCE(1.0 / MIN(r.rank), 0.0) AS rr
        FROM (SELECT DISTINCT query FROM truth) t
        LEFT JOIN (
            SELECT r.query, r.rank FROM ranked r
            JOIN truth g ON r.query = g.query AND r.target = g.target
        ) r ON t.query = r.query
        GROUP BY t.query
    )
"""

HASPOSITIVE_SQL = """
    SELECT COUNT(DISTINCT r.query) * 1.0 /
           (SELECT COUNT(DISTINCT query) FROM truth) AS hp
    FROM ranked r JOIN truth g
      ON r.query = g.query AND r.target = g.target AND r.rank <= {k}
"""


def _sql_scalar(sql, ranked, truth):
    import duckdb

    con = duckdb.connect()
    try:
        con.register("ranked", ranked)
        con.register("truth", truth)
        return con.execute(sql).fetchone()[0]
    finally:
        con.close()


class TestRankingMetricsSpark:
    """``ranking_metrics_pdf`` on hand-made rankings (the class keeps the
    name it had when a Spark twin of the function existed)."""

    def test_perfect_single(self):
        m = ranking_metrics_pdf(
            _ranked([("q1", "t1", 1), ("q1", "t2", 2)]), _truth([("q1", "t1")]), ks=(1, 5)
        )
        assert m["MRR"] == 1.0
        assert m["MAP@1"] == 1.0
        assert m["HasPositive@1"] == 1.0

    def test_rank_two(self):
        m = ranking_metrics_pdf(
            _ranked([("q1", "t2", 1), ("q1", "t1", 2)]), _truth([("q1", "t1")]), ks=(1, 5)
        )
        assert m["MRR"] == 0.5
        assert m["MAP@1"] == 0.0
        assert m["HasPositive@1"] == 0.0
        assert m["MAP@5"] == 0.5
        assert m["HasPositive@5"] == 1.0

    def test_unranked_query_scores_zero(self):
        m = ranking_metrics_pdf(
            _ranked([("q1", "t1", 1)]), _truth([("q1", "t1"), ("q2", "t9")]), ks=(1,)
        )
        assert m["MRR"] == 0.5  # (1.0 + 0.0) / 2
        assert m["HasPositive@1"] == 0.5

    def test_multiple_relevant_ap(self):
        # relevant at ranks 1 and 3 of 2 relevant: AP@5 = (1/1 + 2/3)/2
        m = ranking_metrics_pdf(
            _ranked([("q", "a", 1), ("q", "x", 2), ("q", "b", 3)]),
            _truth([("q", "a"), ("q", "b")]),
            ks=(5,),
        )
        assert m["MAP@5"] == pytest.approx((1 + 2 / 3) / 2)

    def test_map_truncation_denominator(self):
        # 3 relevant but k=1: AP@1 = 1/ min(3,1) = 1 when hit at rank 1
        m = ranking_metrics_pdf(
            _ranked([("q", "a", 1)]), _truth([("q", "a"), ("q", "b"), ("q", "c")]), ks=(1,)
        )
        assert m["MAP@1"] == 1.0

    def test_empty_truth_raises(self):
        with pytest.raises(ValueError):
            ranking_metrics_pdf(_ranked([("q", "a", 1)]), _truth([]), ks=(1,))

    def test_mrr_against_oracle(self):
        """Cross-check MRR with a DuckDB SQL formulation."""
        ranked = _ranked([("q1", "a", 1), ("q1", "b", 2), ("q2", "b", 1), ("q2", "a", 2)])
        truth = _truth([("q1", "b"), ("q2", "b")])
        m = ranking_metrics_pdf(ranked, truth, ks=(1,))
        assert m["MRR"] == pytest.approx(_sql_scalar(MRR_SQL, ranked, truth))


class TestPandasSparkParity:
    """``ranking_metrics_pdf`` on random rankings against the DuckDB SQL of
    MRR and HasPositive@k (the class keeps the name it had when it compared
    against a Spark twin of the function)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_inputs_agree(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        queries = [f"q{i}" for i in range(8)]
        targets = [f"t{i}" for i in range(15)]
        ranked_rows = []
        for q in queries:
            perm = rng.permutation(targets)[:10]
            ranked_rows += [(q, t, r) for r, t in enumerate(perm, start=1)]
        truth_rows = [
            (q, targets[int(i)]) for q in queries for i in rng.choice(15, size=2, replace=False)
        ]
        ranked, truth = _ranked(ranked_rows), _truth(truth_rows)
        m = ranking_metrics_pdf(ranked, truth, ks=(1, 5))
        assert m["MRR"] == pytest.approx(_sql_scalar(MRR_SQL, ranked, truth))
        for k in (1, 5):
            want = _sql_scalar(HASPOSITIVE_SQL.format(k=k), ranked, truth)
            assert m[f"HasPositive@{k}"] == pytest.approx(want), k


TAX = pd.DataFrame(
    {
        "concept_id": [1, 2, 3, 4, 5],
        "label": ["root", "area", "a", "b", "c"],
        "parent_id": [None, 1, 2, 3, 2],
    }
)


class TestPaths:
    def test_root_to_node(self):
        paths = root_to_node_paths(TAX)
        assert paths["1"] == ("root",)
        assert paths["4"] == ("root", "area", "a", "b")

    def test_node_score_paper_example(self):
        # r1: a->b->c->d, r2: a->b->c; after excluding 2 levels:
        # r1': c->d, r2': c  => intersection 1 / max(2,1) = 0.5
        r1 = ("a", "b", "c", "d")
        r2 = ("a", "b", "c")
        assert node_score(r1, r2) == 0.5

    def test_node_score_identical(self):
        p = ("a", "b", "c", "d")
        assert node_score(p, p) == 1.0

    def test_node_score_disjoint_tails(self):
        assert node_score(("a", "b", "x"), ("a", "b", "y")) == 0.0

    def test_node_score_short_paths(self):
        assert node_score(("a", "b"), ("a", "b")) == 1.0
        assert node_score(("a", "b"), ("a", "c")) == 0.0

    def test_symmetry(self):
        p1, p2 = ("a", "b", "c", "d"), ("a", "b", "c", "e", "f")
        assert node_score(p1, p2) == node_score(p2, p1)


class TestPathMetrics:
    def setup_method(self):
        self.paths = root_to_node_paths(TAX)

    def test_exact_perfect(self):
        preds = pd.DataFrame({"query": ["d1"], "target": ["4"], "rank": [1]})
        truth = pd.DataFrame({"query": ["d1"], "target": ["4"]})
        m = path_metrics(preds, truth, self.paths, k=1, mode="exact")
        assert m == {"P": 1.0, "R": 1.0, "F": 1.0}

    def test_exact_miss(self):
        preds = pd.DataFrame({"query": ["d1"], "target": ["5"], "rank": [1]})
        truth = pd.DataFrame({"query": ["d1"], "target": ["4"]})
        m = path_metrics(preds, truth, self.paths, k=1, mode="exact")
        assert m["P"] == 0.0 and m["R"] == 0.0

    def test_node_partial(self):
        # pred 3 (root,area,a) vs truth 4 (root,area,a,b): tails (a) vs (a,b)
        preds = pd.DataFrame({"query": ["d1"], "target": ["3"], "rank": [1]})
        truth = pd.DataFrame({"query": ["d1"], "target": ["4"]})
        m = path_metrics(preds, truth, self.paths, k=1, mode="node")
        assert m["P"] == pytest.approx(0.5)
        assert m["R"] == pytest.approx(0.5)

    def test_k_truncates(self):
        preds = pd.DataFrame(
            {"query": ["d1", "d1"], "target": ["5", "4"], "rank": [1, 2]}
        )
        truth = pd.DataFrame({"query": ["d1"], "target": ["4"]})
        m1 = path_metrics(preds, truth, self.paths, k=1, mode="exact")
        m2 = path_metrics(preds, truth, self.paths, k=2, mode="exact")
        assert m1["R"] == 0.0 and m2["R"] == 1.0
        assert m2["P"] == 0.5

    def test_doc_without_predictions_counts(self):
        preds = pd.DataFrame({"query": ["d1"], "target": ["4"], "rank": [1]})
        truth = pd.DataFrame({"query": ["d1", "d2"], "target": ["4", "5"]})
        m = path_metrics(preds, truth, self.paths, k=1, mode="exact")
        assert m["P"] == 0.5 and m["R"] == 0.5

    def test_multilabel_recall(self):
        preds = pd.DataFrame({"query": ["d1"], "target": ["4"], "rank": [1]})
        truth = pd.DataFrame({"query": ["d1", "d1"], "target": ["4", "5"]})
        m = path_metrics(preds, truth, self.paths, k=1, mode="exact")
        assert m["P"] == 1.0
        assert m["R"] == 0.5

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            path_metrics(pd.DataFrame(columns=["query", "target", "rank"]),
                         pd.DataFrame({"query": ["d"], "target": ["4"]}),
                         self.paths, k=1, mode="woof")

    def test_f_harmonic(self):
        preds = pd.DataFrame({"query": ["d1"], "target": ["4"], "rank": [1]})
        truth = pd.DataFrame({"query": ["d1", "d1"], "target": ["4", "5"]})
        m = path_metrics(preds, truth, self.paths, k=1, mode="exact")
        assert m["F"] == pytest.approx(2 * 1.0 * 0.5 / 1.5)

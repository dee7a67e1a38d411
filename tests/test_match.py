"""Tests for top-k cosine matching (§IV-B): dense path vs SQL reference."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.match import top_k_matches, top_k_matches_join


def _emb(spark, rows):
    return spark.createDataFrame(pd.DataFrame(rows, columns=["node", "vector"]))


@pytest.fixture(scope="module")
def qt(spark):
    q = _emb(
        spark,
        [("q1", [1.0, 0.0]), ("q2", [0.0, 1.0]), ("q3", [1.0, 1.0])],
    )
    t = _emb(
        spark,
        [("t1", [2.0, 0.0]), ("t2", [0.0, 3.0]), ("t3", [1.0, 1.0]), ("t4", [-1.0, 0.0])],
    )
    return q, t


class TestTopK:
    def test_nearest_first(self, qt):
        q, t = qt
        out = top_k_matches(q, t, k=1).toPandas().set_index("query")
        assert out.loc["q1", "target"] == "t1"
        assert out.loc["q2", "target"] == "t2"
        assert out.loc["q3", "target"] == "t3"

    def test_k_rows_per_query(self, qt):
        q, t = qt
        out = top_k_matches(q, t, k=3).toPandas()
        assert (out.groupby("query").size() == 3).all()
        for _, g in out.groupby("query"):
            assert sorted(g["rank"]) == [1, 2, 3]

    def test_k_larger_than_targets(self, qt):
        q, t = qt
        out = top_k_matches(q, t, k=99).toPandas()
        assert (out.groupby("query").size() == 4).all()

    def test_scores_non_increasing(self, qt):
        q, t = qt
        out = top_k_matches(q, t, k=4).toPandas()
        for _, g in out.groupby("query"):
            s = list(g.sort_values("rank")["score"])
            assert all(a >= b - 1e-12 for a, b in zip(s, s[1:]))

    def test_cosine_values(self, qt):
        q, t = qt
        out = top_k_matches(q, t, k=4).toPandas()
        row = out[(out["query"] == "q1") & (out["target"] == "t3")].iloc[0]
        assert row["score"] == pytest.approx(1 / np.sqrt(2))

    def test_scale_invariance(self, spark):
        q = _emb(spark, [("q", [0.1, 0.2])])
        t1 = _emb(spark, [("a", [1.0, 2.0]), ("b", [2.0, 1.0])])
        t2 = _emb(spark, [("a", [10.0, 20.0]), ("b", [20.0, 10.0])])
        o1 = top_k_matches(q, t1, k=2).toPandas().sort_values("rank")
        o2 = top_k_matches(q, t2, k=2).toPandas().sort_values("rank")
        assert list(o1["target"]) == list(o2["target"])
        np.testing.assert_allclose(o1["score"], o2["score"], atol=1e-12)

    def test_tie_broken_by_target_id(self, spark):
        q = _emb(spark, [("q", [1.0, 0.0])])
        t = _emb(spark, [("b", [1.0, 0.0]), ("a", [2.0, 0.0])])
        out = top_k_matches(q, t, k=2).toPandas().sort_values("rank")
        assert list(out["target"]) == ["a", "b"]  # equal scores -> id order

    @pytest.mark.parametrize("empty", ["query", "target"])
    def test_empty_side_gives_empty_ranking(self, qt, empty):
        q, t = qt
        if empty == "query":
            q = q.limit(0)
        else:
            t = t.limit(0)
        out = top_k_matches(q, t, k=3)
        assert out.count() == 0
        schema = "struct<query:string,target:string,score:double,rank:int>"
        assert out.schema.simpleString() == schema
        # built in Spark SQL, not through PySpark's pickled-RDD path
        assert "LogicalRDD" not in out._jdf.queryExecution().analyzed().toString()

    def test_zero_vector_does_not_crash(self, spark):
        q = _emb(spark, [("q", [0.0, 0.0])])
        t = _emb(spark, [("a", [1.0, 0.0])])
        out = top_k_matches(q, t, k=1).toPandas()
        assert len(out) == 1 and out.iloc[0]["score"] == 0.0


class TestJoinReference:
    def test_dense_equals_join(self, spark, qt):
        q, t = qt
        dense = top_k_matches(q, t, k=4).toPandas()
        ref = top_k_matches_join(q, t, k=4).toPandas()
        key = ["query", "rank"]
        dense = dense.sort_values(key).reset_index(drop=True)
        ref = ref.sort_values(key).reset_index(drop=True)
        pd.testing.assert_series_equal(dense["target"], ref["target"])
        np.testing.assert_allclose(dense["score"], ref["score"], atol=1e-9)

    def test_random_agree(self, spark):
        rng = np.random.default_rng(5)
        q = _emb(spark, [(f"q{i}", list(rng.normal(size=6))) for i in range(7)])
        t = _emb(spark, [(f"t{i}", list(rng.normal(size=6))) for i in range(11)])
        dense = top_k_matches(q, t, k=5).toPandas().sort_values(["query", "rank"])
        ref = top_k_matches_join(q, t, k=5).toPandas().sort_values(["query", "rank"])
        assert list(dense["target"]) == list(ref["target"])

"""Tests for node merging (§II-C): bucketing, synonyms, γ calibration."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.graph import TableCorpus, TextCorpus, build_graph, data_node_id
from repro.core.merge import (
    apply_node_mapping,
    approx_quantile,
    bucket_label,
    calibrate_gamma,
    freedman_diaconis_width,
    merge_numeric_buckets,
    merge_synonyms,
    numeric_terms,
    synonym_pairs_from_embeddings,
)


@pytest.fixture(scope="module")
def num_graph(spark):
    """Graph whose table has a numeric attribute (values 10..17, 100)."""
    t = spark.createDataFrame(
        pd.DataFrame(
            {
                "tid": range(1, 10),
                "name": [f"row{i}" for i in range(1, 10)],
                "val": [10, 11, 12, 13, 14, 15, 16, 17, 100],
            }
        )
    )
    txt = spark.createDataFrame(
        pd.DataFrame({"sid": [1, 2], "text": ["row1 had 10", "row9 had 100"]})
    )
    return build_graph(
        spark,
        TableCorpus("t", t, "tid", ["name", "val"]),
        TextCorpus("s", txt, "sid", "text"),
        max_n=1,
        auto_order=False,
    )


class TestNumericTerms:
    def test_detects_numbers(self, num_graph):
        vals = set(numeric_terms(num_graph)["value"])
        assert 10.0 in vals and 100.0 in vals

    def test_ignores_words(self, num_graph):
        ids = set(numeric_terms(num_graph)["id"])
        assert data_node_id("row1") not in ids


class TestFreedmanDiaconis:
    def test_known_width(self):
        w = freedman_diaconis_width(np.arange(1.0, 101.0))
        # IQR = 50 (approx), n=100 -> 2*50/100^(1/3) ~ 21.5
        assert 15 < w < 25

    def test_degenerate_none(self):
        assert freedman_diaconis_width(np.full(10, 5.0)) is None

    def test_single_value_none(self):
        assert freedman_diaconis_width(np.array([1.0])) is None


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 278, 1000])
@pytest.mark.parametrize("repeats", [False, True])
def test_width_equals_spark_approx_quantile(spark, n, repeats):
    """The driver quartiles are Spark's approxQuantile(…, 0.001) over one
    partition, also where they are not the exact ones (n = 1000)."""
    rng = np.random.default_rng(n)
    values = rng.integers(0, max(2, n // 3), n) if repeats else rng.permutation(n)
    values = values.astype(float)
    df = spark.createDataFrame(pd.DataFrame({"value": values})).coalesce(1)
    q1, q3 = df.approxQuantile("value", [0.25, 0.75], 0.001)
    assert [approx_quantile(values, q, 0.001) for q in (0.25, 0.75)] == [q1, q3]
    want = 2.0 * (q3 - q1) / n ** (1.0 / 3.0) if q3 > q1 else None
    assert freedman_diaconis_width(values) == want


class TestBucketLabel:
    def test_stable(self):
        assert bucket_label(12.0, 5.0, 10.0) == bucket_label(14.9, 5.0, 10.0)

    def test_boundaries(self):
        assert bucket_label(15.0, 5.0, 10.0) != bucket_label(14.9, 5.0, 10.0)

    def test_format(self):
        assert bucket_label(10.0, 5.0, 10.0) == "num[10,15)"


class TestMergeNumeric:
    def test_merges_close_values(self, num_graph):
        merged, removed = merge_numeric_buckets(num_graph, width=5.0)
        assert removed > 0
        # 10..14 land in one bucket node
        ids = {r["id"] for r in merged.nodes.collect()}
        assert data_node_id("10") not in ids
        assert any(i.startswith("d::num[") for i in ids)

    def test_edges_rewired(self, num_graph):
        merged, _ = merge_numeric_buckets(num_graph, width=5.0)
        edges = {(r["src"], r["dst"]) for r in merged.symmetric_edges().collect()}
        bucket_nodes = {s for s, d in edges if s.startswith("d::num[")}
        # the sentence "row1 had 10" now connects to the bucket node
        assert any(("s::1", b) in edges for b in bucket_nodes)

    def test_no_numeric_noop(self, spark):
        t = spark.createDataFrame(pd.DataFrame({"tid": [1], "a": ["x y"]}))
        s = spark.createDataFrame(pd.DataFrame({"sid": [1], "text": ["x"]}))
        g = build_graph(
            spark, TableCorpus("t", t, "tid", ["a"]), TextCorpus("s", s, "sid", "text"),
            max_n=1, auto_order=False,
        )
        merged, removed = merge_numeric_buckets(g)
        assert removed == 0
        assert merged.num_nodes() == g.num_nodes()


class TestApplyMapping:
    def test_rename_keeps_count(self, spark, num_graph):
        mapping = pd.DataFrame(
            {"old_id": [data_node_id("row1")], "new_id": [data_node_id("rowx")]}
        )
        out, removed = apply_node_mapping(num_graph, mapping)
        ids = {r["id"] for r in out.nodes.collect()}
        assert data_node_id("row1") not in ids
        assert data_node_id("rowx") in ids
        assert removed == 0  # rename: one out, one in

    def test_merge_into_existing_removes(self, spark, num_graph):
        mapping = pd.DataFrame(
            {"old_id": [data_node_id("row1")], "new_id": [data_node_id("row9")]}
        )
        out, removed = apply_node_mapping(num_graph, mapping)
        assert removed == 1

    def test_self_loop_dropped(self, spark):
        # merging two endpoints of an edge must not create a self loop
        t = spark.createDataFrame(pd.DataFrame({"tid": [1], "a": ["alpha beta"]}))
        s = spark.createDataFrame(pd.DataFrame({"sid": [1], "text": ["alpha beta"]}))
        g = build_graph(
            spark, TableCorpus("t", t, "tid", ["a"]), TextCorpus("s", s, "sid", "text"),
            max_n=1, auto_order=False,
        )
        mapping = pd.DataFrame(
            {"old_id": [data_node_id("alpha")], "new_id": [data_node_id("beta")]}
        )
        out, _ = apply_node_mapping(g, mapping)
        for r in out.edges.collect():
            assert r["src"] != r["dst"]

    def test_oracle_edge_rewrite(self, spark, num_graph):
        """Edge rewriting under a mapping == SQL join-based rewrite."""
        from repro.oracle import assert_equivalent

        mapping_pdf = pd.DataFrame(
            {"old_id": [data_node_id("row1"), data_node_id("row2")],
             "new_id": [data_node_id("merged"), data_node_id("merged")]}
        )
        out, _ = apply_node_mapping(num_graph, mapping_pdf)
        sql = """
            SELECT DISTINCT least(ns, nd) AS src, greatest(ns, nd) AS dst FROM (
              SELECT COALESCE(m1.new_id, e.src) AS ns, COALESCE(m2.new_id, e.dst) AS nd
              FROM e LEFT JOIN m m1 ON e.src = m1.old_id
                     LEFT JOIN m m2 ON e.dst = m2.old_id
            ) WHERE ns <> nd
        """
        assert_equivalent(out.edges, sql, e=num_graph.edges.toPandas(), m=mapping_pdf)


class TestMergeSynonyms:
    def test_variant_rewritten(self, spark, num_graph):
        syn = spark.createDataFrame(
            pd.DataFrame({"variant": ["row1"], "canonical": ["row9"]})
        )
        out, removed = merge_synonyms(num_graph, syn)
        ids = {r["id"] for r in out.nodes.collect()}
        assert data_node_id("row1") not in ids and removed == 1

    def test_transitive_chain(self, spark, num_graph):
        syn = spark.createDataFrame(
            pd.DataFrame({"variant": ["row1", "row2"], "canonical": ["row2", "row3"]})
        )
        out, _ = merge_synonyms(num_graph, syn)
        ids = {r["id"] for r in out.nodes.collect()}
        assert data_node_id("row1") not in ids
        assert data_node_id("row2") not in ids
        assert data_node_id("row3") in ids

    def test_absent_variant_noop(self, spark, num_graph):
        syn = spark.createDataFrame(
            pd.DataFrame({"variant": ["zzz"], "canonical": ["row9"]})
        )
        out, removed = merge_synonyms(num_graph, syn)
        assert removed == 0

    def test_empty_dict_noop(self, spark, num_graph):
        syn = spark.createDataFrame([], "variant string, canonical string")
        out, removed = merge_synonyms(num_graph, syn)
        assert removed == 0


class TestGamma:
    def _emb(self):
        return pd.DataFrame(
            {
                "word": ["a", "b", "c", "d"],
                "vector": [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]],
            }
        )

    def test_calibrate_mean_cosine(self):
        pairs = pd.DataFrame({"a": ["a", "c"], "b": ["b", "d"]})
        g = calibrate_gamma(self._emb(), pairs)
        # both pairs have cosine ~0.993
        assert 0.9 < g < 1.0

    def test_calibrate_ignores_oov(self):
        pairs = pd.DataFrame({"a": ["a", "zzz"], "b": ["b", "yyy"]})
        assert calibrate_gamma(self._emb(), pairs) > 0.9

    def test_calibrate_all_oov_raises(self):
        pairs = pd.DataFrame({"a": ["x"], "b": ["y"]})
        with pytest.raises(ValueError):
            calibrate_gamma(self._emb(), pairs)

    def test_pairs_from_embeddings(self):
        pairs = synonym_pairs_from_embeddings(
            self._emb(), pd.Series(["a", "b", "c", "d"]), gamma=0.95
        )
        got = {tuple(r) for r in pairs.itertuples(index=False)}
        assert ("b", "a") in got  # canonical = lexicographically smaller
        assert ("d", "c") in got
        assert all(v > c for v, c in got)

    def test_pairs_high_gamma_empty(self):
        pairs = synonym_pairs_from_embeddings(
            self._emb(), pd.Series(["a", "c"]), gamma=0.999
        )
        assert pairs.empty

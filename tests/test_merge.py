"""Tests for node merging (§II-C): numeric bucketing by the
Freedman–Diaconis width, and synonym components onto their smallest term."""
import math
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.expand import expand_graph
from repro.core.graph import (
    DATA_PREFIX, TableCorpus, TextCorpus, build_graph, data_node_id, filter_to_term_corpus,
)
from repro.core.merge import (
    apply_node_mapping,
    bucket_label,
    freedman_diaconis_width,
    merge_numeric_buckets,
    merge_synonyms,
    numeric_terms,
)
from tests.helpers import star_graph, symmetric_edges


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
    """The quartiles are the ⌈q·n⌉-th smallest values, which Spark's
    approxQuantile returns at relative error 0 (its exact mode)."""
    rng = np.random.default_rng(n)
    values = rng.integers(0, max(2, n // 3), n) if repeats else rng.permutation(n)
    values = values.astype(float)
    df = spark.createDataFrame(pd.DataFrame({"value": values})).coalesce(1)
    q1, q3 = df.approxQuantile("value", [0.25, 0.75], 0.0)
    assert [q1, q3] == [sorted(values)[math.ceil(q * n) - 1] for q in (0.25, 0.75)]
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
        ids = set(merged.node_rows["id"])
        assert data_node_id("10") not in ids
        assert any(i.startswith("d::num[") for i in ids)

    def test_edges_rewired(self, num_graph):
        merged, _ = merge_numeric_buckets(num_graph, width=5.0)
        edges = symmetric_edges(merged)
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
        ids = set(out.node_rows["id"])
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
        for r in out.edge_rows.to_dict("records"):
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
        assert_equivalent(out.edge_rows, sql, e=num_graph.edge_rows, m=mapping_pdf)


def synonyms(spark, pairs):
    return spark.createDataFrame(
        pd.DataFrame(pairs, columns=["variant", "canonical"]), "variant string, canonical string"
    )


def data_terms(graph) -> set:
    nodes = graph.node_rows
    return {i[len(DATA_PREFIX):] for i in nodes.loc[nodes["type"] == "data", "id"]}


class TestMergeSynonyms:
    def test_variant_rewritten(self, spark, num_graph):
        # the pair's smallest term names the merged node
        out, removed = merge_synonyms(num_graph, synonyms(spark, [("row1", "row9")]))
        ids = set(out.node_rows["id"])
        assert data_node_id("row9") not in ids and removed == 1
        assert data_node_id("row1") in ids

    def test_transitive_chain(self, spark, num_graph):
        out, _ = merge_synonyms(num_graph, synonyms(spark, [("row1", "row2"), ("row2", "row3")]))
        ids = set(out.node_rows["id"])
        assert data_node_id("row2") not in ids
        assert data_node_id("row3") not in ids
        assert data_node_id("row1") in ids

    def test_symmetric_pair_merges(self, spark, num_graph):
        pairs = [("row1", "row2"), ("row2", "row1")]
        out, removed = merge_synonyms(num_graph, synonyms(spark, pairs))
        ids = set(out.node_rows["id"])
        assert removed == 1
        assert data_node_id("row1") in ids and data_node_id("row2") not in ids

    def test_cycle_merges(self, spark, num_graph):
        pairs = [("row1", "row2"), ("row2", "row3"), ("row3", "row1")]
        out, removed = merge_synonyms(num_graph, synonyms(spark, pairs))
        ids = set(out.node_rows["id"])
        assert removed == 2
        assert data_node_id("row1") in ids
        assert not {data_node_id("row2"), data_node_id("row3")} & ids

    def test_long_chain_merges(self, spark):
        terms = [f"c{i:02d}" for i in range(12)]
        g = star_graph(spark, terms + ["other"])
        out, removed = merge_synonyms(g, synonyms(spark, list(zip(terms, terms[1:]))))
        assert removed == 11
        assert data_terms(out) == {"c00", "other"}
        assert out.num_edges() == 2

    def test_absent_canonical_names_node(self, spark):
        # "aa" is not in the graph: the rewrite creates its node
        out, removed = merge_synonyms(
            star_graph(spark, ["bb", "cc"]), synonyms(spark, [("bb", "aa"), ("cc", "aa")])
        )
        assert data_terms(out) == {"aa"} and removed == 1
        assert out.aliases == {"bb": "aa", "cc": "aa"}

    def test_kb_fact_on_merged_term_reaches_node(self, spark):
        # the KB knows "smith", which merges into the node "jo_smith"; the
        # expansion edge and the filter's KB bridge both reach that node
        g = star_graph(spark, ["jo_smith", "smith"], [("west", "s::1")])
        g = replace(g, term_corpus="t")
        g.node_rows.loc[g.node_rows["id"] == "s::1", "corpus"] = "s"
        kb = pd.DataFrame({"subject": ["smith", "west"], "object": ["heat", "smith"]})
        out, _ = merge_synonyms(g, synonyms(spark, [("jo_smith", "smith")]))
        assert data_node_id("west") in set(filter_to_term_corpus(out, kb=kb).node_rows["id"])
        expanded = expand_graph(out, kb, sink_scope="none")
        assert data_terms(expanded) == {"jo_smith", "heat", "west"}
        edges = symmetric_edges(expanded)
        assert (data_node_id("jo_smith"), data_node_id("heat")) in edges
        assert (data_node_id("jo_smith"), data_node_id("west")) in edges

    def test_kb_fact_follows_renamed_term(self, spark):
        # only "france" is in the graph; its node takes the smaller
        # "farnce", and the KB's (france, europe) reaches it
        g = star_graph(spark, ["france"])
        out, removed = merge_synonyms(g, synonyms(spark, [("farnce", "france")]))
        assert removed == 0 and data_terms(out) == {"farnce"}
        kb = pd.DataFrame({"subject": ["france"], "object": ["europe"]})
        expanded = expand_graph(out, kb, sink_scope="none")
        assert data_terms(expanded) == {"farnce", "europe"}
        assert (data_node_id("farnce"), data_node_id("europe")) in symmetric_edges(expanded)

    def test_absent_variant_noop(self, spark, num_graph):
        out, removed = merge_synonyms(num_graph, synonyms(spark, [("zzz", "row9")]))
        assert removed == 0
        assert data_node_id("row9") in set(out.node_rows["id"])

    def test_empty_dict_noop(self, spark, num_graph):
        syn = spark.createDataFrame([], "variant string, canonical string")
        out, removed = merge_synonyms(num_graph, syn)
        assert removed == 0

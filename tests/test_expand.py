"""Tests for graph expansion (Algorithm 2) and sink removal."""
import pandas as pd
import pytest

from repro.core.expand import expand_graph
from repro.core.graph import (
    METADATA_TYPES,
    StructuredTextCorpus,
    TableCorpus,
    TextCorpus,
    build_graph,
    data_node_id,
    filter_to_term_corpus,
)
from repro.core.merge import merge_synonyms
from tests.helpers import edge_set, symmetric_edges


@pytest.fixture(scope="module")
def g(spark):
    t = spark.createDataFrame(
        pd.DataFrame({"tid": [1, 2], "a": ["tarantino drama", "shyamalan thriller"]})
    )
    s = spark.createDataFrame(
        pd.DataFrame({"sid": [1, 2], "text": ["tarantino comedy film", "shyamalan thriller film"]})
    )
    return build_graph(
        spark, TextCorpus("s", s, "sid", "text"), TableCorpus("t", t, "tid", ["a"]),
        max_n=1, auto_order=False,
    )


def _kb(spark, rows):
    return spark.createDataFrame(pd.DataFrame(rows, columns=["subject", "object"]))


class TestExpand:
    def test_adds_edge_between_existing_terms(self, spark, g):
        kb = _kb(spark, [("tarantino", "comedy")])
        out = expand_graph(g, kb)
        edges = symmetric_edges(out)
        assert (data_node_id("tarantino"), data_node_id("comedy")) in edges

    def test_symmetric_fetch(self, spark, g):
        # KB stores (comedy, tarantino); node tarantino still fetches it
        kb = _kb(spark, [("comedy", "tarantino")])
        out = expand_graph(g, kb)
        edges = symmetric_edges(out)
        assert (data_node_id("tarantino"), data_node_id("comedy")) in edges

    def test_new_node_with_two_connections_kept(self, spark, g):
        kb = _kb(spark, [("tarantino", "style"), ("comedy", "style")])
        out = expand_graph(g, kb)
        ids = set(out.node_rows["id"])
        assert data_node_id("style") in ids

    def test_sink_removed(self, spark, g):
        # "vaswani" connects only to shyamalan -> degree 1 -> removed (Alg. 2)
        kb = _kb(spark, [("shyamalan", "vaswani")])
        out = expand_graph(g, kb)
        ids = set(out.node_rows["id"])
        assert data_node_id("vaswani") not in ids

    def test_sink_scope_none_keeps(self, spark, g):
        kb = _kb(spark, [("shyamalan", "vaswani")])
        out = expand_graph(g, kb, sink_scope="none")
        ids = set(out.node_rows["id"])
        assert data_node_id("vaswani") in ids

    def test_sink_scope_all_prunes_corpus_sinks(self, spark, g):
        kb = _kb(spark, [("shyamalan", "vaswani")])
        out_added = expand_graph(g, kb, sink_scope="added")
        out_all = expand_graph(g, kb, sink_scope="all")
        assert out_all.num_nodes() <= out_added.num_nodes()

    def test_bad_scope_raises(self, spark, g):
        with pytest.raises(ValueError):
            expand_graph(g, _kb(spark, [("a", "b")]), sink_scope="woof")

    def test_unrelated_kb_noop(self, spark, g):
        kb = _kb(spark, [("zzz", "yyy")])
        out = expand_graph(g, kb)
        assert out.num_nodes() == g.num_nodes()
        assert out.num_edges() == g.num_edges()

    def test_monotone_before_cleanup(self, spark, g):
        kb = _kb(spark, [("tarantino", "comedy"), ("drama", "comedy")])
        out = expand_graph(g, kb, sink_scope="none")
        in_edges = edge_set(g)
        out_edges = edge_set(out)
        assert in_edges <= out_edges

    def test_metadata_untouched(self, spark, g):
        kb = _kb(spark, [("tarantino", "comedy")])
        out = expand_graph(g, kb)
        want = set(g.node_rows.loc[g.node_rows["type"].isin(METADATA_TYPES), "id"])
        got = set(out.node_rows.loc[out.node_rows["type"].isin(METADATA_TYPES), "id"])
        assert want == got

    def test_no_self_relations(self, spark, g):
        kb = _kb(spark, [("tarantino", "tarantino")])
        out = expand_graph(g, kb)
        assert out.num_edges() == g.num_edges()

    def test_shortens_paths(self, spark, g):
        """The §III-A promise: expansion shortens metadata-metadata paths."""
        from repro.core.compress import bfs_parents
        from tests.helpers import adjacency

        kb = _kb(spark, [("tarantino", "comedy")])
        out = expand_graph(g, kb)
        d0, _ = bfs_parents(adjacency(g), "s::1")
        d1, _ = bfs_parents(adjacency(out), "s::1")
        assert d1["t::1"] <= d0["t::1"]


def test_filter_and_expand_independent_of_shuffle_partitions(spark):
    t = spark.createDataFrame(
        pd.DataFrame({"tid": [1, 2], "a": ["tarantino drama", "shyamalan thriller"]})
    )
    s = spark.createDataFrame(
        pd.DataFrame({"sid": [1, 2], "text": ["tarantino comedy film", "shyamalan thriller film"]})
    )
    g = build_graph(
        spark, TableCorpus("t", t, "tid", ["a"]), TextCorpus("s", s, "sid", "text"),
        max_n=1, auto_order=False, filter_second=False,
    )
    kb = _kb(
        spark,
        [("tarantino", "comedy"), ("drama", "genre"), ("thriller", "genre"), ("film", "cinema")],
    )
    key = "spark.sql.shuffle.partitions"

    def graphs(n):
        old = spark.conf.get(key)
        spark.conf.set(key, str(n))
        try:
            f = filter_to_term_corpus(g, kb=kb)
            e = expand_graph(f, kb)
            return [
                (set(x.node_rows.itertuples(index=False, name=None)), edge_set(x))
                for x in (f, e)
            ]
        finally:
            spark.conf.set(key, old)

    four = graphs(4)
    assert four == graphs(64)
    (f_nodes, _), (e_nodes, _) = four
    # filtering dropped "film", the KB bridge kept "comedy", expansion added "genre"
    assert (data_node_id("film"), "data", "") not in f_nodes
    assert (data_node_id("comedy"), "data", "") in f_nodes
    assert (data_node_id("genre"), "data", "") in e_nodes


def _jobs_of(sc, group, stage, *args, **kwargs):
    """(``stage(*args, **kwargs)``, the number of Spark jobs it ran)."""
    sc.setJobGroup(group, group)
    try:
        out = stage(*args, **kwargs)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


class TestJoinPlans:
    def test_graph_stages_run_no_spark_job(self, spark):
        """After build_graph's collect, the graph-scale stages run on the
        driver rows: no Spark job, but one to collect the stage's synonym
        dictionary or KB."""
        from repro.core.compress import msp_compress, ssum_like_compress
        from repro.core.merge import merge_numeric_buckets

        t = spark.createDataFrame(
            pd.DataFrame({"tid": [1, 2], "a": ["tarantino drama 1994", "shyamalan thriller 1999"]})
        )
        s = spark.createDataFrame(
            pd.DataFrame(
                {"sid": [1, 2], "text": ["tarantino comedy film 1994", "shyamalan thriller film 2001"]}
            )
        )
        g = build_graph(
            spark, TableCorpus("t", t, "tid", ["a"]), TextCorpus("s", s, "sid", "text"),
            max_n=1, auto_order=False, filter_second=False,
        )
        syn = spark.createDataFrame(pd.DataFrame({"variant": ["film"], "canonical": ["thriller"]}))
        kb = _kb(spark, [("tarantino", "comedy"), ("shyamalan", "vaswani"), ("drama", "style")])
        sc = spark.sparkContext
        jobs = {}

        def run(name, stage, *args, **kwargs):
            group = f"test_graph_stages_run_no_spark_job.{name}"
            out, jobs[name] = _jobs_of(sc, group, stage, *args, **kwargs)
            return out

        g, removed = run("merge.synonyms", merge_synonyms, g, syn)
        assert removed == 1
        g, removed = run("merge.buckets", merge_numeric_buckets, g)
        assert removed > 0
        g = run("filter", filter_to_term_corpus, g, kb=kb)
        for scope in ("none", "all", "added"):
            out = run(f"expand.{scope}", expand_graph, g, kb, sink_scope=scope)
        run("ssum", ssum_like_compress, out, ratio=0.5)
        out = run("msp", msp_compress, out, beta=0.5)
        run("index", out.index)
        assert jobs == {
            "merge.synonyms": 1,
            "merge.buckets": 0,
            "filter": 1,
            "expand.none": 1,
            "expand.all": 1,
            "expand.added": 1,
            "ssum": 0,
            "msp": 0,
            "index": 0,
        }

    def test_build_collects_each_corpus_once(self, spark):
        """Algorithm 1 runs on the driver: build_graph's only Spark jobs are
        one collect per corpus, and one more action for a taxonomy's parent
        edges (a join: with broadcast joins off in this session, its two
        shuffle stages run as jobs of their own)."""
        t = spark.createDataFrame(pd.DataFrame({"tid": [1, 2], "a": ["tarantino drama", "heat"]}))
        s = spark.createDataFrame(pd.DataFrame({"sid": [1, 2], "text": ["tarantino film", None]}))
        x = spark.createDataFrame(
            pd.DataFrame({"cid": [1, 2], "label": ["drama", "film"], "parent": [None, 1.0]})
        )
        table, text = TableCorpus("t", t, "tid", ["a"]), TextCorpus("s", s, "sid", "text")
        tax = StructuredTextCorpus("x", x, "cid", "label", "parent")
        sc = spark.sparkContext
        jobs = {}
        for name, pair in (("table+text", (table, text)), ("taxonomy+text", (tax, text))):
            for fs in (True, False):
                _, jobs[name, fs] = _jobs_of(
                    sc, f"test_build_collects_each_corpus_once.{name}.{fs}", build_graph,
                    spark, *pair, max_n=1, filter_second=fs,
                )
        assert jobs == {
            ("table+text", True): 2,
            ("table+text", False): 2,
            ("taxonomy+text", True): 2 + 3,
            ("taxonomy+text", False): 2 + 3,
        }

    @staticmethod
    def _tdmatch_inputs(spark):
        t = spark.createDataFrame(
            pd.DataFrame({"tid": [1, 2], "a": ["tarantino drama 1994", "shyamalan thriller 1999"]})
        )
        s = spark.createDataFrame(
            pd.DataFrame({"sid": [1, 2], "text": ["tarantino drama film", "shyamalan thriller"]})
        )
        kb = spark.createDataFrame(pd.DataFrame({"subject": ["drama", "film"], "object": ["film", "movi"]}))
        syn = spark.createDataFrame(pd.DataFrame({"variant": ["thriller"], "canonical": ["suspens"]}))
        return TextCorpus("s", s, "sid", "text"), TableCorpus("t", t, "tid", ["a"]), kb, syn

    def test_run_tdmatch_runs_no_job_after_its_collects(self, spark, monkeypatch):
        """Once the graph is built, merged, filtered and expanded, run_tdmatch
        runs no Spark job: walks, skip-gram, ranking and the result frames
        all run on the driver."""
        from repro.core import pipeline

        sc = spark.sparkContext
        group = "test_run_tdmatch_runs_no_job_after_its_collects"
        walk_corpus = pipeline.walk_corpus

        def walk_corpus_in_group(*args, **kwargs):
            sc.setJobGroup(group, group)
            return walk_corpus(*args, **kwargs)

        monkeypatch.setattr(pipeline, "walk_corpus", walk_corpus_in_group)
        query, target, kb, syn = self._tdmatch_inputs(spark)
        cfg = pipeline.TDMatchConfig(
            num_walks=20, walk_length=8, vector_size=16, k=2, expand=True, bucket_numeric=True
        )
        try:
            res = pipeline.run_tdmatch(spark, query, target, config=cfg, kb=kb, synonyms=syn)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 0
        top = {(r["query"], r["target"]) for r in res.matches.where("rank = 1").collect()}
        assert top == {("1", "1"), ("2", "2")}
        assert res.vectors["node"].nunique() == res.graph.num_nodes() == len(res.vectors)

    def test_run_tdmatch_collects_the_kb_once(self, spark):
        """A run with expansion collects its KB once, for both the filter
        and the expansion: its Spark jobs are the two corpus collects of
        build_graph, the synonym collect and the KB collect."""
        from repro.core.pipeline import TDMatchConfig, run_tdmatch

        query, target, kb, syn = self._tdmatch_inputs(spark)
        cfg = TDMatchConfig(num_walks=2, walk_length=4, vector_size=8, k=2, expand=True)
        res, jobs = _jobs_of(
            spark.sparkContext, "test_run_tdmatch_collects_the_kb_once", run_tdmatch,
            spark, query, target, config=cfg, kb=kb, synonyms=syn,
        )
        assert jobs == 2 + 1 + 1
        assert res.graph_sizes["expanded"] != res.graph_sizes["original"]

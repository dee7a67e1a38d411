"""Tests for random walks (Alg. 4), embeddings and graph filtering."""
import pandas as pd
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core import walks as W

from repro.core.embed import mean_pool, train_embeddings, train_token_embeddings
from repro.core.graph import (
    Graph,
    GraphIndex,
    TableCorpus,
    TextCorpus,
    build_graph,
    data_node_id,
    filter_to_term_corpus,
)
from repro.core.walks import generate_walks, walk_from
from tests.helpers import adjacency


@pytest.fixture(scope="module")
def g(spark):
    t = spark.createDataFrame(
        pd.DataFrame({"tid": [1, 2], "a": ["alpha beta", "gamma delta"]})
    )
    s = spark.createDataFrame(
        pd.DataFrame({"sid": [1, 2], "text": ["alpha beta news", "gamma delta news"]})
    )
    return build_graph(
        spark, TableCorpus("t", t, "tid", ["a"]), TextCorpus("s", s, "sid", "text"),
        max_n=1, auto_order=False,
    )


class TestWalkFrom:
    def test_respects_adjacency(self):
        adj = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}
        rng = np.random.default_rng(0)
        w = walk_from(adj, "a", 10, rng)
        for u, v in zip(w, w[1:]):
            assert v in adj[u]

    def test_isolated_node_stops(self):
        w = walk_from({"x": []}, "x", 5, np.random.default_rng(0))
        assert w == ["x"]

    def test_length_bound(self):
        adj = {"a": ["b"], "b": ["a"]}
        w = walk_from(adj, "a", 7, np.random.default_rng(1))
        assert len(w) == 7

    def test_starts_at_start(self):
        adj = {"a": ["b"], "b": ["a"]}
        assert walk_from(adj, "b", 3, np.random.default_rng(2))[0] == "b"


class TestGenerateWalks:
    def test_count(self, g):
        walks = generate_walks(g, num_walks=3, walk_length=5, seed=0)
        assert walks.count() == 3 * g.num_nodes()

    def test_walks_traverse_real_edges(self, g):
        adj = adjacency(g)
        for row in generate_walks(g, num_walks=2, walk_length=6, seed=0).collect():
            w = row["walk"]
            for u, v in zip(w, w[1:]):
                assert v in adj[u]

    def test_deterministic_across_partitionings(self, spark, g):
        def walks(graph):
            out = generate_walks(graph, num_walks=2, walk_length=5, seed=1)
            return [r["walk"] for r in out.collect()]

        ref = walks(Graph.from_frames(g.nodes.coalesce(1), g.edges.coalesce(1), g.term_corpus))
        assert walks(Graph.from_frames(g.nodes.repartition(7), g.edges.repartition(5), g.term_corpus)) == ref
        before = spark.conf.get("spark.sql.shuffle.partitions")
        try:
            for n in ("3", "64"):
                spark.conf.set("spark.sql.shuffle.partitions", n)
                assert walks(g) == ref
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", before)
        # pass by pass, each pass in node-id order
        ids = sorted(r["id"] for r in g.nodes.collect())
        assert [w[0] for w in ref] == ids + ids

    def test_partitions_fixed(self, g):
        # not defaultParallelism, which Word2Vec's vocabulary order would follow
        walks = generate_walks(g, num_walks=3, walk_length=4, seed=0)
        assert walks.rdd.getNumPartitions() == 1

    def test_empty_graph(self, spark, g):
        empty = Graph.from_frames(g.nodes.limit(0), g.edges.limit(0), g.term_corpus)
        walks = generate_walks(empty, num_walks=2, walk_length=5, seed=0)
        assert walks.count() == 0
        assert walks.schema.simpleString() == "struct<walk:array<string>>"
        assert "LogicalRDD" not in walks._jdf.queryExecution().analyzed().toString()

    def test_isolated_nodes_only(self, spark, g):
        lonely = Graph.from_frames(g.nodes, g.edges.limit(0), g.term_corpus)
        out = generate_walks(lonely, num_walks=2, walk_length=5, seed=0)
        got = [r["walk"] for r in out.collect()]
        ids = sorted(r["id"] for r in g.nodes.collect())
        assert got == [[i] for i in ids + ids]

    def test_equals_walk_from(self, g):
        adj = adjacency(g)
        ids = sorted(r["id"] for r in g.nodes.collect())
        want = [
            walk_from(adj, s, 6, np.random.default_rng(W._walk_seed(3, s, w)))
            for w in range(4)
            for s in ids
        ]
        got = [r["walk"] for r in generate_walks(g, num_walks=4, walk_length=6, seed=3).collect()]
        assert got == want

    def test_seed_changes_walks(self, g):
        a = sorted(tuple(r["walk"]) for r in generate_walks(g, num_walks=2, walk_length=8, seed=1).collect())
        b = sorted(tuple(r["walk"]) for r in generate_walks(g, num_walks=2, walk_length=8, seed=2).collect())
        assert a != b

    def test_every_node_starts_walks(self, g):
        starts = {r["walk"][0] for r in generate_walks(g, num_walks=1, walk_length=3, seed=0).collect()}
        assert starts == {r["id"] for r in g.nodes.collect()}


class TestRngReplay:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    def test_equals_random_raw(self, seed):
        want = np.random.default_rng(seed).bit_generator.random_raw(9)
        got = W.default_rng_raw(np.array([seed, 5], dtype=np.uint64), 9)[0]
        assert got.tolist() == want.tolist()

    def test_forced_rejection_falls_back(self, monkeypatch):
        # "a" has degree 3: a raw draw of 0 gives m = 0, whose low word 0 is
        # below 2**32 mod 3 = 1, so NumPy would draw again
        adj = {"a": ["b", "c", "d"], "b": ["a"], "c": ["a"], "d": ["a"]}
        index = GraphIndex.from_neighbours(list(adj), list(adj.values()))
        replay, fallbacks = W.default_rng_raw, []

        def zero_first(seeds, n):
            out = replay(seeds, n)
            out[0, 0] = 0  # the first walk, from "a"
            return out

        def spy(*args):
            fallbacks.append(args[1])
            return walk_from(*args)

        monkeypatch.setattr(W, "default_rng_raw", zero_first)
        monkeypatch.setattr(W, "walk_from", spy)
        walks, lengths = W.walk_pass(index, walk_idx=2, walk_length=7, seed=11)
        assert fallbacks == [0]
        want = [
            walk_from(adj, s, 7, np.random.default_rng(W._walk_seed(11, s, 2)))
            for s in sorted(adj)
        ]
        assert [[index.ids[j] for j in row] for row in walks] == want
        assert (lengths == 7).all()


class TestEmbeddings:
    def test_every_walked_node_has_vector(self, g):
        walks = generate_walks(g, num_walks=3, walk_length=6, seed=0)
        emb = train_embeddings(walks, vector_size=16, window=3, seed=0)
        emb_nodes = {r["node"] for r in emb.collect()}
        walked = {n for r in walks.collect() for n in r["walk"]}
        assert walked <= emb_nodes

    def test_vector_size(self, g):
        walks = generate_walks(g, num_walks=2, walk_length=5, seed=0)
        emb = train_embeddings(walks, vector_size=12, window=3, seed=0)
        assert len(emb.first()["vector"]) == 12

    def test_related_nodes_closer(self, spark, g):
        """t::1 shares terms with s::1 -> cosine(t1,s1) > cosine(t1,s2)."""
        walks = generate_walks(g, num_walks=30, walk_length=10, seed=0)
        emb = train_embeddings(walks, vector_size=32, window=3, seed=0)
        vecs = {r["node"]: np.array(r["vector"]) for r in emb.collect()}

        def cos(a, b):
            va, vb = vecs[a], vecs[b]
            return va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))

        assert cos("t::1", "s::1") > cos("t::1", "s::2")
        assert cos("t::2", "s::2") > cos("t::2", "s::1")


class TestTokenEmbeddings:
    def test_trains_on_sentences(self, spark):
        sents = spark.createDataFrame(
            pd.DataFrame({"tokens": [["a", "b", "c"], ["a", "b", "d"]] * 10})
        )
        wv = train_token_embeddings(sents, vector_size=8, window=2, seed=0)
        words = {r["word"] for r in wv.collect()}
        assert {"a", "b", "c", "d"} <= words

    def test_mean_pool(self, spark):
        wv = spark.createDataFrame(
            pd.DataFrame({"word": ["x", "y"], "vector": [[1.0, 0.0], [0.0, 1.0]]})
        )
        toks = spark.createDataFrame(
            pd.DataFrame({"doc": ["d1", "d1", "d2"], "token": ["x", "y", "x"]})
        )
        out = {r["doc"]: r["vector"] for r in mean_pool(toks, wv).collect()}
        assert out["d1"] == [0.5, 0.5]
        assert out["d2"] == [1.0, 0.0]

    def test_mean_pool_drops_oov_docs(self, spark):
        wv = spark.createDataFrame(pd.DataFrame({"word": ["x"], "vector": [[1.0]]}))
        toks = spark.createDataFrame(
            pd.DataFrame({"doc": ["d1", "d2"], "token": ["x", "zzz"]})
        )
        docs = {r["doc"] for r in mean_pool(toks, wv).collect()}
        assert docs == {"d1"}


class TestFilterToTermCorpus:
    def test_drops_second_only_terms(self, spark):
        t = spark.createDataFrame(pd.DataFrame({"tid": [1], "a": ["alpha"]}))
        s = spark.createDataFrame(pd.DataFrame({"sid": [1], "text": ["alpha zulu"]}))
        g = build_graph(
            spark, TableCorpus("t", t, "tid", ["a"]), TextCorpus("s", s, "sid", "text"),
            max_n=1, auto_order=False, filter_second=False,
        )
        assert data_node_id("zulu") in {r["id"] for r in g.nodes.collect()}
        fg = filter_to_term_corpus(g)
        ids = {r["id"] for r in fg.nodes.collect()}
        assert data_node_id("zulu") not in ids
        assert data_node_id("alpha") in ids

    def test_kb_bridged_term_survives(self, spark):
        t = spark.createDataFrame(pd.DataFrame({"tid": [1], "a": ["alpha"]}))
        s = spark.createDataFrame(pd.DataFrame({"sid": [1], "text": ["alpha zulu"]}))
        g = build_graph(
            spark, TableCorpus("t", t, "tid", ["a"]), TextCorpus("s", s, "sid", "text"),
            max_n=1, auto_order=False, filter_second=False,
        )
        kb = spark.createDataFrame(
            pd.DataFrame({"subject": ["zulu"], "object": ["alpha"]})
        )
        fg = filter_to_term_corpus(g, kb=kb)
        assert data_node_id("zulu") in {r["id"] for r in fg.nodes.collect()}

    def test_matches_build_time_filtering(self, spark):
        t = spark.createDataFrame(
            pd.DataFrame({"tid": [1, 2], "a": ["alpha beta", "gamma"]})
        )
        s = spark.createDataFrame(
            pd.DataFrame({"sid": [1], "text": ["alpha zulu omega"]})
        )
        tc = TableCorpus("t", t, "tid", ["a"])
        sc = TextCorpus("s", s, "sid", "text")
        built = build_graph(spark, tc, sc, max_n=1, auto_order=False, filter_second=True)
        late = filter_to_term_corpus(
            build_graph(spark, tc, sc, max_n=1, auto_order=False, filter_second=False)
        )
        assert {r["id"] for r in built.nodes.collect()} == {
            r["id"] for r in late.nodes.collect()
        }
        eb = {(r["src"], r["dst"]) for r in built.edges.collect()}
        el = {(r["src"], r["dst"]) for r in late.edges.collect()}
        assert eb == el

"""Tests for compression (§III-B): BFS helpers, MSP (Alg. 3), SSuM-like."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.compress import (
    all_shortest_path_edges,
    bfs_parents,
    msp_compress,
    sample_pairs,
    ssum_like_compress,
)
from repro.core.graph import Graph, TableCorpus, TextCorpus, build_graph
from tests.helpers import adjacency


# a diamond with a pendant: a-b, a-c, b-d, c-d, d-e
ADJ = {
    "a": ["b", "c"],
    "b": ["a", "d"],
    "c": ["a", "d"],
    "d": ["b", "c", "e"],
    "e": ["d"],
}


class TestBfs:
    def test_distances(self):
        dist, _ = bfs_parents(ADJ, "a")
        assert dist == {"a": 0, "b": 1, "c": 1, "d": 2, "e": 3}

    def test_parents_capture_all_shortest(self):
        _, parents = bfs_parents(ADJ, "a")
        assert sorted(parents["d"]) == ["b", "c"]

    def test_unreachable(self):
        dist, _ = bfs_parents({"a": [], "b": []}, "a")
        assert "b" not in dist


class TestAllShortestPaths:
    def test_diamond_keeps_both_paths(self):
        edges = all_shortest_path_edges(ADJ, "a", "d")
        assert set(edges) == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}

    def test_single_path(self):
        edges = all_shortest_path_edges(ADJ, "a", "e")
        # all shortest a-e paths go through d
        assert ("d", "e") in edges

    def test_disconnected_empty(self):
        assert all_shortest_path_edges({"a": [], "z": []}, "a", "z") == []

    def test_same_node_empty(self):
        assert all_shortest_path_edges(ADJ, "a", "a") == []

    def test_adjacent(self):
        assert all_shortest_path_edges(ADJ, "d", "e") == [("d", "e")]


@pytest.fixture(scope="module")
def small_graph(spark):
    t = spark.createDataFrame(
        pd.DataFrame(
            {
                "tid": [1, 2, 3],
                "a": ["alpha beta", "gamma delta", "alpha delta"],
            }
        )
    )
    s = spark.createDataFrame(
        pd.DataFrame(
            {
                "sid": [1, 2, 3],
                "text": ["alpha beta story", "gamma delta tale", "delta alpha news"],
            }
        )
    )
    return build_graph(
        spark,
        TableCorpus("t", t, "tid", ["a"]),
        TextCorpus("s", s, "sid", "text"),
        max_n=1,
        auto_order=False,
    )


class TestMsp:
    def test_subset_of_input(self, small_graph):
        cg = msp_compress(small_graph, beta=0.5, seed=0)
        in_edges = {(r["src"], r["dst"]) for r in small_graph.edges.collect()}
        for r in cg.edges.collect():
            assert (r["src"], r["dst"]) in in_edges
        in_nodes = {r["id"] for r in small_graph.nodes.collect()}
        assert {r["id"] for r in cg.nodes.collect()} <= in_nodes

    def test_all_metadata_retained(self, small_graph):
        cg = msp_compress(small_graph, beta=0.25, seed=1)
        want = {r["id"] for r in small_graph.metadata_nodes().collect()}
        got = {r["id"] for r in cg.nodes.collect()}
        assert want <= got

    def test_doc_nodes_connected(self, small_graph):
        cg = msp_compress(small_graph, beta=0.5, seed=2)
        deg = {r["id"]: r["degree"] for r in cg.degrees().collect()}
        for r in cg.doc_nodes().collect():
            assert deg.get(r["id"], 0) >= 1

    def test_not_larger(self, small_graph):
        cg = msp_compress(small_graph, beta=0.5, seed=0)
        assert cg.num_edges() <= small_graph.num_edges()

    def test_deterministic(self, small_graph):
        a = msp_compress(small_graph, beta=0.5, seed=3)
        b = msp_compress(small_graph, beta=0.5, seed=3)
        ea = sorted((r["src"], r["dst"]) for r in a.edges.collect())
        eb = sorted((r["src"], r["dst"]) for r in b.edges.collect())
        assert ea == eb

    def test_independent_of_node_row_order(self, spark):
        words = [f"w{i}" for i in range(12)]
        t = pd.DataFrame(
            {"tid": range(10), "a": [f"{words[i]} {words[i + 1]}" for i in range(10)]}
        )
        s = pd.DataFrame(
            {"sid": range(10), "text": [f"{words[i + 2]} {words[i]} note" for i in range(10)]}
        )
        g = build_graph(
            spark,
            TableCorpus("t", spark.createDataFrame(t), "tid", ["a"]),
            TextCorpus("s", spark.createDataFrame(s), "sid", "text"),
            max_n=1,
            auto_order=False,
        )

        def compressed(order):
            out = msp_compress(
                Graph.from_frames(g.nodes.orderBy(order), g.edges, g.term_corpus), beta=0.2, seed=0
            )
            return (
                {tuple(r) for r in out.nodes.collect()},
                {tuple(r) for r in out.edges.collect()},
            )

        assert compressed(F.col("id")) == compressed(F.desc("id"))

    def test_independent_of_partitioning(self, spark, small_graph):
        def compressed(graph):
            out = msp_compress(graph, beta=0.5, seed=4)
            return (
                sorted(tuple(r) for r in out.nodes.collect()),
                sorted(tuple(r) for r in out.edges.collect()),
            )

        g = small_graph
        ref = compressed(Graph.from_frames(g.nodes.coalesce(1), g.edges.coalesce(1), g.term_corpus))
        assert ref[1]
        assert compressed(Graph.from_frames(g.nodes.repartition(7), g.edges.repartition(5), g.term_corpus)) == ref
        key = "spark.sql.shuffle.partitions"
        before = spark.conf.get(key)
        try:
            for n in ("3", "64"):
                spark.conf.set(key, n)
                assert compressed(g) == ref
        finally:
            spark.conf.set(key, before)

    @pytest.mark.parametrize("beta,seed", [(0.25, 1), (2.0, 0)])
    def test_equals_per_pair_reference(self, small_graph, beta, seed):
        """One BFS per source keeps exactly the edges of the per-pair loop."""
        docs = small_graph.doc_nodes().select("id", "corpus").toPandas()
        first, second = (
            sorted(docs.loc[docs["corpus"] == c, "id"]) for c in sorted(docs["corpus"].unique())
        )
        n = max(1, int(beta * small_graph.num_nodes()))
        pairs = sample_pairs(first, second, n, seed)
        adj = adjacency(small_graph)
        want_edges = set()
        for s, d in zip(pairs["src"], pairs["dst"]):
            want_edges.update(all_shortest_path_edges(adj, s, d))
        keep = {u for e in want_edges for u in e}
        keep |= {r["id"] for r in small_graph.metadata_nodes().collect()}
        want_nodes = sorted(tuple(r) for r in small_graph.nodes.collect() if r["id"] in keep)

        cg = msp_compress(small_graph, beta=beta, seed=seed)
        assert sorted(tuple(r) for r in cg.edges.collect()) == sorted(want_edges)
        assert sorted(tuple(r) for r in cg.nodes.collect()) == want_nodes

    def test_needs_two_corpora(self, spark, small_graph):
        only = small_graph.subgraph(
            small_graph.nodes.where(
                (F.col("corpus") == "t") | (F.col("type") == "data")
            ).select("id")
        )
        only.term_corpus = "t"
        with pytest.raises(ValueError):
            msp_compress(only, beta=0.5)

    def test_higher_beta_not_smaller(self, small_graph):
        lo = msp_compress(small_graph, beta=0.1, seed=0)
        hi = msp_compress(small_graph, beta=2.0, seed=0)
        assert hi.num_edges() >= lo.num_edges()


class TestSsum:
    def test_metadata_retained(self, small_graph):
        cg = ssum_like_compress(small_graph, ratio=0.5, seed=0)
        want = {r["id"] for r in small_graph.metadata_nodes().collect()}
        assert want <= {r["id"] for r in cg.nodes.collect()}

    def test_reduces_edges(self, small_graph):
        cg = ssum_like_compress(small_graph, ratio=0.3, seed=0)
        assert cg.num_edges() <= small_graph.num_edges()

    def test_ratio_one_keeps_merged_graph(self, small_graph):
        cg = ssum_like_compress(small_graph, ratio=1.0, seed=0)
        # identical-neighbourhood data nodes may merge; edges never grow
        assert cg.num_nodes() <= small_graph.num_nodes()

    @pytest.mark.parametrize(
        "x,y,merged",
        [
            (["a", "b"], ["a", "b"], True),
            # ids may hold any separator character: joined with "\x01",
            # these two neighbour sets read the same
            (["a\x01b", "c"], ["a", "b\x01c"], False),
        ],
    )
    def test_merges_exactly_equal_neighbourhoods(self, spark, x, y, merged):
        nbrs = sorted(set(x + y))
        nodes = pd.DataFrame(
            {
                "id": ["d::x", "d::y"] + nbrs,
                "type": ["data", "data"] + ["text"] * len(nbrs),
                "corpus": ["", ""] + ["s"] * len(nbrs),
            }
        )
        edges = pd.DataFrame(
            [(n, "d::x") for n in x] + [(n, "d::y") for n in y], columns=["src", "dst"]
        )
        g = Graph.from_frames(spark.createDataFrame(nodes), spark.createDataFrame(edges), "s")
        cg = ssum_like_compress(g, ratio=1.0, seed=0)
        data = {r["id"] for r in cg.nodes.where(F.col("type") == "data").collect()}
        assert data == ({"d::x"} if merged else {"d::x", "d::y"})

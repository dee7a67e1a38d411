"""Tests for compression (§III-B): BFS helpers, MSP (Alg. 3), SSuM-like."""
import numpy as np
import pandas as pd
import pytest

from repro.core.compress import (
    bfs_parents,
    msp_compress,
    sample_pairs,
    shortest_path_edges,
    ssum_like_compress,
)
from repro.core.graph import DOC_TYPES, METADATA_TYPES, Graph, TableCorpus, TextCorpus, build_graph
from tests.helpers import adjacency


def rows(df: pd.DataFrame) -> set:
    return set(df.itertuples(index=False, name=None))


def metadata_ids(graph: Graph) -> set:
    nodes = graph.node_rows
    return set(nodes.loc[nodes["type"].isin(METADATA_TYPES), "id"])


def shuffled(graph: Graph, seed: int) -> Graph:
    """The same graph, its node and edge rows in a random order."""
    return graph.with_rows(
        graph.node_rows.sample(frac=1, random_state=seed),
        graph.edge_rows.sample(frac=1, random_state=seed + 1),
    )


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
        edges = shortest_path_edges(ADJ, "a", ["d"])
        assert set(edges) == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}

    def test_single_path(self):
        edges = shortest_path_edges(ADJ, "a", ["e"])
        # all shortest a-e paths go through d
        assert ("d", "e") in edges

    def test_disconnected_empty(self):
        assert shortest_path_edges({"a": [], "z": []}, "a", ["z"]) == []

    def test_same_node_empty(self):
        assert shortest_path_edges(ADJ, "a", ["a"]) == []

    def test_adjacent(self):
        assert shortest_path_edges(ADJ, "d", ["e"]) == [("d", "e")]


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
        assert rows(cg.edge_rows) <= rows(small_graph.edge_rows)
        assert set(cg.node_rows["id"]) <= set(small_graph.node_rows["id"])

    def test_all_metadata_retained(self, small_graph):
        cg = msp_compress(small_graph, beta=0.25, seed=1)
        assert metadata_ids(small_graph) <= set(cg.node_rows["id"])

    def test_doc_nodes_connected(self, small_graph):
        cg = msp_compress(small_graph, beta=0.5, seed=2)
        index = cg.index()
        deg = dict(zip(index.ids, index.degrees()))
        nodes = cg.node_rows
        for doc in nodes.loc[nodes["type"].isin(DOC_TYPES), "id"]:
            assert deg.get(doc, 0) >= 1

    def test_not_larger(self, small_graph):
        cg = msp_compress(small_graph, beta=0.5, seed=0)
        assert cg.num_edges() <= small_graph.num_edges()

    def test_deterministic(self, small_graph):
        a = msp_compress(small_graph, beta=0.5, seed=3)
        b = msp_compress(small_graph, beta=0.5, seed=3)
        assert rows(a.edge_rows) == rows(b.edge_rows)

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

        def compressed(ascending):
            nodes = g.node_rows.sort_values("id", ascending=ascending)
            out = msp_compress(g.with_rows(nodes, g.edge_rows), beta=0.2, seed=0)
            return rows(out.node_rows), rows(out.edge_rows)

        assert compressed(True) == compressed(False)

    def test_independent_of_partitioning(self, spark, small_graph):
        def compressed(graph):
            out = msp_compress(graph, beta=0.5, seed=4)
            return rows(out.node_rows), rows(out.edge_rows)

        g = small_graph
        ref = compressed(g)
        assert ref[1]
        for seed in (0, 1):
            assert compressed(shuffled(g, seed)) == ref
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
        nodes = small_graph.node_rows
        docs = nodes[nodes["type"].isin(DOC_TYPES)]
        first, second = (
            sorted(docs.loc[docs["corpus"] == c, "id"]) for c in sorted(docs["corpus"].unique())
        )
        n = max(1, int(beta * small_graph.num_nodes()))
        pairs = sample_pairs(first, second, n, seed)
        adj = adjacency(small_graph)
        want_edges = set()
        for s, d in zip(pairs["src"], pairs["dst"]):
            want_edges.update(shortest_path_edges(adj, s, [d]))
        keep = {u for e in want_edges for u in e}
        keep |= metadata_ids(small_graph)
        want_nodes = rows(nodes[nodes["id"].isin(keep)])

        cg = msp_compress(small_graph, beta=beta, seed=seed)
        assert sorted(cg.edge_rows.itertuples(index=False, name=None)) == sorted(want_edges)
        assert rows(cg.node_rows) == want_nodes

    def test_needs_two_corpora(self, spark, small_graph):
        nodes = small_graph.node_rows
        only = small_graph.induced((nodes["corpus"] == "t") | (nodes["type"] == "data"))
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
        assert metadata_ids(small_graph) <= set(cg.node_rows["id"])

    def test_reduces_edges(self, small_graph):
        cg = ssum_like_compress(small_graph, ratio=0.3, seed=0)
        assert cg.num_edges() <= small_graph.num_edges()

    def test_keeps_the_seeded_draw_over_sorted_edges(self, small_graph):
        merged = ssum_like_compress(small_graph, ratio=1.0, seed=0).edge_rows
        merged = merged.sort_values(["src", "dst"])
        want = merged[np.random.default_rng(3).random(len(merged)) < 0.4]
        assert rows(ssum_like_compress(small_graph, ratio=0.4, seed=3).edge_rows) == rows(want)

    def test_independent_of_row_order(self, small_graph):
        def compressed(graph):
            out = ssum_like_compress(graph, ratio=0.5, seed=4)
            return rows(out.node_rows), rows(out.edge_rows)

        ref = compressed(small_graph)
        assert 0 < len(ref[1]) < small_graph.num_edges()
        for seed in (0, 1):
            assert compressed(shuffled(small_graph, seed)) == ref

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
        g = Graph(spark, nodes, edges, "s")
        cg = ssum_like_compress(g, ratio=1.0, seed=0)
        data = set(cg.node_rows.loc[cg.node_rows["type"] == "data", "id"])
        assert data == ({"d::x"} if merged else {"d::x", "d::y"})

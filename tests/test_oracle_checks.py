"""DuckDB-oracle equivalence checks for the relational stages of the
pipeline: graph construction joins, filtering semantics, induced subgraphs,
Algorithm 2's expansion and sink removal, node mappings, SSuM's merge,
bucket assignment, and ranking aggregation."""
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compress import ssum_like_compress
from repro.core.expand import expand_graph
from repro.core.graph import (
    DATA_PREFIX,
    Graph,
    TableCorpus,
    TextCorpus,
    build_graph,
    filter_to_term_corpus,
    pandas_frame,
)
from repro.core.merge import apply_node_mapping, bucket_label, merge_numeric_buckets
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def corpora(spark):
    t = spark.createDataFrame(
        pd.DataFrame(
            {
                "tid": [1, 2, 3],
                "a": ["alpha beta", "gamma delta", "alpha epsilon"],
                "b": ["red", "blue", "red"],
            }
        )
    )
    s = spark.createDataFrame(
        pd.DataFrame(
            {
                "sid": [1, 2],
                "text": ["alpha red story", "gamma blue omega"],
            }
        )
    )
    return TableCorpus("t", t, "tid", ["a", "b"]), TextCorpus("s", s, "sid", "text")


class TestGraphOracle:
    def test_tuple_term_edges(self, spark, corpora):
        """Tuple-term edges == SQL unnest of per-cell tokens (max_n=1)."""
        table, text = corpora
        g = build_graph(spark, table, text, max_n=1, auto_order=False, filter_second=False)
        e = g.edge_rows
        sym = pd.concat([e, e.rename(columns={"src": "dst", "dst": "src"})])
        sym = sym[sym["src"].str.startswith("t::") & sym["dst"].str.startswith(DATA_PREFIX)]
        got = pd.DataFrame(
            {"tid": sym["src"].str[len("t::") :], "term": sym["dst"].str[len(DATA_PREFIX) :]}
        )
        tbl = table.df.toPandas()
        sql = """
            WITH cells AS (
              SELECT tid::VARCHAR AS tid, a AS v FROM tbl
              UNION ALL SELECT tid::VARCHAR, b FROM tbl
            )
            SELECT DISTINCT tid, unnest(string_split(v, ' ')) AS term FROM cells
        """
        assert_equivalent(got, sql, tbl=tbl)

    def test_filtering_semantics(self, spark, corpora):
        """§II-B filtering == SQL semi-join of second-corpus terms on first."""
        table, text = corpora
        g = build_graph(spark, table, text, max_n=1, auto_order=False, filter_second=True)
        nodes = g.node_rows
        got = pd.DataFrame({"term": nodes.loc[nodes["type"] == "data", "id"].str[len(DATA_PREFIX) :]})
        tbl, txt = table.df.toPandas(), text.df.toPandas()
        sql = """
            WITH first_terms AS (
              SELECT DISTINCT unnest(string_split(a, ' ')) AS term FROM tbl
              UNION SELECT DISTINCT unnest(string_split(b, ' ')) FROM tbl
            )
            SELECT term FROM first_terms
        """
        assert_equivalent(got, sql, tbl=tbl, txt=txt)

    def test_late_filter_equals_oracle_bridge_set(self, spark, corpora):
        """filter_to_term_corpus keeps exactly first-corpus-adjacent terms."""
        table, text = corpora
        g = build_graph(spark, table, text, max_n=1, auto_order=False, filter_second=False)
        fg = filter_to_term_corpus(g)
        got = fg.node_rows.loc[fg.node_rows["type"] == "data", ["id"]]
        edges, nodes = g.edge_rows, g.node_rows
        sql = """
            WITH sym AS (
              SELECT src, dst FROM edges UNION ALL SELECT dst, src FROM edges
            ), first_meta AS (
              SELECT id FROM nodes WHERE corpus = 't' AND type <> 'data'
            )
            SELECT DISTINCT n.id FROM nodes n
            JOIN sym ON sym.dst = n.id
            JOIN first_meta fm ON fm.id = sym.src
            WHERE n.type = 'data'
        """
        assert_equivalent(got, sql, edges=edges, nodes=nodes)


class TestSubgraphOracle:
    """``induced`` on an id list and on its complement == SQL semi / anti
    joins; the id lists hold duplicates and ids absent from the graph."""

    EDGES_SQL = """
        WITH kept AS ({kept})
        SELECT e.src, e.dst FROM edges e
        SEMI JOIN kept a ON e.src = a.id
        SEMI JOIN kept b ON e.dst = b.id
    """

    @pytest.fixture(scope="class")
    def graph(self, spark, corpora):
        table, text = corpora
        return build_graph(spark, table, text, max_n=1, auto_order=False, filter_second=False)

    @pytest.fixture(scope="class")
    def ids(self, graph):
        every_other = sorted(graph.node_rows["id"])[::2]
        return pd.DataFrame({"id": every_other + every_other[:3] + ["absent::1", "absent::1"]})

    def test_subgraph(self, graph, ids):
        sub = graph.induced(graph.node_rows["id"].isin(ids["id"]))
        kept = "SELECT n.* FROM nodes n SEMI JOIN k USING (id)"
        nodes, edges = graph.node_rows, graph.edge_rows
        assert_equivalent(sub.node_rows, kept, nodes=nodes, k=ids)
        assert_equivalent(sub.edge_rows, self.EDGES_SQL.format(kept=kept), nodes=nodes, edges=edges, k=ids)

    def test_without_nodes(self, graph, ids):
        sub = graph.induced(~graph.node_rows["id"].isin(ids["id"]))
        kept = "SELECT n.* FROM nodes n ANTI JOIN k USING (id)"
        nodes, edges = graph.node_rows, graph.edge_rows
        assert_equivalent(sub.node_rows, kept, nodes=nodes, k=ids)
        assert_equivalent(sub.edge_rows, self.EDGES_SQL.format(kept=kept), nodes=nodes, edges=edges, k=ids)


TERMS = ["a", "b", "c", "d", "e"]


@st.composite
def graph_and_kb(draw):
    """Small graphs over two documents and the data nodes of TERMS, and KBs
    over those terms plus three the graph lacks (loops, repeats and both
    directions of a pair allowed)."""
    data = draw(st.sets(st.sampled_from(TERMS), min_size=1))
    ids = ["s::1", "t::1"] + [DATA_PREFIX + t for t in sorted(data)]
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda e: e[0] < e[1])
    edges = draw(st.sets(pairs, max_size=10))
    kb = draw(st.lists(st.tuples(*[st.sampled_from(TERMS + ["x", "y", "z"])] * 2), max_size=8))
    nodes = pd.DataFrame(
        {
            "id": ids,
            "type": ["text", "tuple"] + ["data"] * len(data),
            "corpus": ["s", "t"] + [""] * len(data),
        }
    )
    return (
        nodes,
        pd.DataFrame(sorted(edges), columns=["src", "dst"], dtype=object),
        pd.DataFrame(kb, columns=["subject", "object"], dtype=object),
    )


class TestExpandOracle:
    """Algorithm 2 == SQL: symmetric KB fetch for the graph's data terms, new
    data nodes, one pass of degree-≤1 sink removal (among the new nodes
    only under "added"), then the induced edges."""

    SQL = """
        WITH kb1 AS (SELECT subject AS s, object AS o FROM kb WHERE subject <> object),
        fetched AS (
          SELECT 'd::' || s AS src, 'd::' || o AS dst
          FROM (SELECT s, o FROM kb1 UNION SELECT o, s FROM kb1)
          WHERE 'd::' || s IN (SELECT id FROM nodes WHERE type = 'data')
        ), new_nodes AS (
          SELECT DISTINCT dst AS id FROM fetched WHERE dst NOT IN (SELECT id FROM nodes)
        ), all_edges AS (
          SELECT DISTINCT least(src, dst) AS src, greatest(src, dst) AS dst
          FROM (SELECT src, dst FROM edges UNION ALL SELECT src, dst FROM fetched)
          WHERE src <> dst
        ), degree AS (
          SELECT id, COUNT(*) AS d
          FROM (SELECT src AS id FROM all_edges UNION ALL SELECT dst FROM all_edges)
          GROUP BY id
        ), sinks AS ({sinks}), kept AS (
          SELECT id, type, corpus FROM nodes
          UNION ALL SELECT id, 'data', '' FROM new_nodes
        )
    """
    SINKS = {
        "none": "SELECT id FROM degree WHERE false",
        "all": "SELECT id FROM degree WHERE d <= 1",
        "added": "SELECT id FROM degree WHERE d <= 1 AND id IN (SELECT id FROM new_nodes)",
    }

    @given(graph_and_kb())
    @settings(max_examples=25, deadline=None)
    def test_expand_equals_sql(self, spark, case):
        nodes, edges, kb = case
        graph = Graph(spark, nodes, edges, "t")
        kb_df = pandas_frame(spark, kb, "subject string, object string")
        for scope, sinks in self.SINKS.items():
            out = expand_graph(graph, kb_df, sink_scope=scope)
            with_sinks = self.SQL.format(sinks=sinks)
            kept = with_sinks + "SELECT * FROM kept WHERE id NOT IN (SELECT id FROM sinks)"
            assert_equivalent(out.node_rows, kept, nodes=nodes, edges=edges, kb=kb)
            kept_edges = with_sinks + """
                SELECT src, dst FROM all_edges
                WHERE src NOT IN (SELECT id FROM sinks) AND dst NOT IN (SELECT id FROM sinks)
            """
            assert_equivalent(out.edge_rows, kept_edges, nodes=nodes, edges=edges, kb=kb)


class TestMappingOracle:
    """apply_node_mapping == SQL left joins of nodes and edges on the
    mapping (one hop: a chain a→b, b→c moves a to b and b to c)."""

    NODES_SQL = """
        SELECT DISTINCT COALESCE(m.new_id, n.id) AS id, n.type, n.corpus
        FROM nodes n LEFT JOIN m ON n.id = m.old_id AND m.old_id <> m.new_id
    """
    EDGES_SQL = """
        SELECT DISTINCT least(ns, nd) AS src, greatest(ns, nd) AS dst FROM (
          SELECT COALESCE(m1.new_id, e.src) AS ns, COALESCE(m2.new_id, e.dst) AS nd
          FROM e LEFT JOIN m m1 ON e.src = m1.old_id AND m1.old_id <> m1.new_id
                 LEFT JOIN m m2 ON e.dst = m2.old_id AND m2.old_id <> m2.new_id
        ) WHERE ns <> nd
    """

    @pytest.mark.parametrize(
        "pairs,removed",
        [
            ([("a", "b")], 1),  # into an existing node
            ([("a", "b"), ("b", "c")], 1),  # a chain
            ([("c", "d"), ("d", "d")], 1),  # c–d becomes a self-loop; d→d is no move
            ([("a", "new")], 0),  # a rename
        ],
    )
    def test_mapping_equals_sql(self, spark, pairs, removed):
        ids = ["s::1", "t::1"] + [DATA_PREFIX + t for t in "abcd"]
        nodes = pd.DataFrame(
            {"id": ids, "type": ["text", "tuple"] + ["data"] * 4, "corpus": ["s", "t"] + [""] * 4}
        )
        edges = pd.DataFrame(
            [("d::a", "s::1"), ("d::b", "t::1"), ("d::c", "d::d"), ("d::c", "s::1"), ("d::d", "t::1")],
            columns=["src", "dst"],
        )
        m = pd.DataFrame(
            [(DATA_PREFIX + o, DATA_PREFIX + n) for o, n in pairs], columns=["old_id", "new_id"]
        )
        out, got_removed = apply_node_mapping(Graph(spark, nodes, edges, "t"), m)
        assert got_removed == removed
        assert_equivalent(out.node_rows, self.NODES_SQL, nodes=nodes, m=m)
        assert_equivalent(out.edge_rows, self.EDGES_SQL, e=edges, m=m)


class TestSsumOracle:
    """SSuM's merge (ratio 1, so every edge stays) == SQL: the data nodes
    with at least one edge, grouped by their sorted neighbour list, each
    mapped to the smallest id of its group; then the mapping's rewrite,
    without the data nodes that have no edge."""

    MAPPING = """
        WITH sym AS (SELECT src AS id, dst AS nbr FROM e UNION ALL SELECT dst, src FROM e),
        sig AS (
          SELECT id, list_sort(list(nbr)) AS nbrs FROM sym
          WHERE id IN (SELECT id FROM nodes WHERE type = 'data') GROUP BY id
        ), m AS (SELECT id AS old_id, min(id) OVER (PARTITION BY nbrs) AS new_id FROM sig)
    """
    NODES_SQL = MAPPING + """
        SELECT * FROM nodes
        WHERE (type <> 'data' OR id IN (SELECT id FROM sym))
          AND id NOT IN (SELECT old_id FROM m WHERE old_id <> new_id)
    """
    EDGES_SQL = MAPPING + TestMappingOracle.EDGES_SQL

    def check(self, spark, nodes, edges) -> Graph:
        out = ssum_like_compress(Graph(spark, nodes, edges, "t"), ratio=1.0, seed=0)
        assert_equivalent(out.node_rows, self.NODES_SQL, nodes=nodes, e=edges)
        assert_equivalent(out.edge_rows, self.EDGES_SQL, nodes=nodes, e=edges)
        return out

    def test_built_graph(self, spark, corpora):
        g = build_graph(spark, *corpora, max_n=1, auto_order=False, filter_second=False)
        self.check(spark, g.node_rows, g.edge_rows)

    def test_three_nodes_merge_into_the_smallest(self, spark):
        ids = ["s::1", "t::1"] + [DATA_PREFIX + t for t in "dcbae"]
        nodes = pd.DataFrame(
            {"id": ids, "type": ["text", "tuple"] + ["data"] * 5, "corpus": ["s", "t"] + [""] * 5}
        )
        # b, c and d see s::1 and t::1; a sees s::1 only; e has no edge
        pairs = [(d, m) for d in "bcd" for m in ("s::1", "t::1")] + [("a", "s::1")]
        edges = pd.DataFrame([(m, DATA_PREFIX + d) for d, m in pairs], columns=["src", "dst"])
        out = self.check(spark, nodes, edges)
        assert sorted(out.node_rows["id"]) == ["d::a", "d::b", "s::1", "t::1"]

    @given(graph_and_kb())
    @settings(max_examples=25, deadline=None)
    def test_merge_equals_sql(self, spark, case):
        nodes, edges, _ = case
        self.check(spark, nodes, edges)


class TestBucketOracle:
    def test_bucket_assignment_matches_sql(self):
        """Python bucket ids == SQL floor((v - min)/width) binning."""
        vals = [10.0, 11.5, 14.9, 15.0, 22.0, 100.0]
        width, origin = 5.0, 10.0
        buckets = pd.Series([bucket_label(v, width, origin) for v in vals])
        got = pd.DataFrame({"v": vals, "lo": buckets.str.extract(r"num\[([-0-9.e+]+),")[0].astype(float)})
        sql = """
            SELECT v, 10.0 + 5.0 * floor((v - 10.0) / 5.0) AS lo
            FROM (SELECT unnest([10.0, 11.5, 14.9, 15.0, 22.0, 100.0]) AS v)
        """
        assert_equivalent(got, sql)


class TestRankingOracle:
    def test_haspositive_matches_sql(self):
        ranked = pd.DataFrame(
            {
                "query": ["q1", "q1", "q2", "q2"],
                "target": ["a", "b", "a", "b"],
                "rank": [1, 2, 1, 2],
            }
        )
        truth = pd.DataFrame({"query": ["q1", "q2"], "target": ["b", "a"]})
        from repro.core.metrics import ranking_metrics_pdf

        m = ranking_metrics_pdf(ranked, truth, ks=(1,))
        got = pd.DataFrame({"hp": [m["HasPositive@1"]]})
        sql = """
            SELECT COUNT(DISTINCT r.query) * 1.0 /
                   (SELECT COUNT(DISTINCT query) FROM truth) AS hp
            FROM ranked r JOIN truth g
              ON r.query = g.query AND r.target = g.target AND r.rank <= 1
        """
        assert_equivalent(got, sql, ranked=ranked, truth=truth)

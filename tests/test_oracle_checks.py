"""DuckDB-oracle equivalence checks for the relational stages of the
pipeline: graph construction joins, filtering semantics, induced subgraphs,
Algorithm 2's expansion and sink removal, node mappings, bucket assignment,
and ranking aggregation."""
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

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
        got = (
            g.symmetric_edges()
            .where(
                F.col("src").startswith("t::") & F.col("dst").startswith(DATA_PREFIX)
            )
            .select(
                F.expr("substring(src, 4)").alias("tid"),
                F.expr(f"substring(dst, {len(DATA_PREFIX) + 1})").alias("term"),
            )
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
        got = g.nodes.where(F.col("type") == "data").select(
            F.expr(f"substring(id, {len(DATA_PREFIX) + 1})").alias("term")
        )
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
        got = fg.nodes.where(F.col("type") == "data").select("id")
        edges = g.edges.toPandas()
        nodes = g.nodes.toPandas()
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
    """subgraph / without_nodes == SQL semi / anti joins; the id lists hold
    duplicates and ids absent from the graph."""

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
        every_other = sorted(r["id"] for r in graph.nodes.collect())[::2]
        return pd.DataFrame({"id": every_other + every_other[:3] + ["absent::1", "absent::1"]})

    def test_subgraph(self, spark, graph, ids):
        sub = graph.subgraph(spark.createDataFrame(ids))
        kept = "SELECT n.* FROM nodes n SEMI JOIN k USING (id)"
        nodes, edges = graph.nodes.toPandas(), graph.edges.toPandas()
        assert_equivalent(sub.nodes, kept, nodes=nodes, k=ids)
        assert_equivalent(sub.edges, self.EDGES_SQL.format(kept=kept), nodes=nodes, edges=edges, k=ids)

    def test_without_nodes(self, spark, graph, ids):
        sub = graph.without_nodes(spark.createDataFrame(ids))
        kept = "SELECT n.* FROM nodes n ANTI JOIN k USING (id)"
        nodes, edges = graph.nodes.toPandas(), graph.edges.toPandas()
        assert_equivalent(sub.nodes, kept, nodes=nodes, k=ids)
        assert_equivalent(sub.edges, self.EDGES_SQL.format(kept=kept), nodes=nodes, edges=edges, k=ids)


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
            assert_equivalent(out.nodes, kept, nodes=nodes, edges=edges, kb=kb)
            kept_edges = with_sinks + """
                SELECT src, dst FROM all_edges
                WHERE src NOT IN (SELECT id FROM sinks) AND dst NOT IN (SELECT id FROM sinks)
            """
            assert_equivalent(out.edges, kept_edges, nodes=nodes, edges=edges, kb=kb)


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
        assert_equivalent(out.nodes, self.NODES_SQL, nodes=nodes, m=m)
        assert_equivalent(out.edges, self.EDGES_SQL, e=edges, m=m)


class TestBucketOracle:
    def test_bucket_assignment_matches_sql(self, spark):
        """Python bucket ids == SQL floor((v - min)/width) binning."""
        vals = [10.0, 11.5, 14.9, 15.0, 22.0, 100.0]
        width, origin = 5.0, 10.0
        got = spark.createDataFrame(
            pd.DataFrame(
                {
                    "v": vals,
                    "bucket": [bucket_label(v, width, origin) for v in vals],
                }
            )
        ).select("v", F.expr("cast(regexp_extract(bucket, 'num\\\\[([-0-9.e+]+),', 1) as double)").alias("lo"))
        sql = """
            SELECT v, 10.0 + 5.0 * floor((v - 10.0) / 5.0) AS lo
            FROM (SELECT unnest([10.0, 11.5, 14.9, 15.0, 22.0, 100.0]) AS v)
        """
        assert_equivalent(got, sql)


class TestRankingOracle:
    def test_haspositive_matches_sql(self, spark):
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
        got = spark.createDataFrame(pd.DataFrame({"hp": [m["HasPositive@1"]]}))
        sql = """
            SELECT COUNT(DISTINCT r.query) * 1.0 /
                   (SELECT COUNT(DISTINCT query) FROM truth) AS hp
            FROM ranked r JOIN truth g
              ON r.query = g.query AND r.target = g.target AND r.rank <= 1
        """
        assert_equivalent(got, sql, ranked=ranked, truth=truth)

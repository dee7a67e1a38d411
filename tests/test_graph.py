"""Tests for graph creation (Algorithm 1) and the Graph container."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import graph as G
from repro.core.graph import (
    StructuredTextCorpus,
    TableCorpus,
    TextCorpus,
    build_graph,
    canonical_rows,
    data_node_id,
    pandas_frame,
    term_of,
)
from repro.core.preprocess import terms
from tests.helpers import adjacency


@pytest.fixture(scope="module")
def example1(spark):
    """The paper's Example 1 (Figure 1/4) as corpora."""
    movies = spark.createDataFrame(
        pd.DataFrame(
            {
                "mid": [1, 2],
                "title": ["The Sixth Sense", "Pulp Fiction"],
                "director": ["Shyamalan", "Tarantino"],
                "actor": ["B. Willis", "B. Willis"],
                "rate": ["PG", "R"],
                "genre": ["Thriller", "Drama"],
            }
        )
    )
    reviews = spark.createDataFrame(
        pd.DataFrame(
            {
                "rid": [1, 2],
                "text": [
                    "bland Bruce Willis story with comedy by Tarantino",
                    "Willis asks Osment received a PG thriller",
                ],
            }
        )
    )
    table = TableCorpus("movies", movies, "mid", ["title", "director", "actor", "rate", "genre"])
    text = TextCorpus("reviews", reviews, "rid", "text")
    return table, text


@pytest.fixture(scope="module")
def g1(spark, example1):
    """Graph with the table as the term-defining (first) corpus."""
    table, text = example1
    return build_graph(spark, table, text, max_n=2, auto_order=False)


class TestBuildGraph:
    def test_metadata_nodes_present(self, g1):
        ids = {r["id"] for r in g1.metadata_nodes().collect()}
        assert {"movies::1", "movies::2", "reviews::1", "reviews::2"} <= ids

    def test_column_nodes_present(self, g1):
        cols = {r["id"] for r in g1.nodes.where(F.col("type") == G.COLUMN).collect()}
        assert cols == {
            f"col::movies::{a}" for a in ["title", "director", "actor", "rate", "genre"]
        }

    def test_doc_nodes_exclude_columns(self, g1):
        types = {r["type"] for r in g1.doc_nodes().collect()}
        assert G.COLUMN not in types

    def test_shared_term_single_node(self, g1):
        willis = [r for r in g1.nodes.collect() if r["id"] == data_node_id("willi")]
        assert len(willis) == 1

    def test_tuple_connected_to_its_terms(self, g1):
        edges = {(r["src"], r["dst"]) for r in g1.symmetric_edges().collect()}
        assert ("movies::1", data_node_id("shyamalan")) in edges
        assert ("movies::2", data_node_id("tarantino")) in edges

    def test_column_connected_to_domain_terms(self, g1):
        edges = {(r["src"], r["dst"]) for r in g1.symmetric_edges().collect()}
        assert ("col::movies::genre", data_node_id("thriller")) in edges
        assert ("col::movies::genre", data_node_id("drama")) in edges

    def test_no_cross_attribute_ngrams(self, g1):
        # "Shyamalan" (director) and "B. Willis" (actor) are different cells:
        # no bigram spans them
        ids = {r["id"] for r in g1.nodes.collect()}
        assert data_node_id("shyamalan_b") not in ids

    def test_second_corpus_terms_filtered(self, g1):
        # review bigram "bruce_willi" does not exist in the table's term
        # space, so §II-B filtering drops it; the unigram bridge survives
        ids = {r["id"] for r in g1.nodes.collect()}
        assert data_node_id("bruce_willi") not in ids
        assert data_node_id("willi") in ids

    def test_text_ngrams_within_sentence(self, spark, example1):
        table, text = example1
        g = build_graph(spark, text, table, max_n=2, auto_order=False)
        ids = {r["id"] for r in g.nodes.collect()}
        assert data_node_id("bruce_willi") in ids

    def test_metadata_never_linked_across_corpora(self, g1):
        meta = {r["id"] for r in g1.metadata_nodes().collect()}
        for r in g1.edges.collect():
            assert not (r["src"] in meta and r["dst"] in meta)

    def test_filter_second_drops_unshared_terms(self, spark, example1):
        table, text = example1
        g = build_graph(spark, text, table, max_n=1, auto_order=False)
        ids = {r["id"] for r in g.nodes.collect()}
        # "osment" appears only in reviews (second corpus after auto order
        # disabled: first=text) — here first corpus is text so osment stays
        assert data_node_id("osment") in ids
        g2 = build_graph(spark, table, text, max_n=1, auto_order=False)
        ids2 = {r["id"] for r in g2.nodes.collect()}
        # with the table first, review-only terms are filtered out (§II-B)
        assert data_node_id("osment") not in ids2

    def test_no_filter_keeps_everything(self, spark, example1):
        table, text = example1
        g = build_graph(spark, table, text, max_n=1, auto_order=False, filter_second=False)
        ids = {r["id"] for r in g.nodes.collect()}
        assert data_node_id("osment") in ids

    def test_auto_order_prefers_smaller_token_set(self, spark, example1):
        table, text = example1
        # this toy text corpus has fewer distinct tokens than the table, so
        # auto ordering makes the *text* define the term space regardless of
        # argument order: review-only terms survive, table-only terms don't
        def unigrams(corpus, cols):
            return {t for r in corpus.df.collect() for c in cols for t in terms(r[c], max_n=1)}

        assert len(unigrams(text, [text.text_col])) < len(unigrams(table, table.attr_cols))
        for a, b in ((text, table), (table, text)):
            g = build_graph(spark, a, b, max_n=1)  # auto_order on
            ids = {r["id"] for r in g.nodes.collect()}
            assert data_node_id("osment") in ids
            assert data_node_id("sixth") not in ids

    def test_edges_canonical(self, g1):
        for r in g1.edges.collect():
            assert r["src"] < r["dst"]

    def test_edges_distinct(self, g1):
        assert g1.edges.count() == g1.edges.distinct().count()


def _scans_rdd(df) -> bool:
    """Whether the analyzed plan reads a pickled RDD (``LogicalRDD``)."""
    return "LogicalRDD" in df._jdf.queryExecution().analyzed().toString()


class TestColumnNodes:
    @pytest.fixture(scope="class")
    def table(self, spark):
        # "rate" holds only stopwords: an attribute without terms
        df = spark.createDataFrame(
            pd.DataFrame({"mid": [1, 2], "title": ["Heat", "Up"], "rate": ["the", "a"]})
        )
        return TableCorpus("movies", df, "mid", ["title", "rate"])

    @staticmethod
    def columns(g):
        return [tuple(r) for r in g.node_rows.itertuples(index=False) if r.type == G.COLUMN]

    def test_one_node_per_attribute(self, spark, table):
        g = build_graph(spark, table, table, max_n=1, auto_order=False)
        assert g.nodes.schema.simpleString() == "struct<id:string,type:string,corpus:string>"
        assert self.columns(g) == [
            ("col::movies::title", G.COLUMN, "movies"),
            ("col::movies::rate", G.COLUMN, "movies"),
        ]

    def test_attribute_without_terms_in_graph(self, spark, table):
        text = TextCorpus(
            "reviews", spark.createDataFrame(pd.DataFrame({"rid": [1], "text": ["heat"]})),
            "rid", "text",
        )
        g = build_graph(spark, table, text, max_n=1, auto_order=False)
        cols = {r["id"] for r in g.nodes.where(F.col("type") == G.COLUMN).collect()}
        assert cols == {"col::movies::title", "col::movies::rate"}

    def test_no_attributes(self, spark, table):
        text = TextCorpus(
            "reviews", spark.createDataFrame(pd.DataFrame({"rid": [1], "text": ["heat"]})),
            "rid", "text",
        )
        g = build_graph(spark, TableCorpus("movies", table.df, "mid", []), text, max_n=1, auto_order=False)
        assert g.nodes.schema.simpleString() == "struct<id:string,type:string,corpus:string>"
        assert self.columns(g) == []
        assert sorted(g.node_rows["id"]) == ["movies::1", "movies::2", "reviews::1"]

    def test_plan_has_no_rdd(self, spark, table):
        listed = spark.createDataFrame(
            [(f"col::movies::{a}", G.COLUMN, "movies") for a in table.attr_cols],
            "id string, type string, corpus string",
        )
        assert _scans_rdd(listed)  # the check sees a list-built frame
        g = build_graph(spark, table, table, max_n=1, auto_order=False)
        assert not _scans_rdd(g.nodes) and not _scans_rdd(g.edges)


class TestPandasFrame:
    def test_empty_is_sql_relation(self, spark):
        out = pandas_frame(
            spark, pd.DataFrame(columns=["src", "dst"]), "src string, dst array<string>"
        )
        assert out.schema.simpleString() == "struct<src:string,dst:array<string>>"
        assert out.count() == 0
        assert not _scans_rdd(out)

    def test_rows_kept(self, spark):
        pdf = pd.DataFrame({"a": ["x", "y"], "b": ["1", "2"]})
        out = pandas_frame(spark, pdf, "a string, b string")
        assert [tuple(r) for r in out.collect()] == [("x", "1"), ("y", "2")]


class TestTermTableEdgeCases:
    """``tokenize_corpus``: document ids and term rows of odd corpora."""

    COLUMNS = ["doc", "attr", "term"]

    def test_empty_corpus(self, spark):
        empty = pandas_frame(spark, pd.DataFrame(columns=["id", "a", "b"]), "id long, a string, b string")
        for corpus in (TextCorpus("c", empty, "id", "a"), TableCorpus("c", empty, "id", ["a", "b"])):
            docs, out = G.tokenize_corpus(corpus, max_n=2, do_stem=True)
            assert list(out.columns) == self.COLUMNS
            assert len(out) == 0 and len(docs) == 0
            g = build_graph(spark, corpus, corpus, max_n=2)
            assert g.num_nodes() == len(getattr(corpus, "attr_cols", []))  # column nodes only
            assert not _scans_rdd(g.edges)

    def test_null_and_stopword_documents(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"id": [1, 2, 3], "text": [None, "the and of it", "heat wave"]})
        )
        text = TextCorpus("c", df, "id", "text")
        docs, out = G.tokenize_corpus(text, max_n=1, do_stem=False)
        assert list(out.columns) == self.COLUMNS
        assert sorted(map(tuple, out.itertuples(index=False))) == [("c::3", None, "heat"), ("c::3", None, "wave")]
        assert sorted(docs) == ["c::1", "c::2", "c::3"]
        table = TableCorpus(
            "t", spark.createDataFrame(pd.DataFrame({"tid": [1], "a": ["heat"]})), "tid", ["a"]
        )
        for filter_second in (True, False):
            g = build_graph(spark, table, text, max_n=1, auto_order=False, filter_second=filter_second)
            ids = {r["id"] for r in g.nodes.collect()}
            assert {"c::1", "c::2", "c::3"} <= ids
            linked = {x for r in g.edges.collect() for x in r}
            assert "c::3" in linked and not linked & {"c::1", "c::2"}

    def test_table_with_null_cell(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"id": [1, 2], "a": ["heat", None], "b": [None, "wave"]})
        )
        docs, out = G.tokenize_corpus(TableCorpus("t", df, "id", ["a", "b"]), max_n=2, do_stem=False)
        assert sorted(map(tuple, out.itertuples(index=False))) == [("t::1", "a", "heat"), ("t::2", "b", "wave")]
        assert list(docs) == ["t::1", "t::2"]


class TestStructuredCorpus:
    @pytest.fixture(scope="class")
    def tax_graph(self, spark):
        tax = spark.createDataFrame(
            pd.DataFrame(
                {
                    "cid": [1, 2, 3],
                    "label": ["audit programme", "iso rules", "risk approach"],
                    "parent": [None, 1.0, 2.0],
                }
            )
        )
        docs = spark.createDataFrame(
            pd.DataFrame({"did": [1], "text": ["risk based approach to audit programme"]})
        )
        return build_graph(
            spark,
            StructuredTextCorpus("tax", tax, "cid", "label", "parent"),
            TextCorpus("docs", docs, "did", "text"),
            max_n=2,
            auto_order=False,
        )

    def test_hierarchy_edges(self, tax_graph):
        edges = {(r["src"], r["dst"]) for r in tax_graph.symmetric_edges().collect()}
        assert ("tax::2", "tax::1") in edges
        assert ("tax::3", "tax::2") in edges

    def test_concept_type(self, tax_graph):
        types = dict((r["id"], r["type"]) for r in tax_graph.nodes.collect())
        assert types["tax::1"] == G.CONCEPT
        assert types["docs::1"] == G.TEXT

    def test_one_hierarchy_edge_per_parent_link(self, tax_graph):
        edges = {(r["src"], r["dst"]) for r in tax_graph.edges.collect()}
        concept_edges = [
            e for e in edges if e[0].startswith("tax::") and e[1].startswith("tax::")
        ]
        # two non-null parent links -> exactly two concept-concept edges
        assert sorted(concept_edges) == [("tax::1", "tax::2"), ("tax::2", "tax::3")]


class TestGraphOps:
    def test_degrees_against_oracle(self, spark, g1):
        from repro.oracle import assert_equivalent

        edges_pdf = g1.edges.toPandas()
        got = g1.degrees()
        sql = """
            SELECT id, COUNT(*)::BIGINT AS degree FROM (
              SELECT src AS id FROM e UNION ALL SELECT dst AS id FROM e
            ) GROUP BY id
        """
        assert_equivalent(got, sql, e=edges_pdf)

    def test_symmetric_edges_double(self, g1):
        assert g1.symmetric_edges().count() == 2 * g1.num_edges()

    def test_adjacency_is_symmetric(self, g1):
        adj = adjacency(g1)
        for u, nbrs in adj.items():
            for v in nbrs:
                assert u in adj[v]

    def test_adjacency_no_self_loops(self, g1):
        adj = adjacency(g1)
        for u, nbrs in adj.items():
            assert u not in nbrs

    def test_index_matches_adjacency(self, g1):
        index = g1.index()
        adj = {}
        for r in g1.edges.collect():
            adj.setdefault(r["src"], []).append(r["dst"])
            adj.setdefault(r["dst"], []).append(r["src"])
        assert list(index.ids) == sorted(r["id"] for r in g1.nodes.collect())
        for i, u in enumerate(index.ids):
            nbrs = index.targets[index.offsets[i] : index.offsets[i + 1]]
            assert [index.ids[j] for j in nbrs] == sorted(adj.get(u, []))

    def test_index_sorts_rows_and_rejects_unknown_neighbours(self):
        index = G.GraphIndex.from_neighbours(["b", "c", "a"], [["c", "a"], ["b"], ["b"]])
        assert list(index.ids) == ["a", "b", "c"]
        assert index.offsets.tolist() == [0, 1, 3, 4]
        assert index.targets.tolist() == [1, 0, 2, 1]
        with pytest.raises(ValueError):
            G.GraphIndex.from_neighbours(["a", "b"], [["b"], ["z"]])

    def test_subgraph_induced(self, spark, g1):
        keep = g1.nodes.limit(5).select("id")
        sub = g1.subgraph(keep)
        kept = {r["id"] for r in keep.collect()}
        for r in sub.edges.collect():
            assert r["src"] in kept and r["dst"] in kept

    def test_without_nodes(self, spark, g1):
        drop = g1.nodes.where(F.col("type") == G.COLUMN).select("id")
        g2 = g1.without_nodes(drop)
        assert g2.nodes.where(F.col("type") == G.COLUMN).count() == 0

    def test_canonical_edges_dedup(self):
        out = canonical_rows(["b", "a", "a"], ["a", "b", "a"])
        assert len(out) == 1 and out["src"][0] == "a" and out["dst"][0] == "b"

    def test_term_roundtrip(self):
        assert term_of(data_node_id("abc_def")) == "abc_def"
        with pytest.raises(ValueError):
            term_of("movies::1")


def _frame(spark, rows: dict, schema: str):
    cols = [c.split()[0] for c in schema.split(", ")]
    return pandas_frame(spark, pd.DataFrame(rows, columns=cols), schema)


@pytest.fixture(scope="module")
def edge_corpora(spark):
    """Pairs of corpora that exercise the corners of Algorithm 1's input."""
    heat = TableCorpus(
        "t", _frame(spark, {"tid": [1, 2], "a": ["heat wave", "cold front"]}, "tid long, a string"),
        "tid", ["a"],
    )
    text = TextCorpus(
        "s", _frame(spark, {"sid": [1], "text": ["heat wave"]}, "sid long, text string"), "sid", "text"
    )
    texts = {"sid": [1, 2, 3, 4], "text": ["heat", "", None, "front wave storm"]}
    nulls = {"id": [1, 2], "a": [None, None], "b": [None, None]}
    # parent ids are doubles, as from a nullable pandas column; 9.0 names no concept
    concepts = {
        "cid": [1, 2, 3, 4],
        "label": ["audit plan", "risk audit", "risk plan", "plan"],
        "parent": [None, 1.0, 2.0, 9.0],
    }
    return {
        "empty_null_text": (
            heat, TextCorpus("s", _frame(spark, texts, "sid long, text string"), "sid", "text")
        ),
        "all_null_table": (
            TableCorpus("n", _frame(spark, nulls, "id long, a string, b string"), "id", ["a", "b"]),
            text,
        ),
        "no_attr_cols": (
            TableCorpus("n", _frame(spark, {"id": [1, 2], "a": ["heat", "wave"]}, "id long, a string"), "id", []),
            text,
        ),
        "duplicate_ids": (
            TableCorpus(
                "t", _frame(spark, {"tid": [1, 1, 2], "a": ["heat wave", "cold", "heat"]}, "tid long, a string"),
                "tid", ["a"],
            ),
            TextCorpus(
                "s", _frame(spark, {"sid": [7, 7], "text": ["heat front", "cold"]}, "sid long, text string"),
                "sid", "text",
            ),
        ),
        "structured_float_parents": (
            StructuredTextCorpus(
                "x", _frame(spark, concepts, "cid long, label string, parent double"),
                "cid", "label", "parent",
            ),
            TextCorpus(
                "s", _frame(spark, {"sid": [1], "text": ["risk audit plan review"]}, "sid long, text string"),
                "sid", "text",
            ),
        ),
        "empty_corpus": (heat, TextCorpus("s", _frame(spark, {}, "sid long, text string"), "sid", "text")),
        "empty_table": (TableCorpus("e", _frame(spark, {}, "id long, a string"), "id", ["a"]), text),
    }


# (case, filter_second) -> (term corpus, {"type:corpus": node ids}, edges as
# "src-dst"): the sorted rows of build_graph(max_n=2, do_stem=False)
_HEAT_COLD = "d::cold d::cold_front d::front d::heat d::heat_wave d::wave"
_HEAT_COLD_EDGES = (
    "col::t::a-d::cold col::t::a-d::cold_front col::t::a-d::front col::t::a-d::heat "
    "col::t::a-d::heat_wave col::t::a-d::wave d::cold-t::2 d::cold_front-t::2"
)
_STRUCTURED_EDGES = (
    "d::audit-s::1 d::audit-x::1 d::audit-x::2 d::audit_plan-s::1 d::audit_plan-x::1 "
    "d::plan-s::1 d::plan-x::1 d::plan-x::3 d::plan-x::4"
)
_STRUCTURED_TAIL = (
    "d::risk-s::1 d::risk-x::2 d::risk-x::3 d::risk_audit-s::1 d::risk_audit-x::2 "
    "d::risk_plan-x::3 x::1-x::2 x::2-x::3"
)
EDGE_CASE_GRAPHS = {
    ("empty_null_text", True): (
        "t",
        {"column:t": "col::t::a", "data:": _HEAT_COLD, "text:s": "s::1 s::2 s::3 s::4", "tuple:t": "t::1 t::2"},
        f"{_HEAT_COLD_EDGES} d::front-s::4 d::front-t::2 d::heat-s::1 d::heat-t::1 "
        "d::heat_wave-t::1 d::wave-s::4 d::wave-t::1",
    ),
    ("empty_null_text", False): (
        "t",
        {
            "column:t": "col::t::a",
            "data:": f"{_HEAT_COLD} d::front_wave d::storm d::wave_storm",
            "text:s": "s::1 s::2 s::3 s::4",
            "tuple:t": "t::1 t::2",
        },
        f"{_HEAT_COLD_EDGES} d::front-s::4 d::front-t::2 d::front_wave-s::4 d::heat-s::1 d::heat-t::1 "
        "d::heat_wave-t::1 d::storm-s::4 d::wave-s::4 d::wave-t::1 d::wave_storm-s::4",
    ),
    ("all_null_table", True): (
        "n", {"column:n": "col::n::a col::n::b", "text:s": "s::1", "tuple:n": "n::1 n::2"}, ""
    ),
    ("all_null_table", False): (
        "n",
        {
            "column:n": "col::n::a col::n::b",
            "data:": "d::heat d::heat_wave d::wave",
            "text:s": "s::1",
            "tuple:n": "n::1 n::2",
        },
        "d::heat-s::1 d::heat_wave-s::1 d::wave-s::1",
    ),
    ("no_attr_cols", True): ("n", {"text:s": "s::1", "tuple:n": "n::1 n::2"}, ""),
    ("no_attr_cols", False): (
        "n",
        {"data:": "d::heat d::heat_wave d::wave", "text:s": "s::1", "tuple:n": "n::1 n::2"},
        "d::heat-s::1 d::heat_wave-s::1 d::wave-s::1",
    ),
    ("duplicate_ids", True): (
        "t",
        {"column:t": "col::t::a", "data:": "d::cold d::heat d::heat_wave d::wave", "text:s": "s::7", "tuple:t": "t::1 t::2"},
        "col::t::a-d::cold col::t::a-d::heat col::t::a-d::heat_wave col::t::a-d::wave d::cold-s::7 "
        "d::cold-t::1 d::heat-s::7 d::heat-t::1 d::heat-t::2 d::heat_wave-t::1 d::wave-t::1",
    ),
    ("duplicate_ids", False): (
        "t",
        {
            "column:t": "col::t::a",
            "data:": "d::cold d::front d::heat d::heat_front d::heat_wave d::wave",
            "text:s": "s::7",
            "tuple:t": "t::1 t::2",
        },
        "col::t::a-d::cold col::t::a-d::heat col::t::a-d::heat_wave col::t::a-d::wave d::cold-s::7 "
        "d::cold-t::1 d::front-s::7 d::heat-s::7 d::heat-t::1 d::heat-t::2 d::heat_front-s::7 "
        "d::heat_wave-t::1 d::wave-t::1",
    ),
    ("structured_float_parents", True): (
        "x",
        {
            "concept:x": "x::1 x::2 x::3 x::4",
            "data:": "d::audit d::audit_plan d::plan d::risk d::risk_audit d::risk_plan",
            "text:s": "s::1",
        },
        f"{_STRUCTURED_EDGES} {_STRUCTURED_TAIL}",
    ),
    ("structured_float_parents", False): (
        "x",
        {
            "concept:x": "x::1 x::2 x::3 x::4",
            "data:": "d::audit d::audit_plan d::plan d::plan_review d::review d::risk d::risk_audit d::risk_plan",
            "text:s": "s::1",
        },
        f"{_STRUCTURED_EDGES} d::plan_review-s::1 d::review-s::1 {_STRUCTURED_TAIL}",
    ),
    ("empty_corpus", True): ("s", {"column:t": "col::t::a", "tuple:t": "t::1 t::2"}, ""),
    ("empty_corpus", False): (
        "s",
        {"column:t": "col::t::a", "data:": _HEAT_COLD, "tuple:t": "t::1 t::2"},
        f"{_HEAT_COLD_EDGES} d::front-t::2 d::heat-t::1 d::heat_wave-t::1 d::wave-t::1",
    ),
    ("empty_table", True): ("e", {"column:e": "col::e::a", "text:s": "s::1"}, ""),
    ("empty_table", False): (
        "e",
        {"column:e": "col::e::a", "data:": "d::heat d::heat_wave d::wave", "text:s": "s::1"},
        "d::heat-s::1 d::heat_wave-s::1 d::wave-s::1",
    ),
}


class TestBuildEdgeCases:
    """Empty, null and repeated inputs: the exact rows of the built graph."""

    @pytest.mark.parametrize("case,filter_second", sorted(EDGE_CASE_GRAPHS))
    def test_rows(self, spark, edge_corpora, case, filter_second):
        first, second = edge_corpora[case]
        g = build_graph(spark, first, second, max_n=2, do_stem=False, filter_second=filter_second)
        term_corpus, nodes, edges = EDGE_CASE_GRAPHS[case, filter_second]
        assert g.term_corpus == term_corpus
        assert sorted(map(tuple, g.node_rows.itertuples(index=False))) == sorted(
            (i, *key.split(":")) for key, ids in nodes.items() for i in ids.split()
        )
        assert sorted(map(tuple, g.edge_rows.itertuples(index=False))) == sorted(
            tuple(e.split("-")) for e in edges.split()
        )
        # the same rows reach Spark consumers
        assert sorted(map(tuple, g.nodes.collect())) == sorted(map(tuple, g.node_rows.itertuples(index=False)))
        assert g.edges.count() == len(g.edge_rows)

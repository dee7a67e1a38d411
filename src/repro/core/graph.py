"""Graph creation over heterogeneous corpora (paper §II, Algorithm 1).

The graph is held as two tables of rows:

* ``nodes(id, type, corpus)`` — ``type`` ∈ {``data``, ``tuple``, ``column``,
  ``text``, ``concept``}; ``corpus`` is the corpus name for metadata nodes
  and ``""`` for shared data nodes (a term appearing in both corpora is one
  node, §II).
* ``edges(src, dst)`` — undirected, stored once in canonical order
  (``src < dst``), no self loops, distinct.

Corpus kinds mirror the paper's three document types: a relational table
(documents = tuples, plus column metadata nodes), plain text (documents =
paragraphs/sentences), and structured text (documents = taxonomy concepts,
with parent edges between metadata nodes, §II-A).

Each corpus is collected once and tokenized on the driver into its
document ids and term rows ``(doc, attr, term)`` (:func:`tokenize_corpus`).
Everything ``build_graph`` derives from terms comes from those rows: the
§II-B ordering (distinct unigrams), the data nodes, the document-term edges
and the column-term edges.

Only corpus selection runs in Spark SQL: the documents' ids and text, and a
taxonomy's parent join. Algorithm 1's build runs on the driver in pandas,
and :class:`Graph` keeps its rows there as pandas frames. The stages after
the build (merging, the late §II-B filter, expansion, MSP) rewrite those
rows without a Spark job, and ``Graph.nodes`` / ``Graph.edges`` give them to
Spark consumers as Arrow local relations.

Term filtering (§II-B): ``build_graph`` creates data nodes from the corpus
with the smaller number of distinct tokens and keeps, for the other corpus,
only terms already in the graph. Callers pass corpora in any order;
``build_graph`` reorders internally (disable with ``auto_order=False``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import DataType

from .preprocess import TERM_SEP, terms

DATA = "data"
TUPLE = "tuple"
COLUMN = "column"
TEXT = "text"
CONCEPT = "concept"
METADATA_TYPES = (TUPLE, COLUMN, TEXT, CONCEPT)
# Column nodes exist to create 2-hop paths inside one corpus; they are not
# matched across corpora, so matching and MSP sampling use DOC_TYPES only.
DOC_TYPES = (TUPLE, TEXT, CONCEPT)

DATA_PREFIX = "d::"


def data_node_id(term: str) -> str:
    return DATA_PREFIX + term


def is_data_node_id(node_id: str) -> bool:
    return node_id.startswith(DATA_PREFIX)


def term_of(node_id: str) -> str:
    """Inverse of :func:`data_node_id` (raises on non-data ids)."""
    if not is_data_node_id(node_id):
        raise ValueError(f"not a data node: {node_id}")
    return node_id[len(DATA_PREFIX) :]


@dataclass(frozen=True)
class TableCorpus:
    """A relational table: one document (metadata node) per tuple.

    ``id_col`` must be unique; ``attr_cols`` are the textual attributes whose
    cell values become terms. Every attribute also becomes a column metadata
    node connected to the terms of its active domain (Alg. 1 lines 5-10, 23).
    """

    name: str
    df: DataFrame
    id_col: str
    attr_cols: Sequence[str]
    kind: str = field(default="table", init=False)

    def doc_id(self, raw) -> str:
        return f"{self.name}::{raw}"


@dataclass(frozen=True)
class TextCorpus:
    """Free text: one document per row (sentence or paragraph granularity)."""

    name: str
    df: DataFrame
    id_col: str
    text_col: str
    kind: str = field(default="text", init=False)

    def doc_id(self, raw) -> str:
        return f"{self.name}::{raw}"


@dataclass(frozen=True)
class StructuredTextCorpus:
    """Structured text (taxonomy): documents are concept nodes; ``parent_col``
    (nullable id) adds metadata-metadata edges for the hierarchy (§II-A)."""

    name: str
    df: DataFrame
    id_col: str
    text_col: str
    parent_col: str
    kind: str = field(default="structured", init=False)

    def doc_id(self, raw) -> str:
        return f"{self.name}::{raw}"


Corpus = object  # union of the three dataclasses above


NODE_SCHEMA = "id string, type string, corpus string"
EDGE_SCHEMA = "src string, dst string"


@dataclass(eq=False)
class Graph:
    """Undirected graph held on the driver; see module docstring.

    ``node_rows(id, type, corpus)`` and ``edge_rows(src, dst)`` are pandas
    frames. The graph-scale stages (merge, filter, expand, MSP) rewrite them
    with pandas and NumPy and run no Spark job. ``nodes`` / ``edges`` are the
    same rows as DataFrames, Arrow local relations built on first use
    (:func:`pandas_frame`), for consumers that join them in Spark.

    ``term_corpus`` records which corpus defined the term space (§II-B) when
    the graph came out of :func:`build_graph`.
    """

    spark: SparkSession
    node_rows: pd.DataFrame
    edge_rows: pd.DataFrame
    term_corpus: Optional[str] = None

    @classmethod
    def from_frames(
        cls, nodes: DataFrame, edges: DataFrame, term_corpus: Optional[str] = None
    ) -> "Graph":
        """The graph of the rows of ``nodes`` and ``edges``, brought to the
        driver in one action (a collect of their union)."""
        both = nodes.select(F.lit(True).alias("node"), "id", "type", "corpus").union(
            edges.select(F.lit(False), "src", "dst", F.lit(None).cast("string"))
        )
        pdf = both.toPandas()
        is_node = pdf.pop("node").astype(bool).to_numpy()
        node_rows = pdf[is_node].reset_index(drop=True)
        edge_rows = pdf[~is_node].drop(columns="corpus").set_axis(["src", "dst"], axis=1)
        return cls(nodes.sparkSession, node_rows, edge_rows.reset_index(drop=True), term_corpus)

    def with_rows(self, nodes: pd.DataFrame, edges: pd.DataFrame) -> "Graph":
        """A graph over new driver rows, in the same session and term space."""
        return Graph(
            self.spark, nodes.reset_index(drop=True), edges.reset_index(drop=True), self.term_corpus
        )

    @cached_property
    def nodes(self) -> DataFrame:
        return pandas_frame(self.spark, self.node_rows, NODE_SCHEMA)

    @cached_property
    def edges(self) -> DataFrame:
        return pandas_frame(self.spark, self.edge_rows, EDGE_SCHEMA)

    def num_nodes(self) -> int:
        return len(self.node_rows)

    def num_edges(self) -> int:
        return len(self.edge_rows)

    def metadata_nodes(self, corpus: Optional[str] = None) -> DataFrame:
        out = self.nodes.where(F.col("type").isin(list(METADATA_TYPES)))
        if corpus is not None:
            out = out.where(F.col("corpus") == corpus)
        return out

    def doc_nodes(self, corpus: Optional[str] = None) -> DataFrame:
        """Matchable document nodes (tuples/texts/concepts, no column nodes)."""
        out = self.nodes.where(F.col("type").isin(list(DOC_TYPES)))
        if corpus is not None:
            out = out.where(F.col("corpus") == corpus)
        return out

    def symmetric_edges(self) -> DataFrame:
        """Both directions of every undirected edge."""
        rev = self.edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
        return self.edges.unionByName(rev)

    def degrees(self) -> DataFrame:
        """DataFrame(id, degree) over nodes incident to at least one edge."""
        return (
            self.symmetric_edges()
            .groupBy(F.col("src").alias("id"))
            .agg(F.count("*").alias("degree"))
        )

    def index(self) -> "GraphIndex":
        """The graph as a :class:`GraphIndex` (isolated nodes included)."""
        e = self.edge_rows
        return GraphIndex.from_edges(self.node_rows["id"], e["src"], e["dst"])

    def subgraph(self, keep_nodes: DataFrame) -> "Graph":
        """Induced subgraph on the nodes whose ids are in ``keep_nodes`` (a
        DataFrame with column ``id``, duplicates allowed)."""
        return self.induced(self.node_rows["id"].isin(_ids(keep_nodes)))

    def without_nodes(self, drop_nodes: DataFrame) -> "Graph":
        """Induced subgraph on the nodes not in ``drop_nodes``."""
        return self.induced(~self.node_rows["id"].isin(_ids(drop_nodes)))

    def induced(self, keep: pd.Series) -> "Graph":
        """Induced subgraph on the nodes where the boolean mask ``keep``
        (aligned with ``node_rows``) holds: the edges with both ends kept."""
        nodes = self.node_rows[keep.to_numpy()]
        e = self.edge_rows
        return self.with_rows(nodes, e[e["src"].isin(nodes["id"]) & e["dst"].isin(nodes["id"])])


def _ids(df: DataFrame) -> pd.Series:
    return df.select("id").toPandas()["id"]


@dataclass(frozen=True)
class GraphIndex:
    """A graph on the driver as integers (compressed sparse rows).

    Node ``i`` is ``ids[i]``; ``ids`` is sorted, so integer order is id
    order. Its neighbours are ``targets[offsets[i]:offsets[i + 1]]``,
    ascending. Walks and MSP both run over it.
    """

    ids: np.ndarray  # object array of str, sorted
    offsets: np.ndarray  # int64, len(ids) + 1
    targets: np.ndarray  # int32

    @classmethod
    def from_edges(cls, ids: Sequence[str], src: Sequence[str], dst: Sequence[str]) -> "GraphIndex":
        """Index of the nodes ``ids`` (distinct, any order) and the undirected
        edges ``src[k]``–``dst[k]`` (any order; each end an id in ``ids``;
        an edge given twice, or in both directions, counts once)."""
        ids = np.sort(np.asarray(ids, dtype=object))
        ends = [_positions(ids, e) for e in (src, dst)]
        row, col = np.concatenate(ends), np.concatenate(ends[::-1])
        order = np.lexsort((col, row))
        row, col = row[order], col[order]
        first = np.ones(len(row), dtype=bool)
        first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        row, col = row[first], col[first]
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=len(ids)), out=offsets[1:])
        return cls(ids, offsets, col.astype(np.int32))

    @classmethod
    def from_neighbours(cls, ids: Sequence[str], nbrs: Sequence[Sequence[str]]) -> "GraphIndex":
        """Index of the nodes ``ids`` (distinct, any order), ``nbrs[j]``
        being the neighbour ids of ``ids[j]``, each one an id in ``ids``."""
        ids = np.asarray(ids, dtype=object)
        order = np.argsort(ids, kind="stable")
        lists = [np.asarray(nbrs[j], dtype=object) for j in order]
        sizes = np.fromiter((len(n) for n in lists), dtype=np.int64, count=len(lists))
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        ids = ids[order]
        flat = np.concatenate(lists) if lists else np.zeros(0, dtype=object)
        targets = _positions(ids, flat).astype(np.int32)
        # sort each row: ascending integers are ascending ids
        row = np.repeat(np.arange(len(ids)), sizes)
        targets = targets[np.lexsort((targets, row))]
        return cls(ids, offsets, targets)

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)


def _positions(ids: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Position of each of ``names`` in the sorted ``ids``; raises if one
    is not among them."""
    names = np.asarray(names, dtype=object)
    pos = np.searchsorted(ids, names)
    if len(names) and not (len(ids) and (ids[np.minimum(pos, len(ids) - 1)] == names).all()):
        raise ValueError("an edge end or neighbour is not among the node ids")
    return pos


def canonical_rows(src: Sequence[str], dst: Sequence[str]) -> pd.DataFrame:
    """pandas(src, dst): undirected edges in canonical order (``src < dst``),
    without loops or repeats."""
    src, dst = np.asarray(src, dtype=object), np.asarray(dst, dtype=object)
    lower = src < dst
    edges = pd.DataFrame({"src": np.where(lower, src, dst), "dst": np.where(lower, dst, src)})
    return edges[edges["src"] != edges["dst"]].drop_duplicates(ignore_index=True)


def pandas_frame(spark: SparkSession, pdf: pd.DataFrame, schema: str) -> DataFrame:
    """``pdf`` as a DataFrame with the DDL ``schema``.

    PySpark converts a non-empty pandas frame through Arrow (on in every
    session of this project) into a local relation, but an empty one
    through a pickled RDD job, which starts a Python worker pool
    (DESIGN.md). An empty frame is therefore built as an empty SQL
    relation.
    """
    if pdf.empty:
        fields = DataType.fromDDL(schema).fields
        return spark.range(0).select(*[F.lit(None).cast(f.dataType).alias(f.name) for f in fields])
    return spark.createDataFrame(pdf, schema)


def _doc_id(corpus) -> Column:
    """Prefixed metadata node id (``name::raw``) of each row of a corpus."""
    return F.concat(F.lit(corpus.name + "::"), F.col(corpus.id_col).cast("string"))


def tokenize_corpus(corpus, *, max_n: int, do_stem: bool) -> Tuple[pd.Series, pd.DataFrame]:
    """(document ids, pandas(doc, attr, term)): the corpus tokenized once,
    on the driver (§II).

    Spark SQL selects each document's id and text (a table: each cell, cast
    to string); one ``toPandas`` brings them to the driver, where
    :func:`preprocess.terms` runs per text. A table yields one term row per
    term of each cell, with ``attr`` the attribute name, so n-grams never
    span two attributes; text and structured text yield one per term of
    each document, with ``attr`` null. The ids include the documents
    without terms.
    """
    if corpus.kind == "table":
        attrs, texts = corpus.attr_cols, [F.col(a).cast("string") for a in corpus.attr_cols]
    else:
        attrs, texts = [None], [F.col(corpus.text_col)]
    pdf = corpus.df.select(
        _doc_id(corpus).alias("doc"), *[t.alias(f"_text{i}") for i, t in enumerate(texts)]
    ).toPandas()
    rows = [
        (doc, attr, term)
        for doc, *cells in pdf.itertuples(index=False, name=None)
        for attr, text in zip(attrs, cells)
        for term in terms(text or "", max_n=max_n, do_stem=do_stem)
    ]
    return pdf["doc"], pd.DataFrame(rows, columns=["doc", "attr", "term"], dtype=object)


def _unigram_count(rows: pd.DataFrame) -> int:
    """Distinct unigrams of a term table — the §II-B ordering criterion.

    Tokens never contain ``TERM_SEP``, so the terms without it are exactly
    the n = 1 terms.
    """
    t = rows["term"]
    return t[~t.str.contains(TERM_SEP, regex=False)].nunique()


def _parent_edges(corpus: StructuredTextCorpus) -> pd.DataFrame:
    """pandas(src, dst): the hierarchy edges between concept nodes (§II-A).

    The parent id is resolved by joining back on the id column in Spark, so
    its physical type (often float, from nullable pandas columns) never
    leaks into the node id string; a parent id that names no concept gives
    no edge.
    """
    pre = corpus.name + "::"
    child = corpus.df.select(
        F.col(corpus.id_col).cast("string").alias("_cid"), F.col(corpus.parent_col).alias("_pref")
    ).where(F.col("_pref").isNotNull())
    parent = corpus.df.select(
        F.col(corpus.id_col).alias("_pid_raw"), F.col(corpus.id_col).cast("string").alias("_pid")
    )
    return (
        child.join(parent, child["_pref"] == parent["_pid_raw"])
        .select(F.concat(F.lit(pre), "_cid").alias("src"), F.concat(F.lit(pre), "_pid").alias("dst"))
        .toPandas()
    )


def build_graph(
    spark: SparkSession,
    first,
    second,
    *,
    max_n: int = 3,
    do_stem: bool = True,
    filter_second: bool = True,
    auto_order: bool = True,
) -> Graph:
    """Algorithm 1: build the joint graph over two corpora.

    When ``auto_order`` is set (default), the corpus with fewer distinct
    tokens plays the role of the *first* set so its terms define the data
    nodes and the other corpus is filtered against them (§II-B). Metadata
    nodes are created for every document of both corpora regardless.

    Each corpus is collected once (:func:`tokenize_corpus`), a structured
    one once more for its parent edges; the graph is built from those rows
    on the driver.
    """
    (d1, r1), (d2, r2) = (tokenize_corpus(c, max_n=max_n, do_stem=do_stem) for c in (first, second))
    if auto_order and _unigram_count(r2) < _unigram_count(r1):
        first, second, d1, d2, r1, r2 = second, first, d2, d1, r2, r1
    if filter_second:
        # also drops the second corpus's column-term edges of filtered terms
        r2 = r2[r2["term"].isin(r1["term"])]

    node_parts, edge_parts = [], []
    for corpus, docs, rows in ((first, d1, r1), (second, d2, r2)):
        kind = {"table": TUPLE, "text": TEXT, "structured": CONCEPT}[corpus.kind]
        data = DATA_PREFIX + rows["term"]
        node_parts += [
            pd.DataFrame({"id": docs, "type": kind, "corpus": corpus.name}),
            pd.DataFrame({"id": data, "type": DATA, "corpus": ""}),
        ]
        edge_parts.append(pd.DataFrame({"src": rows["doc"], "dst": data}))
        if corpus.kind == "table":
            col = f"col::{corpus.name}::"
            cols = [col + a for a in corpus.attr_cols]
            node_parts.append(pd.DataFrame({"id": cols, "type": COLUMN, "corpus": corpus.name}))
            edge_parts.append(pd.DataFrame({"src": col + rows["attr"], "dst": data}))
        elif corpus.kind == "structured":
            edge_parts.append(_parent_edges(corpus))
    nodes = pd.concat(node_parts, ignore_index=True).drop_duplicates(ignore_index=True)
    # a document with a null id gets a node but no edge
    edges = pd.concat(edge_parts, ignore_index=True).dropna()
    return Graph(spark, nodes, canonical_rows(edges["src"], edges["dst"]), first.name)


KB = Union[DataFrame, pd.DataFrame]


def kb_rows(kb: KB) -> pd.DataFrame:
    """pandas(subject, object) of a KB edge list as strings: a DataFrame is
    cast and collected in one action; a pandas frame, rows already
    collected by this function, is returned as it is."""
    if isinstance(kb, pd.DataFrame):
        return kb
    return kb.select(*[F.col(c).cast("string") for c in ("subject", "object")]).toPandas()


def filter_to_term_corpus(graph: Graph, *, kb: Optional[KB] = None) -> Graph:
    """Graph-level §II-B filtering, merge- and expansion-aware.

    Drops data nodes that have no edge to any metadata node of the
    term-defining corpus (``graph.term_corpus``) — the same semantics as
    ``build_graph(filter_second=True)``, but applied *after* node merging so
    a second-corpus variant fused onto a first-corpus term survives.

    When ``kb`` is given (expansion planned; a KB DataFrame or its
    :func:`kb_rows`), second-corpus-only terms that
    the KB relates to a surviving term are kept as well: the expansion step
    will connect them (this is how the review-side "Comedy" of the paper's
    Figure 4/5 stays available for the style(Tarantino, Comedy) bridge).
    """
    if graph.term_corpus is None:
        raise ValueError("graph has no recorded term corpus")
    nodes, edges = graph.node_rows, graph.edge_rows
    meta = nodes["type"].isin(METADATA_TYPES)
    first_meta = nodes.loc[meta & (nodes["corpus"] == graph.term_corpus), "id"]
    src, dst = edges["src"], edges["dst"]
    keep = pd.concat([dst[src.isin(first_meta)], src[dst.isin(first_meta)]])
    if kb is not None:
        kept_terms = keep[keep.str.startswith(DATA_PREFIX)].str[len(DATA_PREFIX) :]
        kbe = kb_rows(kb)
        subject, obj = kbe["subject"], kbe["object"]
        bridged = pd.concat([subject[obj.isin(kept_terms)], obj[subject.isin(kept_terms)]])
        keep = pd.concat([keep, DATA_PREFIX + bridged.dropna()])
    # every metadata node stays
    return graph.induced(meta | nodes["id"].isin(keep))

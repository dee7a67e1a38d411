"""End-to-end TDmatch pipeline (Figure 3): graph -> (merge) -> (expand) ->
(compress) -> walks -> Word2Vec -> top-k matching.

``run_tdmatch`` is the entry point of every job and benchmark; it runs the
graph stages (:func:`tdmatch_graph`), then :func:`graph_vectors` and
:func:`match_documents`, the three calls Table VII times. The paper's
method variants map to configs:

* **W-RW**      — ``TDMatchConfig(expand=False)``
* **W-RW-EX**   — ``TDMatchConfig(expand=True)`` (+ a KB DataFrame)
* **MSP(β)**    — ``compress=("msp", β)`` on top of either
* **SSuM(r)**   — ``compress=("ssum", r)``

The result carries the ranked matches plus the graph-size trail
(original/expanded/compressed #nodes/#edges) that Table VIII reports.
After the corpus, synonym and KB collects, every stage (either
compression too) runs on the driver and starts no Spark job.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .compress import msp_compress, ssum_like_compress
from .embed import skipgram, vector_rows
from .expand import expand_graph
from .graph import DOC_TYPES, Graph, build_graph, filter_to_term_corpus, kb_rows
from .match import matches_frame, top_k_rows
from .merge import merge_numeric_buckets, merge_synonyms
from .walks import walk_corpus


@dataclass
class TDMatchConfig:
    """Knobs of the pipeline; defaults are scaled-down versions of the
    paper's (100 walks × length 30, dim 300) sized for local Spark."""

    max_n: int = 3
    do_stem: bool = True
    filter_second: bool = True
    auto_order: bool = True
    num_walks: int = 10
    walk_length: int = 12
    vector_size: int = 64
    window: int = 3  # paper: 3 for text-to-data, 15 for text-only
    w2v_iter: int = 1
    expand: bool = False
    sink_scope: str = "added"
    compress: Optional[Tuple[str, float]] = None  # ("msp", beta) | ("ssum", r)
    bucket_numeric: bool = False
    k: int = 20
    seed: int = 0


@dataclass
class TDMatchResult:
    matches: DataFrame  # (query, target, score, rank) with raw doc ids, a local relation
    # stage -> (#nodes, #edges): "original", plus "expanded" and
    # "compressed" when those stages run
    graph_sizes: Dict[str, Tuple[int, int]]
    vectors: pd.DataFrame  # pandas(node, vector) for every graph node
    graph: Graph


def strip_prefix(col, corpus_name: str):
    """Graph doc id ``name::raw`` -> raw document id column. ``run_tdmatch``
    strips the prefix in pandas; the benchmark's traced run, which ranks in
    Spark, uses this."""
    return F.expr(f"substring({col}, {len(corpus_name) + 3})")


def graph_vectors(graph: Graph, cfg: TDMatchConfig) -> pd.DataFrame:
    """pandas(node, vector) of every node of ``graph`` (§IV-A): the
    skip-gram vectors of its random walks, both computed on the driver
    from the graph's integer index."""
    index = graph.index()
    tokens, offsets = walk_corpus(
        index, num_walks=cfg.num_walks, walk_length=cfg.walk_length, seed=cfg.seed
    )
    ids, vectors = skipgram(
        tokens, offsets, vector_size=cfg.vector_size, window=cfg.window, seed=cfg.seed,
        max_iter=cfg.w2v_iter,
    )
    return vector_rows(index.ids[ids], vectors, "node")


def match_documents(
    graph: Graph, vectors: pd.DataFrame, query_corpus, target_corpus, *, k: int
) -> pd.DataFrame:
    """pandas(query, target, score, rank) with raw document ids (§IV-B): the
    top-k target documents of each query document by the cosine of their
    collected vectors, pandas(node, vector)."""
    nodes = graph.node_rows
    docs = nodes[nodes["type"].isin(DOC_TYPES)]
    vectors = vectors.rename(columns={"node": "id"})

    def side(corpus) -> pd.DataFrame:
        return vectors[vectors["id"].isin(docs.loc[docs["corpus"] == corpus.name, "id"])]

    ranked = top_k_rows(side(query_corpus), side(target_corpus), k=k)
    for col, corpus in (("query", query_corpus), ("target", target_corpus)):
        ranked[col] = ranked[col].str[len(corpus.name) + 2 :]
    return ranked


def tdmatch_graph(
    spark: SparkSession,
    query_corpus,
    target_corpus,
    *,
    config: TDMatchConfig = TDMatchConfig(),
    kb: Optional[DataFrame] = None,
    synonyms: Optional[DataFrame] = None,
) -> Tuple[Graph, Dict[str, Tuple[int, int]]]:
    """The graph stages of :func:`run_tdmatch`, build → merge → bucket →
    filter → expand → compress, and the graph-size trail (stage ->
    (#nodes, #edges)).

    The corpus collects of ``build_graph``, and one collect each of the
    synonyms and (with expansion) the KB, are its only Spark jobs, with MSP,
    SSuM or no compression.
    """
    cfg = config
    sizes: Dict[str, Tuple[int, int]] = {}
    if cfg.expand:
        if kb is None:
            raise ValueError("expand=True requires a KB edge DataFrame")
        kb = kb_rows(kb)  # one collect, for the filter and the expansion

    # Build unfiltered, merge variants first, then filter (§II-B): a merge
    # can fuse a second-corpus variant onto a first-corpus term, and the
    # filter must see the merged node, not the raw token stream. With a KB
    # present, filtering also keeps second-corpus terms the KB can bridge
    # (see filter_to_term_corpus).
    # build_graph builds the graph on the driver from one collect per corpus;
    # the stages after it rewrite those rows, and a stage's input is dropped
    # as soon as it returns.
    graph = build_graph(
        spark,
        query_corpus,
        target_corpus,
        max_n=cfg.max_n,
        do_stem=cfg.do_stem,
        filter_second=False,
        auto_order=cfg.auto_order,
    )
    if synonyms is not None:
        graph = merge_synonyms(graph, synonyms)[0]
    if cfg.bucket_numeric:
        graph = merge_numeric_buckets(graph)[0]
    if cfg.filter_second:
        graph = filter_to_term_corpus(graph, kb=kb if cfg.expand else None)
    sizes["original"] = (graph.num_nodes(), graph.num_edges())

    if cfg.expand:
        graph = expand_graph(graph, kb, sink_scope=cfg.sink_scope)
        sizes["expanded"] = (graph.num_nodes(), graph.num_edges())

    if cfg.compress is not None:
        kind, ratio = cfg.compress
        if kind == "msp":
            graph = msp_compress(graph, beta=ratio, seed=cfg.seed)
        elif kind == "ssum":
            graph = ssum_like_compress(graph, ratio=ratio, seed=cfg.seed)
        else:
            raise ValueError(f"unknown compression {kind!r}")
        sizes["compressed"] = (graph.num_nodes(), graph.num_edges())
    return graph, sizes


def run_tdmatch(
    spark: SparkSession,
    query_corpus,
    target_corpus,
    *,
    config: TDMatchConfig = TDMatchConfig(),
    kb: Optional[DataFrame] = None,
    synonyms: Optional[DataFrame] = None,
) -> TDMatchResult:
    """Run the full pipeline; queries come from ``query_corpus`` and are
    ranked against the documents of ``target_corpus``: the graph stages
    (:func:`tdmatch_graph`), then :func:`graph_vectors` and
    :func:`match_documents`, which start no Spark job.

    Graph construction order (which corpus defines the term space, §II-B) is
    independent of query direction and handled inside ``build_graph``.
    """
    graph, sizes = tdmatch_graph(
        spark, query_corpus, target_corpus, config=config, kb=kb, synonyms=synonyms
    )
    vectors = graph_vectors(graph, config)
    ranked = match_documents(graph, vectors, query_corpus, target_corpus, k=config.k)
    return TDMatchResult(
        matches=matches_frame(spark, ranked),
        graph_sizes=sizes,
        vectors=vectors,
        graph=graph,
    )

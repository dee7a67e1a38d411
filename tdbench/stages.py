"""The traced run: ``run_tdmatch``'s stages called one by one, in its order.

Each stage call sits in a span and a Spark job group of its own. Sizes and
counts are read between spans, so their Spark jobs add to the traced total
(and to ``trace.overhead_s``) but not to any stage.

This must stay the same program as :func:`repro.core.pipeline.run_tdmatch`;
the benchmark compares the digests of both runs' matches on the
deterministic workloads.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.compress import msp_compress
from repro.core.embed import train_embeddings
from repro.core.expand import expand_graph
from repro.core.graph import Graph, build_graph, filter_to_term_corpus
from repro.core.match import top_k_matches
from repro.core.merge import merge_synonyms
from repro.core.pipeline import TDMatchConfig, strip_prefix
from repro.core.walks import generate_walks

from .spans import SpanRecorder, job_group
from .workloads import Inputs

# Stage names in run_tdmatch order; each is "<layer>.<step>".
STAGES = (
    "graph.build",
    "merge.synonyms",
    "graph.filter",
    "expand.expand",
    "compress.msp",
    "walks.generate",
    "embed.train",
    "match.topk",
)
GRAPH_STAGES = STAGES[:5]


def traced_tdmatch(
    spark: SparkSession, inp: Inputs, cfg: TDMatchConfig, rec: SpanRecorder
) -> Tuple[DataFrame, Graph, Dict[str, float]]:
    """(matches, final graph, per-layer metrics) of one traced run."""
    if cfg.bucket_numeric or (cfg.compress is not None and cfg.compress[0] != "msp"):
        raise ValueError("the traced run covers MSP compression and no numeric buckets")
    sc = spark.sparkContext
    m: Dict[str, float] = {}

    def stage(name: str):
        return _stage(sc, rec, name, m)

    def sizes(name: str, g: Graph) -> None:
        m[f"{name}.nodes"], m[f"{name}.edges"] = g.num_nodes(), g.num_edges()

    with rec.span("pipeline") as root:
        with stage("graph.build"):
            graph = build_graph(
                spark, inp.query, inp.target, max_n=cfg.max_n, do_stem=cfg.do_stem,
                filter_second=False, auto_order=cfg.auto_order,
            )
        sizes("graph.build", graph)
        if inp.synonyms is not None:
            with stage("merge.synonyms"):
                graph, removed = merge_synonyms(graph, inp.synonyms)
            m["merge.synonyms.removed"] = removed
            sizes("merge.synonyms", graph)
        if cfg.filter_second:
            with stage("graph.filter"):
                graph = filter_to_term_corpus(graph, kb=inp.kb if cfg.expand else None)
            sizes("graph.filter", graph)
        if cfg.expand:
            with stage("expand.expand"):
                graph = expand_graph(graph, inp.kb, sink_scope=cfg.sink_scope)
            sizes("expand.expand", graph)
        if cfg.compress is not None:
            edges_in = graph.num_edges()
            with stage("compress.msp"):
                graph = msp_compress(graph, beta=cfg.compress[1], seed=cfg.seed)
            sizes("compress.msp", graph)
            m["compress.msp.edge_keep"] = m["compress.msp.edges"] / max(1, edges_in)

        with stage("walks.generate"):
            walks = generate_walks(
                graph, num_walks=cfg.num_walks, walk_length=cfg.walk_length, seed=cfg.seed
            ).cache()
            walks.count()
        lengths = walks.select(F.size("walk").alias("n")).agg(
            F.sum("n").alias("tokens"), F.count("*").alias("walks")
        ).first()
        tokens = int(lengths["tokens"])
        m["walks.generate.steps"] = tokens - int(lengths["walks"])
        m["walks.generate.steps_per_s"] = m["walks.generate.steps"] / m["walks.generate.s"]

        with stage("embed.train"):
            emb = train_embeddings(
                walks, vector_size=cfg.vector_size, window=cfg.window, seed=cfg.seed,
                max_iter=cfg.w2v_iter,
            ).cache()
            emb.count()
        m["embed.train.vocab"] = emb.count()
        m["embed.train.tokens_per_s"] = tokens / m["embed.train.s"]

        with stage("match.topk"):
            q_emb = emb.join(
                graph.doc_nodes(inp.query.name).select(F.col("id").alias("node")), "node"
            )
            t_emb = emb.join(
                graph.doc_nodes(inp.target.name).select(F.col("id").alias("node")), "node"
            )
            matches = top_k_matches(q_emb, t_emb, k=cfg.k).select(
                strip_prefix("query", inp.query.name).alias("query"),
                strip_prefix("target", inp.target.name).alias("target"),
                "score",
                "rank",
            ).cache()
            matches.count()
        queries = matches.select("query").distinct().count()
        m["match.topk.queries"] = queries
        m["match.topk.ms_per_query"] = 1000 * m["match.topk.s"] / max(1, queries)
        walks.unpersist()
        emb.unpersist()
    m["pipeline.traced_s"] = root.duration
    return matches, graph, m


@contextmanager
def _stage(sc, rec: SpanRecorder, name: str, out: Dict[str, float]) -> Iterator[None]:
    """Span + job group around one stage; records ``<name>.s`` and
    ``<name>.jobs`` and adds the group's failed tasks to
    ``spark.failed_tasks``."""
    with job_group(sc, f"{rec.trace_id}.{name}", name) as counts:
        with rec.span(name) as span:
            yield
    span.attrs.update(counts)
    out[f"{name}.s"] = span.duration
    out[f"{name}.jobs"] = counts["jobs"]
    out["spark.failed_tasks"] = out.get("spark.failed_tasks", 0) + counts["failed_tasks"]


# Per-layer metrics beside each stage's ".s"/".jobs" and each graph
# stage's ".nodes"/".edges", with their units.
EXTRA_UNITS = {
    "merge.synonyms.removed": "count",
    "compress.msp.edge_keep": "ratio",
    "walks.generate.steps": "count",
    "walks.generate.steps_per_s": "1/s",
    "embed.train.vocab": "count",
    "embed.train.tokens_per_s": "1/s",
    "match.topk.queries": "count",
    "match.topk.ms_per_query": "ms",
    "spark.failed_tasks": "count",
}


def layer_metrics(m: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of a traced run as name -> (value, unit);
    the metrics of a stage the workload does not run read 0."""
    units: Dict[str, str] = {}
    for s in STAGES:
        units.update({f"{s}.s": "s", f"{s}.jobs": "count"})
    for s in GRAPH_STAGES:
        units.update({f"{s}.nodes": "count", f"{s}.edges": "count"})
    units.update(EXTRA_UNITS)
    return {name: (m.get(name, 0), unit) for name, unit in units.items()}

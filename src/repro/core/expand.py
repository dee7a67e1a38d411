"""Graph expansion with external resources (paper §III-A, Algorithm 2).

The external resource is an edge list of related terms — our stand-in for
ConceptNet / DBpedia (see ``repro.kb.synth_kb``). For every **data** node
whose term appears in the KB, all its KB connections are added to the graph
(creating new data nodes as needed). The cleanup pass then removes *sink*
nodes — degree-1 nodes — exactly as Algorithm 2 lines 13-17.

Faithfulness knob: the paper's pseudo-code removes *any* degree-1 node. With
sentence-granularity corpora, that also deletes legitimate corpus terms that
occur in a single document. ``sink_scope`` selects between the literal
behaviour (``"all"``) and restricting removal to nodes introduced by the
expansion itself (``"added"``, the default used in our pipelines).
"""
from __future__ import annotations

from typing import Tuple

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graph import DATA, DATA_PREFIX, Graph, canonical_edges


def expand_graph(
    graph: Graph,
    kb_edges: DataFrame,
    *,
    sink_scope: str = "added",
) -> Graph:
    """Algorithm 2: expand with KB connections, then remove sink nodes.

    ``kb_edges`` is a DataFrame(subject, object) of related *terms* (already
    pre-processed to match the graph's term space). Connections are fetched
    for every data node matching either side.
    """
    if sink_scope not in ("added", "all", "none"):
        raise ValueError(f"bad sink_scope {sink_scope!r}")

    kb = kb_edges.select(
        F.col("subject").cast("string").alias("subject"),
        F.col("object").cast("string").alias("object"),
    ).where(F.col("subject") != F.col("object"))
    # symmetric: a data node matching either endpoint pulls in the relation
    kb = kb.unionByName(
        kb.select(F.col("object").alias("subject"), F.col("subject").alias("object"))
    ).distinct()

    data_terms = graph.nodes.where(F.col("type") == DATA).select(
        F.expr(f"substring(id, {len(DATA_PREFIX) + 1})").alias("subject")
    )
    fetched = kb.join(F.broadcast(data_terms), "subject", "left_semi")

    new_edges = fetched.select(
        F.concat(F.lit(DATA_PREFIX), "subject").alias("src"),
        F.concat(F.lit(DATA_PREFIX), "object").alias("dst"),
    )
    edges = canonical_edges(graph.edges.unionByName(new_edges)).cache()

    new_nodes = (
        new_edges.select(F.col("dst").alias("id"))
        .distinct()
        .join(F.broadcast(graph.nodes.select("id")), "id", "left_anti")
        .withColumn("type", F.lit(DATA))
        .withColumn("corpus", F.lit(""))
        .cache()
    )
    nodes = graph.nodes.unionByName(new_nodes)
    expanded = Graph(nodes, edges, graph.term_corpus)

    if sink_scope == "none":
        out = expanded.materialize()
    else:
        sinks = expanded.degrees().where(F.col("degree") <= 1).select("id")
        if sink_scope == "added":
            sinks = sinks.join(F.broadcast(new_nodes.select("id")), "id", "left_semi")
        out = expanded.without_nodes(sinks)
    edges.unpersist()
    new_nodes.unpersist()
    return out

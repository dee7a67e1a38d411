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

import pandas as pd

from .graph import DATA, DATA_PREFIX, KB, Graph, canonical_rows, kb_rows


def expand_graph(
    graph: Graph,
    kb_edges: KB,
    *,
    sink_scope: str = "added",
) -> Graph:
    """Algorithm 2: expand with KB connections, then remove sink nodes.

    ``kb_edges`` is a DataFrame(subject, object) of related *terms* (already
    pre-processed to match the graph's term space), or its rows as
    :func:`~repro.core.graph.kb_rows` collected them. Connections are
    fetched for every data node matching either side. A DataFrame is
    collected once; the rest runs on the graph's driver rows.
    """
    if sink_scope not in ("added", "all", "none"):
        raise ValueError(f"bad sink_scope {sink_scope!r}")

    kb = kb_rows(kb_edges).dropna()
    kb = kb[kb["subject"] != kb["object"]]
    # symmetric: a data node matching either endpoint pulls in the relation
    kb = pd.concat([kb, kb.set_axis(["object", "subject"], axis=1)])

    nodes, edges = graph.node_rows, graph.edge_rows
    data_terms = nodes.loc[nodes["type"] == DATA, "id"].str[len(DATA_PREFIX) :]
    fetched = kb[kb["subject"].isin(data_terms)]
    new_dst = DATA_PREFIX + fetched["object"]
    edges = canonical_rows(
        pd.concat([edges["src"], DATA_PREFIX + fetched["subject"]]),
        pd.concat([edges["dst"], new_dst]),
    )
    new_ids = pd.Series(new_dst.unique(), dtype=object)
    new_ids = new_ids[~new_ids.isin(nodes["id"])]
    new_nodes = pd.DataFrame({"id": new_ids, "type": DATA, "corpus": ""})
    expanded = graph.with_rows(pd.concat([nodes, new_nodes]), edges)
    if sink_scope == "none":
        return expanded

    # sinks: degree exactly 1 (isolated nodes have no edge to remove)
    degree = pd.concat([edges["src"], edges["dst"]]).value_counts()
    sinks = degree.index[(degree <= 1).to_numpy()]
    if sink_scope == "added":
        sinks = sinks[sinks.isin(new_ids)]
    return expanded.induced(~expanded.node_rows["id"].isin(sinks))

"""Small helpers shared by the test modules."""
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import pandas as pd

from repro.core.graph import Graph, GraphIndex, canonical_rows, data_node_id
from repro.core.walks import walk_corpus


def star_graph(spark, terms: Sequence[str], links: Iterable[Tuple[str, str]] = ()) -> Graph:
    """A data node per term, each linked to the document ``t::1``; each
    ``(term, document)`` of ``links`` adds an edge, and its data node and
    document if new (documents are tuples of corpus ``t``)."""
    links = [(data_node_id(t), d) for t, d in links]
    ids = list(dict.fromkeys([data_node_id(t) for t in terms] + [u for u, _ in links]))
    docs = list(dict.fromkeys(["t::1"] + [d for _, d in links]))
    nodes = pd.DataFrame({
        "id": ids + docs,
        "type": ["data"] * len(ids) + ["tuple"] * len(docs),
        "corpus": [""] * len(ids) + ["t"] * len(docs),
    })
    src = ids[: len(terms)] + [u for u, _ in links]
    dst = ["t::1"] * len(terms) + [d for _, d in links]
    return Graph(spark, nodes, canonical_rows(src, dst))


def adjacency(graph) -> Dict[str, List[str]]:
    """``graph.index()`` as a dict: every node id -> its neighbour ids,
    ascending (isolated nodes map to ``[]``); the input of the pure-Python
    reference ``bfs_parents`` and of the walk-edge checks."""
    index = graph.index()
    return {
        u: [index.ids[j] for j in index.targets[index.offsets[i] : index.offsets[i + 1]]]
        for i, u in enumerate(index.ids)
    }


def edge_set(graph) -> Set[Tuple[str, str]]:
    """The graph's edges as ``(src, dst)`` pairs, each stored once."""
    return set(graph.edge_rows[["src", "dst"]].itertuples(index=False, name=None))


def symmetric_edges(graph) -> Set[Tuple[str, str]]:
    """Both directions of every undirected edge of ``graph``."""
    edges = edge_set(graph)
    return edges | {(d, s) for s, d in edges}


def walk_from(adj: Dict[str, List[str]], start: str, length: int, seed: int) -> List[str]:
    """The walk from ``start`` in one pass of ``walk_corpus`` over the graph
    ``adj`` (every node id -> its neighbour ids), as node ids."""
    index = GraphIndex.from_neighbours(list(adj), [adj[k] for k in adj])
    tokens, offsets = walk_corpus(index, num_walks=1, walk_length=length, seed=seed)
    s = index.ids.tolist().index(start)  # one pass: walk s starts at node s
    return index.ids[tokens[offsets[s] : offsets[s + 1]]].tolist()

"""Small helpers shared by the test modules."""
from typing import Dict, List, Set, Tuple


def adjacency(graph) -> Dict[str, List[str]]:
    """``graph.index()`` as a dict: every node id -> its neighbour ids,
    ascending (isolated nodes map to ``[]``); the input of the pure-Python
    references ``walk_from`` and ``bfs_parents``."""
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

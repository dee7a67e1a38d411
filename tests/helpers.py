"""Small helpers shared by the test modules."""
from typing import Dict, List, Set, Tuple

from repro.core.graph import GraphIndex
from repro.core.walks import walk_corpus


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

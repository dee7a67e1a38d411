"""Small helpers shared by the test modules."""
from typing import Dict, List


def adjacency(graph) -> Dict[str, List[str]]:
    """``graph.index()`` as a dict: every node id -> its neighbour ids,
    ascending (isolated nodes map to ``[]``); the input of the pure-Python
    references ``walk_from`` and ``bfs_parents``."""
    index = graph.index()
    return {
        u: [index.ids[j] for j in index.targets[index.offsets[i] : index.offsets[i + 1]]]
        for i, u in enumerate(index.ids)
    }

"""Graph compression (paper §III-B).

* :func:`msp_compress` — the paper's contribution, Algorithm 3 (Metadata
  Shortest Path): sample ``L = β·|nodes|`` pairs of *document* metadata nodes
  taken from the two corpora, compute **all** shortest paths per pair, and
  keep exactly the nodes/edges on those paths. A final pass guarantees every
  metadata node is connected to the compressed graph by at least one
  shortest path (Alg. 3's post-condition).
* :func:`ssum_like_compress` — the SSuM baseline [41], substituted by a
  summarizer with the same two mechanisms (data-node merging by identical
  neighbourhood + random edge sparsification to the target ratio).
  The real SSuM minimizes a reconstruction error we do not need for a
  comparison baseline; DESIGN.md documents the substitution.

Both run on the driver over the graph's
:class:`~repro.core.graph.GraphIndex`, the integer CSR the walks use
(DESIGN.md layering note), and start no Spark job. MSP groups the sampled
pairs by source: one level-synchronous NumPy BFS per source gives the
shortest-path DAG to all of its destinations (Brandes 2001), and one backtrack through it, level by
level from the reachable destinations, marks their path edges
(:func:`shortest_path_mask`). :func:`bfs_parents` and
:func:`shortest_path_edges` are the same algorithm in pure Python over an
adjacency dict, the reference the tests compare against.
"""
from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np
import pandas as pd

from .graph import DATA, DOC_TYPES, METADATA_TYPES, Graph, GraphIndex
from .merge import apply_node_mapping


def bfs_parents(adj: Dict[str, List[str]], src: str) -> Tuple[Dict[str, int], Dict[str, List[str]]]:
    """BFS from ``src``: (distance map, shortest-path parent DAG)."""
    dist = {src: 0}
    parents: Dict[str, List[str]] = {src: []}
    q = deque([src])
    while q:
        u = q.popleft()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                parents[v] = [u]
                q.append(v)
            elif dist[v] == dist[u] + 1:
                parents[v].append(u)
    return dist, parents


def shortest_path_edges(
    adj: Dict[str, List[str]], src: str, dsts: Iterable[str]
) -> List[Tuple[str, str]]:
    """Edges lying on *any* shortest path from ``src`` to any of ``dsts``.

    One BFS, then one backtrack through the parent DAG seeded with every
    reachable destination; the union of parent edges reachable from a
    destination is exactly the union of its shortest paths. Unreachable
    destinations and ``src`` itself contribute nothing.
    """
    dist, parents = bfs_parents(adj, src)
    stack = [d for d in set(dsts) if d in dist]
    seen = set(stack)
    edges: Set[Tuple[str, str]] = set()
    while stack:
        v = stack.pop()
        for u in parents[v]:
            edges.add((min(u, v), max(u, v)))
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return sorted(edges)


def sample_pairs(
    first: Sequence[str],
    second: Sequence[str],
    n: int,
    seed: int,
    *,
    ensure_all_metadata: bool = True,
) -> pd.DataFrame:
    """DataFrame(src, dst) of MSP's ``n`` sampled (first, second) doc pairs.

    With ``ensure_all_metadata`` every doc left unsampled gets one extra
    pair with a random doc of the other corpus.
    """
    rng = np.random.default_rng(seed)
    pairs = pd.DataFrame(
        {
            "src": rng.choice(np.asarray(first, dtype=object), size=n, replace=True),
            "dst": rng.choice(np.asarray(second, dtype=object), size=n, replace=True),
        }
    )
    if ensure_all_metadata:
        rng = np.random.default_rng(seed + 1)
        missing_first = sorted(set(first) - set(pairs["src"]))
        missing_second = sorted(set(second) - set(pairs["dst"]))
        extra = []
        for m in missing_first:
            extra.append((m, second[int(rng.integers(len(second)))]))
        for m in missing_second:
            extra.append((first[int(rng.integers(len(first)))], m))
        if extra:
            pairs = pd.concat(
                [pairs, pd.DataFrame(extra, columns=["src", "dst"])], ignore_index=True
            )
    return pairs


def _entries(offsets: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Positions in the CSR targets of every neighbour entry of ``nodes``."""
    starts = offsets[nodes]
    sizes = offsets[nodes + 1] - starts
    return np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


def shortest_path_mask(index: GraphIndex, src: int, dsts: np.ndarray) -> np.ndarray:
    """Mask over ``index.targets`` of the edges on *any* shortest path from
    node ``src`` to any of the nodes ``dsts`` (integer ids, may repeat).

    :func:`shortest_path_edges` over the CSR: the BFS runs one level at a
    time until every destination is reached or the frontier is empty; the
    backtrack then walks the levels down from the reachable destinations,
    keeping each entry ``v -> u`` whose end ``u`` is one level closer to
    ``src``. Each kept edge is marked in that one direction only.
    """
    offsets, targets = index.offsets, index.targets
    dist = np.full(len(index.ids), -1, dtype=np.int64)
    dist[src] = 0
    levels = [np.array([src])]
    while levels[-1].size and (dist[dsts] < 0).any():
        nbrs = targets[_entries(offsets, levels[-1])]
        new = np.unique(nbrs[dist[nbrs] < 0])
        dist[new] = len(levels)
        levels.append(new)
    keep = np.zeros(len(targets), dtype=bool)
    on_path = np.zeros(len(index.ids), dtype=bool)
    on_path[dsts[dist[dsts] > 0]] = True
    for level in range(len(levels) - 1, 0, -1):
        nodes = levels[level][on_path[levels[level]]]
        entries = _entries(offsets, nodes)
        entries = entries[dist[targets[entries]] == level - 1]
        keep[entries] = True
        on_path[targets[entries]] = True
    return keep


def msp_compress(
    graph: Graph, *, beta: float, seed: int = 0, ensure_all_metadata: bool = True
) -> Graph:
    """Algorithm 3 (MSP) compression with compression ratio ``beta``.

    ``L = beta * |nodes|`` pair samples; pairs are (doc node of corpus 1,
    doc node of corpus 2). With ``ensure_all_metadata`` every doc metadata
    node left unsampled gets one extra pair so it stays connected.
    """
    nodes = graph.node_rows
    docs = nodes[nodes["type"].isin(DOC_TYPES)]
    corpora = sorted(docs["corpus"].unique())
    if len(corpora) != 2:
        raise ValueError(f"MSP needs exactly two corpora, got {corpora}")
    # sorted, so the sample depends on the graph and seed, not on row order
    first = sorted(docs.loc[docs["corpus"] == corpora[0], "id"])
    second = sorted(docs.loc[docs["corpus"] == corpora[1], "id"])

    index = graph.index()
    L = max(1, int(beta * len(index.ids)))
    pairs = sample_pairs(first, second, L, seed, ensure_all_metadata=ensure_all_metadata)
    src = np.searchsorted(index.ids, pairs["src"].to_numpy(dtype=object))
    dst = np.searchsorted(index.ids, pairs["dst"].to_numpy(dtype=object))
    keep = np.zeros(len(index.targets), dtype=bool)
    for s in np.unique(src):
        keep |= shortest_path_mask(index, s, dst[src == s])
    # ids are sorted, so (min, max) of node numbers is the canonical (src < dst) order
    ends = np.stack([np.repeat(np.arange(len(index.ids)), index.degrees()), index.targets])
    lo, hi = np.unique(np.sort(ends[:, keep], axis=0), axis=1)
    edges = pd.DataFrame({"src": index.ids[lo], "dst": index.ids[hi]})
    # metadata nodes always survive, even if isolated (matching needs them)
    kept = nodes["type"].isin(METADATA_TYPES) | nodes["id"].isin(index.ids[np.union1d(lo, hi)])
    return graph.with_rows(nodes[kept], edges)


def ssum_like_compress(graph: Graph, *, ratio: float, seed: int = 0) -> Graph:
    """SSuM-style baseline: merge the data nodes with identical
    neighbourhoods, then keep each edge with probability ``ratio``.

    ``ratio`` is the fraction of the merged graph's edges kept in
    expectation: SSuM(0.1) keeps about one edge in ten. The paper gives
    SSuM a target size instead; a kept-edge fraction reproduces the #N/#E
    regimes it reports (Table VIII). A merged group is named by its
    smallest id. One ``default_rng(seed)`` draw per edge, in (src, dst)
    order, decides which edges stay, so the output depends on the graph and
    the seed only. Metadata nodes always survive; a data node survives when
    a kept edge touches it.
    """
    index = graph.index()
    nodes = graph.node_rows
    data = np.isin(index.ids, nodes.loc[nodes["type"] == DATA, "id"].to_numpy(dtype=object))
    data = np.flatnonzero(data & (index.degrees() > 0))
    bounds = zip(index.offsets[data], index.offsets[data + 1])
    # neighbours are ascending integers, so equal tuples are equal id sets
    nbrs = pd.Series([tuple(index.targets[a:b].tolist()) for a, b in bounds], dtype=object)
    rep = pd.Series(data).groupby(nbrs).transform("min").to_numpy()
    merged, _ = apply_node_mapping(
        graph, pd.DataFrame({"old_id": index.ids[data], "new_id": index.ids[rep]})
    )

    edges = merged.edge_rows.sort_values(["src", "dst"], ignore_index=True)
    edges = edges[np.random.default_rng(seed).random(len(edges)) < min(1.0, ratio)]
    nodes, ends = merged.node_rows, pd.concat([edges["src"], edges["dst"]])
    return merged.with_rows(nodes[nodes["type"].isin(METADATA_TYPES) | nodes["id"].isin(ends)], edges)

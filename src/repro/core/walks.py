"""Random-walk generation over the graph (paper §IV-A, Algorithm 4).

``num_walks`` walks of length ``walk_length`` start from every node; at each
step the next node is a uniformly random neighbour. Each walk becomes a
"sentence" of nodes for Word2Vec.

:func:`walk_corpus` runs on the driver over the graph's
:class:`~repro.core.graph.GraphIndex`: all walks advance in lock-step, and
each step draws every walker's next neighbour at once from one NumPy
``Generator`` per call. The walks are emitted pass by pass (DeepWalk,
Perozzi et al. KDD'14), each pass in node-id order, so they depend on
nothing but the graph, ``num_walks``, ``walk_length`` and the seed. They
come as node indices, the form the skip-gram trainer
(:func:`repro.core.embed.skipgram`) takes; :func:`generate_walks` is the
DataFrame adapter, one walk of node ids per row.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame

from .graph import Graph, GraphIndex

# The second entropy word of the walks' generator. Compression draws from
# ``default_rng(seed)``; this word keeps the walks off that stream.
_WALK_STREAM = 0x57414C4B


def walk_corpus(
    index: GraphIndex, *, num_walks: int, walk_length: int, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """The walks of ``num_walks`` passes as one corpus of node indices,
    ``(tokens, offsets)``: walk ``s`` is ``tokens[offsets[s]:offsets[s + 1]]``
    (int32 indices into ``index.ids``), ordered by pass, then by start node.
    A walk has ``walk_length`` nodes, or 1 from an isolated node."""
    length, deg = max(walk_length, 1), index.degrees()
    rng = np.random.default_rng([seed, _WALK_STREAM])
    starts = np.tile(np.arange(len(index.ids), dtype=np.int32), max(num_walks, 0))
    walks = np.repeat(starts[:, None], length, axis=1)
    moving = deg[starts] > 0  # isolated starts never move
    lengths, rows = np.where(moving, length, 1), np.flatnonzero(moving)
    cur = starts[rows]
    for t in range(1, length):
        # deg[cur] >= 1: every step ends on an edge
        cur = index.targets[index.offsets[cur] + rng.integers(deg[cur])]
        walks[rows, t] = cur
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return walks[np.arange(length) < lengths[:, None]], offsets


def generate_walks(
    graph: Graph, *, num_walks: int, walk_length: int, seed: int = 0
) -> DataFrame:
    """DataFrame(walk: array<string>) of the num_walks·|nodes| walks of
    :func:`walk_corpus`, as node ids, in its order, in one partition.

    The walks reach Spark as one Arrow table, a local relation whose scan
    would otherwise be split ``defaultParallelism`` ways; one partition
    keeps them in corpus order for every consumer. Only the benchmark's
    traced run (``tdbench/stages.py``) calls it.
    """
    index = graph.index()
    tokens, offsets = walk_corpus(index, num_walks=num_walks, walk_length=walk_length, seed=seed)
    ids = pa.array(index.ids, type=pa.string())
    walks = pa.ListArray.from_arrays(pa.array(offsets.astype(np.int32)), ids.take(pa.array(tokens)))
    return graph.spark.createDataFrame(pa.table({"walk": walks}), "walk array<string>").coalesce(1)

"""Random-walk generation over the graph (paper §IV-A, Algorithm 4).

``num_walks`` walks of length ``walk_length`` start from every node; at each
step the next node is a uniformly random neighbour. Each walk becomes a
"sentence" of nodes for Word2Vec.

Every walk is a function of its own generator,
``np.random.default_rng(_walk_seed(seed, start, walk_idx))``, driven by
:func:`walk_from`. :func:`walk_pass` computes the same walks on the driver
over the graph's :class:`~repro.core.graph.GraphIndex`, all walks in
lock-step with NumPy: :func:`default_rng_raw` replays every generator's
PCG64 stream at once, and each step draws a neighbour from it with Lemire's
method, as ``Generator.integers`` does (DESIGN.md layering note). The walks
are emitted pass by pass (DeepWalk, Perozzi et al. KDD'14), each pass in
node-id order, so their order depends on nothing but the graph and seed.
:func:`walk_corpus` gives them as node indices, the form the skip-gram
trainer (:func:`repro.core.embed.skipgram`) takes; :func:`generate_walks`
is its DataFrame adapter, one walk of node ids per row.
"""
from __future__ import annotations

import zlib
from typing import Dict, List, Tuple

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame

from .graph import Graph, GraphIndex

_M32 = 0xFFFFFFFF
# numpy.random.SeedSequence's hash constants (pool of 4 uint32 words)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def walk_from(
    adj: Dict[str, List[str]], start: str, length: int, rng: np.random.Generator
) -> List[str]:
    """One random walk; stops early only at nodes with no neighbours."""
    walk = [start]
    cur = start
    for _ in range(length - 1):
        nbrs = adj.get(cur)
        if not nbrs:
            break
        cur = nbrs[int(rng.integers(len(nbrs)))]
        walk.append(cur)
    return walk


def _walk_seed(seed: int, node: str, walk_idx: int) -> int:
    return (zlib.crc32(node.encode()) * 1_000_003 + walk_idx * 97 + seed) % (2**63)


def _hashmix(value: np.ndarray, const: int) -> np.ndarray:
    value = (value ^ np.uint32(const)) * np.uint32((const * _MULT_A) & _M32)
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``."""
    lo, s = np.uint64(_M32), np.uint64(32)
    a0, a1, b0, b1 = a & lo, a >> s, b & lo, b >> s
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> s) + (p01 & lo) + (p10 & lo)
    return p11 + (p01 >> s) + (p10 >> s) + (mid >> s)


def _add128(hi, lo, b_hi, b_lo):
    out_lo = lo + b_lo
    return hi + b_hi + (out_lo < lo).astype(np.uint64), out_lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's state update ``state * mult + inc`` (mod 2**128)."""
    m_hi, m_lo = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2**64 - 1))
    return _add128(_mulhi64(lo, m_lo) + hi * m_lo + lo * m_hi, lo * m_lo, inc_hi, inc_lo)


def default_rng_raw(seeds: np.ndarray, n: int) -> np.ndarray:
    """``out[i] == np.random.default_rng(int(seeds[i])).bit_generator.random_raw(n)``
    for seeds in [0, 2**64), computed for all seeds at once.

    Replays NumPy's chain: ``SeedSequence`` hashes the seed's two 32-bit
    words into a pool of four and draws PCG64's 128-bit state and
    increment from it; PCG64 (XSL-RR output) then steps its LCG once per
    draw. 128-bit arithmetic is carried in pairs of uint64 arrays.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    out = np.empty((len(seeds), n), dtype=np.uint64)
    with np.errstate(over="ignore"):
        # SeedSequence.mix_entropy; a one-word seed pads as if its high word were 0
        words = [
            (seeds & np.uint64(_M32)).astype(np.uint32),
            (seeds >> np.uint64(32)).astype(np.uint32),
            np.zeros(len(seeds), dtype=np.uint32),
            np.zeros(len(seeds), dtype=np.uint32),
        ]
        const, pool = _INIT_A, []
        for w in words:
            pool.append(_hashmix(w, const))
            const = (const * _MULT_A) & _M32
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
                    const = (const * _MULT_A) & _M32
        # SeedSequence.generate_state(4, uint64): eight words, little-endian pairs
        const, state = _INIT_B, []
        for i in range(8):
            v = pool[i % 4] ^ np.uint32(const)
            const = (const * _MULT_B) & _M32
            v = v * np.uint32(const)
            state.append((v ^ (v >> np.uint32(16))).astype(np.uint64))
        s32, one = np.uint64(32), np.uint64(1)
        seed_hi, seed_lo, inc_hi, inc_lo = (
            state[2 * k] | (state[2 * k + 1] << s32) for k in range(4)
        )
        # pcg64_srandom_r: inc = (initseq << 1) | 1; step; state += initstate; step
        inc_hi, inc_lo = (inc_hi << one) | (inc_lo >> np.uint64(63)), (inc_lo << one) | one
        hi, lo = _lcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
        for j in range(n):
            hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
            x, rot = hi ^ lo, hi >> np.uint64(58)
            out[:, j] = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return out


def walk_pass(index: GraphIndex, *, walk_idx: int, walk_length: int, seed: int = 0):
    """Pass ``walk_idx``, one walk from every node, as integers:
    ``(walks, lengths)``. Row ``i`` is the walk from node ``i``; its first
    ``lengths[i]`` entries are the walk (``walk_length``, or 1 from an
    isolated node).

    Row for row equal to :func:`walk_from` with
    ``default_rng(_walk_seed(seed, ids[i], walk_idx))``: a step from a node
    of degree ``d`` takes the next 32-bit half of that stream (low half
    first), ``m = u·d``, and moves to neighbour ``m >> 32``; degree 1 takes
    no draw. When ``m mod 2**32 < 2**32 mod d`` NumPy would draw again
    (Lemire, ACM TOMACS 2019); that walk is recomputed with
    :func:`walk_from` itself.
    """
    n, length = len(index.ids), max(walk_length, 1)
    deg = index.degrees()
    seeds = np.array([_walk_seed(seed, i, walk_idx) for i in index.ids], dtype=np.uint64)
    walks = np.repeat(np.arange(n, dtype=np.int32)[:, None], length, axis=1)
    lengths = np.where(deg > 0, length, 1)
    rows = np.flatnonzero(deg > 0)  # isolated starts never move
    draws = default_rng_raw(seeds[rows], length // 2).view(np.uint32)
    used = np.zeros(len(rows), dtype=np.int64)
    rejected = np.zeros(len(rows), dtype=bool)
    cur = rows
    for t in range(1, length):
        d = deg[cur].astype(np.uint64)  # >= 1: every step ends on an edge
        drawn = d >= 2
        m = draws[np.arange(len(rows)), used].astype(np.uint64) * d
        rejected |= drawn & ((m & np.uint64(_M32)) < np.uint64(2**32) % d)
        used += drawn
        pick = np.where(drawn, m >> np.uint64(32), 0).astype(np.int64)
        cur = index.targets[index.offsets[cur] + pick]
        walks[rows, t] = cur
    if rejected.any():
        adj = {i: index.targets[index.offsets[i] : index.offsets[i + 1]].tolist() for i in range(n)}
        for i in rows[rejected]:
            walks[i] = walk_from(adj, int(i), length, np.random.default_rng(int(seeds[i])))
    return walks, lengths


def walk_corpus(
    index: GraphIndex, *, num_walks: int, walk_length: int, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """The walks of ``num_walks`` passes as one corpus of node indices,
    ``(tokens, offsets)``: walk ``s`` is ``tokens[offsets[s]:offsets[s + 1]]``
    (int32 indices into ``index.ids``), ordered by pass, then by start node."""
    steps, lengths = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int64)]
    for w in range(num_walks):
        walks, n = walk_pass(index, walk_idx=w, walk_length=walk_length, seed=seed)
        steps.append(walks[np.arange(walks.shape[1]) < n[:, None]])
        lengths.append(n)
    lengths = np.concatenate(lengths)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return np.concatenate(steps), offsets


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

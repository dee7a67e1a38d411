"""Hypothesis property tests for the pure-Python algorithmic cores."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compress import (
    all_shortest_path_edges,
    bfs_parents,
    shortest_path_edges,
    shortest_path_mask,
)
from repro.core.metrics import node_score
from repro.core.preprocess import TERM_SEP, terms
from repro.core.graph import GraphIndex
from repro.core.walks import _WALK_STREAM, walk_corpus
from tests.helpers import walk_from

# random small graphs as edge lists over a fixed node universe
NODES = list("abcdefgh")
edges_st = st.sets(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
        lambda e: e[0] < e[1]
    ),
    max_size=14,
)


def _adj(edges):
    adj = {n: [] for n in NODES}
    for u, v in sorted(edges):
        adj[u].append(v)
        adj[v].append(u)
    return adj


class TestBfsProperties:
    @given(edges_st)
    @settings(max_examples=60, deadline=None)
    def test_distance_triangle(self, edges):
        adj = _adj(edges)
        dist, _ = bfs_parents(adj, "a")
        for u, nbrs in adj.items():
            if u not in dist:
                continue
            for v in nbrs:
                assert dist[v] <= dist[u] + 1

    @given(edges_st)
    @settings(max_examples=60, deadline=None)
    def test_parent_edges_consistent(self, edges):
        adj = _adj(edges)
        dist, parents = bfs_parents(adj, "a")
        for v, ps in parents.items():
            for p in ps:
                assert dist[p] == dist[v] - 1
                assert v in adj[p]

    @given(edges_st, st.sampled_from(NODES), st.sampled_from(NODES))
    @settings(max_examples=60, deadline=None)
    def test_shortest_path_edges_real(self, edges, src, dst):
        adj = _adj(edges)
        out = all_shortest_path_edges(adj, src, dst)
        edge_set = {(min(u, v), max(u, v)) for u in adj for v in adj[u]}
        for e in out:
            assert e in edge_set

    @given(edges_st, st.sampled_from(NODES), st.sampled_from(NODES))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_in_endpoints(self, edges, src, dst):
        adj = _adj(edges)
        assert sorted(all_shortest_path_edges(adj, src, dst)) == sorted(
            all_shortest_path_edges(adj, dst, src)
        )


    @given(edges_st, st.sampled_from(NODES), st.sampled_from(NODES))
    @settings(max_examples=60, deadline=None)
    def test_pair_edges_characterized_by_distances(self, edges, src, dst):
        # u-v lies on a shortest src-dst path iff d(src,u) + 1 + d(v,dst)
        # equals d(src,dst), for one orientation of the edge
        adj = _adj(edges)
        ds, _ = bfs_parents(adj, src)
        dd, _ = bfs_parents(adj, dst)
        want = set()
        if dst in ds:
            for u, v in edges:
                for a, b in ((u, v), (v, u)):
                    if a in ds and b in dd and ds[a] + 1 + dd[b] == ds[dst]:
                        want.add((u, v))
        assert all_shortest_path_edges(adj, src, dst) == sorted(want)

    @given(edges_st, st.sampled_from(NODES), st.lists(st.sampled_from(NODES + ["zz"]), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_one_bfs_equals_union_of_pairs(self, edges, src, dsts):
        # "zz" is absent from the graph; isolated nodes are unreachable
        # and dsts may repeat or contain src
        adj = _adj(edges)
        want = set()
        for d in dsts:
            want.update(all_shortest_path_edges(adj, src, d))
        assert shortest_path_edges(adj, src, dsts + [src]) == sorted(want)

    @given(edges_st, st.sampled_from(NODES + ["iso"]), st.lists(st.sampled_from(NODES), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_csr_mask_equals_union_of_pairs(self, edges, src, dsts):
        # "iso" is isolated whatever the edges, so unreachable from any
        # other source; dsts may repeat and contain src
        adj = _adj(edges)
        adj["iso"] = []
        dsts = dsts + ["iso", src]
        index = GraphIndex.from_neighbours(list(adj)[::-1], [adj[k] for k in list(adj)[::-1]])
        keep = shortest_path_mask(
            index,
            int(np.searchsorted(index.ids, src)),
            np.searchsorted(index.ids, np.array(dsts, dtype=object)),
        )
        rows = np.repeat(np.arange(len(index.ids)), index.degrees())
        got = [tuple(sorted(index.ids[[u, v]])) for u, v in zip(rows[keep], index.targets[keep])]
        want = set()
        for d in dsts:
            want.update(all_shortest_path_edges(adj, src, d))
        # every kept edge is marked once, in one direction
        assert sorted(got) == sorted(want)


class TestGraphIndexProperties:
    @given(edges_st, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_from_edges_equals_from_neighbours(self, edges, rnd):
        # nodes without an edge stay in the index; edge rows come in any
        # order and direction, some of them twice
        adj = _adj(edges)
        ids = NODES[:]
        rnd.shuffle(ids)
        rows = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges]
        rows += rnd.sample(rows, len(rows) // 3)
        rnd.shuffle(rows)
        got = GraphIndex.from_edges(ids, [u for u, _ in rows], [v for _, v in rows])
        want = GraphIndex.from_neighbours(list(adj), list(adj.values()))
        assert got.ids.tolist() == want.ids.tolist()
        assert got.offsets.tolist() == want.offsets.tolist()
        assert got.targets.tolist() == want.targets.tolist()
        assert got.targets.dtype == want.targets.dtype

    def test_from_edges_rejects_unknown_end(self):
        import pytest

        with pytest.raises(ValueError):
            GraphIndex.from_edges(["a", "b"], ["a"], ["z"])
        with pytest.raises(ValueError):
            GraphIndex.from_edges([], ["a"], ["b"])
        empty = GraphIndex.from_edges([], [], [])
        assert empty.offsets.tolist() == [0] and len(empty.targets) == 0


def _walks_one_at_a_time(adj, num_walks, length, seed):
    """Reference for ``walk_corpus``: the same generator and lock-step draws,
    each walk a list grown from ``adj`` (neighbours ascending, as indexed)."""
    rng = np.random.default_rng([seed, _WALK_STREAM])
    walks = [[s] for _ in range(num_walks) for s in sorted(adj)]
    moving = [w for w in walks if adj[w[0]]]
    for _ in range(1, length):
        picks = rng.integers(np.array([len(adj[w[-1]]) for w in moving], dtype=np.int64))
        for w, p in zip(moving, picks):
            w.append(sorted(adj[w[-1]])[p])
    return walks


class TestWalkProperties:
    @given(edges_st, st.sampled_from(NODES), st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_walk_valid(self, edges, start, length, seed):
        adj = _adj(edges)
        w = walk_from(adj, start, length, seed)
        assert w[0] == start
        assert 1 <= len(w) <= length
        for u, v in zip(w, w[1:]):
            assert v in adj[u]

    @given(edges_st, st.sampled_from([1, 2, 7, 12]), st.sampled_from([0, 1, 3]),
           st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=80, deadline=None)
    def test_walk_corpus_valid(self, edges, length, num_walks, seed):
        # "iso" is isolated and "leaf" has degree 1, whatever the edges
        adj = _adj(edges)
        adj["a"] = sorted(adj["a"] + ["leaf"])
        adj.update(leaf=["a"], iso=[])
        index = GraphIndex.from_neighbours(list(adj)[::-1], [adj[k] for k in list(adj)[::-1]])
        tokens, offsets = walk_corpus(index, num_walks=num_walks, walk_length=length, seed=seed)
        walks = [index.ids[tokens[a:b]].tolist() for a, b in zip(offsets, offsets[1:])]
        # each pass starts once at every node, in id order
        assert [w[0] for w in walks] == sorted(adj) * num_walks
        for w in walks:
            assert len(w) == (length if adj[w[0]] else 1)
            for u, v in zip(w, w[1:]):
                assert v in adj[u]

    @given(edges_st, st.sampled_from([1, 2, 7, 12]), st.sampled_from([0, 1, 3]),
           st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=80, deadline=None)
    def test_walk_pass_equals_walk_from(self, edges, length, num_walks, seed):
        """``walk_corpus`` equals ``_walks_one_at_a_time``, walk by walk:
        the same lock-step draws, each walk grown from the adjacency lists."""
        adj = _adj(edges)
        adj["a"] = sorted(adj["a"] + ["leaf"])
        adj.update(leaf=["a"], iso=[])
        index = GraphIndex.from_neighbours(list(adj), [adj[k] for k in adj])
        tokens, offsets = walk_corpus(index, num_walks=num_walks, walk_length=length, seed=seed)
        got = [index.ids[tokens[a:b]].tolist() for a, b in zip(offsets, offsets[1:])]
        assert got == _walks_one_at_a_time(adj, num_walks, length, seed)


paths_st = st.lists(st.sampled_from(list("xyzuvw")), min_size=1, max_size=6).map(tuple)


class TestNodeScoreProperties:
    @given(paths_st, paths_st)
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, p1, p2):
        s = node_score(p1, p2)
        assert 0.0 <= s <= 1.0

    @given(paths_st, paths_st)
    @settings(max_examples=100, deadline=None)
    def test_symmetric(self, p1, p2):
        assert node_score(p1, p2) == node_score(p2, p1)

    @given(paths_st)
    @settings(max_examples=100, deadline=None)
    def test_identity(self, p):
        assert node_score(p, p) == 1.0


# free text, plus word sequences that hit stop-words, stemmer suffixes,
# decimals and separators
words_st = st.one_of(
    st.sampled_from(
        ["The", "sixth", "planning", "movies", "reported", "3.5", "B.", "of", "a_b", "PG-13"]
    ),
    st.text(alphabet="aeinstlgd019._-", max_size=8),
)
text_st = st.one_of(st.text(max_size=80), st.lists(words_st, max_size=12).map(" ".join))


class TestTermProperties:
    @given(text_st, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_unigrams_are_terms_without_separator(self, text, do_stem):
        # build_graph's §II-B ordering counts unigrams this way
        uni = set(terms(text, max_n=1, do_stem=do_stem))
        assert uni == {t for t in terms(text, max_n=3, do_stem=do_stem) if TERM_SEP not in t}

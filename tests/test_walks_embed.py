"""Tests for random walks (Alg. 4), embeddings and graph filtering."""
import hashlib
import heapq
import math
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pandas as pd
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core import embed
from repro.core import walks as W

from repro.core.embed import huffman, mean_pool, skipgram, train_embeddings, train_token_embeddings
from repro.core.graph import (
    GraphIndex,
    TableCorpus,
    TextCorpus,
    build_graph,
    data_node_id,
    filter_to_term_corpus,
)
from repro.core.pipeline import TDMatchConfig, graph_vectors
from repro.core.walks import generate_walks, walk_corpus, walk_from
from tests.helpers import adjacency


@pytest.fixture(scope="module")
def g(spark):
    t = spark.createDataFrame(
        pd.DataFrame({"tid": [1, 2], "a": ["alpha beta", "gamma delta"]})
    )
    s = spark.createDataFrame(
        pd.DataFrame({"sid": [1, 2], "text": ["alpha beta news", "gamma delta news"]})
    )
    return build_graph(
        spark, TableCorpus("t", t, "tid", ["a"]), TextCorpus("s", s, "sid", "text"),
        max_n=1, auto_order=False,
    )


class TestWalkFrom:
    def test_respects_adjacency(self):
        adj = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}
        rng = np.random.default_rng(0)
        w = walk_from(adj, "a", 10, rng)
        for u, v in zip(w, w[1:]):
            assert v in adj[u]

    def test_isolated_node_stops(self):
        w = walk_from({"x": []}, "x", 5, np.random.default_rng(0))
        assert w == ["x"]

    def test_length_bound(self):
        adj = {"a": ["b"], "b": ["a"]}
        w = walk_from(adj, "a", 7, np.random.default_rng(1))
        assert len(w) == 7

    def test_starts_at_start(self):
        adj = {"a": ["b"], "b": ["a"]}
        assert walk_from(adj, "b", 3, np.random.default_rng(2))[0] == "b"


class TestGenerateWalks:
    def test_count(self, g):
        walks = generate_walks(g, num_walks=3, walk_length=5, seed=0)
        assert walks.count() == 3 * g.num_nodes()

    def test_walks_traverse_real_edges(self, g):
        adj = adjacency(g)
        for row in generate_walks(g, num_walks=2, walk_length=6, seed=0).collect():
            w = row["walk"]
            for u, v in zip(w, w[1:]):
                assert v in adj[u]

    def test_deterministic_across_partitionings(self, spark, g):
        def walks(graph):
            out = generate_walks(graph, num_walks=2, walk_length=5, seed=1)
            return [r["walk"] for r in out.collect()]

        ref = walks(g)
        for seed in (0, 1):
            shuffled = g.with_rows(
                g.node_rows.sample(frac=1, random_state=seed),
                g.edge_rows.sample(frac=1, random_state=seed + 1),
            )
            assert walks(shuffled) == ref
        before = spark.conf.get("spark.sql.shuffle.partitions")
        try:
            for n in ("3", "64"):
                spark.conf.set("spark.sql.shuffle.partitions", n)
                assert walks(g) == ref
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", before)
        # pass by pass, each pass in node-id order
        ids = sorted(g.node_rows["id"])
        assert [w[0] for w in ref] == ids + ids

    def test_partitions_fixed(self, g):
        # not defaultParallelism: one partition keeps the corpus order
        walks = generate_walks(g, num_walks=3, walk_length=4, seed=0)
        assert walks.rdd.getNumPartitions() == 1

    def test_empty_graph(self, spark, g):
        empty = g.with_rows(g.node_rows[:0], g.edge_rows[:0])
        walks = generate_walks(empty, num_walks=2, walk_length=5, seed=0)
        assert walks.count() == 0
        assert walks.schema.simpleString() == "struct<walk:array<string>>"
        assert "LogicalRDD" not in walks._jdf.queryExecution().analyzed().toString()

    def test_isolated_nodes_only(self, spark, g):
        lonely = g.with_rows(g.node_rows, g.edge_rows[:0])
        out = generate_walks(lonely, num_walks=2, walk_length=5, seed=0)
        got = [r["walk"] for r in out.collect()]
        ids = sorted(g.node_rows["id"])
        assert got == [[i] for i in ids + ids]

    def test_equals_walk_from(self, g):
        adj = adjacency(g)
        ids = sorted(g.node_rows["id"])
        want = [
            walk_from(adj, s, 6, np.random.default_rng(W._walk_seed(3, s, w)))
            for w in range(4)
            for s in ids
        ]
        got = [r["walk"] for r in generate_walks(g, num_walks=4, walk_length=6, seed=3).collect()]
        assert got == want

    def test_seed_changes_walks(self, g):
        a = sorted(tuple(r["walk"]) for r in generate_walks(g, num_walks=2, walk_length=8, seed=1).collect())
        b = sorted(tuple(r["walk"]) for r in generate_walks(g, num_walks=2, walk_length=8, seed=2).collect())
        assert a != b

    def test_every_node_starts_walks(self, g):
        starts = {r["walk"][0] for r in generate_walks(g, num_walks=1, walk_length=3, seed=0).collect()}
        assert starts == set(g.node_rows["id"])


class TestRngReplay:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    def test_equals_random_raw(self, seed):
        want = np.random.default_rng(seed).bit_generator.random_raw(9)
        got = W.default_rng_raw(np.array([seed, 5], dtype=np.uint64), 9)[0]
        assert got.tolist() == want.tolist()

    def test_forced_rejection_falls_back(self, monkeypatch):
        # "a" has degree 3: a raw draw of 0 gives m = 0, whose low word 0 is
        # below 2**32 mod 3 = 1, so NumPy would draw again
        adj = {"a": ["b", "c", "d"], "b": ["a"], "c": ["a"], "d": ["a"]}
        index = GraphIndex.from_neighbours(list(adj), list(adj.values()))
        replay, fallbacks = W.default_rng_raw, []

        def zero_first(seeds, n):
            out = replay(seeds, n)
            out[0, 0] = 0  # the first walk, from "a"
            return out

        def spy(*args):
            fallbacks.append(args[1])
            return walk_from(*args)

        monkeypatch.setattr(W, "default_rng_raw", zero_first)
        monkeypatch.setattr(W, "walk_from", spy)
        walks, lengths = W.walk_pass(index, walk_idx=2, walk_length=7, seed=11)
        assert fallbacks == [0]
        want = [
            walk_from(adj, s, 7, np.random.default_rng(W._walk_seed(11, s, 2)))
            for s in sorted(adj)
        ]
        assert [[index.ids[j] for j in row] for row in walks] == want
        assert (lengths == 7).all()


class TestEmbeddings:
    def test_every_walked_node_has_vector(self, g):
        walks = generate_walks(g, num_walks=3, walk_length=6, seed=0)
        emb = train_embeddings(walks, vector_size=16, window=3, seed=0)
        emb_nodes = {r["node"] for r in emb.collect()}
        walked = {n for r in walks.collect() for n in r["walk"]}
        assert walked <= emb_nodes

    def test_vector_size(self, g):
        walks = generate_walks(g, num_walks=2, walk_length=5, seed=0)
        emb = train_embeddings(walks, vector_size=12, window=3, seed=0)
        assert len(emb.first()["vector"]) == 12

    def test_related_nodes_closer(self, spark, g):
        """t::1 shares terms with s::1 -> cosine(t1,s1) > cosine(t1,s2)."""
        walks = generate_walks(g, num_walks=30, walk_length=10, seed=0)
        emb = train_embeddings(walks, vector_size=32, window=3, seed=0)
        vecs = {r["node"]: np.array(r["vector"]) for r in emb.collect()}

        def cos(a, b):
            va, vb = vecs[a], vecs[b]
            return va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))

        assert cos("t::1", "s::1") > cos("t::1", "s::2")
        assert cos("t::2", "s::2") > cos("t::2", "s::1")


_M64 = 2**64 - 1


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def _dot8(x, y):
    """The kernel's dot product: eight float32 partial sums, in its order."""
    lane = np.zeros(8, dtype=np.float32)
    full = len(x) - len(x) % 8
    for i in range(0, full, 8):
        lane += x[i : i + 8] * y[i : i + 8]
    lane[: len(x) - full] += x[full:] * y[full:]
    return ((lane[0] + lane[1]) + (lane[2] + lane[3])) + ((lane[4] + lane[5]) + (lane[6] + lane[7]))


SHARDS, ROUND_WORDS = 4, 256  # the kernel's constants


def _train_piece(sent, syn0, syn1, codes, points, table, window, alpha, state):
    """word2vec.c's skip-gram update over one sentence piece, in float32
    as ``_skipgram.c`` computes it -> the stream's next state."""
    f32 = np.float32
    for pos, word in enumerate(sent):
        state, z = _splitmix64(state)
        b = z % window
        for a in range(b, 2 * window + 1 - b):
            ctx = pos - window + a
            if a == window or not 0 <= ctx < len(sent):
                continue
            l1 = syn0[sent[ctx]]
            neu1e = np.zeros(len(l1), dtype=f32)
            for bit, inner in zip(codes[word], points[word]):
                l2 = syn1[inner]
                f = _dot8(l1, l2)
                if f <= -6 or f >= 6:
                    continue
                f = table[int(float(f + f32(6)) * (1000 // 6 / 2.0))]
                g = f32(float(f32(1 - bit) - f) * alpha)
                neu1e += g * l2
                l2 += g * l1
            l1 += neu1e
    return state


def reference_skipgram(sentences, *, vector_size, window, min_count, seed, max_iter, lr=0.025):
    """Pure-Python sharded skip-gram with hierarchical softmax, operation
    for operation in float32 as ``_skipgram.c`` computes it -> (ids,
    vectors). The shards run one after another; after each round every
    row, changed or not, is merged, which is the kernel's merge of the
    changed rows as long as an unchanged row stays as it is."""
    counts = Counter(t for s in sentences for t in s)
    vocab = sorted((w for w, c in counts.items() if c >= min_count), key=lambda w: (-counts[w], w))
    n = len(vocab)
    index = {w: i for i, w in enumerate(vocab)}
    sents = [[index[t] for t in s if t in index] for s in sentences]
    # word2vec.c's Huffman tree: leaves from the back, merged nodes in order
    count = [counts[w] for w in vocab] + [10**15] * n
    parent, binary = [0] * (2 * n), [0] * (2 * n)
    pos1, pos2 = n - 1, n
    for a in range(n - 1):
        low = []
        for _ in range(2):
            if pos1 >= 0 and count[pos1] < count[pos2]:
                low.append(pos1)
                pos1 -= 1
            else:
                low.append(pos2)
                pos2 += 1
        count[n + a] = count[low[0]] + count[low[1]]
        parent[low[0]] = parent[low[1]] = n + a
        binary[low[1]] = 1
    codes, points = [], []
    for a in range(n):
        path, b = [], a
        while b != 2 * n - 2:
            path.append(b)
            b = parent[b]
        down = path[::-1]  # from a child of the root to the leaf
        codes.append([binary[x] for x in down])
        points.append([x - n for x in [2 * n - 2] + down[:-1]])

    f32 = np.float32
    state = seed % 2**64
    syn0 = np.zeros((n, vector_size), dtype=f32)
    for i in range(n * vector_size):
        state, z = _splitmix64(state)
        syn0.flat[i] = (f32(z >> 40) / f32(16777216.0) - f32(0.5)) / f32(vector_size)
    syn1 = np.zeros_like(syn0)
    streams = []
    for _ in range(SHARDS):
        state, z = _splitmix64(state)
        streams.append(z)
    table = []
    for i in range(1000):
        e = math.exp((2.0 * i / 1000 - 1.0) * 6)
        table.append(f32(e / (e + 1.0)))

    # shard s: the pieces of its sentences, in rounds of >= ROUND_WORDS words
    chunks = []
    for s in range(SHARDS):
        shard = sents[len(sents) * s // SHARDS : len(sents) * (s + 1) // SHARDS]
        rounds, cur = [], []
        for piece in (x[i : i + 1000] for x in shard for i in range(0, len(x), 1000)):
            cur.append(piece)
            if sum(map(len, cur)) >= ROUND_WORDS:
                rounds.append(cur)
                cur = []
        chunks.append(rounds + [cur] if cur else rounds)
    n_rounds = max(map(len, chunks))
    chunks = [rounds + [[]] * (n_rounds - len(rounds)) for rounds in chunks]

    train_words = sum(len(s) for s in sents)
    total = float(max_iter * train_words + 1)
    for k in range(max_iter):
        alpha, words, last = lr, 0, 0
        for r in range(n_rounds):
            if words - last > 10000:
                last = words
                alpha = max(lr * (1.0 - (float(words) + float(k * train_words)) / total), lr * 0.0001)
            words += sum(len(p) for rounds in chunks for p in rounds[r])
            copies = []
            for s in range(SHARDS):
                c0, c1 = syn0.copy(), syn1.copy()
                for piece in chunks[s][r]:
                    streams[s] = _train_piece(piece, c0, c1, codes, points, table, window, alpha, streams[s])
                copies.append((c0, c1))
            for m, merged in enumerate((syn0, syn1)):
                delta = copies[0][m] - merged
                for copy in copies[1:]:
                    delta += copy[m] - merged
                merged += delta
    return np.array(vocab, dtype=np.int64), syn0


def _corpus(sentences):
    """(tokens, offsets) of a list of integer sentences."""
    offsets = np.zeros(len(sentences) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sentences], out=offsets[1:])
    return np.array([t for s in sentences for t in s], dtype=np.int32), offsets


def _digest(ids, vectors):
    return hashlib.sha256(ids.tobytes() + vectors.tobytes()).hexdigest()


def _zipf_sentences(seed, n_sentences, max_len, vocab=15):
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, vocab + 1)
    return [
        rng.choice(vocab, size=int(rng.integers(1, max_len + 1)), p=weights / weights.sum()).tolist()
        for _ in range(n_sentences)
    ]


class TestSkipgramKernel:
    @pytest.mark.parametrize(
        "vector_size, window, max_iter, min_count",
        [(8, 3, 1, 1), (12, 1, 2, 1), (12, 3, 2, 2), (8, 1, 1, 2)],
    )
    def test_equals_reference(self, vector_size, window, max_iter, min_count):
        sents = _zipf_sentences(vector_size + window, 40, 12)
        kw = dict(vector_size=vector_size, window=window, min_count=min_count, seed=5, max_iter=max_iter)
        ids, vecs = skipgram(*_corpus(sents), **kw)
        want_ids, want = reference_skipgram(sents, **kw)
        assert ids.tolist() == want_ids.tolist()
        assert vecs.dtype == np.float32
        np.testing.assert_array_equal(vecs, want)

    def test_long_sentences_and_rate_decay_equal_reference(self):
        """Sentences over 1000 tokens are cut into pieces, and the rate
        decays once more than 10000 words have passed, in both passes."""
        rng = np.random.default_rng(3)
        sents = [rng.integers(0, 6, size=n).tolist() for n in (2500, 1200, 3000, 900, 4000)]
        kw = dict(vector_size=8, window=1, min_count=1, seed=1, max_iter=2)
        ids, vecs = skipgram(*_corpus(sents), **kw)
        want_ids, want = reference_skipgram(sents, **kw)
        assert ids.tolist() == want_ids.tolist()
        np.testing.assert_array_equal(vecs, want)

    def test_fewer_sentences_than_shards(self):
        """Two sentences leave shards 0 and 2 empty in every round."""
        sents = [[0, 1, 2, 1, 0, 3, 2, 1], [2, 1, 0, 4, 1]]
        kw = dict(vector_size=8, window=2, min_count=1, seed=6, max_iter=2)
        ids, vecs = skipgram(*_corpus(sents), **kw)
        want_ids, want = reference_skipgram(sents, **kw)
        assert ids.tolist() == want_ids.tolist()
        np.testing.assert_array_equal(vecs, want)

    def test_sentence_longer_than_a_round(self):
        """A 700-token sentence is shard 1's whole first chunk while the
        other shards train short sentences; shard 1 alone has a second."""
        sents = _zipf_sentences(8, 30, 12)
        sents[7] = np.random.default_rng(8).integers(0, 15, size=700).tolist()
        kw = dict(vector_size=8, window=2, min_count=1, seed=4, max_iter=1)
        ids, vecs = skipgram(*_corpus(sents), **kw)
        want_ids, want = reference_skipgram(sents, **kw)
        assert ids.tolist() == want_ids.tolist()
        np.testing.assert_array_equal(vecs, want)

    def test_deterministic(self):
        corpus = _corpus(_zipf_sentences(0, 200, 15, vocab=40))
        runs = {_digest(*skipgram(*corpus, vector_size=16, window=3, seed=9)) for _ in range(5)}
        assert len(runs) == 1
        assert _digest(*skipgram(*corpus, vector_size=16, window=3, seed=10)) not in runs

    def test_same_bytes_on_one_cpu(self, tmp_path):
        """The shards and rounds are fixed, not the core count: a process
        pinned to one CPU trains the bytes this one does."""
        corpus = _corpus(_zipf_sentences(1, 500, 20, vocab=300))
        assert len(corpus[0]) >= 5000
        np.save(tmp_path / "tokens.npy", corpus[0])
        np.save(tmp_path / "offsets.npy", corpus[1])
        cpu = min(os.sched_getaffinity(0))
        child = textwrap.dedent(f"""
            import hashlib, os, sys
            import numpy as np
            os.sched_setaffinity(0, {{{cpu}}})
            sys.path.insert(0, {str(Path(embed.__file__).parents[2])!r})
            from repro.core.embed import skipgram
            ids, vecs = skipgram(np.load({str(tmp_path / "tokens.npy")!r}),
                                 np.load({str(tmp_path / "offsets.npy")!r}), vector_size=16, seed=3)
            print(sorted(os.sched_getaffinity(0)), hashlib.sha256(ids.tobytes() + vecs.tobytes()).hexdigest())
        """)
        out = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=120, check=True
        ).stdout.split()
        assert out == [f"[{cpu}]", _digest(*skipgram(*corpus, vector_size=16, seed=3))]

    def test_failure_codes_name_the_failure(self, monkeypatch):
        """sg_train's codes for a failed allocation and a thread that could
        not start become RuntimeErrors that say which."""
        real = embed._kernel()

        class Stub:
            def __init__(self, rc):
                self.sg_huffman, self.rc = real.sg_huffman, rc

            def sg_train(self, *args):
                return self.rc

        for rc, message in ((-1, "out of memory"), (-2, "could not start its threads"), (-7, "code -7")):
            monkeypatch.setattr(embed, "_kernel", lambda rc=rc: Stub(rc))
            with pytest.raises(RuntimeError, match=message):
                skipgram(*_corpus([[0, 1, 0]]), vector_size=4)

    def test_vocabulary_order(self):
        # counts 7: 3, 2: 3, 5: 1, 9: 2 -> by count descending, then id
        ids, _ = skipgram(*_corpus([[7, 2, 9], [2, 7, 5], [9, 2, 7]]), vector_size=4)
        assert ids.tolist() == [2, 7, 9, 5]

    def test_empty_corpus(self):
        for tokens, offsets in (_corpus([]), _corpus([[], []])):
            ids, vecs = skipgram(tokens, offsets, vector_size=8)
            assert ids.tolist() == [] and vecs.shape == (0, 8)

    def test_every_token_under_min_count(self):
        ids, vecs = skipgram(*_corpus([[0, 1], [2]]), vector_size=8, min_count=2)
        assert ids.tolist() == [] and vecs.shape == (0, 8)

    def test_one_word_vocabulary(self):
        """A one-word tree has no inner node: the vector keeps its start."""
        sents = [[4, 4, 4], [4]]
        ids, vecs = skipgram(*_corpus(sents), vector_size=8, window=2, seed=3)
        want_ids, want = reference_skipgram(sents, vector_size=8, window=2, min_count=1, seed=3, max_iter=1)
        assert ids.tolist() == [4] == want_ids.tolist()
        np.testing.assert_array_equal(vecs, want)

    def test_sentences_shorter_than_window(self):
        sents = [[0], [1, 0], [2, 1], [0, 2], [3]]
        kw = dict(vector_size=12, window=5, min_count=1, seed=2, max_iter=2)
        ids, vecs = skipgram(*_corpus(sents), **kw)
        want_ids, want = reference_skipgram(sents, **kw)
        assert ids.tolist() == want_ids.tolist()
        np.testing.assert_array_equal(vecs, want)
        assert np.isfinite(vecs).all()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            skipgram(*_corpus([[0, 1]]), window=0)
        with pytest.raises(ValueError):
            skipgram(np.array([0, -1], dtype=np.int32), np.array([0, 2]))
        with pytest.raises(ValueError):
            skipgram(np.array([0, 1], dtype=np.int32), np.array([0, 3]))


class TestHuffman:
    @staticmethod
    def heapq_cost(counts):
        """Total weighted code length of a Huffman code (sum of merges)."""
        heap = [int(c) for c in counts]
        heapq.heapify(heap)
        cost = 0
        while len(heap) > 1:
            merged = heapq.heappop(heap) + heapq.heappop(heap)
            cost += merged
            heapq.heappush(heap, merged)
        return cost

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 300])
    def test_optimal_and_prefix_free(self, n):
        rng = np.random.default_rng(n)
        counts = np.sort(rng.integers(1, 50, size=n))[::-1]
        code, point, codelen = huffman(counts)
        words = ["".join(map(str, code[w, : codelen[w]])) for w in range(n)]
        assert int((codelen * counts).sum()) == self.heapq_cost(counts)
        assert len(set(words)) == n
        for a in words:
            assert not any(b != a and b.startswith(a) for b in words)
        for w in range(n):
            # every step is scored against an inner node; the first, the root
            assert ((0 <= point[w, : codelen[w]]) & (point[w, : codelen[w]] <= n - 2)).all()
            assert codelen[w] == 0 or point[w, 0] == n - 2

    def test_equal_counts(self):
        code, _, codelen = huffman(np.full(8, 5))
        assert codelen.tolist() == [3] * 8

    def test_rejects_unsorted_counts(self):
        with pytest.raises(ValueError):
            huffman(np.array([1, 2]))


class TestKernelBuild:
    def test_flags_keep_vectors_cpu_independent(self):
        assert "-ffp-contract=off" in embed.CFLAGS and "-pthread" in embed.CFLAGS
        assert not any(f.startswith("-march") or f.startswith("-mtune") for f in embed.CFLAGS)
        assert "-ffast-math" not in embed.CFLAGS and "-Ofast" not in embed.CFLAGS

    def test_missing_compiler_names_cc(self, monkeypatch):
        monkeypatch.setenv("PATH", "")
        embed._kernel.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="`cc`"):
                skipgram(*_corpus([[0, 1]]), vector_size=4)
        finally:
            embed._kernel.cache_clear()


class TestAdapters:
    def test_train_embeddings_equals_integer_path(self, g):
        """The DataFrame adapters train the same vectors as run_tdmatch's
        integer walks, node for node."""
        cfg = TDMatchConfig(num_walks=3, walk_length=6, vector_size=12, window=3, seed=4)
        want = graph_vectors(g, cfg)
        walks = generate_walks(g, num_walks=3, walk_length=6, seed=4)
        got = train_embeddings(walks, vector_size=12, window=3, seed=4).toPandas()
        assert got["node"].tolist() == want["node"].tolist()
        np.testing.assert_array_equal(np.stack(got["vector"]), np.stack(want["vector"]))

    def test_walk_corpus_equals_generate_walks(self, g):
        index = g.index()
        tokens, offsets = walk_corpus(index, num_walks=2, walk_length=5, seed=1)
        got = [index.ids[tokens[a:b]].tolist() for a, b in zip(offsets, offsets[1:])]
        assert got == [r["walk"] for r in generate_walks(g, num_walks=2, walk_length=5, seed=1).collect()]
        assert tokens.dtype == np.int32

    def test_empty_walks(self, spark, g):
        empty = g.with_rows(g.node_rows[:0], g.edge_rows[:0])
        emb = train_embeddings(generate_walks(empty, num_walks=2, walk_length=5, seed=0))
        assert emb.count() == 0
        assert emb.schema.simpleString() == "struct<node:string,vector:array<double>>"


class TestTokenEmbeddings:
    def test_trains_on_sentences(self, spark):
        sents = spark.createDataFrame(
            pd.DataFrame({"tokens": [["a", "b", "c"], ["a", "b", "d"]] * 10})
        )
        wv = train_token_embeddings(sents, vector_size=8, window=2, seed=0)
        words = {r["word"] for r in wv.collect()}
        assert {"a", "b", "c", "d"} <= words

    def test_mean_pool(self, spark):
        wv = spark.createDataFrame(
            pd.DataFrame({"word": ["x", "y"], "vector": [[1.0, 0.0], [0.0, 1.0]]})
        )
        toks = spark.createDataFrame(
            pd.DataFrame({"doc": ["d1", "d1", "d2"], "token": ["x", "y", "x"]})
        )
        out = {r["doc"]: r["vector"] for r in mean_pool(toks, wv).collect()}
        assert out["d1"] == [0.5, 0.5]
        assert out["d2"] == [1.0, 0.0]

    def test_mean_pool_drops_oov_docs(self, spark):
        wv = spark.createDataFrame(pd.DataFrame({"word": ["x"], "vector": [[1.0]]}))
        toks = spark.createDataFrame(
            pd.DataFrame({"doc": ["d1", "d2"], "token": ["x", "zzz"]})
        )
        docs = {r["doc"] for r in mean_pool(toks, wv).collect()}
        assert docs == {"d1"}


class TestFilterToTermCorpus:
    def test_drops_second_only_terms(self, spark):
        t = spark.createDataFrame(pd.DataFrame({"tid": [1], "a": ["alpha"]}))
        s = spark.createDataFrame(pd.DataFrame({"sid": [1], "text": ["alpha zulu"]}))
        g = build_graph(
            spark, TableCorpus("t", t, "tid", ["a"]), TextCorpus("s", s, "sid", "text"),
            max_n=1, auto_order=False, filter_second=False,
        )
        assert data_node_id("zulu") in set(g.node_rows["id"])
        fg = filter_to_term_corpus(g)
        ids = set(fg.node_rows["id"])
        assert data_node_id("zulu") not in ids
        assert data_node_id("alpha") in ids

    def test_kb_bridged_term_survives(self, spark):
        t = spark.createDataFrame(pd.DataFrame({"tid": [1], "a": ["alpha"]}))
        s = spark.createDataFrame(pd.DataFrame({"sid": [1], "text": ["alpha zulu"]}))
        g = build_graph(
            spark, TableCorpus("t", t, "tid", ["a"]), TextCorpus("s", s, "sid", "text"),
            max_n=1, auto_order=False, filter_second=False,
        )
        kb = spark.createDataFrame(
            pd.DataFrame({"subject": ["zulu"], "object": ["alpha"]})
        )
        fg = filter_to_term_corpus(g, kb=kb)
        assert data_node_id("zulu") in set(fg.node_rows["id"])

    def test_matches_build_time_filtering(self, spark):
        t = spark.createDataFrame(
            pd.DataFrame({"tid": [1, 2], "a": ["alpha beta", "gamma"]})
        )
        s = spark.createDataFrame(
            pd.DataFrame({"sid": [1], "text": ["alpha zulu omega"]})
        )
        tc = TableCorpus("t", t, "tid", ["a"])
        sc = TextCorpus("s", s, "sid", "text")
        built = build_graph(spark, tc, sc, max_n=1, auto_order=False, filter_second=True)
        late = filter_to_term_corpus(
            build_graph(spark, tc, sc, max_n=1, auto_order=False, filter_second=False)
        )
        assert set(built.node_rows["id"]) == set(late.node_rows["id"])
        eb = set(built.edge_rows.itertuples(index=False, name=None))
        el = set(late.edge_rows.itertuples(index=False, name=None))
        assert eb == el

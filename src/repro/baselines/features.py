"""Pair-feature computation shared by the supervised baselines.

Supervised baselines score (query document, target document) pairs. The
featurizer takes both corpora's tokens (``common.doc_tokens``) and computes,
on the driver, each document's TF-IDF vector and pooled embeddings once;
:meth:`PairFeaturizer.featurize` then adds a feature vector to every row of
a pandas pair frame.

Feature families (which baseline uses which is declared in rank.py /
matchers.py):

* ``tfidf_cos`` — cosine over corpus-fit TF-IDF vectors (lexical signal)
* ``jaccard``   — token-set Jaccard
* ``overlap``   — |shared tokens| / |query tokens|
* ``rare``      — number of shared low-DF tokens (strong lexical anchors)
* ``num_match`` — fraction of the query's numeric tokens found in the target
* ``bg_cos``    — cosine of mean-pooled *background* (pre-trained) embeddings
* ``own_cos``   — cosine of mean-pooled *trained-on-task* embeddings
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd

from ..core.preprocess import is_numeric
from .common import WordVectors, mean_vector

ALL_FEATURES = ("tfidf_cos", "jaccard", "overlap", "rare", "num_match", "bg_cos", "own_cos")

SparseVector = Dict[str, float]


def tfidf(
    q_tokens: Dict[str, List[str]], t_tokens: Dict[str, List[str]]
) -> Tuple[Dict[str, SparseVector], Dict[str, SparseVector], Counter]:
    """Fit IDF on the union corpus; per-doc L2-normalized tf-idf of both
    sides, and the document frequencies."""
    df_counts: Counter = Counter()
    docs = list(q_tokens.values()) + list(t_tokens.values())
    for toks in docs:
        df_counts.update(set(toks))
    idf = {w: math.log((1 + len(docs)) / (1 + c)) + 1 for w, c in df_counts.items()}

    def vecs(tok_map: Dict[str, List[str]]) -> Dict[str, SparseVector]:
        out = {}
        for d, toks in tok_map.items():
            tf = Counter(toks)
            v = {w: tf[w] * idf[w] for w in tf}
            norm = math.sqrt(sum(x * x for x in v.values())) or 1.0
            out[d] = {w: x / norm for w, x in v.items()}
        return out

    return vecs(q_tokens), vecs(t_tokens), df_counts


def sparse_dot(a: SparseVector, b: SparseVector) -> float:
    """Dot product of two sparse vectors, summed over the shorter one."""
    small, big = (a, b) if len(a) < len(b) else (b, a)
    return sum(x * big.get(w, 0.0) for w, x in small.items())


def _unit_means(tok_map: Dict[str, List[str]], wv: WordVectors) -> Dict[str, np.ndarray]:
    """Each doc's L2-normalized mean token vector; zeros without one."""
    dim = len(next(iter(wv.values()))) if wv else 0
    out = {}
    for d, toks in tok_map.items():
        v = mean_vector(toks, wv)
        if v is None:
            v = np.zeros(dim)
        n = np.linalg.norm(v)
        out[d] = v / n if n > 0 else v
    return out


class PairFeaturizer:
    """Per-document state of the features, then features of pair frames."""

    def __init__(
        self,
        query_docs: pd.DataFrame,
        target_docs: pd.DataFrame,
        *,
        features: Sequence[str],
        bg_vectors: Optional[WordVectors] = None,
        own_vectors: Optional[WordVectors] = None,
        rare_df_max: int = 3,
    ):
        """``query_docs``/``target_docs``: pandas(doc, tokens)."""
        for f in features:
            if f not in ALL_FEATURES:
                raise ValueError(f"unknown feature {f!r}")
        self.features = tuple(features)
        self.q_tokens = dict(zip(query_docs["doc"], query_docs["tokens"]))
        self.t_tokens = dict(zip(target_docs["doc"], target_docs["tokens"]))
        self.q_tfidf, self.t_tfidf, dfc = tfidf(self.q_tokens, self.t_tokens)
        self.rare_words = {w for w, c in dfc.items() if c <= rare_df_max}
        # feature -> (query doc -> unit vector, target doc -> unit vector)
        self.pooled = {
            f: (_unit_means(self.q_tokens, wv), _unit_means(self.t_tokens, wv))
            for f, wv in (("bg_cos", bg_vectors), ("own_cos", own_vectors))
            if f in self.features
        }

    def all_pairs(self) -> pd.DataFrame:
        """pandas(query, target): every query doc × every target doc."""
        return pd.DataFrame(
            [(q, t) for q in self.q_tokens for t in self.t_tokens], columns=["query", "target"]
        )

    def _vector(self, q: str, t: str) -> List[float]:
        qs, ts = set(self.q_tokens.get(q, [])), set(self.t_tokens.get(t, []))
        shared = qs & ts
        fv = []
        for f in self.features:
            if f == "tfidf_cos":
                fv.append(sparse_dot(self.q_tfidf.get(q, {}), self.t_tfidf.get(t, {})))
            elif f == "jaccard":
                fv.append(len(shared) / len(qs | ts) if qs or ts else 0.0)
            elif f == "overlap":
                fv.append(len(shared) / len(qs) if qs else 0.0)
            elif f == "rare":
                fv.append(float(len(shared & self.rare_words)))
            elif f == "num_match":
                qn = {w for w in qs if is_numeric(w)}
                fv.append(len(qn & ts) / len(qn) if qn else 0.0)
            else:  # bg_cos, own_cos
                qv, tv = self.pooled[f]
                fv.append(float(qv[q] @ tv[t]) if q in qv and t in tv else 0.0)
        return fv

    def featurize(self, pairs: pd.DataFrame) -> pd.DataFrame:
        """pandas(query, target [, label]) -> the same rows, ids as strings,
        plus ``features`` (a list of floats in ``self.features`` order)."""
        out = pairs.astype({"query": str, "target": str})
        out["features"] = [self._vector(q, t) for q, t in zip(out["query"], out["target"])]
        return out

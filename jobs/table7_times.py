"""Table VII — Train and test execution times (seconds) per task.

One representative scenario per task, as the paper averages per task:
text-to-data = CoronaCheck(Gen), structured text = Audit, text-to-text =
Snopes. Every method has a train step and a rank step, the two calls its
table scores: *Train* is the train step (graph stages + walks + Word2Vec
for W-RW; tokens + embedding training for W2VEC/D2VEC; tokens + features +
the cross-validation folds' fits for the supervised methods; nothing for
the pre-trained S-BE), and *Test* the rank step divided by the number of
queries it ranks.

Before the timed pass, the same method list runs once, untimed, on inputs
of scale ``WARM_SCALE``, so every method is timed after the same warm-up
(JVM, JIT, Spark's first plans) whatever ran before it in the session.
"""
from __future__ import annotations

import functools
import time
from typing import Callable, List, Optional, Tuple

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.d2vec import d2vec_rank, d2vec_train
from repro.baselines.matchers import (
    deepmatcher_train, ditto_train, lbe_rank, lbe_train, tapas_train,
)
from repro.baselines.pretrained import background_model, sbe_rank
from repro.baselines.rank import kfold_rank, rank_train
from repro.baselines.w2vec import w2vec_rank, w2vec_train
from repro.core.pipeline import TDMatchConfig, graph_vectors, match_documents, tdmatch_graph
from repro.datasets import audit, claims, corona
from repro.kb.synth_kb import prepare_synonyms

from jobs.common import N_WALKS, VEC_SIZE, WALK_LEN, cli_scale, get_spark, print_table

K = 20
K_AUDIT = 10  # Table III's largest K
WARM_SCALE = 0.05

# (task, method, train step or None, rank step: trained -> pandas ranking)
Method = Tuple[str, str, Optional[Callable[[], object]], Callable[[object], pd.DataFrame]]


def _wrw(spark, query, target, synonyms, cfg: TDMatchConfig):
    """W-RW's two steps: run_tdmatch's graph stages and vectors, then its
    top-k."""

    def train():
        graph = tdmatch_graph(spark, query, target, config=cfg, synonyms=synonyms)[0]
        return graph, graph_vectors(graph, cfg)

    return train, lambda gv: match_documents(*gv, query, target, k=cfg.k)


def methods(spark: SparkSession, scale: float) -> List[Method]:
    """Every Table VII row's train and rank steps over freshly generated
    inputs, with the configs Tables I–VI score."""
    bg = background_model(seed=0)
    rank_bg = functools.partial(rank_train, bg_vectors=bg)

    def cfg(window: int, k: int = K, **kw) -> TDMatchConfig:
        return TDMatchConfig(
            num_walks=N_WALKS, walk_length=WALK_LEN, vector_size=VEC_SIZE, window=window, k=k,
            seed=0, **kw,
        )

    def unsupervised(task, q, t, synonyms, wrw_cfg: TDMatchConfig) -> List[Method]:
        k = wrw_cfg.k
        return [
            (task, "W2VEC", lambda: w2vec_train(q, t), lambda m: w2vec_rank(m, k=k)),
            (task, "D2VEC", lambda: d2vec_train(q, t), lambda m: d2vec_rank(m, k=k)),
            (task, "S-BE", None, lambda _: sbe_rank(q, t, bg, k=k)),
            (task, "W-RW", *_wrw(spark, q, t, synonyms, wrw_cfg)),
        ]

    def supervised(task, name, train, q, t, truth, k: int = K) -> Method:
        return task, name, lambda: train(spark, q, t, truth), lambda m: kfold_rank(m, k=k)

    co = corona.generate(spark, scale=scale, seed=11)
    au = audit.generate(spark, scale=scale, seed=13)
    sn = claims.generate_snopes(spark, scale=scale, seed=17)
    task = "Text to data"
    return [
        *unsupervised(task, co.gen, co.table, prepare_synonyms(spark, co.synonyms), cfg(3, bucket_numeric=True)),
        *(
            supervised(task, name, train, co.gen, co.table, co.truth_gen)
            for name, train in (
                ("RANK*", rank_bg), ("DITTO*", ditto_train), ("DEEP-M*", deepmatcher_train),
                ("TAPAS*", tapas_train),
            )
        ),
        *unsupervised(
            "Structured text", au.docs, au.taxonomy, prepare_synonyms(spark, au.synonyms),
            cfg(15, k=K_AUDIT),
        ),
        (
            "Structured text", "L-BE*", lambda: lbe_train(au.docs, au.taxonomy, au.truth),
            lambda m: lbe_rank(m, k=K_AUDIT),
        ),
        supervised("Structured text", "RANK*", rank_bg, au.docs, au.taxonomy, au.truth, k=K_AUDIT),
        *unsupervised("Text to text", sn.claims, sn.facts, prepare_synonyms(spark, sn.synonyms), cfg(15)),
        supervised("Text to text", "RANK*", rank_bg, sn.claims, sn.facts, sn.truth),
    ]


def time_method(train, rank) -> Tuple[float, float]:
    """(train seconds, rank seconds per ranked query) of one method; the
    train time is NaN for a method without a train step."""
    t0 = time.perf_counter()
    trained = train() if train is not None else None
    t1 = time.perf_counter()
    ranked = rank(trained)
    t2 = time.perf_counter()
    return (t1 - t0 if train is not None else float("nan")), (t2 - t1) / max(1, ranked["query"].nunique())


def run(spark: SparkSession, *, scale: float = 0.3) -> pd.DataFrame:
    for _, _, train, rank in methods(spark, min(WARM_SCALE, scale)):
        time_method(train, rank)  # the untimed warm-up pass
    rows = []
    for task, name, train, rank in methods(spark, scale):
        tr, te = time_method(train, rank)
        rows.append({"Task": task, "Method": name, "Train": tr, "Test": te})
    pdf = pd.DataFrame(rows)
    pdf["Train"] = pdf["Train"].round(2)
    pdf["Test"] = pdf["Test"].round(4)
    return pdf


def main() -> None:
    spark = get_spark("table7_times")
    print_table("Table VII: train/test execution times (sec)", run(spark, scale=cli_scale(0.3)))


if __name__ == "__main__":
    main()

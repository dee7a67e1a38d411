"""The benchmark's workloads: generated inputs plus a pipeline config.

Inputs are a function of the workload and the ``--seed`` argument only;
the pipeline sees the generated corpora, KB and synonyms and nothing else.
The pipeline's own ``TDMatchConfig.seed`` stays 0 on every workload.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.pipeline import TDMatchConfig
from repro.datasets import claims, imdb
from repro.kb.synth_kb import prepare_kb, prepare_synonyms


# Scale of the small input that set-up builds a graph from to warm the
# session (Python workers, first plan compiles) before the measured runs.
WARM_SCALE = 0.05


@dataclass
class Inputs:
    query: object  # a repro.core.graph corpus
    target: object
    kb: Optional[DataFrame]
    synonyms: Optional[DataFrame]
    truth: pd.DataFrame  # (query, target) as strings
    query_ids: List[str]
    n_targets: int


@dataclass
class Workload:
    name: str
    scale: float
    config: TDMatchConfig
    generate: Callable[[SparkSession, float, int], Inputs]
    # False where today's pipeline output may differ between two runs on
    # the same input in one process (MSP pair sampling, ROADMAP item 4)
    repeatable: bool = True


def _imdb(with_kb: bool):
    def generate(spark: SparkSession, scale: float, seed: int) -> Inputs:
        sc = imdb.generate(spark, scale=scale, seed=seed)
        return Inputs(
            query=sc.reviews,
            target=sc.movies_wt,
            kb=prepare_kb(spark, sc.kb) if with_kb else None,
            synonyms=prepare_synonyms(spark, sc.synonyms),
            truth=sc.truth.toPandas().astype(str),
            query_ids=[str(r) for r in sc.reviews_pdf["rid"]],
            n_targets=len(sc.movies_pdf),
        )

    return generate


def _snopes(spark: SparkSession, scale: float, seed: int) -> Inputs:
    sc = claims.generate_snopes(spark, scale=scale, seed=seed)
    return Inputs(
        query=sc.claims,
        target=sc.facts,
        kb=prepare_kb(spark, sc.kb),
        synonyms=prepare_synonyms(spark, sc.synonyms),
        truth=sc.truth.toPandas().astype(str),
        query_ids=[str(c) for c in sc.claims_pdf["cid"]],
        n_targets=len(sc.facts_pdf),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="imdb-graph",
            scale=1.0,
            config=TDMatchConfig(
                num_walks=25, walk_length=15, vector_size=64, window=3, k=20, expand=True
            ),
            generate=_imdb(with_kb=True),
        ),
        Workload(
            name="imdb-embed",
            scale=4.0,
            config=TDMatchConfig(window=3, k=20),
            generate=_imdb(with_kb=False),
        ),
        Workload(
            name="snopes-msp",
            scale=0.5,
            config=TDMatchConfig(
                num_walks=25, walk_length=15, vector_size=64, window=15, k=20,
                expand=True, compress=("msp", 0.5),
            ),
            generate=_snopes,
            repeatable=False,
        ),
    )
}

"""Table IV — Quality of match results for the Politifact scenario
(text to text: rank verified claims for each input claim)."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.pretrained import background_model, sbe_match
from repro.baselines.rank import rank_match
from repro.core.pipeline import TDMatchConfig, run_tdmatch
from repro.datasets import claims
from repro.kb.synth_kb import prepare_kb, prepare_synonyms

from jobs.common import N_WALKS, VEC_SIZE, WALK_LEN, cli_scale, get_spark, print_table, ranking_row

K = 20


def run_claims_table(
    spark: SparkSession, sc, *, seed: int = 0
) -> pd.DataFrame:
    """Shared harness for Tables IV and V (same methods, different corpus)."""
    kb = prepare_kb(spark, sc.kb)
    syn = prepare_synonyms(spark, sc.synonyms)
    bg = background_model(seed=0)

    def cfg(expand: bool) -> TDMatchConfig:
        return TDMatchConfig(
            num_walks=N_WALKS, walk_length=WALK_LEN, vector_size=VEC_SIZE,
            window=15, k=K, seed=seed, expand=expand,
        )

    matchers = {
        "S-BE": lambda: sbe_match(spark, sc.claims, sc.facts, k=K),
        "W-RW": lambda: run_tdmatch(
            spark, sc.claims, sc.facts, config=cfg(False), synonyms=syn
        ).matches,
        "W-RW-EX": lambda: run_tdmatch(
            spark, sc.claims, sc.facts, config=cfg(True), kb=kb, synonyms=syn
        ).matches,
        "RANK*": lambda: rank_match(
            spark, sc.claims, sc.facts, sc.truth, k=K, bg_vectors=bg
        ),
    }
    return pd.DataFrame(
        [ranking_row(name, fn(), sc.truth) for name, fn in matchers.items()]
    )


def run(spark: SparkSession, *, scale: float = 0.3, seed: int = 19) -> pd.DataFrame:
    sc = claims.generate_politifact(spark, scale=scale, seed=seed)
    return run_claims_table(spark, sc)


def main() -> None:
    spark = get_spark("table4_politifact")
    print_table("Table IV: Politifact (text to text)", run(spark, scale=cli_scale(0.3)))


if __name__ == "__main__":
    main()

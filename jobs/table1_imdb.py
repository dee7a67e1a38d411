"""Table I — Quality of match results for the IMDb scenario (text to data).

Rows: S-BE, W-RW, W-RW-EX, RANK*, DITTO*, TAPAS* on the WT (with-title) and
NT (no-title) variants; metrics MRR, MAP@{1,5,20}, HasPositive@{1,5,20}.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.matchers import ditto_match, tapas_match
from repro.baselines.pretrained import background_model, sbe_match
from repro.baselines.rank import rank_match
from repro.core.pipeline import TDMatchConfig, run_tdmatch
from repro.datasets import imdb
from repro.kb.synth_kb import prepare_kb, prepare_synonyms

from jobs.common import N_WALKS, VEC_SIZE, WALK_LEN, cli_scale, get_spark, print_table, ranking_row

K = 20


def run(spark: SparkSession, *, scale: float = 0.3, seed: int = 7) -> pd.DataFrame:
    sc = imdb.generate(spark, scale=scale, seed=seed)
    kb = prepare_kb(spark, sc.kb)
    syn = prepare_synonyms(spark, sc.synonyms)
    bg = background_model(seed=0)

    rows = []
    for variant, table in (("WT", sc.movies_wt), ("NT", sc.movies_nt)):
        def cfg(expand: bool) -> TDMatchConfig:
            return TDMatchConfig(
                num_walks=N_WALKS, walk_length=WALK_LEN, vector_size=VEC_SIZE,
                window=3, k=K, seed=0, expand=expand,
            )

        matchers = {
            "S-BE": lambda: sbe_match(spark, sc.reviews, table, k=K),
            "W-RW": lambda: run_tdmatch(
                spark, sc.reviews, table, config=cfg(False), synonyms=syn
            ).matches,
            "W-RW-EX": lambda: run_tdmatch(
                spark, sc.reviews, table, config=cfg(True), kb=kb, synonyms=syn
            ).matches,
            "RANK*": lambda: rank_match(
                spark, sc.reviews, table, sc.truth, k=K, bg_vectors=bg
            ),
            "DITTO*": lambda: ditto_match(spark, sc.reviews, table, sc.truth, k=K),
            "TAPAS*": lambda: tapas_match(spark, sc.reviews, table, sc.truth, k=K),
        }
        for name, fn in matchers.items():
            rows.append({"Variant": variant, **ranking_row(name, fn(), sc.truth)})
    return pd.DataFrame(rows)


def main() -> None:
    spark = get_spark("table1_imdb")
    print_table("Table I: IMDb (text to data)", run(spark, scale=cli_scale(0.3)))


if __name__ == "__main__":
    main()

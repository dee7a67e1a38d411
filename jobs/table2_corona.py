"""Table II — Quality of match results for the CoronaCheck scenario.

Rows: S-BE, W-RW, W-RW-EX, RANK*, DEEP-M*, DITTO*, TAPAS* on the generated
(Gen) and user (Usr) sentence sets.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.matchers import deepmatcher_match, ditto_match, tapas_match
from repro.baselines.pretrained import background_model, sbe_match
from repro.baselines.rank import rank_match
from repro.core.pipeline import TDMatchConfig, run_tdmatch
from repro.datasets import corona
from repro.kb.synth_kb import prepare_kb, prepare_synonyms

from jobs.common import N_WALKS, VEC_SIZE, WALK_LEN, cli_scale, get_spark, print_table, ranking_row

K = 20


def run(spark: SparkSession, *, scale: float = 0.5, seed: int = 11) -> pd.DataFrame:
    sc = corona.generate(spark, scale=scale, seed=seed)
    kb = prepare_kb(spark, sc.kb)
    syn = prepare_synonyms(spark, sc.synonyms)
    bg = background_model(seed=0)

    rows = []
    for variant, text, truth in (("Gen", sc.gen, sc.truth_gen), ("Usr", sc.usr, sc.truth_usr)):
        def cfg(expand: bool) -> TDMatchConfig:
            return TDMatchConfig(
                num_walks=N_WALKS, walk_length=WALK_LEN, vector_size=VEC_SIZE,
                window=3, k=K, seed=0, expand=expand, bucket_numeric=True,
            )

        matchers = {
            "S-BE": lambda: sbe_match(spark, text, sc.table, k=K),
            "W-RW": lambda: run_tdmatch(
                spark, text, sc.table, config=cfg(False), synonyms=syn
            ).matches,
            "W-RW-EX": lambda: run_tdmatch(
                spark, text, sc.table, config=cfg(True), kb=kb, synonyms=syn
            ).matches,
            "RANK*": lambda: rank_match(spark, text, sc.table, truth, k=K, bg_vectors=bg),
            "DEEP-M*": lambda: deepmatcher_match(spark, text, sc.table, truth, k=K),
            "DITTO*": lambda: ditto_match(spark, text, sc.table, truth, k=K),
            "TAPAS*": lambda: tapas_match(spark, text, sc.table, truth, k=K),
        }
        for name, fn in matchers.items():
            rows.append({"Variant": variant, **ranking_row(name, fn(), truth)})
    return pd.DataFrame(rows)


def main() -> None:
    spark = get_spark("table2_corona")
    print_table("Table II: CoronaCheck (text to data)", run(spark, scale=cli_scale(0.5)))


if __name__ == "__main__":
    main()

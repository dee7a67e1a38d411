"""Table VI — Quality of match results for the STS scenario at similarity
thresholds k=2 and k=3 (pairs scoring ≥ k are true matches)."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.pretrained import background_model, sbe_match
from repro.baselines.rank import rank_match
from repro.core.pipeline import TDMatchConfig, run_tdmatch
from repro.datasets import sts
from repro.kb.synth_kb import prepare_kb, prepare_synonyms

from jobs.common import N_WALKS, VEC_SIZE, WALK_LEN, cli_scale, get_spark, print_table, ranking_row

K = 20


def run(spark: SparkSession, *, scale: float = 0.4, seed: int = 23) -> pd.DataFrame:
    sc = sts.generate(spark, scale=scale, seed=seed)
    kb = prepare_kb(spark, sc.kb)
    syn = prepare_synonyms(spark, sc.synonyms)
    bg = background_model(seed=0)

    def cfg(expand: bool) -> TDMatchConfig:
        return TDMatchConfig(
            num_walks=N_WALKS, walk_length=WALK_LEN, vector_size=VEC_SIZE,
            window=15, k=K, seed=0, expand=expand,
        )

    # the matchers rank once; the threshold only changes the ground truth
    ranked = {
        "S-BE": sbe_match(spark, sc.left, sc.right, k=K),
        "W-RW": run_tdmatch(
            spark, sc.left, sc.right, config=cfg(False), synonyms=syn
        ).matches,
        "W-RW-EX": run_tdmatch(
            spark, sc.left, sc.right, config=cfg(True), kb=kb, synonyms=syn
        ).matches,
    }
    rows = []
    for thr in (2, 3):
        truth = sc.truth(spark, k=thr)
        for name, df in ranked.items():
            rows.append({"k": thr, **ranking_row(name, df, truth)})
        rank_df = rank_match(spark, sc.left, sc.right, truth, k=K, bg_vectors=bg)
        rows.append({"k": thr, **ranking_row("RANK*", rank_df, truth)})
    return pd.DataFrame(rows)


def main() -> None:
    spark = get_spark("table6_sts")
    print_table("Table VI: STS (text to text)", run(spark, scale=cli_scale(0.4)))


if __name__ == "__main__":
    main()

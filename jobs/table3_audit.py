"""Table III — Exact and Node scores for structured-text matching (Audit).

Rows: D2VEC, S-BE, W-RW, W-RW-EX, RANK*, L-BE* at K ∈ {1, 3, 5, 10}; for
each, Precision/Recall/F under the Exact and the Node (formula 1) measures.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.d2vec import d2vec_match
from repro.baselines.matchers import lbe_match
from repro.baselines.pretrained import background_model, sbe_match
from repro.baselines.rank import rank_match
from repro.core.metrics import path_metrics, root_to_node_paths
from repro.core.pipeline import TDMatchConfig, run_tdmatch
from repro.datasets import audit
from repro.kb.synth_kb import prepare_kb, prepare_synonyms

from jobs.common import N_WALKS, VEC_SIZE, WALK_LEN, cli_scale, get_spark, print_table

KS = (1, 3, 5, 10)


def run(spark: SparkSession, *, scale: float = 0.4, seed: int = 13) -> pd.DataFrame:
    sc = audit.generate(spark, scale=scale, seed=seed)
    kb = prepare_kb(spark, sc.kb)
    syn = prepare_synonyms(spark, sc.synonyms)
    bg = background_model(seed=0)
    paths = root_to_node_paths(sc.taxonomy_pdf)
    truth_pdf = sc.truth.toPandas()
    kmax = max(KS)

    def cfg(expand: bool) -> TDMatchConfig:
        # text-oriented task: the paper uses window 15 (CBOW); we keep the
        # window and train skip-gram (DESIGN.md §4)
        return TDMatchConfig(
            num_walks=N_WALKS, walk_length=WALK_LEN, vector_size=VEC_SIZE,
            window=15, k=kmax, seed=0, expand=expand,
        )

    matchers = {
        "D2VEC": lambda: d2vec_match(spark, sc.docs, sc.taxonomy, k=kmax, seed=0),
        "S-BE": lambda: sbe_match(spark, sc.docs, sc.taxonomy, k=kmax),
        "W-RW": lambda: run_tdmatch(
            spark, sc.docs, sc.taxonomy, config=cfg(False), synonyms=syn
        ).matches,
        "W-RW-EX": lambda: run_tdmatch(
            spark, sc.docs, sc.taxonomy, config=cfg(True), kb=kb, synonyms=syn
        ).matches,
        "RANK*": lambda: rank_match(spark, sc.docs, sc.taxonomy, sc.truth, k=kmax, bg_vectors=bg),
        "L-BE*": lambda: lbe_match(spark, sc.docs, sc.taxonomy, sc.truth, k=kmax),
    }

    rows = []
    for name, fn in matchers.items():
        preds = fn().toPandas()
        for k in KS:
            row = {"K": k, "Method": name}
            for mode, label in (("exact", "Exact"), ("node", "Node")):
                m = path_metrics(preds, truth_pdf, paths, k=k, mode=mode)
                row[f"{label} P"] = round(m["P"], 3)
                row[f"{label} R"] = round(m["R"], 3)
                row[f"{label} F"] = round(m["F"], 3)
            rows.append(row)
    return pd.DataFrame(rows).sort_values(["K", "Method"]).reset_index(drop=True)


def main() -> None:
    spark = get_spark("table3_audit")
    print_table("Table III: Audit (text to structured text)", run(spark, scale=cli_scale(0.4)))


if __name__ == "__main__":
    main()

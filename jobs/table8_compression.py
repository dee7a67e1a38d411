"""Table VIII — Compression performance: graph sizes (#N, #E) and matching
quality (MRR) for Original / Expanded / MSP(0.5) / MSP(0.25) / SSuM(0.1)
on all five scenarios.

As in the paper, the compression variants run on the *expanded* graph and
the MRR is measured on the scenario's matching task. SSuM(0.1) follows the
paper's configuration (compression ratio 0.9, i.e. keep ~10%).
"""
from __future__ import annotations

from typing import Optional, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.metrics import ranking_metrics_pdf
from repro.core.pipeline import TDMatchConfig, run_tdmatch
from repro.datasets import audit, claims, corona, imdb, sts
from repro.kb.synth_kb import prepare_kb, prepare_synonyms

from jobs.common import N_WALKS, VEC_SIZE, WALK_LEN, cli_scale, get_spark, print_table

VARIANTS: Tuple[Tuple[str, bool, Optional[Tuple[str, float]]], ...] = (
    ("Original", False, None),
    ("Expanded", True, None),
    ("MSP(0.5)", True, ("msp", 0.5)),
    ("MSP(0.25)", True, ("msp", 0.25)),
    ("SSuM(0.1)", True, ("ssum", 0.1)),
)


def _scenarios(spark: SparkSession, scale: float):
    im = imdb.generate(spark, scale=scale, seed=7)
    co = corona.generate(spark, scale=scale, seed=11)
    sn = claims.generate_snopes(spark, scale=scale, seed=17)
    po = claims.generate_politifact(spark, scale=scale, seed=19)
    au = audit.generate(spark, scale=scale, seed=13)
    return [
        # (name, query corpus, target corpus, truth, kb, synonyms, window, bucket)
        ("IMDB", im.reviews, im.movies_wt, im.truth, im.kb, im.synonyms, 3, False),
        # Corona runs with numeric bucketing, as in its Table II config
        ("Corona", co.gen, co.table, co.truth_gen, co.kb, co.synonyms, 3, True),
        ("Snopes", sn.claims, sn.facts, sn.truth, sn.kb, sn.synonyms, 15, False),
        ("Politi", po.claims, po.facts, po.truth, po.kb, po.synonyms, 15, False),
        ("Audit", au.docs, au.taxonomy, au.truth, au.kb, au.synonyms, 15, False),
    ]


def run(spark: SparkSession, *, scale: float = 0.25) -> pd.DataFrame:
    rows = []
    for name, qc, tc, truth, kb_pdf, syn_pdf, window, bucket in _scenarios(spark, scale):
        kb = prepare_kb(spark, kb_pdf)
        syn = prepare_synonyms(spark, syn_pdf)
        truth_pdf = truth.toPandas()
        row = {"Dataset": name}
        for label, expand, compress in VARIANTS:
            cfg = TDMatchConfig(
                num_walks=N_WALKS, walk_length=WALK_LEN, vector_size=VEC_SIZE,
                window=window, k=20, seed=0, expand=expand, compress=compress,
                bucket_numeric=bucket,
            )
            res = run_tdmatch(
                spark, qc, tc, config=cfg, kb=kb if expand else None, synonyms=syn
            )
            stage = "compressed" if compress else ("expanded" if expand else "original")
            n, e = res.graph_sizes[stage]
            mrr = ranking_metrics_pdf(res.matches.toPandas(), truth_pdf, ks=(1,))["MRR"]
            row[f"{label} #N"] = n
            row[f"{label} #E"] = e
            row[f"{label} MRR"] = round(mrr, 3)
        rows.append(row)
    return pd.DataFrame(rows)


def main() -> None:
    spark = get_spark("table8_compression")
    print_table("Table VIII: compression performance", run(spark, scale=cli_scale(0.25)))


if __name__ == "__main__":
    main()

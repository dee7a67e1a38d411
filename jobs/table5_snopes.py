"""Table V — Quality of match results for the Snopes scenario (text to
text); same methods as Table IV over the Snopes-shaped corpus."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets import claims

from jobs.common import cli_scale, get_spark, print_table
from jobs.table4_politifact import run_claims_table


def run(spark: SparkSession, *, scale: float = 0.3, seed: int = 17) -> pd.DataFrame:
    sc = claims.generate_snopes(spark, scale=scale, seed=seed)
    return run_claims_table(spark, sc)


def main() -> None:
    spark = get_spark("table5_snopes")
    print_table("Table V: Snopes (text to text)", run(spark, scale=cli_scale(0.3)))


if __name__ == "__main__":
    main()

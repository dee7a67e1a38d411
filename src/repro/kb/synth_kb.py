"""Adapters from raw external resources to the graph's term space.

Dataset generators emit KB triples and synonym dictionaries over *raw*
phrases ("Bruce Willis", "new cases"). The graph's data nodes live in the
pre-processed term space (stemmed tokens joined by ``_``), so resources must
be normalized identically before they can touch the graph — exactly what a
real deployment does when it keys ConceptNet/WordNet entries by the same
tokenizer as the corpus.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.graph import pandas_frame
from ..core.preprocess import TERM_SEP, content_tokens


def to_term(phrase: str, *, do_stem: bool = True) -> str:
    """Raw phrase -> graph term ("Bruce Willis" -> "bruce_willi")."""
    return TERM_SEP.join(content_tokens(phrase, do_stem=do_stem))


def prepare_kb(spark: SparkSession, kb: pd.DataFrame, *, do_stem: bool = True) -> DataFrame:
    """(subject, object) raw phrases -> Spark DataFrame in term space."""
    out = pd.DataFrame(
        {
            "subject": kb["subject"].map(lambda p: to_term(p, do_stem=do_stem)),
            "object": kb["object"].map(lambda p: to_term(p, do_stem=do_stem)),
        }
    )
    out = out[(out.subject != "") & (out.object != "") & (out.subject != out.object)]
    return pandas_frame(spark, out.drop_duplicates(), "subject string, object string")


def prepare_synonyms(
    spark: SparkSession, synonyms: pd.DataFrame, *, do_stem: bool = True
) -> DataFrame:
    """(variant, canonical) raw phrases -> Spark DataFrame in term space."""
    out = pd.DataFrame(
        {
            "variant": synonyms["variant"].map(lambda p: to_term(p, do_stem=do_stem)),
            "canonical": synonyms["canonical"].map(lambda p: to_term(p, do_stem=do_stem)),
        }
    )
    out = out[(out.variant != "") & (out.canonical != "") & (out.variant != out.canonical)]
    return pandas_frame(
        spark, out.drop_duplicates(subset=["variant"]), "variant string, canonical string"
    )

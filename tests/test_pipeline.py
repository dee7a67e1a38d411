"""End-to-end pipeline tests: invariants + the paper's headline claims at
test scale (W-RW beats the pre-trained substitute on domain tasks, the
toy Example 1 matches correctly, compression keeps metadata matchable)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.metrics import ranking_metrics_pdf
from repro.core.pipeline import TDMatchConfig, run_tdmatch
from repro.datasets import corona, imdb
from repro.kb.synth_kb import prepare_kb, prepare_synonyms


CFG = dict(num_walks=12, walk_length=10, vector_size=48, window=3, k=10, seed=0)


@pytest.fixture(scope="module")
def imdb_sc(spark):
    return imdb.generate(spark, scale=0.08, seed=7)


@pytest.fixture(scope="module")
def imdb_wrw(spark, imdb_sc):
    syn = prepare_synonyms(spark, imdb_sc.synonyms)
    return run_tdmatch(
        spark, imdb_sc.reviews, imdb_sc.movies_wt,
        config=TDMatchConfig(**CFG), synonyms=syn,
    )


class TestPipelineInvariants:
    def test_k_rows_per_query(self, imdb_sc, imdb_wrw):
        pdf = imdb_wrw.matches.toPandas()
        n_targets = len(imdb_sc.movies_pdf)
        expected = min(10, n_targets)
        assert (pdf.groupby("query").size() == expected).all()

    def test_every_review_ranked(self, imdb_sc, imdb_wrw):
        pdf = imdb_wrw.matches.toPandas()
        assert set(pdf["query"].astype(int)) == set(imdb_sc.reviews_pdf["rid"])

    def test_targets_are_movie_ids(self, imdb_sc, imdb_wrw):
        pdf = imdb_wrw.matches.toPandas()
        assert set(pdf["target"].astype(int)) <= set(imdb_sc.movies_pdf["mid"])

    def test_deterministic(self, spark, imdb_sc):
        syn = prepare_synonyms(spark, imdb_sc.synonyms)
        a = run_tdmatch(
            spark, imdb_sc.reviews, imdb_sc.movies_wt,
            config=TDMatchConfig(**CFG), synonyms=syn,
        ).matches.toPandas().sort_values(["query", "rank"]).reset_index(drop=True)
        b = run_tdmatch(
            spark, imdb_sc.reviews, imdb_sc.movies_wt,
            config=TDMatchConfig(**CFG), synonyms=syn,
        ).matches.toPandas().sort_values(["query", "rank"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_dictionary_direction_and_order_free(self, spark, imdb_sc, imdb_wrw):
        """The dictionary's rows flipped and shuffled give the same final
        graph and the same ranked matches."""
        flipped = imdb_sc.synonyms.rename(
            columns={"variant": "canonical", "canonical": "variant"}
        ).sample(frac=1, random_state=3)
        res = run_tdmatch(
            spark, imdb_sc.reviews, imdb_sc.movies_wt,
            config=TDMatchConfig(**CFG), synonyms=prepare_synonyms(spark, flipped),
        )
        for frame in ("node_rows", "edge_rows"):
            got, want = (getattr(r.graph, frame) for r in (res, imdb_wrw))
            assert sorted(got.itertuples(index=False)) == sorted(want.itertuples(index=False))
        got, want = (
            r.matches.toPandas().sort_values(["query", "rank"]).reset_index(drop=True)
            for r in (res, imdb_wrw)
        )
        pd.testing.assert_frame_equal(got, want)

    def test_expand_requires_kb(self, spark, imdb_sc):
        with pytest.raises(ValueError):
            run_tdmatch(
                spark, imdb_sc.reviews, imdb_sc.movies_wt,
                config=TDMatchConfig(expand=True, **CFG),
            )

    def test_collect_sizes(self, spark, imdb_sc):
        kb = prepare_kb(spark, imdb_sc.kb)
        res = run_tdmatch(
            spark, imdb_sc.reviews, imdb_sc.movies_wt,
            config=TDMatchConfig(expand=True, **CFG), kb=kb,
        )
        assert set(res.graph_sizes) == {"original", "expanded"}
        for n, e in res.graph_sizes.values():
            assert n > 0 and e > 0

    def test_compression_sizes_shrink(self, spark, imdb_sc):
        kb = prepare_kb(spark, imdb_sc.kb)
        res = run_tdmatch(
            spark, imdb_sc.reviews, imdb_sc.movies_wt,
            config=TDMatchConfig(expand=True, compress=("msp", 0.5), **CFG),
            kb=kb,
        )
        n_exp, e_exp = res.graph_sizes["expanded"]
        n_c, e_c = res.graph_sizes["compressed"]
        assert e_c <= e_exp

    def test_compressed_still_ranks_all_queries(self, spark, imdb_sc):
        kb = prepare_kb(spark, imdb_sc.kb)
        res = run_tdmatch(
            spark, imdb_sc.reviews, imdb_sc.movies_wt,
            config=TDMatchConfig(expand=True, compress=("msp", 0.5), **CFG), kb=kb,
        )
        pdf = res.matches.toPandas()
        assert set(pdf["query"].astype(int)) == set(imdb_sc.reviews_pdf["rid"])


class TestHeadlineClaims:
    def test_wrw_beats_pretrained_on_domain_task(self, spark, imdb_sc, imdb_wrw):
        """Paper Table I: W-RW >> S-BE on IMDb (domain-specific vocab)."""
        from repro.baselines.pretrained import sbe_match

        truth = imdb_sc.truth.toPandas()
        m_wrw = ranking_metrics_pdf(imdb_wrw.matches.toPandas(), truth, ks=(5,))
        sbe = sbe_match(spark, imdb_sc.reviews, imdb_sc.movies_wt, k=10)
        m_sbe = ranking_metrics_pdf(sbe.toPandas(), truth, ks=(5,))
        assert m_wrw["MRR"] > m_sbe["MRR"] + 0.2

    def test_wrw_quality_floor(self, spark, imdb_sc, imdb_wrw):
        truth = imdb_sc.truth.toPandas()
        m = ranking_metrics_pdf(imdb_wrw.matches.toPandas(), truth, ks=(5,))
        assert m["MRR"] > 0.4  # well above random over ~30 tuples

    def test_corona_bucketing_pipeline_runs(self, spark):
        sc = corona.generate(spark, scale=0.25, seed=11)
        syn = prepare_synonyms(spark, sc.synonyms)
        res = run_tdmatch(
            spark, sc.gen, sc.table,
            config=TDMatchConfig(bucket_numeric=True, **CFG), synonyms=syn,
        )
        m = ranking_metrics_pdf(
            res.matches.toPandas(), sc.truth_gen.toPandas(), ks=(5,)
        )
        assert m["MRR"] > 0.3


class TestExample1:
    def test_paper_example_matches(self, spark):
        """Figure 1: review p1 (Bruce Willis + comedy + Tarantino) must match
        the Pulp Fiction tuple, the other review the Sixth Sense tuple."""
        from repro.core.graph import TableCorpus, TextCorpus

        movies = spark.createDataFrame(
            pd.DataFrame(
                {
                    "mid": [1, 2],
                    "title": ["The Sixth Sense", "Pulp Fiction"],
                    "director": ["Shyamalan", "Tarantino"],
                    "actor": ["B. Willis", "B. Willis"],
                    "rate": ["PG", "R"],
                    "genre": ["Thriller", "Drama"],
                }
            )
        )
        reviews = spark.createDataFrame(
            pd.DataFrame(
                {
                    "rid": [1, 2],
                    "text": [
                        "I think the first part of Bruce Willis story is bland, "
                        "not to mention the comedy in this film by Tarantino",
                        "In a key scene Willis asks Osment what he wants most, "
                        "received a PG rating, the sixth sense is a thriller by Shyamalan",
                    ],
                }
            )
        )
        res = run_tdmatch(
            spark,
            TextCorpus("reviews", reviews, "rid", "text"),
            TableCorpus("movies", movies, "mid", ["title", "director", "actor", "rate", "genre"]),
            config=TDMatchConfig(num_walks=40, walk_length=10, vector_size=32, window=3, k=1, seed=0),
        )
        top = {r["query"]: r["target"] for r in res.matches.collect()}
        assert top == {"1": "2", "2": "1"}

"""Tests for the baseline matchers (DESIGN.md §4)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.common import doc_tokens, doc_vectors, serialize_table, text_view
from repro.baselines.d2vec import d2vec_match
from repro.baselines.features import PairFeaturizer
from repro.baselines.matchers import lbe_match
from repro.baselines.pretrained import background_model, background_sentences, sbe_match
from repro.baselines.rank import kfold_rank, rank_match
from repro.baselines.w2vec import w2vec_match, w2vec_train
from repro.core.embed import skipgram
from repro.core.graph import StructuredTextCorpus, TableCorpus, TextCorpus
from repro.core.metrics import ranking_metrics_pdf
from repro.datasets.common import GENERAL_WORDS


@pytest.fixture(scope="module")
def toy(spark):
    """Tiny matching task with unambiguous lexical overlap."""
    t = spark.createDataFrame(
        pd.DataFrame(
            {
                "tid": [1, 2, 3],
                "a": ["alpha beta gamma", "delta epsilon zeta", "eta theta iota"],
            }
        )
    )
    s = spark.createDataFrame(
        pd.DataFrame(
            {
                "sid": [1, 2, 3],
                "text": [
                    "alpha beta gamma story",
                    "delta epsilon zeta tale",
                    "eta theta iota news",
                ],
            }
        )
    )
    truth = spark.createDataFrame(
        pd.DataFrame({"query": [1, 2, 3], "target": [1, 2, 3]})
    )
    return (
        TextCorpus("s", s, "sid", "text"),
        TableCorpus("t", t, "tid", ["a"]),
        truth,
    )


class TestCommon:
    def test_serialize_table(self, spark, toy):
        _, table, _ = toy
        rows = {r["doc"]: r["text"] for r in serialize_table(table).collect()}
        assert rows["1"] == "[COL] a [VAL] alpha beta gamma"

    def test_text_view_passthrough(self, spark, toy):
        text, _, _ = toy
        rows = {r["doc"]: r["text"] for r in text_view(text).collect()}
        assert rows["1"] == "alpha beta gamma story"

    def test_doc_tokens_stems_and_filters(self, spark):
        v = spark.createDataFrame(
            pd.DataFrame({"doc": ["d"], "text": ["the running cases"]})
        )
        toks = doc_tokens(TextCorpus("v", v, "doc", "text"))
        assert toks["doc"].tolist() == ["d"]
        assert toks["tokens"].tolist() == [["run", "case"]]


class TestBackground:
    def test_sentences_general_vocab_only(self):
        from repro.core.preprocess import stem

        rng = np.random.default_rng(0)
        allowed = {stem(w) for w in GENERAL_WORDS} | {
            stem(w) for g in __import__("repro.datasets.common", fromlist=["SYNONYM_GROUPS"]).SYNONYM_GROUPS for w in g
        }
        for s in background_sentences(rng, 50):
            assert set(s) <= allowed

    def test_model_cached(self):
        a = background_model(n_sentences=300, vector_size=16, seed=1)
        b = background_model(n_sentences=300, vector_size=16, seed=1)
        assert a is b

    def test_synonyms_close_in_space(self):
        vecs = background_model(n_sentences=3000, vector_size=32, seed=0)

        def cos(a, b):
            va, vb = vecs[a], vecs[b]
            return va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))

        # trained-in synonym pair closer than a random unrelated pair
        assert cos("big", "large") > cos("big", "vaccine")


class TestSbe:
    def test_matches_lexical_overlap(self, spark, toy):
        text, table, truth = toy
        out = sbe_match(spark, text, table, k=3)
        m = ranking_metrics_pdf(out.toPandas(), truth.toPandas(), ks=(1,))
        # all content words here are OOV pseudo-words -> S-BE is lost
        assert m["MRR"] <= 1.0  # sanity: it returns rankings at all
        assert (out.groupBy("query").count().toPandas()["count"] == 3).all()

    def test_general_text_works(self, spark):
        q = TextCorpus(
            "q",
            spark.createDataFrame(
                pd.DataFrame({"i": [1, 2], "text": ["doctor hospital patient", "court judge trial"]})
            ),
            "i",
            "text",
        )
        t = TextCorpus(
            "t",
            spark.createDataFrame(
                pd.DataFrame({"i": [1, 2], "text": ["patient doctor disease hospital", "judge court charge trial"]})
            ),
            "i",
            "text",
        )
        truth = pd.DataFrame({"query": [1, 2], "target": [1, 2]})
        out = sbe_match(spark, q, t, k=2)
        m = ranking_metrics_pdf(out.toPandas(), truth, ks=(1,))
        assert m["MRR"] == 1.0  # in-vocabulary general text is easy for S-BE

    def test_oov_docs_get_fallback(self, spark, toy):
        text, table, _ = toy
        wv = background_model(seed=0)
        emb = doc_vectors(doc_tokens(text), wv)
        assert emb["id"].tolist() == ["1", "2", "3"]  # nothing dropped


class TestTrainedBaselines:
    def test_w2vec_solves_overlap_task(self, spark, toy):
        text, table, truth = toy
        out = w2vec_match(spark, text, table, k=3, vector_size=24, seed=0)
        m = ranking_metrics_pdf(out.toPandas(), truth.toPandas(), ks=(1,))
        assert m["MRR"] >= 0.5

    def test_w2vec_vectors_equal_skipgram(self, spark, toy):
        """W2VEC's word vectors are the kernel's on the documents' token
        sentences, query corpus first, tokens numbered in sorted order."""
        text, table, _ = toy
        q, t, wv = w2vec_train(text, table, vector_size=24, seed=3)
        sents = [*q["tokens"], *t["tokens"]]
        assert sents[0] == ["alpha", "beta", "gamma", "story"]
        names = sorted({w for s in sents for w in s})
        tokens = np.array([names.index(w) for s in sents for w in s])
        offsets = np.cumsum([0] + [len(s) for s in sents])
        ids, vectors = skipgram(tokens, offsets, vector_size=24, window=5, seed=3)
        assert list(wv) == [names[i] for i in ids]
        assert np.stack(list(wv.values())).tobytes() == vectors.astype(np.float64).tobytes()

    def test_d2vec_ranks_everything(self, spark, toy):
        text, table, truth = toy
        out = d2vec_match(spark, text, table, k=3, vector_size=24, seed=0)
        pdf = out.toPandas()
        assert set(pdf["query"]) == {"1", "2", "3"}
        assert (pdf.groupby("query").size() == 3).all()


class TestFeaturizer:
    def test_feature_values(self, spark, toy):
        text, table, _ = toy
        fz = PairFeaturizer(
            doc_tokens(text), doc_tokens(table), features=["tfidf_cos", "jaccard", "overlap"]
        )
        pairs = pd.DataFrame({"query": ["1", "1"], "target": ["1", "2"]})
        feats = fz.featurize(pairs)
        out = dict(zip(feats["target"], feats["features"]))
        assert out["1"][0] > out["2"][0]  # tfidf cosine prefers true match
        assert out["1"][1] > out["2"][1]  # jaccard too
        assert out["2"][1] == 0.0

    def test_label_passthrough(self, spark, toy):
        text, table, _ = toy
        fz = PairFeaturizer(doc_tokens(text), doc_tokens(table), features=["jaccard"])
        pairs = pd.DataFrame({"query": ["1"], "target": ["1"], "label": [1.0]})
        assert fz.featurize(pairs)["label"].tolist() == [1.0]

    def test_unknown_feature_raises(self, spark, toy):
        text, table, _ = toy
        with pytest.raises(ValueError):
            PairFeaturizer(doc_tokens(text), doc_tokens(table), features=["woof"])

    def test_all_pairs_cross(self, spark, toy):
        text, table, _ = toy
        fz = PairFeaturizer(doc_tokens(text), doc_tokens(table), features=["jaccard"])
        pairs = fz.all_pairs()
        assert len(pairs) == 9
        assert set(zip(pairs["query"], pairs["target"])) == {(q, t) for q in "123" for t in "123"}

    def test_num_match(self, spark):
        q = TextCorpus(
            "q",
            spark.createDataFrame(pd.DataFrame({"i": [1], "text": ["total was 120 in march"]})),
            "i", "text",
        )
        t = TableCorpus(
            "t",
            spark.createDataFrame(pd.DataFrame({"i": [1, 2], "v": ["120 march", "77 june"]})),
            "i", ["v"],
        )
        fz = PairFeaturizer(doc_tokens(q), doc_tokens(t), features=["num_match"])
        pairs = pd.DataFrame({"query": ["1", "1"], "target": ["1", "2"]})
        feats = fz.featurize(pairs)
        out = {t: f[0] for t, f in zip(feats["target"], feats["features"])}
        assert out["1"] == 1.0 and out["2"] == 0.0


class TestSupervised:
    def test_rank_learns_overlap(self, spark, toy):
        text, table, truth = toy
        out = rank_match(spark, text, table, truth, k=3, n_folds=3, seed=0)
        m = ranking_metrics_pdf(out.toPandas(), truth.toPandas(), ks=(1,))
        assert m["MRR"] >= 2 / 3  # lexical task is easy for the ranker

    def test_rank_ranks_every_query(self, spark, toy):
        text, table, truth = toy
        out = rank_match(spark, text, table, truth, k=3, n_folds=3, seed=0).toPandas()
        assert set(out["query"]) == {"1", "2", "3"}

    def test_fold_scores_equal_spark_probability(self, spark, toy):
        """kfold_rank scores pairs on the driver from a fold model's
        coefficients as Spark ML's ``transform`` does, to float rounding."""
        from pyspark.ml.classification import LogisticRegression
        from pyspark.ml.functions import array_to_vector, vector_to_array

        text, table, _ = toy
        fz = PairFeaturizer(doc_tokens(text), doc_tokens(table), features=["tfidf_cos", "jaccard"])
        pairs = fz.featurize(fz.all_pairs())
        pairs["label"] = (pairs["query"] == pairs["target"]).astype(float)
        df = spark.createDataFrame(pairs).withColumn("f", array_to_vector("features"))
        model = LogisticRegression(featuresCol="f", labelCol="label", maxIter=50, regParam=0.01).fit(df)
        want = model.transform(df).select(
            "query", "target", F.element_at(vector_to_array("probability"), 2).alias("p")
        ).toPandas()
        got = kfold_rank((fz, [(["1", "2", "3"], model.coefficients.toArray(), model.intercept)]), k=3)
        both = got.merge(want, on=["query", "target"])
        assert len(both) == 9
        np.testing.assert_allclose(both["score"], both["p"], rtol=0, atol=1e-12)

    def test_lbe_multilabel(self, spark):
        tax = StructuredTextCorpus(
            "tax",
            spark.createDataFrame(
                pd.DataFrame(
                    {
                        "cid": [1, 2, 3],
                        "label": ["root", "alpha topic", "beta topic"],
                        "parent": [None, 1.0, 1.0],
                    }
                )
            ),
            "cid", "label", "parent",
        )
        docs = TextCorpus(
            "docs",
            spark.createDataFrame(
                pd.DataFrame(
                    {
                        "did": [1, 2, 3, 4],
                        "text": ["alpha things", "beta matters", "alpha stuff", "beta items"],
                    }
                )
            ),
            "did", "text",
        )
        truth = spark.createDataFrame(
            pd.DataFrame({"query": [1, 2, 3, 4], "target": [2, 3, 2, 3]})
        )
        out = lbe_match(spark, docs, tax, truth, k=2, n_folds=2, seed=0)
        m = ranking_metrics_pdf(out.toPandas(), truth.toPandas(), ks=(1,))
        assert m["MRR"] >= 0.5

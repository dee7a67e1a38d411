"""Unit tests for repro.core.preprocess (paper §II pre-processing)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import preprocess as pp


class TestTokenize:
    def test_lowercases(self):
        assert pp.tokenize("Bruce WILLIS") == ["bruce", "willis"]

    def test_splits_punctuation(self):
        assert pp.tokenize("B. Willis") == ["b", "willis"]

    def test_keeps_decimals(self):
        assert pp.tokenize("3.5 stars") == ["3.5", "stars"]

    def test_keeps_integers(self):
        assert pp.tokenize("a PG-13 in 1999") == ["a", "pg", "13", "in", "1999"]

    def test_empty(self):
        assert pp.tokenize("") == []

    def test_none_is_empty(self):
        assert pp.tokenize(None) == []

    def test_whitespace_collapse(self):
        assert pp.tokenize("  a \t b\nc ") == ["a", "b", "c"]


class TestStopwords:
    def test_the_removed(self):
        assert pp.content_tokens("The Sixth Sense") == ["sixth", "sense"]

    def test_all_stopwords_yield_empty(self):
        assert pp.content_tokens("the of and is") == []

    @pytest.mark.parametrize("word", ["the", "of", "was", "not", "it"])
    def test_common_stopwords_present(self, word):
        assert word in pp.STOPWORDS


class TestStem:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("planning", "plan"),
            ("plans", "plan"),
            ("planned", "plan"),
            ("plan", "plan"),
            ("movies", "movy"),  # ies -> y
            ("cases", "case"),
            ("reporting", "report"),
            ("reported", "report"),
            ("reports", "report"),
        ],
    )
    def test_inflections_merge(self, word, expected):
        assert pp.stem(word) == expected

    def test_numeric_untouched(self):
        assert pp.stem("1234") == "1234"
        assert pp.stem("3.5") == "3.5"

    def test_short_untouched(self):
        assert pp.stem("pg") == "pg"
        assert pp.stem("its") == "its"

    def test_same_lemma_same_stem(self):
        assert pp.stem("auditing") == pp.stem("audits") == pp.stem("audited")

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=15))
    @settings(max_examples=200, deadline=None)
    def test_never_empty_and_lower(self, w):
        s = pp.stem(w)
        assert s
        assert s == s.lower()

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=4, max_size=15))
    @settings(max_examples=200, deadline=None)
    def test_stem_is_prefix_compatible(self, w):
        # a stem never grows beyond the replacement length
        assert len(pp.stem(w)) <= len(w) + 2


class TestNgrams:
    def test_unigrams(self):
        assert pp.ngrams(["a", "b"], 1) == ["a", "b"]

    def test_bigrams_order(self):
        assert pp.ngrams(["a", "b", "c"], 2) == ["a", "b", "c", "a_b", "b_c"]

    def test_trigram_count(self):
        out = pp.ngrams(["a", "b", "c", "d"], 3)
        assert len(out) == 4 + 3 + 2

    def test_n_longer_than_input(self):
        assert pp.ngrams(["x"], 3) == ["x"]

    def test_empty(self):
        assert pp.ngrams([], 3) == []

    @given(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_count_formula(self, toks, n):
        out = pp.ngrams(toks, n)
        expected = sum(max(0, len(toks) - i + 1) for i in range(1, n + 1))
        assert len(out) == expected


class TestTerms:
    def test_paper_example(self):
        # "The Sixth Sense", n=3 -> stop word dropped, bigram term added
        assert pp.terms("The Sixth Sense", max_n=3) == ["sixth", "sense", "sixth_sense"]

    def test_distinct(self):
        out = pp.terms("case case case", max_n=2)
        assert out.count("case") == 1

    def test_no_stem_mode(self):
        assert "planning" in pp.terms("planning", max_n=1, do_stem=False)

    def test_numeric_survive(self):
        assert "1999" in pp.terms("in 1999", max_n=1)


class TestIsNumeric:
    @pytest.mark.parametrize("t,ok", [("12", True), ("3.5", True), ("pg", False), ("a1", False), ("", False)])
    def test_cases(self, t, ok):
        assert pp.is_numeric(t) is ok


class TestExplodeTerms:
    """``graph.tokenize_corpus``: the one tokenization pass per corpus."""

    def test_spark_matches_python(self, spark):
        import pandas as pd
        from repro.core.graph import TableCorpus, TextCorpus, tokenize_corpus

        pdf = pd.DataFrame(
            {"id": [1, 2], "a": ["The Sixth Sense", "Pulp Fiction"], "b": ["Willis", None]}
        )
        df = spark.createDataFrame(pdf)

        def rows(corpus):
            return set(tokenize_corpus(corpus, max_n=2, do_stem=True)[1].itertuples(index=False, name=None))

        assert rows(TextCorpus("c", df, "id", "a")) == {
            (f"c::{r.id}", None, t) for r in pdf.itertuples() for t in pp.terms(r.a, max_n=2)
        }
        # a table yields each cell's own terms: n-grams never span two cells
        assert rows(TableCorpus("c", df, "id", ["a", "b"])) == {
            (f"c::{r.id}", attr, t)
            for r in pdf.itertuples()
            for attr in ("a", "b")
            for t in pp.terms(getattr(r, attr), max_n=2)
        }

    def test_oracle_unigram_counts(self, spark):
        """Cross-check term-table counts against DuckDB string ops."""
        import pandas as pd
        from repro.core.graph import TextCorpus, pandas_frame, tokenize_corpus
        from repro.oracle import assert_equivalent

        pdf = pd.DataFrame({"id": [1, 2, 3], "text": ["alpha beta", "beta gamma", "alpha alpha"]})
        df = spark.createDataFrame(pdf)
        rows = tokenize_corpus(TextCorpus("c", df, "id", "text"), max_n=1, do_stem=False)[1]
        got = (
            pandas_frame(spark, rows, "doc string, attr string, term string")
            .groupBy("term")
            .count()
            .withColumnRenamed("count", "n")
        )
        sql = """
            SELECT term, COUNT(*) AS n FROM (
              SELECT DISTINCT id, unnest(string_split(text, ' ')) AS term FROM t
            ) GROUP BY term
        """
        assert_equivalent(got, sql, t=pdf)

"""Tests for the KB/synonym term-space adapters."""
import pandas as pd
import pytest

from repro.core.graph import data_node_id
from repro.core.merge import merge_synonyms
from repro.kb.synth_kb import prepare_kb, prepare_synonyms, to_term
from tests.helpers import star_graph


class TestToTerm:
    def test_multiword(self):
        assert to_term("Bruce Willis") == "bruce_willi"

    def test_stopwords_dropped(self):
        assert to_term("The Sixth Sense") == "sixth_sense"

    def test_no_stem(self):
        assert to_term("new cases", do_stem=False) == "new_cases"

    def test_stemmed(self):
        assert to_term("new cases") == "new_case"

    def test_empty(self):
        assert to_term("") == ""


class TestPrepareKb:
    def test_normalizes_both_sides(self, spark):
        kb = pd.DataFrame({"subject": ["Bruce Willis"], "object": ["Pulp Fiction"]})
        out = prepare_kb(spark, kb).collect()
        assert (out[0]["subject"], out[0]["object"]) == ("bruce_willi", "pulp_fiction")

    def test_drops_self_relations(self, spark):
        kb = pd.DataFrame({"subject": ["cases", "x"], "object": ["case", "y"]})
        out = prepare_kb(spark, kb).collect()
        # "cases" and "case" stem to the same term -> self relation dropped
        assert len(out) == 1

    def test_drops_empty(self, spark):
        kb = pd.DataFrame({"subject": ["the", "a b"], "object": ["of", "c"]})
        out = prepare_kb(spark, kb).collect()
        assert all(r["subject"] and r["object"] for r in out)

    def test_dedup(self, spark):
        kb = pd.DataFrame({"subject": ["x y", "X Y"], "object": ["z", "Z"]})
        assert prepare_kb(spark, kb).count() == 1

    def test_all_filtered(self, spark):
        kb = pd.DataFrame({"subject": ["the", "cases"], "object": ["x", "case"]})
        out = prepare_kb(spark, kb)
        assert out.schema.simpleString() == "struct<subject:string,object:string>"
        assert out.count() == 0


class TestPrepareSynonyms:
    def test_variant_keyed(self, spark):
        syn = pd.DataFrame({"variant": ["B Willis"], "canonical": ["Bruce Willis"]})
        out = prepare_synonyms(spark, syn).collect()
        assert out[0]["variant"] == "b_willi"
        assert out[0]["canonical"] == "bruce_willi"

    @staticmethod
    def _assert_merges_nothing(spark, syn):
        """A 0-row (variant, canonical) frame that removes no graph node."""
        assert syn.schema.simpleString() == "struct<variant:string,canonical:string>"
        assert syn.count() == 0
        _, removed = merge_synonyms(star_graph(spark, ["case", "x"]), syn)
        assert removed == 0

    def test_empty_frame(self, spark):
        out = prepare_synonyms(spark, pd.DataFrame(columns=["variant", "canonical"]))
        self._assert_merges_nothing(spark, out)

    def test_all_pairs_filtered(self, spark):
        # "the" is a stopword (empty term); "cases" stems onto its canonical
        syn = pd.DataFrame({"variant": ["the", "cases"], "canonical": ["x", "case"]})
        self._assert_merges_nothing(spark, prepare_synonyms(spark, syn))

    def test_duplicate_variants_resolved(self, spark):
        # both pairs of the repeated variant are kept, and merging puts the
        # three terms on one node whatever the row order
        syn = pd.DataFrame(
            {"variant": ["aa bb", "aa bb", "AA BB"], "canonical": ["cc", "dd", "cc"]}
        )
        out = prepare_synonyms(spark, syn)
        assert sorted(map(tuple, out.collect())) == [("aa_bb", "cc"), ("aa_bb", "dd")]
        merged, removed = merge_synonyms(star_graph(spark, ["aa_bb", "cc", "dd"]), out)
        assert removed == 2
        assert set(merged.node_rows["id"]) == {data_node_id("aa_bb"), "t::1"}

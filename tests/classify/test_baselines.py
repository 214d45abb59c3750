"""Unit tests for the §5.1 baselines."""

from repro.classify import CandidateSetBaseline, CodeFrequencyBaseline
from repro.data import DataBundle, Report, ReportSource
from repro.knowledge import BagOfWordsExtractor, KnowledgeBase


def bundle(ref, part, code, text="fan broken"):
    return DataBundle(ref_no=ref, part_id=part, article_code="A1",
                      error_code=code,
                      reports=[Report(ReportSource.SUPPLIER, text, "en")])


class TestCodeFrequencyBaseline:
    def test_orders_by_frequency(self):
        bundles = ([bundle(f"R{i}", "P1", "E1") for i in range(5)]
                   + [bundle(f"S{i}", "P1", "E2") for i in range(2)]
                   + [bundle("T1", "P1", "E3")])
        baseline = CodeFrequencyBaseline.from_bundles(bundles)
        codes = [scored.error_code for scored in baseline.ranked_codes("P1")]
        assert codes == ["E1", "E2", "E3"]

    def test_tie_broken_by_code(self):
        bundles = [bundle("R1", "P1", "E9"), bundle("R2", "P1", "E1")]
        baseline = CodeFrequencyBaseline.from_bundles(bundles)
        codes = [scored.error_code for scored in baseline.ranked_codes("P1")]
        assert codes == ["E1", "E9"]

    def test_scores_are_shares(self):
        bundles = [bundle("R1", "P1", "E1"), bundle("R2", "P1", "E1"),
                   bundle("R3", "P1", "E2")]
        baseline = CodeFrequencyBaseline.from_bundles(bundles)
        ranked = baseline.ranked_codes("P1")
        assert ranked[0].score == 2 / 3

    def test_unknown_part_empty(self):
        baseline = CodeFrequencyBaseline.from_bundles([])
        assert baseline.ranked_codes("P9") == []

    def test_unlabeled_bundles_skipped(self):
        baseline = CodeFrequencyBaseline.from_bundles(
            [bundle("R1", "P1", None)])
        assert baseline.ranked_codes("P1") == []

    def test_from_knowledge_base(self):
        kb = KnowledgeBase(feature_kind="words")
        kb.add_observation("P1", "E1", {"a"})
        kb.add_observation("P1", "E1", {"a"})  # merged, support 2
        kb.add_observation("P1", "E2", {"b"})
        baseline = CodeFrequencyBaseline.from_knowledge_base(kb)
        codes = [scored.error_code for scored in baseline.ranked_codes("P1")]
        assert codes == ["E1", "E2"]

    def test_classify_bundle_ignores_text(self):
        bundles = [bundle("R1", "P1", "E1"), bundle("R2", "P1", "E1")]
        baseline = CodeFrequencyBaseline.from_bundles(bundles)
        recommendation = baseline.classify_bundle(
            bundle("X", "P1", None, text="completely unrelated"))
        assert recommendation.codes[0].error_code == "E1"


class TestCandidateSetBaseline:
    def make_kb(self):
        kb = KnowledgeBase(feature_kind="words")
        kb.add_observation("P1", "E1", {"fan", "scorched"})
        kb.add_observation("P1", "E2", {"fan", "rattle"})
        kb.add_observation("P1", "E3", {"door"})
        return kb

    def test_candidate_codes_unscored(self):
        baseline = CandidateSetBaseline(self.make_kb(), BagOfWordsExtractor())
        recommendation = baseline.classify_bundle(
            bundle("X", "P1", None, text="fan broken"))
        codes = {scored.error_code for scored in recommendation.codes}
        assert codes == {"E1", "E2"}
        # no similarity: a score only encodes the storage position
        scores = [scored.score for scored in recommendation.codes]
        assert scores == sorted(scores, reverse=True)
        assert len(set(scores)) == len(scores)

    def test_no_shared_feature_no_candidates(self):
        baseline = CandidateSetBaseline(self.make_kb(), BagOfWordsExtractor())
        recommendation = baseline.classify_bundle(
            bundle("X", "P1", None, text="unrelated words"))
        assert recommendation.codes == []

    def test_ranks_follow_storage_order_not_the_alphabet(self):
        """Storage order here is Z9, B5, M1 (support ascending, then
        insertion): the ranks must follow it, not the codes' sort order."""
        kb = KnowledgeBase(feature_kind="words")
        kb.add_observation("P1", "Z9", {"fan"})
        kb.add_observation("P1", "M1", {"fan", "noise"})
        kb.add_observation("P1", "M1", {"fan", "noise"})
        kb.add_observation("P1", "B5", {"fan", "hum"})
        baseline = CandidateSetBaseline(kb, BagOfWordsExtractor())
        recommendation = baseline.classify_bundle(
            bundle("X", "P1", None, "fan"))
        order = [scored.error_code for scored in recommendation.codes]
        assert order == ["Z9", "B5", "M1"]
        assert [recommendation.rank_of(code) for code in order] == [1, 2, 3]
        assert recommendation.hit_at("Z9", 1)
        assert not recommendation.hit_at("B5", 1)

    def test_order_is_storage_order(self):
        kb = self.make_kb()
        baseline = CandidateSetBaseline(kb, BagOfWordsExtractor())
        first = baseline.classify_bundle(bundle("X", "P1", None, "fan"))
        second = baseline.classify_bundle(bundle("X", "P1", None, "fan"))
        assert ([scored.error_code for scored in first.codes]
                == [scored.error_code for scored in second.codes])

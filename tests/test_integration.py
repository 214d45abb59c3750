"""Cross-module integration tests: the full system survives a restart.

These tests exercise the seams between packages: pipeline training →
relational persistence → reload in a "new session" → identical
classification behaviour → QUEST service on top of the restored state.
"""

import pytest

from repro.classify import RankedKnnClassifier
from repro.core import QATK, QatkConfig
from repro.data import GeneratorConfig, generate_corpus, plan_corpus
from repro.evaluate import build_extractor, experiment_subset
from repro.knowledge import KnowledgeBase
from repro.relstore import Database, col, load_database, save_database

SMALL = {
    "bundles": 600, "part_ids": 5, "article_codes": 40,
    "distinct_codes": 90, "singleton_codes": 30,
    "max_codes_per_part": 30, "parts_over_10_codes": 4,
}


@pytest.fixture(scope="module")
def world(taxonomy):
    plan = plan_corpus(taxonomy, seed=77, parameters=SMALL)
    corpus = generate_corpus(taxonomy=taxonomy, plan=plan,
                             config=GeneratorConfig(seed=77))
    bundles = experiment_subset(corpus.bundles)
    return corpus, bundles[:-20], bundles[-20:]


class TestRestartCycle:
    def test_knowledge_base_survives_restart(self, taxonomy, world, tmp_path):
        corpus, train, test = world
        # session 1: train and persist
        qatk = QATK(taxonomy, QatkConfig(feature_mode="words"),
                    database=Database("session1"))
        qatk.train(train)
        expected = [qatk.classify(bundle.without_label()).codes[0].error_code
                    for bundle in test]
        save_database(qatk.database, tmp_path / "store")

        # session 2: reload and classify identically
        restored_db = load_database(tmp_path / "store")
        extractor = build_extractor("words")
        knowledge_base = KnowledgeBase(feature_kind="words",
                                       database=restored_db)
        classifier = RankedKnnClassifier(knowledge_base, extractor, "jaccard")
        actual = [classifier.classify_bundle(bundle.without_label())
                  .codes[0].error_code for bundle in test]
        assert actual == expected

    def test_service_state_survives_restart(self, taxonomy, world, tmp_path):
        from repro.quest import Role, User, UserStore
        corpus, train, test = world
        qatk = QATK(taxonomy, QatkConfig(feature_mode="words"),
                    database=Database("session1"))
        qatk.train(train)
        service = qatk.make_service()
        service.register_bundles([bundle.without_label()
                                  for bundle in test[:5]])
        users = UserStore(qatk.database)
        users.add(User("expert", Role.EXPERT))
        view = service.suggest(test[0].ref_no)
        service.assign_code(users.get("expert"), test[0].ref_no,
                            view.top10[0])
        save_database(qatk.database, tmp_path / "plant")

        restored = load_database(tmp_path / "plant")
        assert restored.table("assignments").count() == 1
        assert restored.table("recommendations").count() > 0
        restored_users = UserStore(restored)
        assert restored_users.get("expert").role is Role.EXPERT

    def test_recommendations_match_across_feature_stores(self, taxonomy,
                                                         world):
        """Training via the pipeline and via KnowledgeBase.from_bundles must
        produce the same knowledge (two build paths, one semantics)."""
        corpus, train, test = world
        qatk = QATK(taxonomy, QatkConfig(feature_mode="concepts"))
        qatk.train(train)
        extractor = build_extractor("concepts", taxonomy,
                                    annotator=qatk.annotator)
        direct = KnowledgeBase.from_bundles(train, extractor)
        assert len(direct) == len(qatk.knowledge_base)
        direct_classifier = RankedKnnClassifier(direct, extractor, "jaccard")
        for bundle in test[:10]:
            via_pipeline = qatk.classify(bundle.without_label())
            via_direct = direct_classifier.classify_bundle(
                bundle.without_label())
            assert ([c.error_code for c in via_pipeline.codes]
                    == [c.error_code for c in via_direct.codes])


class TestQueriesOverSystemTables:
    def test_queries_against_knowledge_tables(self, taxonomy, world):
        corpus, train, _ = world
        qatk = QATK(taxonomy, QatkConfig(feature_mode="concepts"))
        qatk.train(train)
        nodes = qatk.database.table("knowledge_nodes")
        assert nodes.count() == len(qatk.knowledge_base)
        rows = nodes.select(col("support") > 1, columns=["part_id"], limit=5)
        assert all(row["part_id"].startswith("P") for row in rows)

"""The gateway against a knowledge base in the service's own database.

Knowledge-base writes then ride the gateway's write transaction: a
committed write publishes one new immutable view, a rolled-back one
publishes nothing, and classification reads the published view without
a lock while a writer commits.
"""

import sys
import threading

import pytest

from repro.classify import RankedKnnClassifier
from repro.core import QATK, QatkConfig
from repro.knowledge import extract_test_features
from repro.relstore import Database
from repro.serve import GatewayConfig, ServeGateway


class StorePath:
    """The relstore reference path: Fig. 5 candidates straight from the
    committed table, part membership from its part index."""

    def __init__(self, knowledge_base):
        self.knowledge_base = knowledge_base

    def candidates(self, part_id, features):
        return self.knowledge_base.candidates_from_store(part_id, features)

    def has_part(self, part_id):
        return part_id in self.knowledge_base.part_ids()


def ranking(recommendation):
    return (tuple((code.error_code, code.score, code.support)
                  for code in recommendation.codes),
            recommendation.pool_size, recommendation.winner_nodes,
            recommendation.part_known)


@pytest.fixture
def shared_db_gateway(taxonomy, small_corpus):
    """A gateway whose service and knowledge base share one database."""
    from repro.evaluate import experiment_subset
    database = Database("kb-and-service")
    qatk = QATK(taxonomy, QatkConfig(feature_mode="concepts"),
                database=database)
    bundles = experiment_subset(small_corpus.bundles)
    split = int(len(bundles) * 0.8)
    qatk.train(bundles[:split])
    service = qatk.make_service()
    held_out = bundles[split:split + 24]
    service.register_bundles([bundle.without_label()
                              for bundle in held_out])
    gateway = ServeGateway(service, GatewayConfig(workers=1,
                                                  drain_grace=2.0))
    yield gateway, qatk, held_out
    gateway.stop(grace=2.0)


def test_rolled_back_write_leaves_the_published_view(shared_db_gateway,
                                                     power_user):
    gateway, qatk, held_out = shared_db_gateway
    knowledge_base = qatk.knowledge_base
    assert knowledge_base.database is gateway.service.database
    published = knowledge_base.view
    version = gateway.registry.version
    original = knowledge_base.add_observation

    def add_then_fail(*args, **kwargs):
        original(*args, **kwargs)
        raise RuntimeError("injected fault after the knowledge write")

    knowledge_base.add_observation = add_then_fail
    bundle = held_out[0]
    with pytest.raises(RuntimeError, match="injected fault"):
        gateway.assign(power_user, bundle.ref_no, bundle.error_code)
    del knowledge_base.add_observation

    assert knowledge_base.view is published
    assert gateway.registry.version == version
    features = extract_test_features(qatk.extractor, bundle)
    for part_id in (bundle.part_id, "P-UNKNOWN"):
        assert (knowledge_base.candidates(part_id, features)
                == knowledge_base.candidates_from_store(part_id, features))

    # the next committed write publishes exactly the committed rows
    gateway.assign(power_user, bundle.ref_no, bundle.error_code)
    assert knowledge_base.view is not published
    assert knowledge_base.export_rows() == committed_rows(knowledge_base)


def committed_rows(knowledge_base):
    """The knowledge table's committed rows in export form."""
    table = knowledge_base.database.table("knowledge_nodes")
    return [(row_id, row["part_id"], row["error_code"],
             tuple(row["features"]), row["support"])
            for row_id, row in ((row_id, table.get(row_id))
                                for row_id in sorted(table.row_ids()))]


def test_readers_only_see_committed_states(shared_db_gateway, power_user):
    """Readers rank a fixed set of bundles, without any lock, while a
    writer commits assignments; every ranked list equals the relstore
    reference for one of the committed states."""
    gateway, qatk, held_out = shared_db_gateway
    knowledge_base = qatk.knowledge_base
    reference = RankedKnnClassifier(StorePath(knowledge_base), qatk.extractor,
                                    qatk.classifier.similarity,
                                    qatk.classifier.node_cutoff)
    # the written bundles themselves are the probes most writes move
    probes = [(bundle.part_id, extract_test_features(qatk.extractor, bundle))
              for bundle in held_out[8:]]
    # each bundle is assigned a code, then re-assigned another: the
    # re-assignment retracts the first observation and adds the second
    writes = [(bundle.ref_no, code) for bundle in held_out[8:]
              for code in gateway.service.full_code_list(bundle.part_id)[:2]]

    def committed_rankings():
        return [ranking(reference.rank_codes(part_id, features))
                for part_id, features in probes]

    allowed = [set() for _ in probes]
    seen = [set() for _ in probes]
    done = threading.Event()
    failures = []

    def record_state():
        for allowed_set, ranked in zip(allowed, committed_rankings()):
            allowed_set.add(ranked)

    def reader():
        try:
            while not done.is_set():
                classifier = gateway.registry.current().classifier
                for index, (part_id, features) in enumerate(probes):
                    seen[index].add(ranking(
                        classifier.rank_codes(part_id, features)))
        except Exception as exc:  # surfaced by the main thread
            failures.append(exc)

    record_state()
    readers = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-publish, often
    try:
        for thread in readers:
            thread.start()
        for ref_no, code in writes:
            gateway.assign(power_user, ref_no, code)
            record_state()
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not failures
    assert any(len(options) > 1 for options in allowed)  # writes mattered
    for index, observed in enumerate(seen):
        assert observed <= allowed[index]

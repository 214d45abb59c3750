"""Gateway integration: equivalence, batching, deadlines, writes, drain."""

import threading
import time

import pytest

from repro.quest import QuestError
from repro.relstore import col
from repro.serve import (DeadlineExceededError, GatewayConfig,
                         GatewayStoppedError, QueueFullError, ServeGateway,
                         SuggestRequest)
from repro.quest.errors import UnknownBundleError


class TestSuggestEquivalence:
    def test_matches_bare_service(self, gateway):
        gw, quest, held_out = gateway
        for bundle in held_out[:5]:
            via_gateway = gw.suggest(bundle.ref_no)
            direct = quest.suggest(bundle.ref_no, persist=False)
            assert via_gateway.suggestions.codes == direct.suggestions.codes
            assert via_gateway.all_codes == direct.all_codes
            assert via_gateway.degraded is None

    def test_unknown_bundle_propagates(self, gateway):
        gw, _, _ = gateway
        with pytest.raises(UnknownBundleError):
            gw.suggest("R-does-not-exist")

    def test_persists_recommendation_once(self, gateway):
        gw, quest, held_out = gateway
        ref = held_out[0].ref_no
        first = gw.suggest(ref)
        stored = quest.stored_suggestion(ref)
        assert stored is not None
        assert stored.codes == first.suggestions.codes
        # repeat requests under the same model version reuse the stored row
        gw.suggest(ref)
        rows = quest.database.table("recommendations").select(
            col("ref_no") == ref)
        assert len(rows) == len(first.suggestions.codes)

    def test_repeat_requests_skip_classification(self, gateway):
        """Within one model version, a ref is classified once; repeats are
        served from the version-keyed result memo."""
        gw, _, held_out = gateway
        calls = []
        original = gw._classify_one

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        gw._classify_one = counting
        ref = held_out[0].ref_no
        first = gw.suggest(ref)
        second = gw.suggest(ref)
        assert len(calls) == 1
        assert second.suggestions.codes == first.suggestions.codes
        assert gw.stats_snapshot()["memo_hits"] == 1

    def test_write_invalidates_result_memo(self, gateway, power_user):
        """Any write bumps the snapshot version, so the next request is
        re-classified against the updated store."""
        gw, _, held_out = gateway
        calls = []
        original = gw._classify_one

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        gw._classify_one = counting
        ref = held_out[0].ref_no
        view = gw.suggest(ref)
        gw.assign(power_user, ref, view.top10[0])
        gw.suggest(ref)
        assert len(calls) == 2

    def test_batch_coalesces_concurrent_requests(self, gateway):
        gw, _, held_out = gateway
        refs = [bundle.ref_no for bundle in held_out[:8]]
        results: dict[int, object] = {}

        def client(slot):
            results[slot] = gw.suggest(refs[slot % len(refs)])

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 16
        snap = gw.stats_snapshot()
        assert snap["completed"] >= 16
        # coalescing happened: fewer batches than requests
        assert snap["batches"] < snap["batched_requests"]


class TestDeadlines:
    def test_immediate_timeout_raises_and_counts(self, gateway):
        gw, _, held_out = gateway
        with pytest.raises(DeadlineExceededError):
            gw.suggest(held_out[0].ref_no, timeout=0.0)
        assert gw.stats_snapshot()["deadline_exceeded"] >= 1

    def test_gateway_survives_timeouts(self, gateway):
        gw, _, held_out = gateway
        try:
            gw.suggest(held_out[0].ref_no, timeout=0.0)
        except DeadlineExceededError:
            pass
        view = gw.suggest(held_out[1].ref_no, timeout=10.0)
        assert view.suggestions.codes


class TestAdmission:
    def test_full_queue_sheds_excess_load(self, service):
        """With the single worker blocked, a bounded queue sheds the
        overflow as QueueFullError instead of queueing without bound."""
        quest, held_out = service
        gw = ServeGateway(quest, GatewayConfig(
            workers=1, max_queue=2, max_batch_size=1, max_wait_ms=0.0,
            default_timeout=5.0, drain_grace=5.0))
        unblock = threading.Event()
        original = gw._classify_one

        def blocked_classify(*args, **kwargs):
            unblock.wait(timeout=10)
            return original(*args, **kwargs)

        gw._classify_one = blocked_classify
        outcomes: list[str] = []

        def client(slot):
            try:
                gw.suggest(held_out[slot % len(held_out)].ref_no, timeout=10)
                outcomes.append("served")
            except QueueFullError:
                outcomes.append("shed")

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(8)]
        try:
            for thread in threads:
                thread.start()
        finally:
            time.sleep(0.2)  # let the queue fill against the blocked worker
            unblock.set()
            for thread in threads:
                thread.join()
            gw.stop(grace=5.0)
        assert "shed" in outcomes           # overload was rejected...
        assert "served" in outcomes         # ...while admitted work finished
        assert gw.stats_snapshot()["rejected"] == outcomes.count("shed")


class TestBatcherResilience:
    def test_batcher_thread_survives_process_batch_crash(self, gateway):
        """Regression: an unexpected exception escaping _process_batch
        used to kill the batcher thread permanently (callers of that
        batch hung until timeout); now the batch's requests are rejected
        with the error and the thread keeps serving."""
        gw, _, held_out = gateway
        original = gw.registry.current
        armed = threading.Event()
        armed.set()

        def exploding():
            if armed.is_set():
                armed.clear()
                raise RuntimeError("injected batch fault")
            return original()

        gw.registry.current = exploding
        try:
            with pytest.raises(RuntimeError):
                gw.suggest(held_out[0].ref_no, timeout=5.0)
        finally:
            gw.registry.current = original
        view = gw.suggest(held_out[1].ref_no, timeout=10.0)
        assert view.suggestions.codes
        snap = gw.stats_snapshot()
        assert snap["batch_failures"] >= 1
        assert snap["failed"] >= 1


def _request(ref):
    return SuggestRequest(ref_no=ref)


class TestWritePath:
    def test_assign_bumps_model_version(self, gateway, power_user):
        gw, quest, held_out = gateway
        ref = held_out[0].ref_no
        view = gw.suggest(ref)
        before = gw.registry.version
        gw.assign(power_user, ref, view.top10[0])
        assert gw.registry.version == before + 1
        assert quest.bundle(ref).error_code == view.top10[0]

    def test_assign_validation_still_applies(self, gateway, power_user):
        gw, _, held_out = gateway
        with pytest.raises(QuestError):
            gw.assign(power_user, held_out[0].ref_no, "BOGUS-CODE")

    def test_define_code_appears_in_code_lists(self, gateway, power_user):
        gw, _, held_out = gateway
        bundle = held_out[0]
        gw.define_error_code(power_user, "EX999", bundle.part_id, "custom")
        view = gw.suggest(bundle.ref_no)
        assert "EX999" in view.all_codes

    def test_concurrent_assigns_stay_consistent(self, gateway, power_user):
        """Satellite regression: parallel assigns through the gateway's
        write lock leave row counts and every index consistent."""
        gw, quest, held_out = gateway
        refs = [bundle.ref_no for bundle in held_out[:10]]
        views = {ref: gw.suggest(ref) for ref in refs}
        rounds = 3
        errors: list[Exception] = []

        def assigner(ref):
            try:
                for number in range(rounds):
                    codes = views[ref].top10 or views[ref].all_codes
                    gw.assign(power_user, ref, codes[number % len(codes)])
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=assigner, args=(ref,))
                   for ref in refs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # every acknowledged assignment landed exactly once
        assignments = quest.database.table("assignments")
        assert assignments.count() == len(refs) * rounds
        for ref in refs:
            history = quest.assignment_history(ref)
            assert len(history) == rounds
        sequences = [row["sequence"] for row in assignments.scan()]
        assert len(set(sequences)) == len(sequences)
        # the write lock kept every index in every table consistent
        assert quest.database.check_consistency() == []
        assert gw.service.classifier.knowledge_base.database \
                 .check_consistency() == []


class TestDrain:
    def test_stop_reports_clean_drain(self, service):
        quest, held_out = service
        gw = ServeGateway(quest, GatewayConfig(workers=2, drain_grace=2.0))
        gw.suggest(held_out[0].ref_no)
        report = gw.stop()
        assert report.clean
        assert report.cancelled == 0
        assert "clean" in report.summary()

    def test_stop_rejects_queued_work_with_typed_error(self, service):
        quest, held_out = service
        gw = ServeGateway(quest, GatewayConfig(
            workers=1, max_queue=8, max_batch_size=1, drain_grace=0.0))
        # queue work without any worker to serve it
        requests = [_request(bundle.ref_no) for bundle in held_out[:3]]
        for request in requests:
            gw._queue.put(request)
        report = gw.stop(grace=0.0)
        assert report.cancelled == 3
        assert not report.clean
        for request in requests:
            with pytest.raises(GatewayStoppedError):
                request.wait(timeout=1)

    def test_stopped_gateway_refuses_new_work(self, service):
        quest, held_out = service
        gw = ServeGateway(quest, GatewayConfig(workers=1, drain_grace=0.5))
        gw.stop(grace=0.0)
        with pytest.raises(GatewayStoppedError):
            gw.suggest(held_out[0].ref_no)

    def test_stop_is_idempotent(self, service):
        quest, _ = service
        gw = ServeGateway(quest, GatewayConfig(workers=1, drain_grace=0.5))
        gw.start()
        first = gw.stop(grace=0.5)
        second = gw.stop(grace=0.5)
        assert first.clean and second.clean
        assert second.drained == 0


class TestModelSwap:
    def test_swap_changes_served_models(self, gateway):
        gw, quest, held_out = gateway
        bundle = held_out[0]
        baseline_view = gw.suggest(bundle.ref_no)
        assert baseline_view.all_codes

        class EmptyBaseline:
            def ranked_codes(self, part_id):
                return []

            def classify_bundle(self, bundle):  # pragma: no cover
                raise RuntimeError("unused")

        gw.swap_models(frequency_baseline=EmptyBaseline())
        swapped_view = gw.suggest(bundle.ref_no)
        # the frequency-ranked prefix of the code list came from the new
        # snapshot (only custom codes, if any, remain)
        assert swapped_view.all_codes != baseline_view.all_codes

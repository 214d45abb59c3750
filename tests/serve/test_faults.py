"""Tier-2 fault injection for the serving gateway (``make test-faults``).

Seeded scenarios over the same 5-seed setup as the storage/pipeline fault
suites: a slow worker drives the deadline-exceeded path, a flaky worker
drives retry-then-degraded, a full queue drives 503 load shedding, and a
mixed read/write storm proves zero lost acknowledged assignments and zero
unhandled worker exceptions under all three faults at once.
"""

import random
import threading
import time

import pytest

from repro.serve import (DeadlineExceededError, GatewayConfig,
                         QueueFullError, ServeGateway)
from repro.serve.errors import ServeError
from repro.quest.errors import QuestError
from repro.testing.faults import FaultPlan

pytestmark = pytest.mark.faults


def make_gateway(quest, **overrides) -> ServeGateway:
    options = dict(workers=2, max_queue=16, max_batch_size=4,
                   max_wait_ms=1.0, default_timeout=5.0, drain_grace=2.0)
    options.update(overrides)
    return ServeGateway(quest, GatewayConfig(**options))


@pytest.mark.parametrize("seed", range(5))
def test_slow_worker_hits_deadline_path(service, seed):
    """A straggling worker turns into DeadlineExceededError for the
    caller — and the gateway keeps serving afterwards."""
    quest, held_out = service
    plan = FaultPlan(seed)
    gw = make_gateway(quest, workers=1, default_timeout=0.05)
    gw._classify_one = plan.slow(gw._classify_one, seconds=0.3)
    try:
        ref = held_out[seed % len(held_out)].ref_no
        with pytest.raises(DeadlineExceededError):
            gw.suggest(ref)
        assert gw.stats_snapshot()["deadline_exceeded"] >= 1
        # remove the fault: the pool is healthy again
        del gw.__dict__["_classify_one"]
        view = gw.suggest(ref, timeout=10.0)
        assert view.suggestions.codes
    finally:
        report = gw.stop()
    assert report.cancelled == 0


@pytest.mark.parametrize("seed", range(5))
def test_flaky_worker_retries_then_serves(service, seed):
    """One transient classify fault is absorbed by the in-worker retry:
    the caller sees a healthy (non-degraded) answer."""
    quest, held_out = service
    plan = FaultPlan(seed)
    gw = make_gateway(quest, workers=1)
    gw._classify_one = plan.flaky(gw._classify_one, fail_times=1)
    try:
        view = gw.suggest(held_out[seed % len(held_out)].ref_no)
        assert view.degraded is None
        snap = gw.stats_snapshot()
        assert snap["retried"] == 1
        assert snap["degraded"] == 0
    finally:
        gw.stop()


@pytest.mark.parametrize("seed", range(5))
def test_persistently_flaky_worker_degrades(service, seed):
    """When the retry fails too, the request falls into PR 2's degraded
    chain instead of erroring out."""
    quest, held_out = service
    plan = FaultPlan(seed)
    gw = make_gateway(quest, workers=1)
    gw._classify_one = plan.flaky(gw._classify_one, fail_times=2)
    try:
        view = gw.suggest(held_out[seed % len(held_out)].ref_no)
        assert view.degraded in ("stored", "fallback", "frequency")
        assert view.suggestions.codes
        snap = gw.stats_snapshot()
        assert snap["degraded"] == 1
        # a degraded answer is never persisted as a healthy recommendation
        assert quest.stored_suggestion(view.bundle.ref_no) is None \
            or view.degraded == "stored"
    finally:
        gw.stop()


@pytest.mark.parametrize("seed", range(5))
def test_full_queue_sheds_as_typed_503(service, seed):
    """Against a blocked worker the bounded queue sheds load with
    QueueFullError — and nothing admitted is lost."""
    quest, held_out = service
    rng = random.Random(seed)
    gw = make_gateway(quest, workers=1, max_queue=2, max_batch_size=1,
                      max_wait_ms=0.0, default_timeout=10.0)
    unblock = threading.Event()
    original = gw._classify_one

    def blocked(*args, **kwargs):
        unblock.wait(timeout=10)
        return original(*args, **kwargs)

    gw._classify_one = blocked
    served: list[str] = []
    shed: list[str] = []
    unexpected: list[Exception] = []

    def client(ref):
        try:
            gw.suggest(ref, timeout=10)
            served.append(ref)
        except QueueFullError:
            shed.append(ref)
        except Exception as exc:  # pragma: no cover - the assertion
            unexpected.append(exc)

    refs = [held_out[rng.randrange(len(held_out))].ref_no for _ in range(8)]
    threads = [threading.Thread(target=client, args=(ref,)) for ref in refs]
    try:
        for thread in threads:
            thread.start()
        time.sleep(0.2)
        unblock.set()
        for thread in threads:
            thread.join()
    finally:
        report = gw.stop()
    assert not unexpected
    assert shed, "admission control never triggered"
    assert served, "no admitted request completed"
    assert len(served) + len(shed) == len(refs)
    assert report.cancelled == 0


@pytest.mark.parametrize("seed", range(5))
def test_no_lost_acknowledged_assignments_under_faults(service, power_user,
                                                       seed):
    """The acceptance bar: a read storm under slow/flaky classification
    plus queue pressure, concurrent with writers — every *acknowledged*
    assignment is durably recorded, indexes stay consistent, and no
    unhandled exception escapes a worker."""
    quest, held_out = service
    plan = FaultPlan(seed)
    rng = random.Random(seed * 7919 + 13)
    gw = make_gateway(quest, workers=2, max_queue=4, max_batch_size=2,
                      max_wait_ms=0.5, default_timeout=0.5)
    # the 3rd and 11th classifications fail transiently; all are slowed
    gw._classify_one = plan.raise_on_nth(
        plan.raise_on_nth(plan.slow(gw._classify_one, seconds=0.002), n=11),
        n=3)
    refs = [bundle.ref_no for bundle in held_out[:10]]
    code_lists = {ref: quest.suggest(ref, persist=False).all_codes
                  for ref in refs}
    acknowledged: list[tuple[str, str]] = []
    acknowledged_lock = threading.Lock()
    unexpected: list[Exception] = []

    def reader(slot):
        for _ in range(10):
            try:
                gw.suggest(refs[rng.randrange(len(refs))])
            except (ServeError, QuestError):
                pass  # typed degradation is the contract under load
            except Exception as exc:  # pragma: no cover - the assertion
                unexpected.append(exc)

    def writer(slot):
        ref = refs[slot]
        codes = code_lists[ref]
        for number in range(5):
            code = codes[(slot + number) % len(codes)]
            try:
                gw.assign(power_user, ref, code)
            except (ServeError, QuestError):
                continue  # not acknowledged; allowed to be absent
            except Exception as exc:  # pragma: no cover - the assertion
                unexpected.append(exc)
                continue
            with acknowledged_lock:
                acknowledged.append((ref, code))

    threads = ([threading.Thread(target=reader, args=(slot,))
                for slot in range(4)]
               + [threading.Thread(target=writer, args=(slot,))
                  for slot in range(4)])
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        report = gw.stop()
    assert not unexpected, f"unhandled exceptions: {unexpected!r}"
    # zero lost acknowledged assignments: every ack is a durable row
    history = {}
    for ref, _ in acknowledged:
        history.setdefault(ref, [row["error_code"]
                                 for row in quest.assignment_history(ref)])
    recorded_counts: dict[tuple[str, str], int] = {}
    for ref, codes in history.items():
        for code in codes:
            recorded_counts[(ref, code)] = recorded_counts.get(
                (ref, code), 0) + 1
    acknowledged_counts: dict[tuple[str, str], int] = {}
    for key in acknowledged:
        acknowledged_counts[key] = acknowledged_counts.get(key, 0) + 1
    for key, count in acknowledged_counts.items():
        assert recorded_counts.get(key, 0) >= count, (
            f"acknowledged assignment {key} lost "
            f"(recorded {recorded_counts.get(key, 0)} < acked {count})")
    total_rows = quest.database.table("assignments").count()
    assert total_rows >= len(acknowledged)
    # and the stores' indexes survived the storm
    assert quest.database.check_consistency() == []
    assert gw.service.classifier.knowledge_base.database \
             .check_consistency() == []
    # drain never silently dropped queued work
    assert report.drained >= 0 and report.grace_seconds > 0


@pytest.mark.parametrize("seed", range(5))
def test_fault_free_control(service, seed):
    """Control arm: without injected faults the same storm serves
    everything healthily (guards against the faults masking real bugs)."""
    quest, held_out = service
    rng = random.Random(seed)
    gw = make_gateway(quest)
    errors: list[Exception] = []

    def client(slot):
        for _ in range(5):
            try:
                view = gw.suggest(
                    held_out[rng.randrange(len(held_out))].ref_no)
                assert view.degraded is None
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

    threads = [threading.Thread(target=client, args=(slot,))
               for slot in range(4)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        report = gw.stop()
    assert not errors
    assert report.clean
    assert gw.stats_snapshot()["degraded"] == 0

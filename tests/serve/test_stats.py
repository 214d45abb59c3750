"""ServeStats counters, latency window and percentiles."""

import math
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.serve import ServeStats, percentile
from repro.serve.stats import COUNTERS


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_nearest_rank(self):
        values = [float(value) for value in range(1, 11)]  # 1..10
        assert percentile(values, 0.50) == 5.0
        assert percentile(values, 0.95) == 10.0
        assert percentile(values, 0.99) == 10.0
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 10.0

    def test_rank_is_an_exact_ceiling(self):
        # round() halves to even, so these two used to return 2
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
        assert percentile([float(value) for value in range(1, 11)],
                          0.25) == 3.0
        # 0.28 * 25 == 7.000000000000001 in floats; the rank is 7, not 8
        assert percentile([float(value) for value in range(1, 26)],
                          0.28) == 7.0

    @given(values=st.lists(st.integers(-1000, 1000), min_size=1,
                           max_size=60),
           per_mille=st.integers(0, 1000))
    def test_matches_exact_nearest_rank(self, values, per_mille):
        exact = Fraction(per_mille, 1000)
        rank = max(1, math.ceil(exact * len(values)))
        assert percentile(values, per_mille / 1000) == sorted(values)[rank - 1]

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestServeStats:
    def test_counters_and_snapshot(self):
        stats = ServeStats()
        stats.count("submitted", 3)
        stats.count("completed", 2)
        stats.count("batches")
        stats.count("batched_requests", 2)
        snap = stats.snapshot()
        assert snap["submitted"] == 3
        assert snap["completed"] == 2
        assert snap["mean_batch_size"] == 2.0

    def test_snapshot_keys_are_the_counters_plus_derived(self):
        assert set(ServeStats().snapshot()) == set(COUNTERS) | {
            "mean_batch_size", "p50_ms", "p95_ms", "p99_ms"}

    def test_unknown_counter_raises(self):
        with pytest.raises(AttributeError):
            ServeStats().count("no_such_counter")

    def test_latency_percentiles_in_ms(self):
        stats = ServeStats()
        for value in (0.001, 0.002, 0.003, 0.004):
            stats.record_latency(value)
        snap = stats.snapshot()
        assert snap["p50_ms"] == pytest.approx(2.0)
        assert snap["p99_ms"] == pytest.approx(4.0)
        assert stats.latency_ms(0.5) == pytest.approx(2.0)

    def test_window_keeps_recent(self):
        stats = ServeStats(window=4)
        for value in (1.0, 1.0, 1.0, 1.0, 0.002, 0.002, 0.002, 0.002):
            stats.record_latency(value)
        # the four 1-second outliers fell out of the window
        assert stats.snapshot()["p99_ms"] == pytest.approx(2.0)

    def test_thread_safety_of_counters(self):
        stats = ServeStats()

        def bump():
            for _ in range(1000):
                stats.count("submitted")
                stats.record_latency(0.001)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.snapshot()["submitted"] == 8000

    def test_completion_and_latency_are_atomic_under_hammer(self):
        """Concurrent readers must never observe a completion without its
        latency.  With a separate ``count("completed")`` +
        ``record_latency`` pair a reader can land between the two lock
        holds and see ``completed > 0`` with an empty window (p50 of 0) —
        :meth:`ServeStats.record_completion` closes that gap."""
        stats = ServeStats()
        stop = threading.Event()
        torn: list[dict] = []
        counted = [0, 0, 0]  # per-thread slots: completer x2, failer

        def completer(slot):
            while not stop.is_set():
                stats.record_completion(0.002)
                counted[slot] += 1

        def failer():
            while not stop.is_set():
                stats.count("failed")
                counted[2] += 1

        def reader():
            while not stop.is_set():
                snap = stats.snapshot()
                if snap["completed"] > 0 and snap["p50_ms"] == 0.0:
                    torn.append(snap)
                total = stats.resolved_total()
                assert total >= 0

        threads = ([threading.Thread(target=completer, args=(slot,))
                    for slot in range(2)]
                   + [threading.Thread(target=failer)]
                   + [threading.Thread(target=reader) for _ in range(3)])
        for thread in threads:
            thread.start()
        time.sleep(0.4)
        stop.set()
        for thread in threads:
            thread.join()
        assert not torn, f"torn read observed: {torn[0]}"
        final = stats.snapshot()
        assert final["completed"] == counted[0] + counted[1]
        assert final["failed"] == counted[2]
        assert stats.resolved_total() == sum(counted)

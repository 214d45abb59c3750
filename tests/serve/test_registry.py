"""ModelRegistry snapshot swaps and bumps."""

import threading

import pytest

from repro.serve import ModelRegistry, ModelSnapshot


def snapshot(version=1, classifier="clf", baseline="freq", fallback=None):
    return ModelSnapshot(version=version, classifier=classifier,
                         frequency_baseline=baseline,
                         fallback_classifier=fallback)


class TestModelRegistry:
    def test_swap_is_versioned_and_carries_over(self):
        registry = ModelRegistry(snapshot())
        published = registry.swap(classifier="clf2")
        assert published.version == 2
        assert published.classifier == "clf2"
        assert published.frequency_baseline == "freq"  # carried over
        assert registry.current() is published

    def test_bump_reversions_same_models(self):
        registry = ModelRegistry(snapshot())
        before = registry.current()
        bumped = registry.bump()
        assert bumped.version == before.version + 1
        assert bumped.classifier is before.classifier

    def test_snapshot_is_immutable(self):
        snap = snapshot()
        with pytest.raises(Exception):
            snap.version = 99

    def test_swap_can_clear_fallback_to_none(self):
        """Regression: swap(fallback_classifier=None) must *remove* the
        fallback, not silently carry the old one over (the old code used
        ``is not None`` as the carry-over test, making None unsettable)."""
        registry = ModelRegistry(snapshot(fallback="bow"))
        published = registry.swap(fallback_classifier=None)
        assert published.fallback_classifier is None
        # and omitting the argument still carries the current one over
        registry = ModelRegistry(snapshot(fallback="bow"))
        published = registry.swap(classifier="clf2")
        assert published.fallback_classifier == "bow"

    def test_readers_never_see_a_torn_snapshot(self):
        """Concurrent swaps: every observed snapshot is internally
        consistent (version matches the models published with it)."""
        registry = ModelRegistry(snapshot(classifier=("clf", 1)))
        seen_torn = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                snap = registry.current()
                if snap.classifier[1] != snap.version:
                    seen_torn.append(snap)

        def writer():
            for _ in range(200):
                version = registry.version + 1
                registry.swap(classifier=("clf", version))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        writer()
        stop.set()
        for thread in threads:
            thread.join()
        assert not seen_torn

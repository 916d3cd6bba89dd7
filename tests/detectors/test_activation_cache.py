"""Tests for the clean-scene activation cache store.

The store is content-keyed (detector identity + image digest), so a new
scene can never hit a stale entry — the cache-invalidation guarantee the
experiment runner's per-scene lifecycle relies on.
"""

import numpy as np
import pytest

from repro.detectors.activation_cache import (
    ActivationCacheStore,
    CacheStats,
    CleanActivations,
)
from repro.digest import content_digest


def _scene(seed, shape=(64, 208, 3)):
    return np.random.default_rng(seed).uniform(0, 255, size=shape).round()


class TestImageDigest:
    def test_content_keyed(self):
        image = _scene(0)
        assert content_digest(image) == content_digest(image.copy())
        changed = image.copy()
        changed[3, 4, 1] += 1.0
        assert content_digest(image) != content_digest(changed)

    def test_dtype_and_shape_enter_the_key(self):
        image = np.zeros((4, 4, 3))
        assert content_digest(image) != content_digest(image.astype(np.float32))
        assert content_digest(image) != content_digest(np.zeros((4, 12)))


class TestActivationCacheStore:
    def test_miss_then_hit(self, yolo_detector):
        store = ActivationCacheStore(max_entries=2)
        image = _scene(1)
        first = store.get(yolo_detector, image)
        assert isinstance(first, CleanActivations)
        assert store.stats == {
            "hits": 0, "misses": 1, "evictions": 0, "invalidations": 0, "entries": 1,
        }
        second = store.get(yolo_detector, image)
        assert second is first
        assert store.hits == 1

    def test_new_scene_never_hits_stale_entry(self, yolo_detector):
        store = ActivationCacheStore(max_entries=4)
        scene_a, scene_b = _scene(2), _scene(3)
        cached_a = store.get(yolo_detector, scene_a)
        cached_b = store.get(yolo_detector, scene_b)
        assert cached_b is not cached_a
        assert store.misses == 2 and store.hits == 0
        # The cached bundle's clean image and prediction belong to its own
        # scene: predictions answered from it match a fresh forward pass.
        expected = yolo_detector.predict(np.clip(scene_b + 0.0, 0.0, 255.0))
        assert len(cached_b.prediction) == len(expected)
        for left, right in zip(expected, cached_b.prediction):
            assert (left.cl, left.x, left.y, left.l, left.w, left.score) == (
                right.cl, right.x, right.y, right.l, right.w, right.score,
            )
        # A single perturbed pixel produces a different digest => miss.
        perturbed = scene_a.copy()
        perturbed[0, 0, 0] = (perturbed[0, 0, 0] + 1.0) % 255.0
        store.get(yolo_detector, perturbed)
        assert store.misses == 3

    def test_distinct_detectors_do_not_collide(self, yolo_detector, detr_detector):
        store = ActivationCacheStore(max_entries=4)
        image = _scene(4)
        cached_yolo = store.get(yolo_detector, image)
        cached_detr = store.get(detr_detector, image)
        assert cached_yolo is not cached_detr
        assert "raw" in cached_detr.tensors
        assert "features" in cached_yolo.tensors

    def test_lru_eviction_respects_cap(self, yolo_detector):
        store = ActivationCacheStore(max_entries=2)
        scenes = [_scene(seed) for seed in (5, 6, 7)]
        store.get(yolo_detector, scenes[0])
        store.get(yolo_detector, scenes[1])
        store.get(yolo_detector, scenes[0])  # refresh scene 0 => scene 1 is LRU
        store.get(yolo_detector, scenes[2])  # evicts scene 1
        assert store.evictions == 1
        assert len(store) == 2
        store.get(yolo_detector, scenes[0])
        assert store.hits == 2  # scene 0 survived the eviction
        store.get(yolo_detector, scenes[1])
        assert store.misses == 4  # scene 1 was rebuilt

    def test_invalidate(self, yolo_detector, detr_detector):
        store = ActivationCacheStore(max_entries=8)
        image = _scene(8)
        store.get(yolo_detector, image)
        store.get(detr_detector, image)
        assert store.invalidate(yolo_detector) == 1
        assert len(store) == 1
        store.get(yolo_detector, image)
        assert store.misses == 3  # rebuilt after invalidation
        assert store.invalidate() == 2
        assert len(store) == 0

    def test_invalidations_counted_separately_from_evictions(
        self, yolo_detector, detr_detector
    ):
        """Explicit drops increment ``invalidations``, never ``evictions``.

        The regression: ``invalidate`` used to delete entries without
        counting them anywhere, so persisted provenance under-reported
        entry turnover relative to cap-driven evictions.
        """
        store = ActivationCacheStore(max_entries=8)
        image = _scene(8)
        store.get(yolo_detector, image)
        store.get(detr_detector, image)
        assert store.invalidations == 0
        store.invalidate(yolo_detector)
        assert store.invalidations == 1
        store.invalidate()
        assert store.invalidations == 2
        assert store.evictions == 0  # cap never hit: evictions untouched
        assert store.snapshot().invalidations == 2
        assert store.stats["invalidations"] == 2
        previous = store.reset_stats()
        assert previous.invalidations == 2
        assert store.invalidations == 0

    def test_non_incremental_detector_not_cached(self, yolo_detector):
        class Opaque:
            def clean_activations(self, image):
                return None

        store = ActivationCacheStore(max_entries=2)
        assert store.get(Opaque(), _scene(9)) is None
        assert len(store) == 0

    def test_rejects_zero_cap(self):
        with pytest.raises(ValueError):
            ActivationCacheStore(max_entries=0)


class TestCacheStats:
    def test_add_sub_and_merge(self):
        first = CacheStats(hits=2, misses=3, evictions=1)
        second = CacheStats(hits=1, misses=1, evictions=0)
        assert first + second == CacheStats(hits=3, misses=4, evictions=1)
        assert (first + second) - second == first
        assert CacheStats.merge([first, second, CacheStats()]) == first + second
        assert CacheStats.merge([]) == CacheStats()

    def test_rates(self):
        assert CacheStats().hit_rate == 0.0
        assert CacheStats(hits=3, misses=1).hit_rate == 0.75
        assert CacheStats(hits=3, misses=1).requests == 4

    def test_as_dict(self):
        stats = CacheStats(hits=1, misses=3, evictions=2, invalidations=4)
        assert stats.as_dict() == {
            "hits": 1, "misses": 3, "evictions": 2, "invalidations": 4,
            "hit_rate": 0.25,
        }

    def test_invalidations_propagate_through_arithmetic(self):
        first = CacheStats(hits=1, invalidations=2)
        second = CacheStats(misses=1, invalidations=3)
        assert (first + second).invalidations == 5
        assert (first - second).invalidations == -1
        assert CacheStats.merge([first, second]).invalidations == 5


class TestStatsLifecycle:
    def test_snapshot_reflects_counters(self, yolo_detector):
        store = ActivationCacheStore(max_entries=2)
        image = _scene(10)
        store.get(yolo_detector, image)
        store.get(yolo_detector, image)
        assert store.snapshot() == CacheStats(hits=1, misses=1, evictions=0)

    def test_snapshot_deltas_isolate_one_phase(self, yolo_detector):
        store = ActivationCacheStore(max_entries=4)
        store.get(yolo_detector, _scene(11))
        before = store.snapshot()
        image = _scene(12)
        store.get(yolo_detector, image)
        store.get(yolo_detector, image)
        assert store.snapshot() - before == CacheStats(hits=1, misses=1, evictions=0)

    def test_reset_stats_zeroes_counters_but_keeps_entries(self, yolo_detector):
        """Per-model stats reset: hit-rates must not accumulate across models."""
        store = ActivationCacheStore(max_entries=4)
        image = _scene(13)
        store.get(yolo_detector, image)
        store.get(yolo_detector, image)
        previous = store.reset_stats()
        assert previous == CacheStats(hits=1, misses=1, evictions=0)
        assert store.snapshot() == CacheStats()
        assert len(store) == 1  # entries untouched — only counters reset
        store.get(yolo_detector, image)
        assert store.snapshot() == CacheStats(hits=1, misses=0, evictions=0)


class TestReadOnlyBundles:
    """Cached bundles are read-only: admission clears the writeable flag in
    place, so a stray write fails loudly instead of corrupting later hits."""

    @pytest.mark.parametrize("detector_name", ["yolo_detector", "detr_detector"])
    def test_fetched_bundle_is_read_only(self, request, detector_name):
        detector = request.getfixturevalue(detector_name)
        store = ActivationCacheStore(max_entries=2)
        image = _scene(20)
        cached = store.get(detector, image)
        assert not cached.clean_image.flags.writeable
        assert cached.tensors
        for tensor in cached.tensors.values():
            assert not tensor.flags.writeable
        with pytest.raises(ValueError):
            cached.clean_image[0, 0, 0] = 1.0
        # Freezing changes no value: the bundle still matches a fresh build.
        reference = detector.clean_activations(image)
        assert np.array_equal(cached.clean_image, reference.clean_image)
        for name, tensor in reference.tensors.items():
            assert np.array_equal(cached.tensors[name], tensor)
        assert store.get(detector, image) is cached

    def test_put_freezes_in_place_without_copying(self, yolo_detector):
        store = ActivationCacheStore(max_entries=2)
        image = _scene(21)
        bundle = yolo_detector.clean_activations(image)
        arrays = [bundle.clean_image, *bundle.tensors.values()]
        admitted = store.put(yolo_detector, image, bundle)
        assert admitted is bundle
        assert admitted.clean_image is arrays[0]
        for array in arrays:
            assert not array.flags.writeable

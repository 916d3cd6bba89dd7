"""Tests for perturbation region constraints."""

import numpy as np
import pytest

from repro.core.config import AttackConfig
from repro.core.regions import (
    FullImageRegion,
    HalfImageRegion,
    RectangleRegion,
    region_from_name,
)


class TestFullImageRegion:
    def test_everything_allowed(self):
        region = FullImageRegion()
        assert region.pixel_mask(10, 20).all()
        assert region.allowed_fraction(10, 20) == 1.0

    def test_project_is_identity(self):
        region = FullImageRegion()
        mask = np.random.default_rng(0).normal(size=(6, 8, 3))
        assert np.allclose(region.project(mask), mask)


class TestHalfImageRegion:
    def test_right_half(self):
        region = HalfImageRegion("right")
        pixel_mask = region.pixel_mask(10, 20)
        assert not pixel_mask[:, :10].any()
        assert pixel_mask[:, 10:].all()

    def test_left_half(self):
        region = HalfImageRegion("left")
        pixel_mask = region.pixel_mask(10, 20)
        assert pixel_mask[:, :10].all()
        assert not pixel_mask[:, 10:].any()

    def test_project_zeroes_forbidden_half(self):
        region = HalfImageRegion("right")
        mask = np.ones((10, 20, 3))
        projected = region.project(mask)
        assert np.allclose(projected[:, :10], 0.0)
        assert np.allclose(projected[:, 10:], 1.0)

    def test_allowed_fraction_is_half(self):
        region = HalfImageRegion("right")
        assert region.allowed_fraction(10, 20) == pytest.approx(0.5)

    def test_odd_width_split(self):
        region = HalfImageRegion("right")
        pixel_mask = region.pixel_mask(4, 9)
        assert pixel_mask.sum() == 4 * 5

    def test_invalid_half_rejected(self):
        with pytest.raises(ValueError):
            HalfImageRegion("top")

    def test_project_does_not_modify_input(self):
        region = HalfImageRegion("right")
        mask = np.ones((4, 8, 3))
        region.project(mask)
        assert np.allclose(mask, 1.0)


class TestRectangleRegion:
    def test_pixel_mask(self):
        region = RectangleRegion(2, 3, 5, 7)
        pixel_mask = region.pixel_mask(10, 10)
        assert pixel_mask[2:5, 3:7].all()
        assert pixel_mask.sum() == 3 * 4

    def test_rectangle_clipped_to_image(self):
        region = RectangleRegion(5, 5, 100, 100)
        pixel_mask = region.pixel_mask(10, 10)
        assert pixel_mask[5:, 5:].all()
        assert pixel_mask.sum() == 25

    def test_empty_rectangle_rejected(self):
        with pytest.raises(ValueError):
            RectangleRegion(5, 5, 5, 10)

    def test_rectangle_outside_image_allows_nothing(self):
        region = RectangleRegion(20, 20, 30, 30)
        assert region.pixel_mask(10, 10).sum() == 0


class TestRegionFromName:
    def test_known_names(self):
        assert isinstance(region_from_name("full"), FullImageRegion)
        assert isinstance(region_from_name("right"), HalfImageRegion)
        assert region_from_name("LEFT").half == "left"
        assert region_from_name("right_half").half == "right"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            region_from_name("bottom")


def _copy_and_zero(region, mask):
    """The original projection: copy the mask, zero the disallowed pixels."""
    mask = np.asarray(mask, dtype=np.float64)
    projected = mask.copy()
    projected[~region.pixel_mask(mask.shape[0], mask.shape[1])] = 0.0
    return projected


def _signed_mask(shape, seed):
    """Values with fractions, signed zeros and out-of-range entries."""
    rng = np.random.default_rng(seed)
    mask = rng.normal(0.0, 200.0, size=shape)
    mask.flat[::7] = -0.0
    mask.flat[1::11] = -0.3  # rounds to -0.0
    mask.flat[2::13] = 0.0
    return mask


REGIONS = [
    FullImageRegion(),
    HalfImageRegion("right"),
    HalfImageRegion("left"),
    RectangleRegion(2, 3, 7, 11),
]


class TestProjectionBytes:
    """The cached-mask projection and the attack constraint are
    byte-identical to copy-and-zero, signed zeros included."""

    @pytest.mark.parametrize("region", REGIONS, ids=repr)
    @pytest.mark.parametrize("shape", [(10, 16), (10, 16, 3)])
    def test_project_matches_copy_and_zero(self, region, shape):
        mask = _signed_mask(shape, seed=len(shape))
        projected = region.project(mask)
        expected = _copy_and_zero(region, mask)
        assert projected.dtype == np.float64
        assert projected.tobytes() == expected.tobytes()
        assert np.array_equal(np.signbit(projected), np.signbit(expected))

    @pytest.mark.parametrize("region", REGIONS, ids=repr)
    @pytest.mark.parametrize("shape", [(10, 16), (10, 16, 3)])
    @pytest.mark.parametrize("round_masks", [True, False])
    def test_constraint_matches_project_round_clip(self, region, shape, round_masks):
        mask = _signed_mask(shape, seed=7)
        original = mask.copy()
        config = AttackConfig(region=region, round_masks=round_masks)
        expected = _copy_and_zero(region, mask)
        if round_masks:
            expected = np.round(expected)
        expected = np.clip(expected, -255.0, 255.0)
        assert config.constrain(mask).tobytes() == expected.tobytes()
        assert mask.tobytes() == original.tobytes()

    @pytest.mark.parametrize("region", REGIONS, ids=repr)
    def test_allowed_mask_cached_and_read_only(self, region):
        allowed = region.allowed_mask(10, 16)
        assert region.allowed_mask(10, 16) is allowed
        assert not allowed.flags.writeable
        with pytest.raises(ValueError):
            allowed[0, 0] = not allowed[0, 0]
        assert np.array_equal(allowed, region.pixel_mask(10, 16))
        assert region.pixel_mask(10, 16).flags.writeable

"""Spatial constraints on where a filter mask may perturb.

The paper's evaluation "adds a restriction where the perturbations are only
applied to the right-hand side of the images ... by forcing filters to have
zeros in the left half".  A :class:`Region` encodes such a restriction as a
boolean pixel mask plus a projection that zeroes the mask outside the
allowed region.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass

import numpy as np


class Region(abc.ABC):
    """Abstract perturbable region of an image.

    Regions are value objects: the built-in ones are frozen dataclasses,
    so equal regions share one cached allowed-pixel mask per image shape.
    """

    @abc.abstractmethod
    def pixel_mask(self, image_length: int, image_width: int) -> np.ndarray:
        """Boolean array (L, W): True where perturbation is allowed."""

    def allowed_mask(self, image_length: int, image_width: int) -> np.ndarray:
        """:meth:`pixel_mask`, built once per shape and returned read-only."""
        try:
            return _cached_allowed_mask(self, image_length, image_width)
        except TypeError:  # an unhashable custom region: build it uncached
            return _read_only_mask(self, image_length, image_width)

    def project(self, mask: np.ndarray) -> np.ndarray:
        """Zero the perturbation outside the allowed region.

        Returns a new float64 array; pixels outside the region become
        ``+0.0`` and every other value, signed zeros included, is copied
        unchanged.  The first two axes of ``mask`` are the image plane.
        """
        mask = np.asarray(mask, dtype=np.float64)
        allowed = self.allowed_mask(mask.shape[0], mask.shape[1])
        allowed = allowed.reshape(allowed.shape + (1,) * (mask.ndim - 2))
        return np.where(allowed, mask, 0.0)

    def allowed_fraction(self, image_length: int, image_width: int) -> float:
        """Fraction of pixels where perturbation is allowed."""
        return float(self.allowed_mask(image_length, image_width).mean())


def _read_only_mask(region: Region, image_length: int, image_width: int) -> np.ndarray:
    allowed = np.array(region.pixel_mask(image_length, image_width), dtype=bool)
    allowed.flags.writeable = False
    return allowed


_cached_allowed_mask = functools.lru_cache(maxsize=16)(_read_only_mask)


@dataclass(frozen=True)
class FullImageRegion(Region):
    """No restriction: the whole image may be perturbed."""

    def pixel_mask(self, image_length: int, image_width: int) -> np.ndarray:
        return np.ones((image_length, image_width), dtype=bool)


@dataclass(frozen=True)
class HalfImageRegion(Region):
    """Only the left or right half of the image may be perturbed.

    ``half="right"`` reproduces the paper's evaluation protocol (objects on
    the left stay untouched; errors appearing there are butterfly effects).
    """

    half: str = "right"

    def __post_init__(self) -> None:
        if self.half not in ("left", "right"):
            raise ValueError(f"half must be 'left' or 'right', got {self.half!r}")

    def pixel_mask(self, image_length: int, image_width: int) -> np.ndarray:
        mask = np.zeros((image_length, image_width), dtype=bool)
        middle = image_width // 2
        if self.half == "right":
            mask[:, middle:] = True
        else:
            mask[:, :middle] = True
        return mask


@dataclass(frozen=True)
class RectangleRegion(Region):
    """An axis-aligned rectangular window that may be perturbed.

    Coordinates follow the repository convention: ``x`` spans image rows
    (length) and ``y`` spans image columns (width).  The bounds are
    half-open pixel indices.
    """

    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("rectangle bounds are empty or inverted")

    def pixel_mask(self, image_length: int, image_width: int) -> np.ndarray:
        mask = np.zeros((image_length, image_width), dtype=bool)
        x_lo, x_hi = max(0, self.x_min), min(image_length, self.x_max)
        y_lo, y_hi = max(0, self.y_min), min(image_width, self.y_max)
        if x_hi > x_lo and y_hi > y_lo:
            mask[x_lo:x_hi, y_lo:y_hi] = True
        return mask


def region_from_name(name: str) -> Region:
    """Build a region from a short name: ``"full"``, ``"left"`` or ``"right"``."""
    lowered = name.lower()
    if lowered in ("full", "all", "everywhere"):
        return FullImageRegion()
    if lowered in ("left", "left_half"):
        return HalfImageRegion("left")
    if lowered in ("right", "right_half"):
        return HalfImageRegion("right")
    raise ValueError(f"unknown region name: {name!r}")

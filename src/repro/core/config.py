"""Attack configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.masks import MAX_PERTURBATION
from repro.core.regions import FullImageRegion, Region
from repro.nsga.algorithm import NSGAConfig
from repro.nsga.mutation import IntensityAnnealing, MutationConfig


def default_use_activation_cache() -> bool:
    """Default for every ``use_activation_cache`` switch in the attack stack.

    The ``REPRO_ACTIVATION_CACHE`` environment variable (``0`` disables)
    lets the benchmark/CI A/B jobs run the whole suite with and without the
    incremental path without touching every call site; ``AttackConfig``,
    ``ButterflyObjectives`` and ``EnsembleObjectives`` all default through
    this function.  Both paths are bit-identical, so this only changes
    speed.
    """
    return os.environ.get("REPRO_ACTIVATION_CACHE", "1") != "0"


def default_use_delta_reuse() -> bool:
    """Default for every ``use_delta_reuse`` switch in the attack stack.

    The ``REPRO_DELTA_REUSE`` environment variable (``0`` disables) lets
    the benchmark/CI A/B jobs run the whole suite with and without the
    cross-generation delta-reuse path without touching every call site;
    ``AttackConfig`` and ``ButterflyObjectives`` default through this
    function.  Both paths are bit-identical, so this only changes speed.
    """
    return os.environ.get("REPRO_DELTA_REUSE", "1") != "0"


@dataclass(frozen=True)
class AttackConfig:
    """Configuration of a butterfly-effect attack run.

    Attributes
    ----------
    nsga:
        NSGA-II parametrisation (the paper's Table II by default).
    region:
        Spatial constraint on the perturbation (paper: right half only).
    epsilon:
        Buffer ``ϵ`` around bounding boxes used by Algorithm 2.
    round_masks:
        Round filter masks to integer values (the paper encodes masks as
        signed integers in ``[-255, 255]``).
    use_activation_cache:
        Cache the clean scene's activations and evaluate masks through the
        detectors' incremental (dirty-region) path where supported.
        Bit-identical to the dense path; only changes speed.  Defaults to
        on unless ``REPRO_ACTIVATION_CACHE=0`` is set.
    activation_cache_size:
        Entry cap of the per-sweep :class:`~repro.detectors.
        activation_cache.ActivationCacheStore` (one entry per cached
        ``(detector, scene)`` pair) used by the experiment runner.
    sparse_init_fraction:
        Fraction of the NSGA-II initial population drawn as *sparse*
        patch-confined masks instead of dense Gaussian ones, so short
        attacks reach the incremental inference path's sparse-mask sweet
        spot from generation zero.  ``0.0`` (the default) keeps the paper's
        dense initialisation bit-exactly — the search dynamics only change
        when this is explicitly enabled.
    use_delta_reuse:
        Memoise each evaluated mask's spliced activations and re-splice
        only the child-vs-parent diff for offspring whose ancestor is still
        cached (cross-generation delta reuse).  Bit-identical to the
        clean-splice path; only changes speed.  Defaults to on unless
        ``REPRO_DELTA_REUSE=0`` is set.
    delta_store_size:
        LRU entry cap of the per-scene delta-activation store feeding the
        cross-generation reuse path.
    fast_search:
        Run the NSGA-II search phase at an approximate evaluation fidelity
        and re-score the final population bit-exactly (two-phase
        bounded-error search).  The returned Pareto front carries exact
        objective vectors by construction; only *which* genomes survive the
        search can differ from an all-exact run.  Default off — the default
        attack path is bit- and RNG-identical to previous releases.
    search_fidelity:
        Named fidelity preset for the search phase (see
        ``repro.detectors.fidelity.FIDELITY_PRESETS``): ``"windowed"``
        (banded attention refresh), ``"float32"``, ``"turbo"`` (both) or
        ``"surrogate"`` (downscaled scene).  Only used when ``fast_search``
        is on.
    rescore_every:
        When positive and ``fast_search`` is on, additionally re-score the
        surviving population at exact fidelity every this-many generations
        (periodic drift correction); 0 re-scores only at the end.
    anneal_final_window:
        When set, anneal the mutation ``window_fraction`` from its base
        value down (or up) to this value across the run — dense exploration
        early, sparse refinement late.  ``None`` (default) keeps the
        constant paper schedule and the exact historical RNG draw stream.
    anneal_shape:
        ``"log"`` (geometric, default) or ``"linear"`` interpolation for
        the annealing schedule.
    """

    nsga: NSGAConfig = field(default_factory=NSGAConfig)
    region: Region = field(default_factory=FullImageRegion)
    epsilon: float = 2.0
    round_masks: bool = True
    use_activation_cache: bool = field(default_factory=default_use_activation_cache)
    activation_cache_size: int = 4
    sparse_init_fraction: float = 0.0
    use_delta_reuse: bool = field(default_factory=default_use_delta_reuse)
    delta_store_size: int = 256
    fast_search: bool = False
    search_fidelity: str = "windowed"
    rescore_every: int = 0
    anneal_final_window: float | None = None
    anneal_shape: str = "log"

    def __post_init__(self) -> None:
        if not 0.0 <= self.sparse_init_fraction <= 1.0:
            raise ValueError("sparse_init_fraction must be in [0, 1]")
        if self.activation_cache_size < 1:
            raise ValueError("activation_cache_size must be at least 1")
        if self.delta_store_size < 1:
            raise ValueError("delta_store_size must be at least 1")
        if self.rescore_every < 0:
            raise ValueError("rescore_every must be non-negative")
        from repro.detectors.fidelity import resolve_fidelity

        resolve_fidelity(self.search_fidelity)
        if self.anneal_final_window is not None:
            IntensityAnnealing(
                final_window_fraction=self.anneal_final_window,
                shape=self.anneal_shape,
            )

    def search_config(self) -> NSGAConfig:
        """The NSGA-II configuration with attack-level options applied.

        ``sparse_init_fraction > 0`` rewrites the initialisation config so
        part of the initial population is drawn as patch-confined sparse
        masks; ``fast_search``/``rescore_every`` turn on the two-phase
        bounded-error search; ``anneal_final_window`` installs the
        mutation-intensity schedule.  At the defaults :attr:`nsga` itself
        is returned, so default attacks are bit-exact with the original
        path.  Every attack orchestrator runs NSGA-II with this config.
        """
        nsga = self.nsga
        if self.sparse_init_fraction > 0.0:
            nsga = replace(
                nsga,
                initialization=replace(
                    nsga.initialization,
                    sparse_fraction=self.sparse_init_fraction,
                ),
            )
        if self.fast_search:
            nsga = replace(
                nsga,
                fast_search=True,
                search_fidelity=self.search_fidelity,
                rescore_every=self.rescore_every,
            )
        if self.anneal_final_window is not None:
            nsga = replace(
                nsga,
                annealing=IntensityAnnealing(
                    final_window_fraction=self.anneal_final_window,
                    shape=self.anneal_shape,
                ),
            )
        return nsga

    def constrain(self, mask: np.ndarray) -> np.ndarray:
        """The NSGA-II genome constraint: project, round, clip.

        Zeroes ``mask`` outside :attr:`region` (a new array), rounds it to
        integers when :attr:`round_masks` is set and clips it to
        ``[-255, 255]``, the last two in place on the projected copy.
        """
        projected = self.region.project(mask)
        if self.round_masks:
            np.round(projected, out=projected)
        return np.clip(projected, -MAX_PERTURBATION, MAX_PERTURBATION, out=projected)

    @staticmethod
    def paper_defaults(region: Region | None = None, seed: int = 0) -> "AttackConfig":
        """Table II parametrisation; optionally with a perturbation region."""
        return AttackConfig(
            nsga=NSGAConfig.paper_defaults(seed=seed),
            region=region if region is not None else FullImageRegion(),
        )

    @staticmethod
    def fast(
        region: Region | None = None,
        seed: int = 0,
        num_iterations: int = 10,
        population_size: int = 16,
    ) -> "AttackConfig":
        """A reduced configuration for tests, examples and CI benchmarks.

        The search dynamics are identical to the paper's; only the budget
        (population and generations) is smaller.
        """
        return AttackConfig(
            nsga=NSGAConfig(
                num_iterations=num_iterations,
                population_size=population_size,
                crossover_probability=0.5,
                mutation=MutationConfig(probability=0.45, window_fraction=0.01),
                seed=seed,
            ),
            region=region if region is not None else FullImageRegion(),
        )

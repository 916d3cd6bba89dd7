"""The butterfly-effect attack orchestrator.

:class:`ButterflyAttack` wires everything together: it builds the
three-objective evaluator for a detector/image pair, applies the spatial
region constraint (e.g. "perturb only the right half"), runs NSGA-II and
packages the final population into an :class:`~repro.core.results.AttackResult`
with paper-oriented objective values and error-type transitions.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.config import AttackConfig
from repro.core.masks import FilterMask
from repro.core.objectives import ButterflyObjectives
from repro.core.results import AttackResult, ParetoSolution
from repro.detection.errors import classify_transitions
from repro.detection.prediction import Prediction
from repro.detectors.activation_cache import ActivationCacheStore
from repro.detectors.base import Detector
from repro.nn.incremental import EMPTY_BBOX
from repro.nsga.algorithm import NSGAII, NSGAResult


class ButterflyAttack:
    """Multi-objective black-box attack against one object detector.

    Parameters
    ----------
    detector:
        The attacked detector (any object with a ``predict(image)`` method
        following the :class:`~repro.detectors.base.Detector` interface).
    config:
        Attack configuration (NSGA-II parametrisation, perturbable region,
        Algorithm 2 buffer).  Defaults to the paper's Table II values with
        no region restriction.
    extra_objectives:
        Optional additional minimised objectives forwarded to
        :class:`~repro.core.objectives.ButterflyObjectives` (grey-box
        extension).
    activation_store:
        Optional shared clean-activation store (e.g. one per experiment
        sweep) so repeated attacks on the same ``(detector, scene)`` pair
        reuse one cached bundle; without it each attack builds a private
        one when ``config.use_activation_cache`` is on.
    """

    def __init__(
        self,
        detector: Detector,
        config: AttackConfig | None = None,
        extra_objectives: Sequence[
            Callable[[np.ndarray, np.ndarray, Prediction], float]
        ] = (),
        activation_store: "ActivationCacheStore | None" = None,
    ) -> None:
        self.detector = detector
        self.config = config if config is not None else AttackConfig()
        self.extra_objectives = tuple(extra_objectives)
        self.activation_store = activation_store

    def build_objectives(self, image: np.ndarray) -> ButterflyObjectives:
        """Create the cached objective evaluator for one image."""
        return ButterflyObjectives(
            detector=self.detector,
            image=image,
            epsilon=self.config.epsilon,
            extra_objectives=self.extra_objectives,
            use_activation_cache=self.config.use_activation_cache,
            activation_store=self.activation_store,
            use_delta_reuse=self.config.use_delta_reuse,
            delta_store_size=self.config.delta_store_size,
        )

    def attack(
        self,
        image: np.ndarray,
        callback: Optional[Callable[[int, list], None]] = None,
    ) -> AttackResult:
        """Run the full NSGA-II search against one image."""
        image = np.asarray(image, dtype=np.float64)
        objectives = self.build_objectives(image)
        optimizer = NSGAII(
            objective_function=objectives,
            genome_shape=image.shape,
            config=self.config.search_config(),
            constraint=self.config.constrain,
            callback=callback,
        )
        nsga_result = optimizer.run()
        return package_result(
            nsga_result,
            objectives,
            getattr(self.detector, "name", repr(self.detector)),
        )


def package_result(
    nsga_result: NSGAResult,
    evaluator: ButterflyObjectives,
    detector_name: str,
    extra_names: Optional[Sequence[str]] = None,
) -> AttackResult:
    """Package an NSGA-II run as an :class:`AttackResult`.

    Every individual of the final population becomes a
    :class:`ParetoSolution` with the paper's objective orientation;
    objectives past the third land in ``extras`` under ``extra_names``
    (``extra_0``, ``extra_1``, ... by default).  The result reports
    ``evaluator``'s image and clean prediction, and front solutions also
    get their perturbed prediction and error transitions (the rest of the
    population would double the attack cost for no benefit).

    Front predictions come from ``evaluator.predict_population``, the
    route the search itself took.  Each member names its own fingerprint
    as its ancestor with an empty diff bound (the fingerprint is the
    genome's content digest, so the entry stored under it holds this very
    mask), so a member the delta store kept is answered from its stored
    exact prediction; the others go
    through the clean-bundle splice or the dense batch.  Every route is
    bit-identical to ``detector.predict`` on the perturbed image.
    """
    solutions: list[ParetoSolution] = []
    for individual in nsga_result.population:
        intensity, degradation, negated_distance = individual.objectives[:3]
        extras = individual.objectives[3:]
        names = extra_names or [f"extra_{i}" for i in range(len(extras))]
        solutions.append(
            ParetoSolution(
                mask=FilterMask(individual.genome),
                intensity=float(intensity),
                degradation=float(degradation),
                distance=float(-negated_distance),
                rank=int(individual.rank if individual.rank is not None else 0),
                extras={name: float(value) for name, value in zip(names, extras)},
            )
        )
    result = AttackResult(
        image=evaluator.image,
        clean_prediction=evaluator.clean_prediction,
        solutions=solutions,
        detector_name=detector_name,
        num_evaluations=nsga_result.num_evaluations,
        cache_hits=nsga_result.cache_hits,
        history=nsga_result.history,
        incremental=nsga_result.incremental,
    )
    front = [
        (solution, individual)
        for solution, individual in zip(solutions, nsga_result.population)
        if solution.rank == 1
    ]
    if front:
        predictions, _ = evaluator.predict_population(
            np.stack([solution.mask.values for solution, _ in front], axis=0),
            [individual.metadata.get("dirty_bound") for _, individual in front],
            [
                {
                    "fingerprint": None,
                    "ancestor": individual.metadata.get("fingerprint"),
                    "diff_bound": EMPTY_BBOX,
                }
                for _, individual in front
            ],
        )
        for (solution, _), perturbed in zip(front, predictions):
            solution.perturbed_prediction = perturbed
            solution.transitions = classify_transitions(
                evaluator.clean_prediction, perturbed
            )
    return result

"""Front packaging: perturbed predictions through the evaluator's routes.

Every attack orchestrator fills in the Pareto front's perturbed
predictions and error transitions through
:func:`~repro.core.attack.package_result`, which asks the search's own
evaluator (``predict_population``) instead of re-running the dense
detector.  Front members the delta store kept are answered from their
stored exact predictions; the rest take the clean-bundle splice or the
dense batch.  Whatever the route, each member's prediction must equal
dense ``detector.predict`` on the perturbed image.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.attack import ButterflyAttack, package_result
from repro.core.config import AttackConfig
from repro.core.ensemble import EnsembleAttack
from repro.core.masks import apply_mask
from repro.core.regions import HalfImageRegion
from repro.core.temporal import SequenceAttack, TemporalAttack
from repro.data.sequences import generate_sequence
from repro.detection.errors import classify_transitions
from repro.nsga.algorithm import NSGAII

from tests.conftest import SMALL_LENGTH, SMALL_WIDTH


def _config(**options) -> AttackConfig:
    config = AttackConfig.fast(
        HalfImageRegion("right"), seed=3, num_iterations=3, population_size=6
    )
    return replace(config, **options)


def _assert_front_matches_dense(result, detector, image):
    front = result.pareto_front
    assert front
    clean = detector.predict(image)
    assert result.clean_prediction.boxes == clean.boxes
    for solution in front:
        dense = detector.predict(apply_mask(image, solution.mask.values))
        assert solution.perturbed_prediction.boxes == dense.boxes
        assert solution.transitions == classify_transitions(clean, dense)


@pytest.fixture(scope="module")
def sequence():
    return generate_sequence(
        num_frames=3,
        seed=9,
        image_length=SMALL_LENGTH,
        image_width=SMALL_WIDTH,
        half="left",
    )


class TestButterflyAttackPackaging:
    @pytest.mark.parametrize("architecture", ["yolo", "detr"])
    @pytest.mark.parametrize("use_activation_cache", [True, False])
    @pytest.mark.parametrize("use_delta_reuse", [True, False])
    def test_front_matches_dense_predict(
        self, request, small_dataset, architecture, use_activation_cache, use_delta_reuse
    ):
        detector = request.getfixturevalue(f"{architecture}_detector")
        image = small_dataset[0].image
        config = _config(
            use_activation_cache=use_activation_cache, use_delta_reuse=use_delta_reuse
        )
        result = ButterflyAttack(detector, config).attack(image)
        _assert_front_matches_dense(result, detector, image)

    @pytest.mark.parametrize("architecture", ["yolo", "detr"])
    def test_fast_search_front_matches_dense_predict(
        self, request, small_dataset, architecture
    ):
        detector = request.getfixturevalue(f"{architecture}_detector")
        image = small_dataset[0].image
        result = ButterflyAttack(detector, _config(fast_search=True)).attack(image)
        _assert_front_matches_dense(result, detector, image)

    @pytest.mark.parametrize("architecture", ["yolo", "detr"])
    def test_stored_front_members_are_not_re_predicted(
        self, request, small_dataset, monkeypatch, architecture
    ):
        detector = request.getfixturevalue(f"{architecture}_detector")
        image = small_dataset[0].image
        config = _config(use_activation_cache=True, use_delta_reuse=True)
        objectives = ButterflyAttack(detector, config).build_objectives(image)
        nsga_result = NSGAII(
            objective_function=objectives,
            genome_shape=image.shape,
            config=config.search_config(),
            constraint=config.constrain,
        ).run()
        stored = objectives.clean_activations.delta._entries
        front = [ind for ind in nsga_result.population if ind.rank == 1]
        kept = [ind for ind in front if ind.metadata["fingerprint"] in stored]
        assert kept, "no front member was kept by the delta store"
        # Members neither kept nor zero must be computed; kept ones never.
        expected = sum(
            1
            for ind in front
            if ind.metadata["fingerprint"] not in stored and np.any(ind.genome)
        )

        computed = []
        dense, splice = detector.predict_batch, detector._predict_delta_spliced_batch

        def count_dense(images):
            computed.append(len(images))
            return dense(images)

        def count_splice(image, masks, items, **kwargs):
            computed.append(len(items))
            return splice(image, masks, items, **kwargs)

        monkeypatch.setattr(detector, "predict_batch", count_dense)
        monkeypatch.setattr(detector, "_predict_delta_spliced_batch", count_splice)
        result = package_result(nsga_result, objectives, detector.name)
        monkeypatch.undo()

        assert sum(computed) == expected
        _assert_front_matches_dense(result, detector, image)


class TestOtherOrchestratorsPackaging:
    def test_ensemble_front_matches_first_member(
        self, yolo_detector, detr_detector, small_dataset
    ):
        image = small_dataset[0].image
        result = EnsembleAttack([yolo_detector, detr_detector], _config()).attack(image)
        _assert_front_matches_dense(result, yolo_detector, image)

    @pytest.mark.parametrize("architecture", ["yolo", "detr"])
    def test_sequence_front_matches_first_frame(self, request, sequence, architecture):
        detector = request.getfixturevalue(f"{architecture}_detector")
        result = SequenceAttack(detector, _config()).attack(sequence)
        _assert_front_matches_dense(result, detector, sequence.frame(0))

    @pytest.mark.parametrize("architecture", ["yolo", "detr"])
    def test_temporal_front_matches_first_frame(self, request, sequence, architecture):
        detector = request.getfixturevalue(f"{architecture}_detector")
        result = TemporalAttack(detector, _config()).attack(sequence)
        _assert_front_matches_dense(result, detector, sequence.frame(0))

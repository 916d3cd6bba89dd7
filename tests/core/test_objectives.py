"""Tests for the three butterfly-effect objectives (Algorithms 1 and 2)."""

import numpy as np
import pytest

from repro.core.objectives import (
    ButterflyObjectives,
    distance_weight_matrix,
    objective_degradation,
    objective_distance,
    objective_intensity,
)
from repro.detection.boxes import BoundingBox
from repro.detection.prediction import Prediction


def _box(cl, x, y, l=10.0, w=10.0):
    return BoundingBox(cl=cl, x=x, y=y, l=l, w=w)


class TestObjectiveIntensity:
    def test_zero_mask(self):
        assert objective_intensity(np.zeros((4, 4, 3))) == 0.0

    def test_l2_norm(self):
        mask = np.zeros((2, 2, 3))
        mask[0, 0, 0] = 3.0
        mask[0, 0, 1] = 4.0
        assert objective_intensity(mask) == pytest.approx(5.0)

    def test_monotone_in_magnitude(self):
        small = np.full((4, 4, 3), 1.0)
        large = np.full((4, 4, 3), 2.0)
        assert objective_intensity(large) > objective_intensity(small)


class TestObjectiveDegradation:
    """Algorithm 1, including the three cases discussed in the paper."""

    def test_unchanged_prediction_gives_one(self):
        clean = Prediction([_box(0, 20, 20)])
        assert objective_degradation(clean, Prediction([_box(0, 20, 20)])) == 1.0

    def test_class_change_gives_zero(self):
        clean = Prediction([_box(0, 20, 20)])
        assert objective_degradation(clean, Prediction([_box(1, 20, 20)])) == 0.0

    def test_disappearance_gives_zero(self):
        clean = Prediction([_box(0, 20, 20)])
        assert objective_degradation(clean, Prediction.empty()) == 0.0

    def test_box_shift_gives_intermediate_value(self):
        clean = Prediction([_box(0, 20, 20)])
        shifted = Prediction([_box(0, 23, 20)])
        value = objective_degradation(clean, shifted)
        assert 0.0 < value < 1.0

    def test_multiple_boxes_averaged(self):
        clean = Prediction([_box(0, 20, 20), _box(1, 60, 60)])
        # One box unchanged, one disappeared -> 0.5.
        perturbed = Prediction([_box(0, 20, 20)])
        assert objective_degradation(clean, perturbed) == pytest.approx(0.5)

    def test_best_same_class_box_selected(self):
        clean = Prediction([_box(0, 20, 20)])
        perturbed = Prediction([_box(0, 28, 20), _box(0, 21, 20)])
        value = objective_degradation(clean, perturbed)
        # The better-overlapping box (21,20) defines the objective.
        assert value > 0.5

    def test_empty_clean_prediction_gives_one(self):
        assert objective_degradation(Prediction.empty(), Prediction([_box(0, 1, 1)])) == 1.0

    def test_extra_ghost_boxes_do_not_raise_value_above_one(self):
        clean = Prediction([_box(0, 20, 20)])
        perturbed = Prediction([_box(0, 20, 20), _box(2, 70, 70)])
        assert objective_degradation(clean, perturbed) == 1.0


class TestDistanceWeightMatrix:
    """Algorithm 2, lines 1-16."""

    def test_shape(self):
        matrix = distance_weight_matrix(Prediction([_box(0, 10, 10)]), 32, 64)
        assert matrix.shape == (32, 64)

    def test_no_boxes_gives_diagonal_everywhere(self):
        matrix = distance_weight_matrix(Prediction.empty(), 30, 40)
        assert np.allclose(matrix, 50.0)

    def test_pixels_inside_box_are_negative(self):
        prediction = Prediction([_box(0, 16, 16, l=8, w=8)])
        matrix = distance_weight_matrix(prediction, 32, 32, epsilon=0.0)
        assert matrix[16, 16] < 0.0
        # Far-away pixel keeps its (positive) distance to the box centre.
        assert matrix[0, 31] > 0.0

    def test_epsilon_buffer_extends_negative_zone(self):
        prediction = Prediction([_box(0, 16, 16, l=8, w=8)])
        no_buffer = distance_weight_matrix(prediction, 32, 32, epsilon=0.0)
        buffered = distance_weight_matrix(prediction, 32, 32, epsilon=4.0)
        # A pixel just outside the box is positive without the buffer and
        # negative with it.
        assert no_buffer[16, 22] > 0.0
        assert buffered[16, 22] < 0.0

    def test_distance_increases_away_from_box(self):
        prediction = Prediction([_box(0, 16, 8, l=6, w=6)])
        matrix = distance_weight_matrix(prediction, 32, 64)
        assert matrix[16, 60] > matrix[16, 20] > 0.0

    def test_nearest_box_defines_distance(self):
        prediction = Prediction([_box(0, 10, 10, l=4, w=4), _box(1, 10, 50, l=4, w=4)])
        matrix = distance_weight_matrix(prediction, 20, 60)
        # A pixel near the second box must use the second box's distance.
        assert matrix[10, 45] == pytest.approx(5.0)


class TestObjectiveDistance:
    """Algorithm 2, lines 17-24."""

    def test_zero_mask_returns_zero(self):
        matrix = np.ones((8, 8))
        assert objective_distance(np.zeros((8, 8, 3)), matrix) == 0.0

    def test_single_far_pixel(self):
        matrix = np.full((8, 8), 2.0)
        mask = np.zeros((8, 8, 3))
        mask[0, 0, 1] = 100.0
        # One perturbed pixel: weighted sum = 100 * 2, count = 1.
        assert objective_distance(mask, matrix) == pytest.approx(200.0)

    def test_normalisation_by_perturbed_pixel_count(self):
        matrix = np.full((8, 8), 1.0)
        sparse = np.zeros((8, 8, 3))
        sparse[0, 0, 0] = 100.0
        dense = np.zeros((8, 8, 3))
        dense[:, :, 0] = 100.0
        # Same per-pixel weight: the dense perturbation is not rewarded more.
        assert objective_distance(sparse, matrix) == pytest.approx(
            objective_distance(dense, matrix)
        )

    def test_perturbation_near_object_scores_lower(self):
        prediction = Prediction([_box(0, 16, 16, l=8, w=8)])
        matrix = distance_weight_matrix(prediction, 32, 64)
        near = np.zeros((32, 64, 3))
        near[16, 22, 0] = 50.0
        far = np.zeros((32, 64, 3))
        far[16, 60, 0] = 50.0
        assert objective_distance(far, matrix) > objective_distance(near, matrix)

    def test_perturbation_inside_box_is_negative(self):
        prediction = Prediction([_box(0, 16, 16, l=8, w=8)])
        matrix = distance_weight_matrix(prediction, 32, 32)
        inside = np.zeros((32, 32, 3))
        inside[16, 16, 0] = 50.0
        assert objective_distance(inside, matrix) < 0.0

    def test_channel_maximum_used(self):
        matrix = np.full((4, 4), 1.0)
        mask = np.zeros((4, 4, 3))
        mask[0, 0] = [10.0, -30.0, 20.0]
        assert objective_distance(mask, matrix) == pytest.approx(30.0)


class TestButterflyObjectivesEvaluator:
    @pytest.fixture(scope="class")
    def evaluator(self, request):
        detector = request.getfixturevalue("yolo_detector")
        dataset = request.getfixturevalue("small_dataset")
        return ButterflyObjectives(detector=detector, image=dataset[0].image)

    def test_vector_layout(self, evaluator):
        vector = evaluator(np.zeros(evaluator.image.shape))
        assert vector.shape == (3,)
        assert evaluator.num_objectives == 3

    def test_zero_mask_objectives(self, evaluator):
        vector = evaluator(np.zeros(evaluator.image.shape))
        assert vector[0] == 0.0  # no perturbation
        assert vector[1] == pytest.approx(1.0)  # prediction unchanged
        assert vector[2] == 0.0  # no perturbed pixel -> distance 0

    def test_raw_objectives_orientation(self, evaluator, rng):
        mask = rng.normal(0.0, 8.0, size=evaluator.image.shape)
        raw = evaluator.raw_objectives(mask)
        vector = evaluator(mask)
        assert raw["intensity"] == pytest.approx(vector[0])
        assert raw["degradation"] == pytest.approx(vector[1])
        assert raw["distance"] == pytest.approx(-vector[2])

    def test_intensity_normalised_to_unit_range(self, evaluator):
        worst = np.full(evaluator.image.shape, 255.0)
        assert evaluator.intensity(worst) == pytest.approx(1.0)

    def test_clean_prediction_cached(self, evaluator):
        assert evaluator.clean_prediction.num_valid >= 1
        assert evaluator.weight_matrix.shape == evaluator.image.shape[:2]

    def test_extra_objectives_appended(self, yolo_detector, small_dataset):
        extra = lambda image, mask, prediction: 42.0  # noqa: E731
        evaluator = ButterflyObjectives(
            detector=yolo_detector,
            image=small_dataset[0].image,
            extra_objectives=(extra,),
        )
        vector = evaluator(np.zeros(small_dataset[0].image.shape))
        assert vector.shape == (4,)
        assert vector[3] == 42.0
        assert evaluator.num_objectives == 4

    def test_invalid_image_rejected(self, yolo_detector):
        with pytest.raises(ValueError):
            ButterflyObjectives(detector=yolo_detector, image=np.zeros((10, 10)))

    @pytest.mark.parametrize("use_activation_cache", [True, False])
    @pytest.mark.parametrize("value", [np.nan, -1.0, 256.0])
    @pytest.mark.parametrize("detector_name", ["yolo_detector", "detr_detector"])
    def test_out_of_range_scene_rejected(
        self, request, small_dataset, detector_name, value, use_activation_cache
    ):
        # The cached route decodes clip(image) and the uncached one the raw
        # pixels, so a scene outside [0, 255] would split the two paths.
        detector = request.getfixturevalue(detector_name)
        image = small_dataset[0].image.astype(np.float64)
        image[3, 5, 1] = value
        with pytest.raises(ValueError):
            ButterflyObjectives(
                detector=detector,
                image=image,
                use_activation_cache=use_activation_cache,
            )

    @pytest.mark.parametrize("value", [0.0, 255.0])
    def test_range_endpoints_accepted(self, yolo_detector, small_dataset, value):
        image = small_dataset[0].image.astype(np.float64)
        image[3, 5, 1] = value
        evaluator = ButterflyObjectives(detector=yolo_detector, image=image)
        assert evaluator.image[3, 5, 1] == value

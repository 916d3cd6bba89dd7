"""Tests for ensemble objectives (Equations 1-3) and the ensemble attack."""

import numpy as np
import pytest

from repro.core import ensemble
from repro.core.config import AttackConfig
from repro.core.ensemble import EnsembleAttack, EnsembleObjectives
from repro.core.objectives import ButterflyObjectives
from repro.core.regions import HalfImageRegion
from repro.detectors.ensemble import DetectorEnsemble
from repro.nsga.algorithm import NSGAII, NSGAConfig


@pytest.fixture(scope="module")
def ensemble_objectives(request):
    yolo = request.getfixturevalue("yolo_detector")
    detr = request.getfixturevalue("detr_detector")
    dataset = request.getfixturevalue("small_dataset")
    return (
        EnsembleObjectives(
            ensemble=DetectorEnsemble([yolo, detr]), image=dataset[0].image
        ),
        dataset[0].image,
        (yolo, detr),
    )


class TestEnsembleObjectives:
    def test_one_member_evaluator_per_detector(self, ensemble_objectives):
        objectives, _, _ = ensemble_objectives
        assert objectives.num_members == 2
        assert len(objectives.clean_predictions) == 2

    def test_empty_ensemble_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            EnsembleObjectives(ensemble=[], image=small_dataset[0].image)

    def test_intensity_equals_member_intensity(self, ensemble_objectives, rng):
        objectives, image, _ = ensemble_objectives
        mask = rng.normal(0, 5, size=image.shape)
        assert objectives.intensity(mask) == pytest.approx(
            objectives.members[0].intensity(mask)
        )

    def test_degradation_is_member_average(self, ensemble_objectives, rng, yolo_detector, detr_detector):
        objectives, image, _ = ensemble_objectives
        mask = rng.normal(0, 30, size=image.shape)
        member_values = [
            ButterflyObjectives(detector=d, image=image).degradation(mask)
            for d in (yolo_detector, detr_detector)
        ]
        assert objectives.degradation(mask) == pytest.approx(
            float(np.mean(member_values)), abs=1e-9
        )

    def test_distance_is_member_average(self, ensemble_objectives, rng):
        objectives, image, _ = ensemble_objectives
        mask = rng.normal(0, 5, size=image.shape)
        member_values = [member.distance(mask) for member in objectives.members]
        assert objectives.distance(mask) == pytest.approx(float(np.mean(member_values)))

    def test_zero_mask_vector(self, ensemble_objectives):
        objectives, image, _ = ensemble_objectives
        vector = objectives(np.zeros(image.shape))
        assert vector.shape == (3,)
        assert vector[0] == 0.0
        assert vector[1] == pytest.approx(1.0)

    def test_raw_objectives_keys(self, ensemble_objectives):
        objectives, image, _ = ensemble_objectives
        raw = objectives.raw_objectives(np.zeros(image.shape))
        assert set(raw) == {"intensity", "degradation", "distance"}


class TestEnsembleAttack:
    def test_attack_runs_and_respects_region(self, yolo_detector, detr_detector, small_dataset):
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=2, population_size=6, seed=0),
            region=HalfImageRegion("right"),
        )
        attack = EnsembleAttack([yolo_detector, detr_detector], config)
        result = attack.attack(small_dataset[0].image)
        assert len(result.solutions) == 6
        assert result.pareto_front
        middle = small_dataset[0].image.shape[1] // 2
        for solution in result.solutions:
            assert np.allclose(solution.mask.values[:, :middle, :], 0.0)
        assert "ensemble" in result.detector_name


class TestEnsembleAttackOptions:
    """Attack-level options reach NSGA-II through the shared config."""

    @pytest.fixture()
    def nsga_configs(self, monkeypatch):
        seen = []

        class RecordingNSGAII(NSGAII):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self.config)

        monkeypatch.setattr(ensemble, "NSGAII", RecordingNSGAII)
        return seen

    def test_default_config_passes_nsga_unchanged(
        self, yolo_detector, detr_detector, small_dataset, nsga_configs
    ):
        config = AttackConfig(nsga=NSGAConfig(num_iterations=1, population_size=4, seed=0))
        EnsembleAttack([yolo_detector, detr_detector], config).attack(small_dataset[0].image)
        assert len(nsga_configs) == 1
        assert nsga_configs[0] is config.nsga

    def test_sparse_init_and_annealing_applied(
        self, yolo_detector, detr_detector, small_dataset, nsga_configs
    ):
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=1, population_size=4, seed=0),
            sparse_init_fraction=0.5,
            anneal_final_window=0.002,
        )
        EnsembleAttack([yolo_detector, detr_detector], config).attack(small_dataset[0].image)
        assert nsga_configs[0].initialization.sparse_fraction == 0.5
        assert nsga_configs[0].annealing.final_window_fraction == 0.002

    def test_fast_search_rejected(self, yolo_detector, detr_detector, small_dataset):
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=1, population_size=4, seed=0),
            fast_search=True,
        )
        attack = EnsembleAttack([yolo_detector, detr_detector], config)
        with pytest.raises(ValueError, match="set_fidelity"):
            attack.attack(small_dataset[0].image)

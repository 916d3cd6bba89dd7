"""Tests for the temporally stable attack."""

import numpy as np
import pytest

from repro.core import temporal
from repro.core.config import AttackConfig
from repro.core.regions import HalfImageRegion
from repro.core.temporal import TemporalAttack, TemporalObjectives
from repro.data.sequences import generate_sequence
from repro.nsga.algorithm import NSGAII, NSGAConfig

from tests.conftest import SMALL_LENGTH, SMALL_WIDTH


@pytest.fixture(scope="module")
def sequence():
    return generate_sequence(
        num_frames=3,
        seed=9,
        image_length=SMALL_LENGTH,
        image_width=SMALL_WIDTH,
        half="left",
    )


class TestTemporalObjectives:
    def test_one_evaluator_per_frame(self, yolo_detector, sequence):
        objectives = TemporalObjectives(detector=yolo_detector, frames=list(sequence))
        assert objectives.num_frames == 3

    def test_empty_sequence_rejected(self, yolo_detector):
        with pytest.raises(ValueError):
            TemporalObjectives(detector=yolo_detector, frames=[])

    def test_mismatched_frame_shapes_rejected(self, yolo_detector):
        frames = [np.zeros((8, 8, 3)), np.zeros((8, 16, 3))]
        with pytest.raises(ValueError):
            TemporalObjectives(detector=yolo_detector, frames=frames)

    def test_zero_mask_objectives(self, yolo_detector, sequence):
        objectives = TemporalObjectives(detector=yolo_detector, frames=list(sequence))
        vector = objectives(np.zeros(sequence.frame(0).shape))
        assert vector[0] == 0.0
        assert vector[1] == pytest.approx(1.0)

    def test_degradation_averages_frames(self, yolo_detector, sequence, rng):
        objectives = TemporalObjectives(detector=yolo_detector, frames=list(sequence))
        mask = rng.normal(0, 40, size=sequence.frame(0).shape)
        per_frame = [obj.degradation(mask) for obj in objectives.per_frame]
        assert objectives.degradation(mask) == pytest.approx(float(np.mean(per_frame)))

    def test_raw_objectives_keys(self, yolo_detector, sequence):
        objectives = TemporalObjectives(detector=yolo_detector, frames=list(sequence))
        raw = objectives.raw_objectives(np.zeros(sequence.frame(0).shape))
        assert set(raw) == {"intensity", "degradation", "distance"}


class TestTemporalAttack:
    def test_attack_runs_on_sequence(self, detr_detector, sequence):
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=2, population_size=6, seed=0),
            region=HalfImageRegion("right"),
        )
        result = TemporalAttack(detr_detector, config).attack(sequence)
        assert len(result.solutions) == 6
        assert "frames" in result.detector_name
        middle = SMALL_WIDTH // 2
        for solution in result.solutions:
            assert np.allclose(solution.mask.values[:, :middle, :], 0.0)

    def test_attack_accepts_plain_frame_list(self, yolo_detector, sequence):
        config = AttackConfig(nsga=NSGAConfig(num_iterations=1, population_size=4, seed=0))
        result = TemporalAttack(yolo_detector, config).attack(list(sequence))
        assert len(result.solutions) == 4

    def test_cache_hits_reported(self, yolo_detector, sequence, monkeypatch):
        calls = []
        evaluate = TemporalObjectives.__call__

        def counted(self, mask):
            calls.append(1)
            return evaluate(self, mask)

        monkeypatch.setattr(TemporalObjectives, "__call__", counted)
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=4, population_size=8, seed=0),
            region=HalfImageRegion("right"),
        )
        result = TemporalAttack(yolo_detector, config).attack(sequence)
        assert result.cache_hits > 0
        assert result.num_queries == len(calls)
        assert result.num_evaluations == len(calls) + result.cache_hits


class TestTemporalAttackOptions:
    """Attack-level options reach NSGA-II through the shared config."""

    @pytest.fixture()
    def nsga_configs(self, monkeypatch):
        seen = []

        class RecordingNSGAII(NSGAII):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self.config)

        monkeypatch.setattr(temporal, "NSGAII", RecordingNSGAII)
        return seen

    def test_default_config_passes_nsga_unchanged(self, yolo_detector, sequence, nsga_configs):
        config = AttackConfig(nsga=NSGAConfig(num_iterations=1, population_size=4, seed=0))
        TemporalAttack(yolo_detector, config).attack(sequence)
        assert nsga_configs == [config.nsga]
        assert nsga_configs[0] is config.nsga

    def test_sparse_init_and_annealing_applied(self, yolo_detector, sequence, nsga_configs):
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=1, population_size=4, seed=0),
            sparse_init_fraction=0.5,
            anneal_final_window=0.002,
        )
        TemporalAttack(yolo_detector, config).attack(sequence)
        assert nsga_configs[0].initialization.sparse_fraction == 0.5
        assert nsga_configs[0].annealing.final_window_fraction == 0.002

    def test_fast_search_rejected(self, yolo_detector, sequence):
        config = AttackConfig(
            nsga=NSGAConfig(num_iterations=1, population_size=4, seed=0),
            fast_search=True,
        )
        with pytest.raises(ValueError, match="set_fidelity"):
            TemporalAttack(yolo_detector, config).attack(sequence)

"""The benchmark workloads: set-up, the timed call, and the output checks."""

from __future__ import annotations

import numpy as np

# repro.data and repro.detectors are called through their package, so the
# traced run's wrappers, which patch module attributes, see these calls.
import repro.data
import repro.detectors
from repro.core import AttackConfig, ButterflyAttack, ButterflyObjectives, HalfImageRegion
from repro.core.masks import apply_mask
from repro.core.objectives import objective_degradation
from repro.experiments import transfer
from repro.experiments.jobs import ModelSpec, build_cached
from repro.nsga import hypervolume
from spec import HV_REFERENCE, SCENE_SEED, SEARCH_SEED, TRANSFER_JOBS, WORKLOADS


def attack_config(spec: dict) -> AttackConfig:
    return AttackConfig.fast(
        region=HalfImageRegion("right"),
        seed=SEARCH_SEED,
        num_iterations=spec["generations"],
        population_size=spec["population"],
    )


def scene(spec: dict) -> np.ndarray:
    length, width = spec["shape"]
    dataset = repro.data.generate_dataset(
        1, seed=SCENE_SEED, image_length=length, image_width=width, half="left"
    )
    return dataset[0].image


def front_matrix(result) -> np.ndarray:
    """Minimised objective vectors of an attack's rank-1 front."""
    return np.array(
        [[s.intensity, s.degradation, -s.distance] for s in result.pareto_front],
        dtype=np.float64,
    )


def check_front(detector, image, config, result) -> bool:
    """Whether every front member's vector equals a dense re-derivation.

    The reference evaluator runs with the activation cache off, so each
    vector comes from ``detector.predict`` on ``clip(image + mask)``.
    """
    dense = ButterflyObjectives(
        detector=detector,
        image=image,
        epsilon=config.epsilon,
        use_activation_cache=False,
        use_delta_reuse=False,
    )
    expected = front_matrix(result)
    actual = np.array([dense(s.mask.values) for s in result.pareto_front])
    return expected.shape == actual.shape and np.array_equal(expected, actual)


def search_counts(results: list) -> dict:
    """Per-layer counters the attack results carry (summed over jobs)."""
    evaluations = sum(r.num_evaluations for r in results)
    hits = sum(r.cache_hits for r in results)
    genome_bytes = sum(
        r.num_evaluations * r.solutions[0].mask.values.nbytes for r in results
    )
    incremental = [r.incremental for r in results if r.incremental]
    delta_hits = sum(i["delta_hits"] for i in incremental)
    delta_lookups = delta_hits + sum(i["delta_misses"] for i in incremental)
    masks = sum(i["masks_evaluated"] for i in incremental)
    dirty = sum(i["dirty_area_ratio"] * i["masks_evaluated"] for i in incremental)
    return {
        "nsga.evaluations": evaluations,
        "nsga.cache_hit_ratio": hits / evaluations,
        "nsga.genome_bytes": genome_bytes,
        "detectors.delta_hit_ratio": delta_hits / delta_lookups if delta_lookups else 0.0,
        "detectors.dirty_area_ratio": dirty / masks if masks else 0.0,
    }


class SerialAttack:
    """One ``ButterflyAttack.attack`` call against one detector."""

    jobs = 1

    def __init__(self, name: str) -> None:
        self.spec = WORKLOADS[name]
        self.config = attack_config(self.spec)

    def setup(self) -> None:
        self.image = scene(self.spec)
        self.detector = repro.detectors.build_detector(self.spec["architecture"], seed=1)
        # The clean-activation bundle is part of set-up: the store builds it
        # now and the attack's evaluator finds it there.
        self.store = repro.detectors.ActivationCacheStore()
        self.store.get(self.detector, self.image)

    def call(self) -> None:
        attack = ButterflyAttack(self.detector, self.config, activation_store=self.store)
        self.result = attack.attack(self.image)

    def summary(self) -> dict:
        fronts = [front_matrix(self.result)]
        counts = search_counts([self.result])
        return {"evaluations": self.result.num_evaluations, "fronts": fronts, "counts": counts}

    def check(self) -> int:
        """Number of jobs failing the output check."""
        return 0 if check_front(self.detector, self.image, self.config, self.result) else 1


class TransferPlan:
    """``run_transferability_experiment`` over a mixed 4-model zoo."""

    def __init__(self, name: str) -> None:
        self.spec = WORKLOADS[name]
        self.config = attack_config(self.spec)
        self.specs = [ModelSpec(arch, model_seed) for arch, model_seed in self.spec["models"]]
        # One attack job and one matrix-column job per model.
        self.jobs = 2 * len(self.specs)

    def setup(self) -> None:
        self.image = scene(self.spec)
        # The parent trains the zoo once; the pool workers it forks for
        # each sweep inherit the built models.
        for spec in self.specs:
            build_cached(spec)

    def call(self) -> None:
        # Keep each stage's report: the attack fronts and job timings are
        # not part of the transfer result.
        self.reports = []
        execute_plan = transfer.execute_plan

        def keep_report(*args, **kwargs):
            report = execute_plan(*args, **kwargs)
            self.reports.append(report)
            return report

        transfer.execute_plan = keep_report
        try:
            self.result = transfer.run_transferability_experiment(
                self.specs,
                self.image,
                self.config,
                n_jobs=TRANSFER_JOBS,
                experiment_seed=SEARCH_SEED,
                release_models=False,
            )
        finally:
            transfer.execute_plan = execute_plan

    def attack_results(self) -> list:
        return [outcome.result for outcome in self.reports[0].outcomes]

    def summary(self) -> dict:
        results = self.attack_results()
        counts = search_counts(results)
        outcomes = [o for report in self.reports for o in report.outcomes]
        busy = sum(o.duration_seconds for o in outcomes)
        capacity = sum(r.duration_seconds * r.n_jobs for r in self.reports)
        counts.update(
            {
                "experiments.job_busy_s": busy,
                "experiments.worker_utilisation": busy / capacity,
                "experiments.retries": sum(r.retries for r in self.reports),
                "experiments.journal_hits": sum(r.journal_hits for r in self.reports),
            }
        )
        # Objective vectors requested by the attacks plus one prediction
        # per transfer-matrix cell.
        evaluations = counts["nsga.evaluations"] + self.result.matrix.size
        return {
            "evaluations": evaluations,
            "fronts": [front_matrix(r) for r in results],
            "matrices": [self.result.matrix],
            "counts": counts,
            "worker_spans": [getattr(o, "trace_spans", None) for o in outcomes],
        }

    def check(self) -> int:
        """Attack fronts and transfer-matrix columns against dense predict."""
        failed = 0
        detectors = [build_cached(spec) for spec in self.specs]
        for detector, result in zip(detectors, self.attack_results()):
            if not check_front(detector, self.image, self.config, result):
                failed += 1
        perturbed = [apply_mask(self.image, mask) for mask in self.result.best_masks]
        for column, detector in enumerate(detectors):
            clean = detector.predict(self.image)
            expected = self.result.matrix[:, column]
            actual = np.array(
                [objective_degradation(clean, detector.predict(image)) for image in perturbed]
            )
            if not np.array_equal(expected, actual):
                failed += 1
        return failed


def make(name: str):
    if "models" in WORKLOADS[name]:
        return TransferPlan(name)
    return SerialAttack(name)


def front_hv(fronts: list[np.ndarray]) -> float:
    """Mean hypervolume of the attack fronts at :data:`HV_REFERENCE`."""
    return float(np.mean([hypervolume(front, HV_REFERENCE) for front in fronts]))

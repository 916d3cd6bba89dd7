"""Tests of the benchmark harness itself.

Run from the repository root with::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from tracer import Tracer, aggregate, merge  # noqa: E402

from repro.core import AttackConfig, ButterflyAttack, HalfImageRegion  # noqa: E402
from repro.data import generate_dataset  # noqa: E402
from repro.detectors import TrainingConfig, build_detector  # noqa: E402
from repro.experiments import transfer  # noqa: E402
from repro.experiments.jobs import ModelSpec  # noqa: E402

TINY_TRAINING = TrainingConfig(
    scenes_per_class=4, image_length=64, image_width=208, background_clusters=32
)


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has c [2, 3];
    # b re-enters itself as b [6, 8].
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 2],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 1],
        ["b", 6.0, 8.0, 3, 1],
    ]
    result = aggregate(spans)
    assert result["root"] == {"total": 10.0, "self": 3.0, "calls": 1, "count": 0}
    assert result["a"] == {"total": 3.0, "self": 2.0, "calls": 1, "count": 2}
    assert result["c"] == {"total": 1.0, "self": 1.0, "calls": 1, "count": 0}
    # The nested b is not counted again in b's inclusive total.
    assert result["b"] == {"total": 4.0, "self": 4.0, "calls": 2, "count": 2}
    # Self times partition the root span.
    assert sum(entry["self"] for entry in result.values()) == 10.0
    doubled = merge([result, result])
    assert doubled["b"]["total"] == 8.0 and doubled["root"]["calls"] == 2


def test_tracer_records_nesting_from_wrapped_calls():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner", count=lambda x: x)
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    with tracer.span("top"):
        assert outer(3) == 8
    names = [(span[0], span[3], span[4]) for span in tracer.spans]
    assert names == [("top", -1, 0), ("outer", 0, 0), ("inner", 1, 3)]
    assert tracer.reset() and tracer.spans == []


def _attribute(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_wrapped_attributes_are_restored():
    from repro.detectors.base import Detector
    from repro.nn import attention, ops

    originals = {"softmax": ops.softmax, "attention_softmax": attention.softmax}
    tracer = Tracer()
    layers.install(tracer)
    patched = list(tracer._patches)
    assert len(patched) > 20
    assert ops.softmax is not originals["softmax"]
    assert attention.softmax is not originals["attention_softmax"]
    for owner, attr, original in patched:
        assert _attribute(owner, attr) is not original
    tracer.restore()
    for owner, attr, original in patched:
        assert _attribute(owner, attr) is original
    assert ops.softmax is originals["softmax"]
    assert attention.softmax is originals["attention_softmax"]
    assert "predict_delta_batch" in Detector.__dict__


def _front(result):
    return np.array([[s.intensity, s.degradation, -s.distance] for s in result.pareto_front])


@pytest.mark.parametrize("architecture", ["yolo", "detr"])
def test_traced_and_untraced_fronts_are_bit_identical(architecture):
    detector = build_detector(architecture, seed=1, training=TINY_TRAINING)
    image = generate_dataset(1, seed=7, image_length=64, image_width=208, half="left")[0].image
    config = AttackConfig.fast(
        region=HalfImageRegion("right"), seed=3, num_iterations=3, population_size=6
    )
    plain = ButterflyAttack(detector, config).attack(image)

    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = ButterflyAttack(detector, config).attack(image)
    finally:
        tracer.restore()

    assert np.array_equal(_front(plain), _front(traced))
    assert (plain.num_evaluations, plain.cache_hits) == (traced.num_evaluations, traced.cache_hits)
    assert plain.incremental == traced.incremental
    spans = aggregate(tracer.spans)
    for name in ("nsga.run", "nsga.rank", "core.project", "core.evaluate", "detectors.delta"):
        assert spans[name]["calls"] > 0
    if architecture == "detr":
        assert spans["nn.attention"]["count"] > 0


def test_pool_workers_ship_their_spans_back():
    specs = [
        ModelSpec("yolo", 1, training=TINY_TRAINING),
        ModelSpec("detr", 1, training=TINY_TRAINING),
    ]
    image = generate_dataset(1, seed=7, image_length=64, image_width=208, half="left")[0].image
    config = AttackConfig.fast(
        region=HalfImageRegion("right"), num_iterations=2, population_size=4
    )

    def run():
        return transfer.run_transferability_experiment(
            specs, image, config, n_jobs=2, backend="process", experiment_seed=5
        )

    plain = run()
    tracer = Tracer()
    layers.install(tracer)
    reports = []
    execute_plan = transfer.execute_plan

    def keep_report(*args, **kwargs):
        reports.append(execute_plan(*args, **kwargs))
        return reports[-1]

    transfer.execute_plan = keep_report
    try:
        traced = run()
    finally:
        transfer.execute_plan = execute_plan
        tracer.restore()

    assert np.array_equal(plain.matrix, traced.matrix)
    parent = aggregate(tracer.spans)
    assert parent["experiments.transfer-optimise"]["calls"] == 1
    assert parent["experiments.transfer-evaluate"]["calls"] == 1
    worker_spans = [o.trace_spans for r in reports for o in r.outcomes]
    assert len(worker_spans) == 4 and all(worker_spans)
    assert merge([aggregate(s) for s in worker_spans])["nsga.run"]["calls"] == 2

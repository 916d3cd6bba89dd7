"""Which public functions of each layer the traced run wraps, and the
per-layer timings derived from their spans.

The per-layer metrics are listed in BENCHMARK.json; README.md beside this
file says which end-to-end metric each should move, on which workload.
"""

from __future__ import annotations

import math

from tracer import Tracer, merge

#: Span wrapping the timed attack or sweep call; its self time is the part
#: of the run that no wrapped layer accounts for.
TOP_SPAN = "bench.call"

#: Span name -> metric reading its inclusive total time.
_TOTALS = {
    "data.generate": "data.generate_s",
    "detectors.clean": "detectors.clean_s",
    "nsga.run": "nsga.run_s",
    "nsga.rank": "nsga.rank_s",
    "core.project": "core.project_s",
    "core.evaluate": "core.evaluate_s",
    "detectors.delta": "detectors.delta_s",
    "detectors.dense": "detectors.dense_s",
    "detectors.logits": "detectors.logits_s",
    "detectors.decode": "detectors.decode_s",
    "nn.features": "nn.features_s",
    "nn.attention": "nn.encoder_attention_s",
    "nn.softmax": "nn.softmax_s",
    "detection.nms": "detection.nms_s",
    "experiments.transfer-optimise": "experiments.optimise_stage_s",
    "experiments.transfer-evaluate": "experiments.evaluate_stage_s",
}


def _attention_score_elems(layer, tokens, *args, **kwargs) -> int:
    """B·heads·N² score entries one ``MultiHeadSelfAttention`` call builds."""
    batch = math.prod(tokens.shape[:-2])
    return int(batch * layer.num_heads * tokens.shape[-2] ** 2)


def _mask_count(detector, image, masks, *args, **kwargs) -> int:
    return int(len(masks))


def _plan_span(plan, *args, **kwargs) -> str:
    return f"experiments.{plan.name}"


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary; ``tracer.restore()`` undoes it."""
    from repro.core.objectives import ButterflyObjectives
    from repro.core.regions import Region
    from repro.data import dataset
    from repro.detection import nms
    from repro.detectors import decode, zoo
    from repro.detectors.base import Detector
    from repro.detectors.prototypes import PrototypeBank
    from repro.experiments import engine
    from repro.nn import ops
    from repro.nn.attention import MultiHeadSelfAttention
    from repro.nn.features import GridFeatureExtractor
    from repro.nsga import crowding, sorting
    from repro.nsga.algorithm import NSGAII

    tracer.trace_function(dataset.generate_dataset, "data.generate")
    tracer.trace_function(zoo.build_detector, "detectors.build")
    tracer.trace_method(Detector, "clean_activations", "detectors.clean")
    tracer.trace_method(NSGAII, "run", "nsga.run")
    tracer.trace_function(sorting.fast_non_dominated_sort, "nsga.rank")
    tracer.trace_function(crowding.crowding_distance, "nsga.rank")
    tracer.trace_method(Region, "project", "core.project")
    tracer.trace_method(ButterflyObjectives, "evaluate_population", "core.evaluate")
    tracer.trace_method(ButterflyObjectives, "predict_population", "core.predict")
    tracer.trace_method(
        Detector, "predict_delta_batch", "detectors.delta", count=_mask_count
    )
    tracer.trace_method(Detector, "predict_batch", "detectors.dense")
    tracer.trace_method(PrototypeBank, "probabilities", "detectors.logits")
    for decoder in (
        decode.decode_cell_probabilities,
        decode.decode_cell_probabilities_vectorised,
        decode.decode_cell_probabilities_batch,
    ):
        tracer.trace_function(decoder, "detectors.decode")
    for attr in ("__call__", "batch", "window_features"):
        tracer.trace_method(GridFeatureExtractor, attr, "nn.features")
    tracer.trace_method(
        MultiHeadSelfAttention, "__call__", "nn.attention", count=_attention_score_elems
    )
    tracer.trace_function(ops.softmax, "nn.softmax")
    tracer.trace_function(nms.non_max_suppression, "detection.nms")
    tracer.trace_function(engine.execute_plan, _plan_span)

    # Pool workers are forked with these patches in place.  The job entry
    # point clears the spans a worker inherited from the parent and ships
    # the job's own spans back on the outcome it returns.
    run_job = engine._run_job_in_worker

    def run_job_traced(job):
        tracer.reset()
        outcome = run_job(job)
        outcome.trace_spans = tracer.reset()
        return outcome

    # The pool pickles the job function by its qualified name, which must
    # resolve to the patched attribute.
    run_job_traced.__module__ = run_job.__module__
    run_job_traced.__qualname__ = run_job.__qualname__
    tracer.patch(engine, "_run_job_in_worker", run_job_traced)


def span_metrics(parent: dict, workers: list[dict]) -> dict[str, float]:
    """Per-layer timings from aggregated parent and worker spans."""
    combined = merge([parent] + workers)

    def read(table, name, key):
        return float(table.get(name, {}).get(key, 0.0))

    metrics = {metric: read(combined, span, "total") for span, metric in _TOTALS.items()}
    # Detector builds are counted on the parent side: pool workers either
    # inherit the parent's builds or rebuild, depending on the start method.
    metrics["detectors.build_s"] = read(parent, "detectors.build", "total")
    metrics["nsga.self_s"] = read(combined, "nsga.run", "self")
    metrics["core.objectives_self_s"] = read(combined, "core.evaluate", "self")
    metrics["core.project_calls"] = read(combined, "core.project", "calls")
    metrics["detectors.delta_masks"] = read(combined, "detectors.delta", "count")
    metrics["nn.attention_score_elems"] = read(combined, "nn.attention", "count")
    metrics["trace.top_self_s"] = read(parent, TOP_SPAN, "self")
    return metrics

"""The timed calls of one run, in a fresh interpreter.

Started by run.py with ``--spawned-at`` set to ``time.monotonic()`` just
before the process was created, so set-up time covers interpreter start
and imports.  With ``--setup-only 1`` the process only sets up and reports
its set-up time.  Otherwise it sets up, makes one warm-up call whose
outputs are checked against dense ``predict``, and then times the call
again and again until ``--until`` (a ``time.monotonic()`` deadline) would
be overrun.  Every timed call must reproduce the warm-up call's counters,
hypervolume and outputs bit for bit.  With ``--trace 1`` set-up and every
second timed call run with the layer wrappers installed.  Prints one JSON
record as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

#: Timed calls every run makes, however long they take.
MIN_CALLS = 3

#: Counters measured in time; they vary from call to call, so they are
#: reported with the spans of traced calls and left out of the signature.
TIMED_COUNTS = ("experiments.job_busy_s", "experiments.worker_utilisation")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    parser.add_argument("--until", type=float, default=0.0)
    args = parser.parse_args()

    import numpy as np

    import layers
    import workloads
    from tracer import Tracer, aggregate, merge

    workload = workloads.make(args.workload)
    tracer = Tracer()
    if args.trace:
        layers.install(tracer)
    try:
        workload.setup()
        setup_s = time.monotonic() - args.spawned_at
    finally:
        tracer.restore()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    setup_spans = aggregate(tracer.reset())

    def signature() -> dict:
        summary = workload.summary()
        digest = hashlib.sha256()
        for output in summary["fronts"] + summary.get("matrices", []):
            digest.update(np.ascontiguousarray(output).tobytes())
        return {
            "evaluations": summary["evaluations"],
            "front_hv": workloads.front_hv(summary["fronts"]),
            "front_digest": digest.hexdigest(),
            "counts": {
                key: value
                for key, value in summary["counts"].items()
                if key not in TIMED_COUNTS
            },
        }

    # Warm-up: fills lazy state and the allocator's pages before timing.
    # Its outputs are the ones re-derived with dense predict.
    workload.call()
    reference = signature()
    failed = workload.check()
    attempted = workload.jobs

    calls: list[dict] = []
    while True:
        traced = bool(args.trace) and len(calls) % 2 == 1
        if traced:
            tracer.reset()
            layers.install(tracer)
        try:
            with tracer.span(layers.TOP_SPAN):
                started = time.monotonic()
                start = time.perf_counter()
                workload.call()
                run_s = time.perf_counter() - start
                ended = time.monotonic()
        finally:
            tracer.restore()
        # run.py samples this process tree's memory and takes each call's
        # peak over [started, ended] (the monotonic clock is system-wide).
        call = {"run_s": run_s, "trace": traced, "started": started, "ended": ended}
        if traced:
            summary = workload.summary()
            workers = [aggregate(s) for s in summary.get("worker_spans", ()) if s]
            parent = merge([setup_spans, aggregate(tracer.reset())])
            call["spans"] = layers.span_metrics(parent, workers)
            call["spans"].update(
                {key: summary["counts"][key] for key in TIMED_COUNTS if key in summary["counts"]}
            )
        attempted += workload.jobs
        if signature() != reference:
            failed += workload.jobs
            call["differs"] = True
        calls.append(call)
        # The slowest call so far predicts the next: a run that overruns
        # --seconds costs every run of the benchmark's time budget.
        longest = max(c["run_s"] for c in calls)
        if len(calls) >= MIN_CALLS and time.monotonic() + longest > args.until:
            break

    record = {
        "setup_s": setup_s,
        "calls": calls,
        "signature": reference,
        "attempted": attempted,
        "failed": failed,
    }
    print(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one run of repeated timed calls.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kitti-yolo --seed 1 --seconds 40 --trace 0

``--seed`` is accepted and recorded, but every input is fixed in spec.py
(see README.md for why).

Every process of a run is a fresh interpreter running ``perfbench/sample.py``
with BLAS threads pinned to 1.  An untraced run first starts
``SETUPS - 1`` processes that only set up, to time set-up several times.
Then one process sets up, makes a warm-up call whose outputs it checks
against dense ``predict``, and times the call again and again until
``--seconds`` from the start of the run would be overrun (at least
``sample.MIN_CALLS`` times; with ``--trace 1`` traced and untraced calls
alternate).  Every metric is the median over the set-ups or the timed calls.

Prints one line per metric with its unit, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics for ``--trace 0``, the per-layer metrics for
``--trace 1``).  Each run's record, with its environment, is also appended
to ``perfbench/records/runs.jsonl``; a later run of the same code whose
counters, hypervolume or outputs differ is flagged and counted as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import TRANSFER_JOBS, WORKLOADS  # noqa: E402

#: Environment of every benchmark process: one BLAS/OpenMP thread, so the
#: pooled workload's workers do not oversubscribe the cores.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Set-ups timed per untraced run: this many minus one set-up-only
#: processes, plus the set-up of the process that times the calls.
SETUPS = 3

#: A run is stopped as hung once it has taken this many seconds.
RUN_TIMEOUT_S = 170.0

#: Seconds left at the end of a run for the timing process to exit and
#: for the result to be printed.
CLOSE_S = 1.0

#: How often the memory of a timing process's tree is sampled.
MEMORY_INTERVAL_S = 0.025

#: Counters that must repeat exactly across the calls and runs of one code version.
DETERMINISTIC = (
    "nsga.evaluations",
    "nsga.cache_hit_ratio",
    "detectors.delta_hit_ratio",
)

def tree_rss_mb(pid: int) -> float:
    """Resident memory of ``pid`` plus all its live descendants, in MB."""
    total_kb, pending = 0, [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        total_kb += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as children:
                    pending.extend(int(child) for child in children.read().split())
        except (FileNotFoundError, ProcessLookupError, ValueError):
            continue
    return total_kb / 1024.0


def stop_group(pgid: int) -> None:
    """Kill what a crashed or hung sample left in its process group, and wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_process(root: Path, workload: str, trace: int, deadline: float, *extra: str) -> dict:
    """Run ``sample.py`` in a fresh interpreter, sampling its process tree's memory."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [
            sys.executable,
            str(HERE / "sample.py"),
            "--workload", workload,
            "--trace", str(trace),
            "--spawned-at", repr(spawned_at),
            *extra,
        ],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    memory: list[tuple[float, float]] = []
    done = threading.Event()

    def watch() -> None:
        while not done.is_set():
            memory.append((time.monotonic(), tree_rss_mb(proc.pid)))
            done.wait(MEMORY_INTERVAL_S)

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"run hung for more than {RUN_TIMEOUT_S:.0f} s"}
    finally:
        done.set()
        watcher.join()
        stop_group(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"process exited with {proc.returncode}: {stderr.strip()[-2000:]}"}
    record = json.loads(lines[-1])
    for call in record.get("calls", ()):
        call["peak_rss_mb"] = max(
            (rss for at, rss in memory if call["started"] <= at <= call["ended"]),
            default=0.0,
        )
    return record


def code_digest(root: Path) -> str:
    """Digest of the program and benchmark sources (the checkout need not be git)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def environment(root: Path) -> dict:
    import numpy

    return {
        "commit": git_commit(root),
        "code_digest": code_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "platform": platform.platform(),
    }


def signature(record: dict) -> dict:
    """The values that must repeat exactly for one code version."""
    reference = record["signature"]
    values = {key: reference["counts"][key] for key in DETERMINISTIC}
    values["front_hv"] = reference["front_hv"]
    values["front_digest"] = reference["front_digest"]
    return values


def median(values) -> float:
    return float(statistics.median(values))


def per_layer(record: dict, names: list[str]) -> dict[str, float]:
    traced = [c for c in record["calls"] if c["trace"]]
    untraced = [c for c in record["calls"] if not c["trace"]]
    counts = record["signature"]["counts"]
    metrics = {
        name: median(c["spans"].get(name, counts.get(name, 0.0)) for c in traced)
        for name in names
    }
    metrics["trace.run_s"] = median(c["run_s"] for c in traced)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - median(
        c["run_s"] for c in untraced
    )
    return metrics


def end_to_end(
    record: dict, setups: list[float], attempted: int, failed: int
) -> dict[str, float]:
    calls = record["calls"]
    evaluations = record["signature"]["evaluations"]
    return {
        "setup_s": median(setups),
        "run_s": median(c["run_s"] for c in calls),
        "evals_per_s": median(evaluations / c["run_s"] for c in calls),
        "peak_rss_mb": median(c["peak_rss_mb"] for c in calls),
        "front_hv": record["signature"]["front_hv"],
        "passed_ratio": (attempted - failed) / attempted,
    }


def check_history(path: Path, key: dict, sig: dict) -> list[str]:
    """Problems found comparing with earlier runs of the same code."""
    problems = []
    if path.is_file():
        for line in path.read_text().splitlines():
            earlier = json.loads(line)
            if earlier["key"] == key and earlier["signature"] != sig:
                problems.append(
                    f"determinism: run differs from an earlier run of the same "
                    f"code: {earlier['signature']} vs {sig}"
                )
                break
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"error: no program sources at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # Metric names and units come from the benchmark's contract file.
    section = "per_layer" if args.trace else "end_to_end"
    units = {
        metric["name"]: metric["unit"]
        for metric in json.loads((root / "BENCHMARK.json").read_text())[section]
    }
    nproc = len(os.sched_getaffinity(0))
    if "models" in WORKLOADS[args.workload] and TRANSFER_JOBS > nproc:
        print(
            f"error: {args.workload} needs {TRANSFER_JOBS} worker processes "
            f"but only {nproc} CPUs are available",
            file=sys.stderr,
        )
        return 2

    env = environment(root)
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    setups: list[float] = []
    errors: list[str] = []
    # Set-up alone, timed in fresh processes.  A traced run reports no
    # set-up time and spends all its time on timed calls.
    for _ in range(0 if args.trace else SETUPS - 1):
        setup = run_process(root, args.workload, 0, deadline, "--setup-only", "1")
        if "error" in setup:
            errors.append(setup["error"])
            break
        setups.append(setup["setup_s"])
    record: dict = {}
    if not errors:
        until = start + args.seconds - CLOSE_S
        record = run_process(root, args.workload, args.trace, deadline, "--until", repr(until))
        errors.extend([record["error"]] if "error" in record else [])
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        return 1

    setups.append(record["setup_s"])
    attempted, failed = record["attempted"], record["failed"]
    differing = sum(1 for call in record["calls"] if call.get("differs"))
    if differing:
        errors.append(f"determinism: {differing} timed calls differ from the warm-up call")
    first = signature(record)
    records = HERE / "records" / "runs.jsonl"
    key = {"workload": args.workload, "code": env["code_digest"]}
    history = check_history(records, key, first)
    errors.extend(history)
    if history:
        failed = attempted
    records.parent.mkdir(exist_ok=True)
    with records.open("a") as out:
        out.write(
            json.dumps({"key": key, "seed": args.seed, "signature": first, "environment": env})
            + "\n"
        )

    if args.trace:
        metrics = per_layer(record, list(units))
    else:
        metrics = end_to_end(record, setups, attempted, failed)
    metrics = {name: metrics[name] for name in units}

    print(f"workload {args.workload}  seed {args.seed}  timed calls {len(record['calls'])}  "
          f"set-ups {len(setups)}  environment {json.dumps(env)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'setup_s per set-up':34s} " + " ".join(f"{v:.4f}" for v in setups))
    print(f"  {'run_s per call (t: traced)':34s} " + " ".join(
        f"{c['run_s']:.4f}{'t' if c['trace'] else ''}" for c in record["calls"]
    ))
    print(f"  {'failed_ratio':34s} {failed / attempted:14.6g} ratio")
    for error in errors:
        print(f"  FLAGGED {error}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

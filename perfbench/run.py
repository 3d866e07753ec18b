"""Benchmark ietlab on seeded workloads, end to end or traced layer by layer.

    python3 perfbench/run.py --workload NAME|all --seed N [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --seed N --inputs R

Workloads are ``chain-recount``, ``random-induce`` and ``cli-suite``
(see ``workloads.py``).  Everything runs in this one process and thread.

Untraced (``--trace 0``): set-up (a fresh import of ``ietlab``, loading and
validating the stored input pool, drawing the seeded rounds) is done
``SETUP_REPEATS`` times, spread over the run, and its median is ``setup_s``.
Whole rounds run until their time reaches ``--seconds`` and at least
``MIN_JOBS`` distinct inputs are done.  A job is one input carried through
the workload's pipeline, timed alone, and checked against its stored
reference.  Printed metrics: ``setup_s``,
``jobs_per_s`` (jobs / summed job time), ``job_p50_ms``, ``job_tail_ms`` (the
``TAIL_PERCENTILE``-th percentile, with at least ten samples beyond it),
``peak_rss_mb`` and ``fail_frac``.  The latency percentiles are taken over
the distinct inputs of the run, each at the median of its own job times, so
an input that a run happens to repeat does not count twice.

Traced (``--trace 1``): the first ``max(1, seconds // 15)`` rounds run once
untraced and once with the wrappers of ``tracing.py`` installed; the
per-layer metrics come from the traced pass, ``trace.overhead_frac`` is
traced / untraced job time - 1, and the spans are written to
``.perfbench_work/traces/``.

``--inputs R`` prints the exact-text inputs of the first R rounds instead.

Every metric is printed as ``name value unit``, then a correctness line,
then one JSON object as the last line.  Exit status: 0 when every job
matched its reference, 1 when any did not, 2 when ``src/ietlab`` is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Rounds, large_d, load_pool, max_bits  # noqa: E402

SETUP_REPEATS = 9
TAIL_PERCENTILE = 90
MIN_JOBS = math.ceil(10 / (1 - TAIL_PERCENTILE / 100))
# Stop starting rounds after this long whatever the job count, to end within 180 s.
HARD_STOP_S = 150.0
WORK = ROOT / ".perfbench_work"


def fresh_import():
    """Import ietlab (and its CLI) anew, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "ietlab" or n.startswith("ietlab.")]:
        del sys.modules[name]
    importlib.import_module("ietlab.cli")
    return sys.modules["ietlab"]


def set_up(workload, seed: int, workdir: Path):
    lib = fresh_import()
    pool = load_pool(workload.name)
    workload.prepare(lib, pool, workdir)
    return lib, Rounds(workload.name, seed, pool)


class Tally:
    """Jobs run so far and the ones whose output differed from the reference."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.observed = []
        self.failed = 0

    def run(self, lib, entry, workdir: Path):
        observed = self.workload.job(lib, entry, workdir)
        self.observed.append((entry, observed))
        if not observed.matches(entry):
            self.failed += 1
            print(f"MISMATCH {self.workload.name} entry {entry.id}: expected "
                  f"{entry.outcome}, got {observed.outcome}", file=sys.stderr)
        return observed

    def distinct(self) -> dict[int, list[float]]:
        """The job times of every input run so far, by pool entry id."""
        times: dict[int, list[float]] = {}
        for entry, observed in self.observed:
            times.setdefault(entry.id, []).append(observed.seconds)
        return times


def untraced(workload, seed: int, seconds: int, workdir: Path):
    setups = []

    def timed_set_up():
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        prepared = set_up(workload, seed, workdir)
        setups.append(time.perf_counter() - start)
        return prepared

    # The set-ups are spread over the run, one per 1/SETUP_REPEATS of --seconds,
    # so that their median does not hang on one short stretch of machine speed.
    # Only round time counts towards --seconds.
    lib, rounds = timed_set_up()
    tally = Tally(workload)
    elapsed = 0.0
    r = 0
    while True:
        start = time.perf_counter()
        for entry in rounds[r]:
            tally.run(lib, entry, workdir)
        r += 1
        elapsed += time.perf_counter() - start
        if (elapsed >= seconds and len(tally.distinct()) >= MIN_JOBS) or elapsed >= HARD_STOP_S:
            break
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            lib, rounds = timed_set_up()
    while len(setups) < SETUP_REPEATS:
        timed_set_up()
    n = len(tally.observed)
    latencies = sorted(statistics.median(seconds) for seconds in tally.distinct().values())
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(latencies))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (n / sum(o.seconds for _, o in tally.observed), "1/s"),
        "job_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "job_tail_ms": (latencies[rank - 1] * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    extra = {
        "fail_frac": (tally.failed / n, "ratio"),
        "tail_percentile": (TAIL_PERCENTILE, "%"),
        "tail_samples_beyond": (len(latencies) - rank, "count"),
        "jobs": (n, "count"),
        "distinct_inputs": (len(latencies), "count"),
        "rounds": (r, "count"),
    }
    return metrics, extra, tally


def traced(workload, seed: int, seconds: int, workdir: Path):
    shutil.rmtree(workdir, ignore_errors=True)
    lib, rounds = set_up(workload, seed, workdir)
    entries = [e for r in range(max(1, seconds // 15)) for e in rounds[r]]
    tally = Tally(workload)
    plain = [tally.run(lib, entry, workdir) for entry in entries]
    tracer = Tracer()
    tracer.install()
    try:
        with_trace = []
        for job, entry in enumerate(entries):
            tracer.job = job
            with_trace.append(tally.run(lib, entry, workdir))
    finally:
        tracer.uninstall()
    tracer.write_spans(WORK / "traces" / f"{workload.name}-seed{seed}.jsonl")
    traced_s = sum(o.seconds for o in with_trace)
    metrics = tracer.layer_metrics()
    metrics.update({
        "exactnum.max_bits": (max(max_bits(o.exact) for o in with_trace), "bits"),
        "exactnum.large_d_share": (
            sum(o.seconds for e, o in zip(entries, with_trace) if large_d(e)) / traced_s,
            "ratio"),
        "cli.bytes_written": (sum(o.bytes_written for o in with_trace), "bytes"),
        "trace.overhead_frac": (traced_s / sum(o.seconds for o in plain) - 1, "ratio"),
    })
    extra = {"jobs": (len(entries), "count"), "spans": (len(tracer.spans), "count"),
             "traced_job_s": (traced_s, "s")}
    extra.update({f"self.{layer}": (s, "s") for layer, s in sorted(tracer.self_s.items())})
    return metrics, extra, tally


def print_inputs(workload, seed: int, count: int) -> None:
    workdir = WORK / workload.name
    _, rounds = set_up(workload, seed, workdir)
    for r in range(count):
        for entry in rounds[r]:
            print(json.dumps({"round": r, "id": entry.id, "input": entry.input}, sort_keys=True))
    shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark ietlab on seeded workloads.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", type=int, metavar="R",
                        help="print the inputs of the first R rounds and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = ROOT / "src"
    if not (src / "ietlab" / "__init__.py").is_file():
        print(f"perfbench: no ietlab package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.inputs is not None:
        for name in names:
            print_inputs(WORKLOADS[name], args.seed, args.inputs)
        return 0

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workdir = WORK / name
        measure = traced if args.trace else untraced
        metrics, extra, tally = measure(WORKLOADS[name], args.seed, args.seconds, workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        prefix = f"{name}." if args.workload == "all" else ""
        for key, (value, unit) in {**metrics, **extra}.items():
            print(f"{prefix}{key} {value!r} {unit}")
        print(f"{prefix}correctness {'pass' if tally.failed == 0 else 'fail'}: "
              f"{len(tally.observed) - tally.failed}/{len(tally.observed)} jobs match the reference")
        result["attempted"] += len(tally.observed)
        result["failed"] += tally.failed
        result["metrics"].update({f"{prefix}{key}": {"value": value, "unit": unit}
                                  for key, (value, unit) in metrics.items()})
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

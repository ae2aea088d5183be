"""Benchmark ridematch on one workload: search or experiment.

    python3 perfbench/run.py --workload search --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The package is imported from `src/` of that
checkout, never from anywhere else. Set-up runs several times and reports
its median; then whole rounds of the workload's operation repeat until
`--seconds` have passed, and the outputs are checked after the timed region.
The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` they are the per-layer ones from a traced run, which also
writes its spans to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One process, one thread: every workload has a single client, and BLAS
# worker threads would only contend with it on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
# Set-up repeats at least this often and for at least this long; its median counts.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
WORKLOADS = ("search", "experiment")


def import_package():
    """Put the checkout's src/ first on the path; fail if the package is absent."""
    if not (SRC / "ridematch" / "__init__.py").is_file():
        raise SystemExit(f"error: no ridematch package in {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import ridematch

    if Path(ridematch.__file__).resolve().parent != SRC / "ridematch":
        raise SystemExit(f"error: ridematch imported from {ridematch.__file__}, not {SRC}")


def make_workload(name: str, seed: int, smoke: bool, workdir: Path):
    import workloads

    if name == "search":
        return workloads.Search(seed, smoke)
    return workloads.Experiment(seed, smoke, workdir)


def timed_rounds(workload, seconds: float, tracer=None) -> tuple[list, list]:
    """Whole rounds until `seconds` have passed (at least one): (untraced, traced).

    With a tracer, untraced and traced rounds alternate, so that drift in the
    machine's speed cancels out of the tracing overhead.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(workload.round())
        if tracer is not None:
            tracer.run_id = f"round-{len(traced)}"
            tracer.install()
            try:
                traced.append(workload.round())
            finally:
                tracer.uninstall()
    return plain, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rounds, setup_times, rss_mb, quality) -> dict:
    """Every end-to-end metric as name -> (value, unit).

    Every round asks for the same rides in the same order. A ride's latency
    is the median over rounds of the time it waited for its matches, which
    keeps the machine's slow spells out of the percentiles over rides.
    """
    full = [r.latencies for r in rounds if r.latencies]
    per_ride = np.median(np.array(full), axis=0) * 1e3 if full else np.zeros(1)
    rates = [r.rides / r.search_seconds for r in rounds if r.search_seconds > 0]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "search_rides_per_s": (statistics.median(rates) if rates else 0.0, "rides/s"),
        "recall_at_10": (quality.get("recall_at_10", 0.0), "fraction"),
        "query_p50_ms": (float(np.percentile(per_ride, 50)), "ms"),
        "query_p99_ms": (float(np.percentile(per_ride, 99)), "ms"),
        "experiment_s": (statistics.median(r.seconds for r in rounds), "s"),
        "lsh_utility_fraction": (quality.get("lsh_utility_fraction", 0.0), "fraction"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run(args) -> int:
    import_package()
    from tracing import Tracer

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir()
    try:
        workload = make_workload(args.workload, args.seed, args.smoke, workdir)
        tracer = Tracer() if args.trace else None
        setup_times = []
        if tracer is not None:
            tracer.install()
        while not setup_times or (
            tracer is None and (len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS)
        ):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        plain, traced = timed_rounds(workload, args.seconds, tracer)
        rounds = plain + traced
        rss_mb = peak_rss_mb()
        errors, quality = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(rounds, setup_times, rss_mb, quality)
    else:
        metrics, silent = tracer.layer_metrics(len(traced), workload.boundaries)
        plain_s = statistics.median(r.seconds for r in plain)
        traced_s = statistics.median(r.seconds for r in traced)
        metrics["trace.overhead"] = (traced_s / plain_s - 1.0, "fraction")
        tracer.write(RESULTS / f"trace-{args.workload}-{args.seed}.json")
        errors += [f"traced boundary {name} recorded no span" for name in silent]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<10} {name:<36} {value:14.6g} {unit}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs that run in seconds")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

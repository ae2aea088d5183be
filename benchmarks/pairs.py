"""Run alternating parent/change pairs of the benchmark and summarize them.

    python3 benchmarks/pairs.py --parent HEAD~1 --change HEAD \
        --seeds 501-510 --trace-seed 511 --out BENCH_<n>.json

Each commit is `git archive`d into its own temporary directory, so both
sides run the committed files only. A pair runs `perfbench/run.py --trace 0`
once in each checkout with the same workload and seed, one after the other;
which side goes first alternates from pair to pair, so a drift in machine
speed does not favour one side. The change's BENCHMARK.json sets the rest:
every workload it lists is run, each run lasts its `run_seconds`, and each
metric's direction is its `better` field. The output holds every run's
JSON line and, per workload and metric, each side's median and quartiles, the
pairs the change won and tied, and the median of the per-pair change/parent
ratios. With --trace-seed, one more pair per workload runs with `--trace 1`
for TRACE_SECONDS, and the output sets each side's per-layer metrics (the
`per_layer` list of BENCHMARK.json) side by side: where the time went.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
TRACE_SECONDS = 15  # a traced run reads per-layer shares, which need no long run


def parse_seeds(text: str) -> list[int]:
    """"501-510" or "1,5,9" (or a mix, "1-3,7") as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    return seeds


def resolve(commit: str, repo: Path) -> str:
    out = subprocess.run(["git", "rev-parse", "--verify", f"{commit}^{{commit}}"], cwd=repo,
                         check=True, capture_output=True, text=True)
    return out.stdout.strip()


def archive(commit: str, repo: Path, dest: Path) -> None:
    """Extract the committed tree of commit into dest."""
    dest.mkdir(parents=True)
    git = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=repo, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout, check=True)
    git.stdout.close()
    if git.wait() != 0:
        raise SystemExit(f"error: git archive {commit} failed")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One `perfbench/run.py` run: its JSON line, or an error record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "exit_code": proc.returncode, "error": proc.stderr.strip()[-2000:]}
    result["exit_code"] = proc.returncode
    return result


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per workload and metric: each side's median and quartiles over the
    seeds both sides measured, the pairs the change won and tied, and the
    median per-pair change/parent ratio.

    runs: workload -> side -> seed -> run JSON (perfbench/run.py's last line).
    metrics: BENCHMARK.json's end_to_end entries (name, unit, better).
    """
    out: dict = {}
    for workload, sides in runs.items():
        out[workload] = {}
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            pairs = []
            for seed, parent in sides["parent"].items():
                change = sides["change"].get(seed, {})
                a = parent.get("metrics", {}).get(name, {}).get("value")
                b = change.get("metrics", {}).get(name, {}).get("value")
                if a is not None and b is not None:
                    pairs.append((a, b))
            if not pairs:
                continue
            ratios = [b / a for a, b in pairs if a != 0]
            out[workload][name] = {
                "unit": m["unit"],
                "better": m["better"],
                "pairs": len(pairs),
                "parent": _quartiles([a for a, _ in pairs]),
                "change": _quartiles([b for _, b in pairs]),
                "change_better_pairs": sum((b > a) if higher else (b < a) for a, b in pairs),
                "equal_pairs": sum(a == b for a, b in pairs),
                "median_ratio": statistics.median(ratios) if ratios else None,
            }
        out[workload]["failed_runs"] = {
            side: sorted(seed for seed, r in sides[side].items() if not r.get("correct") or r.get("failed"))
            for side in SIDES
        }
    return out


def layers(traced: dict, per_layer: list[dict]) -> dict:
    """Per workload and per-layer metric: the parent's and the change's value
    in one traced pair, and change/parent.

    traced: workload -> side -> run JSON. per_layer: BENCHMARK.json's list.
    """
    out: dict = {}
    for workload, sides in traced.items():
        out[workload] = {}
        for m in per_layer:
            a, b = (sides[side].get("metrics", {}).get(m["name"], {}).get("value") for side in SIDES)
            if a is not None and b is not None:
                out[workload][m["name"]] = {"parent": a, "change": b, "ratio": b / a if a else None}
    return out


def _cores_and_memory() -> dict:
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
        memory_gb = round(pages * size / 2**30, 1)
    except (ValueError, OSError):
        memory_gb = None
    return {"cores": os.cpu_count(), "memory_gb": memory_gb, "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1", help="commit of the parent side (default HEAD~1)")
    parser.add_argument("--change", default="HEAD", help="commit of the change side (default HEAD)")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help='one pair per seed: "501-510" or "1,5,9"')
    parser.add_argument("--trace-seed", type=int, help="also run one traced pair per workload on this seed")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    repo = Path(__file__).resolve().parent.parent
    commits = {"parent": resolve(args.parent, repo), "change": resolve(args.change, repo)}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            archive(commits[side], repo, checkouts[side])
        bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in bench["workloads"]]
        seconds = bench["run_seconds"]
        runs = {w: {side: {} for side in SIDES} for w in workloads}
        order = {}
        for workload in workloads:
            for i, seed in enumerate(args.seeds):
                sides = SIDES if i % 2 == 0 else SIDES[::-1]
                order[f"{workload}/{seed}"] = list(sides)
                for side in sides:
                    result = run_once(checkouts[side], workload, seed, seconds)
                    runs[workload][side][str(seed)] = result
                    print(f"{workload} seed {seed} {side}: correct={result.get('correct')}", file=sys.stderr)
        traced = {}
        if args.trace_seed is not None:
            for workload in workloads:
                traced[workload] = {
                    side: run_once(checkouts[side], workload, args.trace_seed, TRACE_SECONDS, trace=1)
                    for side in SIDES
                }

    report = {
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds:g} --trace 0",
        "runner": "benchmarks/pairs.py",
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "machine": _cores_and_memory(),
        "seeds": args.seeds,
        "order": order,
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    }
    if traced:
        report["traced"] = {
            "command": f"python3 perfbench/run.py --workload <workload> --seed {args.trace_seed} "
            f"--seconds {TRACE_SECONDS} --trace 1",
            "order": list(SIDES),
            "layers": layers(traced, bench["per_layer"]),
            "runs": traced,
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

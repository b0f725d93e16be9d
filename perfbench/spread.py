"""Run the benchmark on several seeds and summarise each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload grid-guarantee --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/BASELINE.json

Each run is a fresh process, invoked exactly as in ``BENCHMARK.json``.  For
every end-to-end metric this prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median, next to a third
of the metric's bound.  ``--out`` writes the same summary, the sample
counts, the environment record of the first run and the per-layer metrics
of one traced run on the first seed to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def summarise(spec: dict, workload: str, seeds: list[int]) -> dict:
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    attempted = failed = 0
    environment = None
    for seed in seeds:
        result, report = run_once(spec, workload, seed, 0)
        attempted += result["attempted"]
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        if environment is None:
            environment = next(
                (json.loads(line.split(":", 1)[1]) for line in report
                 if line.startswith("environment:")), None)
        print(f"  {workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    metrics = {}
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        metrics[metric["name"]] = {
            "unit": metric["unit"],
            "median": statistics.median(vals),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(vals),
            "bound": metric["bound"],
            "runs": len(vals),
        }
    return {"seeds": seeds, "attempted": attempted, "failed": failed,
            "environment": environment, "metrics": metrics}


def traced(spec: dict, workload: str, seed: int) -> dict:
    result, _ = run_once(spec, workload, seed, 1)
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--out", help="write the summary as JSON")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    summary = {}
    steady = True
    for workload in workloads:
        summary[workload] = s = summarise(spec, workload, seeds)
        print(f"{workload}: {len(seeds)} runs, failed {s['failed']}/{s['attempted']} ops")
        for name, m in s["metrics"].items():
            ok = name == "setup_s" or m["spread"] < m["bound"] / 3
            steady = steady and ok
            print(f"  {name:<12} median {m['median']:.6g} {m['unit']}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.4f}  "
                  f"bound/3 {m['bound'] / 3:.4f}{'' if ok else '  TOO WIDE'}")
    if args.out:
        for workload in workloads:
            summary[workload]["traced"] = traced(spec, workload, seeds[0])
        summary["run_seconds"] = spec["run_seconds"]
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""dprl benchmark: seeded workloads, checked answers, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-guarantee --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

The package is imported from ``src/`` of the checkout and used only through
its public functions; nothing inside it is changed.  With ``--trace 0`` the
last output line carries the end-to-end metrics listed in ``BENCHMARK.json``;
with ``--trace 1`` it carries the per-layer metrics, measured from spans the
benchmark opens around its calls into each module.  Everything printed
before that line is the human-readable report.  Scratch files and span dumps
go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_REPS = 5  # at the start, and again at the end

# Workload-specific views printed in the report.  The gated metrics in
# BENCHMARK.json must exist on every workload, so they are per-operation
# (op_s.p90) or common to all (setup_s, peak_rss_mb).
REPORT_NAMES = ("setup_s", "seed_s.p50", "seed_s.p90", "seeds_per_s", "query_s.p50",
                "query_s.p99", "cover_s", "run_s", "peak_rss_mb", "failed_frac")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DPRL_JOBS")


def environment(seed: int) -> dict:
    """Where the numbers came from; thread variables are recorded, never set."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def peak_rss_mb(children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def timed_setup(w, tracer) -> float:
    # Collect the previous repetition's garbage (purged modules hold cycles)
    # first, so the collector does not run inside the timed import.
    gc.collect()
    return w.setup(tracer)


class Run:
    """One invocation: set-up repetitions, the timed loop(s) and the checks."""

    def __init__(self, workload, tracer) -> None:
        self.w = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def loop(self, fn, seconds: float, after=lambda i, answer: None) -> tuple[list, list]:
        """Closed loop: the next op starts when the previous one is checked.

        Only ``fn`` is timed; ``after`` runs between the op and its check.
        """
        times: list[float] = []
        answers: list[dict] = []
        start = time.perf_counter()
        i = 0
        while i < self.w.prefix or time.perf_counter() - start < seconds:
            self.attempted += 1
            self.w.before(i)
            if self.tracer is not None:
                self.tracer.op = i
            try:
                t0 = time.perf_counter()
                answer = fn(i)
                times.append(time.perf_counter() - t0)
                after(i, answer)
            except Exception as exc:  # noqa: BLE001 - a raised error is a failed op
                self.failed += 1
                self.reasons.append(f"op {i} raised {type(exc).__name__}: {exc}")
                i += 1
                continue
            finally:
                if self.tracer is not None:
                    self.tracer.op = None
            bad = self.w.check(i, answer)
            if bad:
                self.failed += 1
                self.reasons.extend(f"op {i}: {b}" for b in bad)
            answers.append(answer)
            i += 1
        return times, answers

    def digest(self, answers: list[dict]) -> str:
        view = [self.w.digest_view(a) for a in answers[: self.w.prefix]]
        canonical = json.dumps(view, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 spec: dict) -> tuple[dict, bool]:
    """Print the report, then return the result line and whether it is complete."""
    import workloads
    from spans import Tracer

    out_dir = ROOT / ".perfbench_out"
    w = workloads.WORKLOADS[name](seed, tiny, out_dir)
    tracer = Tracer() if trace else None
    run = Run(w, tracer)
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}"
          f"{' tiny' if tiny else ''}")
    print("environment:", json.dumps(environment(seed), sort_keys=True))
    try:
        w.prepare()
        setup = [timed_setup(w, tracer) for _ in range(SETUP_REPS)]
        source = Path(w.dprl.__file__).resolve()
        if ROOT / "src" not in source.parents:
            raise RuntimeError(f"dprl imported from {source}, not from this checkout")
        w.after_setup()
        if not trace:
            times, answers = run.loop(w.op, seconds)
            traced_times = []
        else:
            times, answers = run.loop(w.op, seconds / 2)
            traced_times, traced_answers = run.loop(
                lambda i: w.op_traced(i, tracer), seconds / 2,
                after=lambda i, answer: w.probe(i, answer, tracer),
            )
            if run.digest(traced_answers) != run.digest(answers):
                run.failed += 1
                run.reasons.append("traced answers differ from plain answers")
        # Half of the set-up repetitions run after the loop, so the median
        # samples two moments of the run rather than one.
        setup += [timed_setup(w, tracer) for _ in range(SETUP_REPS)]
    finally:
        w.close()

    if not times or (trace and not traced_times):
        raise RuntimeError(f"no operation completed: {run.reasons[:3]}")
    ops = len(times)
    values = {
        "setup_s": statistics.median(setup),
        "op_s.p50": workloads.percentile(times, 50),
        "op_s.p90": workloads.percentile(times, 90),
        "peak_rss_mb": peak_rss_mb(children=name == "cli-sweep"),
    }
    report = {
        "setup_s": (values["setup_s"], "s", len(setup)),
        "peak_rss_mb": (values["peak_rss_mb"], "MB", 1),
        "failed_frac": (run.failed / run.attempted, f"({run.failed}/{run.attempted})",
                        run.attempted),
        **w.report(times, answers),
    }
    print(f"operation latency over {ops} ops: p50 {values['op_s.p50']!r} s, "
          f"p90 {values['op_s.p90']!r} s")
    for metric in REPORT_NAMES:
        if metric in report:
            value, unit, n = report[metric]
            print(f"  {metric:<12} {value!r} {unit}  (n={n})")
        else:
            print(f"  {metric:<12} n/a on this workload")
    for note in w.notes(run.attempted):
        print("note:", note)
    for reason in run.reasons[:20]:
        print("FAILED:", reason)
    print(f"answer digest sha256:{run.digest(answers)} (first {w.prefix} ops)")

    if trace:
        values.update(layer_metrics(w, tracer, times, traced_times, traced_answers, spec))
        dump = out_dir / f"spans-{name}-seed{seed}.jsonl"
        tracer.dump(dump)
        print(f"spans: {len(tracer.spans)} written to {dump.relative_to(ROOT)}")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("perfbench: metrics not computed:", missing, file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }
    return result, not missing


def layer_metrics(w, tracer, plain_times, traced_times, traced_answers, spec) -> dict:
    """Self-time shares per layer, exact counts, and the tracing overhead."""
    import workloads

    self_s, calls, total = tracer.self_times()
    traced_ops = len(traced_times)
    print(f"per-layer self time over {traced_ops} traced ops "
          f"(root spans {total!r} s, set-up included):")
    for name in sorted(self_s, key=self_s.get, reverse=True):
        print(f"  {name:<40} calls {calls[name]:>7}  self {self_s[name]:.6f} s  "
              f"{self_s[name] / max(traced_ops, 1):.6f} s/op  "
              f"{100.0 * self_s[name] / total:.2f} %")
    values: dict = {}
    counts = w.layer_counts()
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.endswith(".share"):
            values[name] = 100.0 * self_s.get(name[: -len(".share")], 0.0) / total
        elif metric["unit"] == "count":
            values[name] = counts.get(name, 0)
    values["evaluation.worker_busy_ratio"] = w.busy_ratio(traced_answers)
    plain = workloads.percentile(plain_times, 50)
    values["trace.overhead"] = 100.0 * (workloads.percentile(traced_times, 50) - plain) / plain
    print(f"tracing overhead: {values['trace.overhead']!r} % of the plain op p50")
    return values


def smoke(spec: dict) -> int:
    """Every workload at a tiny size, both modes: all metric names must appear."""
    problems = []
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                result, complete = run_workload(name, 0, 0.0, trace, True, spec)
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            printed = text.getvalue()
            if not complete or set(result["metrics"]) != wanted:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(result['metrics'])}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: checks failed\n{printed}")
            missing = [m for m in REPORT_NAMES if f"  {m} " not in printed]
            if missing:
                problems.append(f"{name} trace={int(trace)}: report lacks {missing}")
            print(f"smoke {name} trace={int(trace)}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops")
    for problem in problems:
        print("SMOKE FAILED:", problem)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the metric names")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dprl" / "__init__.py").is_file():
        print(f"perfbench: no dprl package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.smoke:
        return smoke(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.seconds < 0 or args.seed < 0:
        parser.error("--seconds and --seed must be >= 0")
    result, complete = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                    False, spec)
    if not complete:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, times one set-up
repetition per ``setup`` call, and runs one operation per ``op`` (plain
public calls) or ``op_traced`` (the same work split into the public steps,
each wrapped in a span).  ``before`` prepares an op's inputs and ``probe``
does traced extra work after it; neither is timed as part of the op.  Ops
return an answer dict; ``check`` returns the reasons an answer is wrong,
and ``digest_view`` the part of it that must not move when only
performance changes.  Keys starting with ``_`` carry timings and
check-only data and stay out of the digest.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import pickle
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer


def load_dprl():
    """Import the package afresh, so each set-up repetition pays the import."""
    for name in [n for n in sys.modules if n == "dprl" or n.startswith("dprl.")]:
        del sys.modules[name]
    return importlib.import_module("dprl")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def call(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, inside a span when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def span(tracer: Tracer | None, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


class Workload:
    """Defaults for the optional steps of a workload."""

    prefix = 1  # ops covered by the digest and the counts

    def prepare(self) -> None:
        """Untimed work before the first set-up repetition."""

    def after_setup(self) -> None:
        """Untimed work after set-up: references for the checks."""

    def before(self, i: int) -> None:
        """Untimed work before op ``i``: its inputs."""

    def probe(self, i: int, answer: dict, tracer: Tracer) -> None:
        """Untimed traced work after op ``i``."""

    def busy_ratio(self, answers: list[dict]) -> float:
        """Worker efficiency of a fanned-out sweep; 0 where nothing fans out."""
        return 0.0

    def notes(self, ops: int) -> list[str]:
        return []

    def layer_counts(self) -> dict:
        return dict(self.counts)

    def close(self) -> None:
        """Remove scratch files."""


class _Tabular(Workload):
    """Shared set-up for the two per-seed tabular workloads."""

    prefix = 10
    env_id = ""

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.counts = {"mdp.simulate.steps": 0, "discrete.decision_states": 0,
                       "discrete.smdp_segments": 0, "discrete.pi_iterations": 0}

    def env_params(self) -> dict:
        raise NotImplementedError

    def setup(self, tracer: Tracer | None) -> float:
        start = time.perf_counter()
        with span(tracer, "setup"):
            self.dprl = load_dprl()
            self.mdp, self.behavior = call(
                tracer, "envs.build_environment",
                self.dprl.envs.build_environment, self.env_id, **self.env_params(),
            )
        return time.perf_counter() - start

    def master_seed(self, i: int) -> int:
        return self.seed * 1_000_000 + i

    def _dprl_traced(self, tracer: Tracer, dataset, n_wedge: int):
        """``train_decision_point_policy`` as its five public steps."""
        d = self.dprl
        gamma = self.mdp.gamma
        counts = tracer.call("estimation.count_visits", d.estimation.count_visits, dataset)
        estimates = tracer.call(
            "estimation.monte_carlo_estimates", d.estimation.monte_carlo_estimates, dataset, gamma
        )
        dp = tracer.call(
            "discrete.identify_decision_points",
            d.discrete.identify_decision_points,
            counts,
            estimates,
            n_wedge,
        )
        model = tracer.call("discrete.make_smdp", d.discrete.make_smdp, dataset, dp, gamma)
        policy = tracer.call(
            "discrete.smdp_policy_iteration", d.discrete.smdp_policy_iteration, model, dp, estimates
        )
        return policy, dp, model

    def _value_traced(self, tracer: Tracer, learned) -> float:
        rows = self.dprl.evaluation.MixedPolicy(learned, self.behavior).rows()
        values = tracer.call(
            "solvers.policy_state_values", self.dprl.solvers.policy_state_values, self.mdp, rows
        )
        return float(values[self.mdp.start_state])

    def _count(self, i: int, dataset, dp, model, policy) -> None:
        if i < self.prefix:
            c = self.counts
            c["mdp.simulate.steps"] += dataset.total_steps()
            c["discrete.decision_states"] += len(dp.decision_states)
            c["discrete.smdp_segments"] += int(model.counts.sum())
            c["discrete.pi_iterations"] += int(policy.iterations)

    def digest_view(self, answer: dict) -> dict:
        return {k: v for k, v in answer.items() if not k.startswith("_")}

    def report(self, op_times: list[float], answers: list[dict]) -> dict:
        return {
            "seed_s.p50": (percentile(op_times, 50), "s", len(op_times)),
            "seed_s.p90": (percentile(op_times, 90), "s", len(op_times)),
            "seeds_per_s": (len(op_times) / sum(op_times), "1/s", len(op_times)),
        }


class GridGuarantee(_Tabular):
    """Criterion-1 per-seed loop on the 10x10 careless-expert gridworld."""

    name = "grid-guarantee"
    env_id = "gridworld"

    def env_params(self) -> dict:
        return {"side": 4 if self.tiny else 10, "noise": 0.9}

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        self.num_trajectories, self.horizon = (10, 20) if tiny else (100, 100)
        self.n_wedge = 2 if tiny else 20
        self.delta = 0.05
        self.violations = 0

    def after_setup(self) -> None:
        self.rho_b = self.dprl.evaluation.exact_value(
            self.mdp, self.dprl.evaluation.MixedPolicy(None, self.behavior)
        )

    def _bound(self, counts) -> float:
        b = self.dprl.bounds
        return b.dprl_discrete_bound(
            b.BoundInputs(
                v_max=self.mdp.v_max,
                gamma=self.mdp.gamma,
                n_wedge=self.n_wedge,
                delta=self.delta,
                c_n_wedge=b.count_c_n_wedge(counts, self.n_wedge),
            )
        )

    def _answer(self, dataset, counts, policy, value, bound) -> dict:
        return {
            "verdicts": sorted([int(s), int(a)] for s, a in policy.verdicts.items()),
            "defer": sorted(int(s) for s in policy.defer_states),
            "value": float(value),
            "bound": float(bound),
            "_observed": {int(s) for s in np.nonzero(counts.n_s)[0]},
        }

    def op(self, i: int) -> dict:
        d = self.dprl
        dataset = d.mdp.simulate(
            self.mdp, self.behavior, self.num_trajectories, self.horizon, self.master_seed(i)
        )
        counts = d.estimation.count_visits(dataset)
        policy = d.discrete.train_decision_point_policy(dataset, self.n_wedge, self.mdp.gamma)
        value = d.evaluation.exact_value(self.mdp, d.evaluation.MixedPolicy(policy, self.behavior))
        return self._answer(dataset, counts, policy, value, self._bound(counts))

    def op_traced(self, i: int, tracer: Tracer) -> dict:
        d = self.dprl
        dataset = tracer.call(
            "mdp.simulate", d.mdp.simulate, self.mdp, self.behavior,
            self.num_trajectories, self.horizon, self.master_seed(i),
        )
        # Criterion 1 counts once for the bound and once inside training.
        counts = tracer.call("estimation.count_visits", d.estimation.count_visits, dataset)
        policy, dp, model = self._dprl_traced(tracer, dataset, self.n_wedge)
        value = self._value_traced(tracer, policy)
        bound = tracer.call("bounds.dprl_discrete_bound", self._bound, counts)
        self._count(i, dataset, dp, model, policy)
        return self._answer(dataset, counts, policy, value, bound)

    def check(self, i: int, answer: dict) -> list[str]:
        bad = []
        if not {s for s, _ in answer["verdicts"]} <= answer["_observed"]:
            bad.append("verdict on an unobserved state")
        if not math.isfinite(answer["value"]) or not math.isfinite(answer["bound"]):
            bad.append("non-finite value or bound")
        if answer["value"] - self.rho_b < answer["bound"]:
            self.violations += 1
        return bad

    def notes(self, ops: int) -> list[str]:
        return [f"bound violations (value - rho_b < bound): {self.violations}/{ops}"]


class ForestBaselines(_Tabular):
    """All six trained entries per seed on forest, 50 chains (305 states)."""

    name = "forest-baselines"
    env_id = "forest"

    def env_params(self) -> dict:
        return {"num_chains": 5 if self.tiny else 50, "depth": 3, "epsilon": 0.2}

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        self.num_trajectories, self.horizon = (20, 30) if tiny else (100, 30)
        self.n_wedge = 2 if tiny else 10

    def after_setup(self) -> None:
        ev = self.dprl.evaluation
        self.specs = [
            ev.AlgorithmSpec("dprl", "dprl", {"n_wedge": self.n_wedge}),
            ev.AlgorithmSpec("spibb", "spibb_true", {"n_wedge": self.n_wedge, "behavior": "true"}),
            ev.AlgorithmSpec(
                "spibb", "spibb_estimated", {"n_wedge": self.n_wedge, "behavior": "estimated"}
            ),
            ev.AlgorithmSpec("pqi", "pqi", {"density_threshold": 0.02}),
            ev.AlgorithmSpec("behavior_clone", "behavior_clone", {}),
            ev.AlgorithmSpec("behavior", "behavior", {}),
        ]
        self.behavior_value = ev.exact_value(self.mdp, ev.MixedPolicy(None, self.behavior))

    def op(self, i: int) -> dict:
        d = self.dprl
        ev = d.evaluation
        dataset = d.mdp.simulate(
            self.mdp, self.behavior, self.num_trajectories, self.horizon, self.master_seed(i)
        )
        values = {}
        verdicts = []
        for spec in self.specs:
            learned, _ = ev.train_algorithm(spec, dataset, self.mdp, self.behavior)
            values[spec.label] = ev.exact_value(self.mdp, ev.MixedPolicy(learned, self.behavior))
            if spec.name == "dprl":
                verdicts = sorted([int(s), int(a)] for s, a in learned.verdicts.items())
        return {"values": values, "dprl_verdicts": verdicts}

    def op_traced(self, i: int, tracer: Tracer) -> dict:
        d = self.dprl
        bl = d.baselines
        gamma = self.mdp.gamma
        dataset = tracer.call(
            "mdp.simulate", d.mdp.simulate, self.mdp, self.behavior,
            self.num_trajectories, self.horizon, self.master_seed(i),
        )
        values = {}
        policy, dp, model = self._dprl_traced(tracer, dataset, self.n_wedge)
        values["dprl"] = self._value_traced(tracer, policy)

        fitted = tracer.call("baselines.fit_mle_model", bl.fit_mle_model, dataset)
        learned = tracer.call(
            "baselines.train_spibb", bl.train_spibb, dataset, self.behavior,
            n_wedge=self.n_wedge, gamma=gamma, model=fitted,
        )
        values["spibb_true"] = self._value_traced(tracer, learned)

        clone = tracer.call(
            "baselines.train_behavior_clone", bl.train_behavior_clone,
            dataset, self.mdp.num_states, self.mdp.num_actions,
        )
        fitted = tracer.call("baselines.fit_mle_model", bl.fit_mle_model, dataset)
        learned = tracer.call(
            "baselines.train_spibb", bl.train_spibb, dataset, clone,
            n_wedge=self.n_wedge, gamma=gamma, model=fitted,
        )
        values["spibb_estimated"] = self._value_traced(tracer, learned)

        fitted = tracer.call("baselines.fit_mle_model", bl.fit_mle_model, dataset)
        learned = tracer.call(
            "baselines.train_pqi", bl.train_pqi, dataset,
            density_threshold=0.02, gamma=gamma, model=fitted,
        )
        values["pqi"] = self._value_traced(tracer, learned)

        learned = tracer.call(
            "baselines.train_behavior_clone", bl.train_behavior_clone,
            dataset, self.mdp.num_states, self.mdp.num_actions,
        )
        values["behavior_clone"] = self._value_traced(tracer, learned)
        values["behavior"] = self._value_traced(tracer, None)
        self._count(i, dataset, dp, model, policy)
        verdicts = sorted([int(s), int(a)] for s, a in policy.verdicts.items())
        return {"values": values, "dprl_verdicts": verdicts}

    def check(self, i: int, answer: dict) -> list[str]:
        bad = []
        values = answer["values"]
        if len(values) != 6 or not all(math.isfinite(v) for v in values.values()):
            bad.append(f"missing or non-finite cell: {values}")
        if values.get("behavior") != self.behavior_value:
            bad.append("behavior cell differs from exact_value(MixedPolicy(None, behavior))")
        return bad


class ContinuousCover(Workload):
    """Radius queries and covering numbers over jittered gridworld points."""

    name = "continuous-cover"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.num_trajectories, self.horizon = (5, 20) if tiny else (50, 100)
        self.num_queries = 10 if tiny else 500
        self.checked_queries = 5 if tiny else 20
        self.n_wedge = 2 if tiny else 20
        self.radius = 0.05
        self.weights = np.ones(2)
        self.counts = {}

    def prepare(self) -> None:
        self.dprl = load_dprl()
        self.mdp, self.behavior = self.dprl.envs.build_environment("gridworld", side=10, noise=0.9)
        self.trajectories = self.points(0)

    def points(self, i: int) -> list:
        """Op ``i``'s gridworld trajectories embedded in the unit square, plus jitter.

        Every op draws a fresh point set, so a run's percentiles cover
        several inputs rather than one.
        """
        d = self.dprl
        dataset = d.mdp.simulate(self.mdp, self.behavior, self.num_trajectories, self.horizon,
                                 self.seed * 1_000_000 + i)
        rng = np.random.default_rng([self.seed, i])
        trajectories = []
        for traj in dataset:
            xy = np.stack([traj.states % 10, traj.states // 10], axis=1) / 10.0
            xy = xy + rng.normal(0.0, 0.03, size=xy.shape)
            trajectories.append(d.continuous.ContinuousTrajectory(xy, traj.actions, traj.rewards))
        return trajectories

    def _build(self, tracer: Tracer | None, trajectories: list):
        return call(tracer, "continuous.build_index", self.dprl.continuous.build_index,
                    trajectories, self.mdp.gamma, self.weights, self.radius)

    def setup(self, tracer: Tracer | None) -> float:
        start = time.perf_counter()
        with span(tracer, "setup"):
            self._build(tracer, self.trajectories)
        return time.perf_counter() - start

    def before(self, i: int) -> None:
        self.current = self.trajectories if i == 0 else self.points(i)

    def queries(self, i: int) -> np.ndarray:
        return np.random.default_rng([self.seed, i, 1]).random((self.num_queries, 2))

    def op(self, i: int, tracer: Tracer | None = None) -> dict:
        c = self.dprl.continuous
        index = self._build(tracer, self.current)
        latencies = []
        decisions = []
        counts = []
        for q in self.queries(i):
            for mode in (c.NEIGHBOR_ALL, c.NEIGHBOR_FIRST):
                start = time.perf_counter()
                verdict = call(tracer, "continuous.query", c.query, index, q, self.n_wedge, mode)
                latencies.append(time.perf_counter() - start)
                decisions.append(verdict.decision)
                counts.append(verdict.state_count)
        start = time.perf_counter()
        cover = call(tracer, "continuous.estimate_covering_number",
                     c.estimate_covering_number, index, self.n_wedge)
        cover_s = time.perf_counter() - start
        return {
            "decisions": decisions,
            "state_counts": counts,
            "cover": [cover.m_dense, cover.m_total],
            "_index": index,
            "_latencies": latencies,
            "_cover_s": cover_s,
        }

    def op_traced(self, i: int, tracer: Tracer) -> dict:
        answer = self.op(i, tracer)
        if i < self.prefix:
            self.counts = {
                "mdp.simulate.steps": len(answer["_index"]),
                "continuous.query.hits": sum(answer["state_counts"][0::2]),
                "continuous.m_dense": answer["cover"][0],
                "continuous.m_total": answer["cover"][1],
            }
        return answer

    def probe(self, i: int, answer: dict, tracer: Tracer) -> None:
        """Call the ball tree directly on the index's scaled points."""
        index = answer["_index"]
        scale = np.sqrt(index.metric_weights)
        tree = tracer.call("balltree.build", self.dprl.balltree.BallTree, index.states * scale)
        for q in self.queries(i):
            tracer.call("balltree.query_radius", tree.query_radius, q * scale, self.radius)

    def check(self, i: int, answer: dict) -> list[str]:
        bad = []
        index = answer["_index"]
        for q in self.queries(i)[: self.checked_queries]:
            dist = np.sqrt((index.metric_weights * (index.states - q) ** 2).sum(axis=1))
            if not np.array_equal(index.neighbors(q), np.nonzero(dist <= self.radius)[0]):
                bad.append(f"neighbors differ from a linear scan at {q.tolist()}")
        m_dense, m_total = answer["cover"]
        if not m_dense <= m_total:
            bad.append(f"m_dense {m_dense} > m_total {m_total}")
        return bad

    def digest_view(self, answer: dict) -> dict:
        return {k: v for k, v in answer.items() if not k.startswith("_")}

    def report(self, op_times: list[float], answers: list[dict]) -> dict:
        latencies = [t for a in answers for t in a["_latencies"]]
        covers = [a["_cover_s"] for a in answers]
        return {
            "query_s.p50": (percentile(latencies, 50), "s", len(latencies)),
            "query_s.p99": (percentile(latencies, 99), "s", len(latencies)),
            "cover_s": (percentile(covers, 50), "s", len(covers)),
        }

    def notes(self, ops: int) -> list[str]:
        return [f"about {self.num_trajectories * self.horizon} points per op"]


class CliSweep(Workload):
    """In-process ``dprl`` command sequence on one gridworld config.

    The timed sequence sweeps with ``--jobs 1``.  Under the default
    multi-threaded BLAS a ``--jobs 2`` sweep on two cores is bimodal (about
    0.9 s or 3 s for the same ten seeds), too unsteady to gate; the traced
    run times it as a probe and reports it through
    ``evaluation.worker_busy_ratio``.
    """

    name = "cli-sweep"
    probe_jobs = 2

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir / f"cli-{seed}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.generated = 1 if tiny else 3
        self.reference_seeds = 1 if tiny else 2
        n_wedge = 2 if tiny else 20
        self.config = {
            "environment": {"id": "gridworld", "side": 4 if tiny else 10, "noise": 0.9},
            "dataset": {
                "num_trajectories": 10 if tiny else 100,
                "horizon": 20 if tiny else 100,
                "master_seed": seed,
            },
            "seeds": 2 if tiny else 10,
            "algorithms": [
                {"name": "dprl", "n_wedge": n_wedge},
                {"name": "spibb", "n_wedge": n_wedge, "behavior": "true"},
                {"name": "behavior"},
            ],
            "bounds": {"delta": 0.05, "n_wedge_grid": [1, 10, 100], "pqi_b": 0.02},
        }
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        self.labels = [a["name"] for a in self.config["algorithms"]]
        self.files_digest = None
        self.counts = {}
        self.probe_s: list[float] = []

    def setup(self, tracer: Tracer | None) -> float:
        env = dict(self.config["environment"])
        env_id = env.pop("id")
        start = time.perf_counter()
        with span(tracer, "setup"):
            self.dprl = load_dprl()
            importlib.import_module("dprl.cli")  # what the `dprl` entry point imports
            self.mdp, self.behavior = call(
                tracer, "envs.build_environment", self.dprl.envs.build_environment, env_id, **env
            )
        return time.perf_counter() - start

    def after_setup(self) -> None:
        ev = self.dprl.evaluation
        specs = [ev.AlgorithmSpec(a["name"], a["name"], {k: v for k, v in a.items() if k != "name"})
                 for a in self.config["algorithms"]]
        ds = self.config["dataset"]
        # What the sweep pickles for each seed when it fans out.
        payload = (self.mdp, self.behavior, specs, ds["master_seed"],
                   ds["num_trajectories"], ds["horizon"])
        self.counts["evaluation.payload_bytes"] = len(pickle.dumps(payload))
        self.reference = ev.run_reliability_experiment(
            self.mdp, self.behavior, specs, num_seeds=self.reference_seeds,
            num_trajectories=ds["num_trajectories"], horizon=ds["horizon"],
            master_seed=ds["master_seed"], jobs=1,
        )

    def _patches(self, tracer: Tracer) -> dict:
        """Names the ``cli`` module calls into, wrapped in spans."""
        names = {
            "simulate": "mdp.simulate",
            "save_dataset": "mdp.save_dataset",
            "load_dataset": "mdp.load_dataset",
            "build_environment": "envs.build_environment",
            "train_algorithm": "evaluation.train_algorithm",
            "exact_value": "evaluation.exact_value",
            "bound_comparison_rows": "bounds.bound_comparison_rows",
            "count_visits": "estimation.count_visits",
            "run_reliability_experiment": "evaluation.run_reliability_experiment",
        }
        cli = self.dprl.cli
        return {attr: tracer.wrap(span_name, getattr(cli, attr))
                for attr, span_name in names.items() if hasattr(cli, attr)}

    def _main(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return self.dprl.cli.main(argv)

    def _argv(self, out: Path) -> list[tuple[str, list[str]]]:
        base = ["--config", str(self.config_path), "--out", str(out)]
        steps = [("generate", ["generate", *base, "--seeds", str(self.generated)])]
        dataset = str(out / "datasets" / "seed_0000.jsonl")
        steps += [("train", ["train", *base, "--dataset", dataset, "--algorithm", label])
                  for label in self.labels]
        steps += [("evaluate", ["evaluate", *base, "--policy", str(out / f"policy_{label}.json")])
                  for label in self.labels]
        steps.append(("bounds", ["bounds", *base]))
        steps.append(("sweep", ["sweep", *base, "--jobs", "1"]))
        return steps

    def op(self, i: int, tracer: Tracer | None = None) -> dict:
        cli = self.dprl.cli
        out = self.workdir / f"op_{i}"
        codes = []
        sweep_s = 0.0
        patches = {} if tracer is None else self._patches(tracer)
        saved = {attr: getattr(cli, attr) for attr in patches}
        for attr, fn in patches.items():
            setattr(cli, attr, fn)
        try:
            for command, argv in self._argv(out):
                start = time.perf_counter()
                codes.append(call(tracer, f"cli.{command}", self._main, argv))
                if command == "sweep":
                    sweep_s = time.perf_counter() - start
        finally:
            for attr, fn in saved.items():
                setattr(cli, attr, fn)
        return {"codes": codes, "_out": out, "_sweep_s": sweep_s}

    def op_traced(self, i: int, tracer: Tracer) -> dict:
        return self.op(i, tracer)

    def probe(self, i: int, answer: dict, tracer: Tracer) -> None:
        """Sweep the same config with two workers; outputs must not change."""
        out = self.workdir / f"probe_{i}"
        start = time.perf_counter()
        code = self._main(["sweep", "--config", str(self.config_path), "--out", str(out),
                           "--jobs", str(self.probe_jobs)])
        self.probe_s.append(time.perf_counter() - start)
        answer["_probe"] = (code, [(out / name).read_bytes() == (answer["_out"] / name).read_bytes()
                                   for name in ("per_seed.csv", "summary.json")])
        shutil.rmtree(out, ignore_errors=True)

    def check(self, i: int, answer: dict) -> list[str]:
        bad = []
        out = answer["_out"]
        if any(code != 0 for code in answer["codes"]):
            bad.append(f"command exit codes {answer['codes']}")
        if "_probe" in answer and answer["_probe"] != (0, [True, True]):
            bad.append(f"--jobs {self.probe_jobs} sweep differs from --jobs 1: {answer['_probe']}")
        digest = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
        answer["files"] = digest.hexdigest()
        if self.files_digest is None:
            self.files_digest = answer["files"]
            bad += self._check_rows(out)
            jsonl = sorted((out / "datasets").glob("*.jsonl"))
            self.counts["mdp.jsonl_bytes"] = sum(p.stat().st_size for p in jsonl)
            self.counts["mdp.simulate.steps"] = sum(
                len(json.loads(line)["steps"])
                for p in jsonl for line in p.read_text(encoding="utf-8").splitlines()
            )
        elif answer["files"] != self.files_digest:
            bad.append("output files differ from the first run of the same config")
        shutil.rmtree(out, ignore_errors=True)
        return bad

    def _check_rows(self, out: Path) -> list[str]:
        path = out / "per_seed.csv"
        if not path.is_file():
            return ["per_seed.csv missing"]
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        ref = self.reference
        width = len(ref.labels)
        for n, seed in enumerate(ref.seeds):
            for k, label in enumerate(ref.labels):
                row = rows[n * width + k] if n * width + k < len(rows) else {}
                expected = (str(seed), label, ref.values[label][n], ref.defer_fractions[label][n])
                got = (row.get("seed"), row.get("algorithm"),
                       float(row.get("value", "nan")), float(row.get("defer_fraction", "nan")))
                if got != expected:
                    return [f"per_seed.csv row {got} != serial library run {expected}"]
        return []

    def digest_view(self, answer: dict) -> dict:
        return {"codes": answer["codes"], "files": answer["files"]}

    def report(self, op_times: list[float], answers: list[dict]) -> dict:
        sweeps = [a["_sweep_s"] for a in answers]
        return {
            "run_s": (percentile(op_times, 50), "s", len(op_times)),
            "seeds_per_s": (self.config["seeds"] / percentile(sweeps, 50), "1/s", len(sweeps)),
        }

    def busy_ratio(self, answers: list[dict]) -> float:
        """Serial sweep time over (workers x wall time of the two-worker sweep)."""
        serial = percentile([a["_sweep_s"] for a in answers], 50)
        return serial / (self.probe_jobs * percentile(self.probe_s, 50))

    def notes(self, ops: int) -> list[str]:
        notes = [f"sweep of {self.config['seeds']} seeds with --jobs 1"]
        if self.probe_s:
            notes.append(f"--jobs {self.probe_jobs} sweep probes (s): {self.probe_s}")
        return notes

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (GridGuarantee, ForestBaselines, ContinuousCover, CliSweep)}

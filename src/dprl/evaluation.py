"""Exact policy evaluation, tail-risk summaries and seeded experiments.

A learned policy is always evaluated composed with the true logging policy:
wherever it defers, the logging policy acts.  Values are computed exactly
on the true MDP by :func:`solvers.solve_bellman` over the edges of the
composed policy's transitions: back-substitution in topological order, and
one dense solve of the cyclic core, if any.  So per-seed results are
deterministic functions of the learned policy alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import N_WEDGE, train_behavior_clone, train_pqi, train_spibb
from .discrete import TAIL_MODE, DecisionPointPolicy, train_decision_point_policy
from .estimation import VISIT_MODE
from .mdp import (
    COUNT,
    FRACTION,
    LEVEL,
    NONNEGATIVE,
    BehaviorPolicy,
    TabularMdp,
    check,
    check_params,
    one_of,
    rule,
    simulate,
)
from .solvers import policy_state_values


@dataclass
class MixedPolicy:
    """A learned policy composed by its ``rows(behavior_rows)``; ``None`` defers everywhere."""

    learned: DecisionPointPolicy | BehaviorPolicy | None
    behavior: BehaviorPolicy

    def rows(self) -> np.ndarray:
        base = self.behavior.action_probabilities
        return base.copy() if self.learned is None else self.learned.rows(base)


class PolicyError(ValueError):
    """A policy file that is not valid JSON, not a policy, or does not fit the environment."""


def policy_json(policy: DecisionPointPolicy | BehaviorPolicy) -> str:
    """The policy file's text, without its final newline.

    A ``{"format": "dprl-policy", "kind": ...}`` object with sorted keys.  A
    :class:`DecisionPointPolicy` is kind ``decision-point`` with ``n_wedge``,
    ``iterations``, the sorted ``decision_states`` and ``verdicts`` mapping
    each state id to its action id or ``"DEFER"``; a :class:`BehaviorPolicy`
    keeps its own kind and stores ``params`` and ``rows``.
    """
    if isinstance(policy, DecisionPointPolicy):
        verdicts: dict[str, object] = {str(s): "DEFER" for s in policy.defer_states}
        verdicts.update((str(s), int(a)) for s, a in policy.verdicts.items())
        body = {"kind": "decision-point", "n_wedge": policy.n_wedge,
                "iterations": policy.iterations,
                "decision_states": sorted(int(s) for s in policy.verdicts), "verdicts": verdicts}
    else:
        body = {"kind": policy.kind, "params": policy.params,
                "rows": policy.action_probabilities.tolist()}
    return json.dumps({"format": "dprl-policy", **body}, sort_keys=True)  # verdict keys too


def save_policy(policy: DecisionPointPolicy | BehaviorPolicy, path: str | Path) -> None:
    """Write :func:`policy_json` and a newline, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(policy_json(policy) + "\n", encoding="utf-8")


_ROWS = rule("a list", list, lambda v: True)
_ROW = rule("a list of numbers", list, lambda v: all(type(p) in (int, float) for p in v))


def _policy_from(payload) -> DecisionPointPolicy | BehaviorPolicy:
    """The record a parsed policy file holds; ``KeyError``, ``TypeError`` or ``ValueError``
    for a file :func:`policy_json` cannot have written."""
    if not isinstance(payload, dict) or payload.get("format") != "dprl-policy":
        raise ValueError("format is not 'dprl-policy'")
    if payload["kind"] != "decision-point":  # BehaviorPolicy checks kind and params
        if "rows" not in payload:
            raise ValueError("not a stochastic-row policy file")
        for i, row in enumerate(check("rows", payload["rows"], _ROWS)):
            check(f"rows[{i}]", row, _ROW)
        if len({len(row) for row in payload["rows"]}) > 1:
            raise ValueError("rows must have equal lengths")
        return BehaviorPolicy(np.array(payload["rows"], dtype=np.float64),
                              kind=payload["kind"], params=payload["params"])
    cells = payload["verdicts"]
    if not isinstance(cells, dict) or any(
        a != "DEFER" and type(a) is not int for a in cells.values()
    ):
        raise ValueError("verdicts must map state ids to action ids or 'DEFER'")
    for key in cells:  # one spelling per id, so no two keys name the same state
        if not (key.removeprefix("-").isdecimal() and key == str(int(key))):
            raise ValueError(f"verdict key {key!r} is not a canonical state id")
    verdicts = {int(s): a for s, a in cells.items() if a != "DEFER"}
    listed = payload["decision_states"]
    if not (isinstance(listed, list) and all(type(s) is int for s in listed)
            and listed == sorted(verdicts)):
        raise ValueError(f"decision_states must list the non-DEFER states {sorted(verdicts)}")
    return DecisionPointPolicy(
        n_wedge=payload["n_wedge"],
        verdicts=verdicts,
        defer_states=frozenset(int(s) for s, a in cells.items() if a == "DEFER"),
        iterations=payload["iterations"],
    )


def load_policy(path: str | Path, behavior: BehaviorPolicy) -> DecisionPointPolicy | BehaviorPolicy:
    """Read a :func:`save_policy` file; raise :class:`PolicyError` unless it composes with
    ``behavior`` into probability rows (ids and rows must fit the behavior's (S, A) shape).
    """
    try:
        policy = _policy_from(json.loads(Path(path).read_text(encoding="utf-8")))
        policy.rows(behavior.action_probabilities)  # checks that ids and shape fit
    except (KeyError, TypeError, ValueError) as exc:  # as are JSON and UTF-8 decode errors
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise PolicyError(f"{path}: {reason}") from exc
    return policy


def exact_value(mdp: TabularMdp, policy: MixedPolicy) -> float:
    """Exact discounted start-state value of the composed policy."""
    return float(policy_state_values(mdp, policy.rows())[mdp.start_state])


def cvar(values, alpha: float) -> float:
    """Mean of the worst ``ceil(alpha * len)`` values.

    ``alpha=1`` is the plain mean.  Sorting is stable so tied values cannot
    reorder across runs.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("values must be non-empty")
    check("alpha", alpha, LEVEL)
    ordered = np.sort(values, kind="stable")
    k = math.ceil(alpha * values.size)
    return float(ordered[:k].mean())


@dataclass
class AlgorithmSpec:
    """One trainable entry of an experiment: a registry name, a label and parameters."""

    name: str
    label: str
    params: dict = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """Per-seed exact values and defer fractions for each algorithm label."""

    labels: list[str]
    seeds: list[int]
    values: dict[str, list[float]]
    defer_fractions: dict[str, list[float]]
    # (seed, exception type, message) of each failed seed, in seed order
    failures: dict[str, list[tuple[int, str, str]]]

    def _finite(self, column: dict, label: str, reduce) -> float:
        """``reduce`` of the label's finite entries in ``column``; nan if there are none."""
        vals = np.asarray(column[label], dtype=np.float64)
        finite = vals[np.isfinite(vals)]
        return float(reduce(finite)) if finite.size else float("nan")

    def cvar(self, label: str) -> float:
        """CVaR at 5% of the finite values, as ``summary`` reports it (``cvar_5``)."""
        return self._finite(self.values, label, lambda v: cvar(v, 0.05))

    def mean_value(self, label: str) -> float:
        return self._finite(self.values, label, np.mean)

    def mean_defer_fraction(self, label: str) -> float:
        return self._finite(self.defer_fractions, label, np.mean)

    def summary(self) -> dict:
        out: dict = {"num_seeds": len(self.seeds), "algorithms": {}}
        for label in self.labels:
            entry = out["algorithms"][label] = {
                "cvar_5": self.cvar(label),
                "mean_value": self.mean_value(label),
                "mean_defer_fraction": self.mean_defer_fraction(label),
                "num_failures": len(self.failures[label]),
            }
            if entry["num_failures"]:  # only then, so failure-free summaries keep their bytes
                entry["failures"] = [{"seed": s, "error": e, "message": m}
                                     for s, e, m in self.failures[label]]
        return out


def _train_dprl(params, dataset, mdp, behavior):
    policy = train_decision_point_policy(dataset, gamma=mdp.gamma, **params)
    return policy, 1.0 - len(policy.verdicts) / max(1, mdp.num_states - len(mdp.terminal_states))


def _train_spibb(params, dataset, mdp, behavior):
    label = params.get("behavior", "true")
    if label == "estimated":
        behavior = train_behavior_clone(dataset)
    policy = train_spibb(dataset, behavior, params["n_wedge"], mdp.gamma)
    return BehaviorPolicy(policy.action_probabilities, kind=policy.kind,
                          params={**policy.params, "behavior": label}), 0.0


# name -> (rules of the required keys, rules of the optional keys, trainer).  A
# trainer maps (params, dataset, mdp, behavior) to (policy or None, defer
# fraction) and looks learners up when called, so patched ones run.
ALGORITHMS = {
    "dprl": ({"n_wedge": COUNT}, {"tail_mode": TAIL_MODE, "count_mode": VISIT_MODE}, _train_dprl),
    "spibb": ({"n_wedge": N_WEDGE}, {"behavior": one_of("true", "estimated")}, _train_spibb),
    "pqi": ({"density_threshold": FRACTION}, {},
            lambda p, ds, mdp, b: (train_pqi(ds, p["density_threshold"], mdp.gamma), 0.0)),
    "behavior_clone": ({}, {}, lambda p, ds, mdp, b: (train_behavior_clone(ds), 0.0)),
    "behavior": ({}, {}, lambda p, ds, mdp, b: (None, 1.0)),
}


def train_algorithm(
    spec: AlgorithmSpec,
    dataset,
    mdp: TabularMdp,
    behavior: BehaviorPolicy,
) -> tuple[DecisionPointPolicy | BehaviorPolicy | None, float]:
    """Train one registry algorithm on a dataset; returns (policy, defer fraction).

    The dataset must have the MDP's numbers of states and actions.
    """
    if spec.name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {spec.name!r}")
    required, optional, train = ALGORITHMS[spec.name]
    check_params(spec.params, required, optional)
    shapes = (dataset.num_states, dataset.num_actions), (mdp.num_states, mdp.num_actions)
    if shapes[0] != shapes[1]:
        raise ValueError(f"dataset has (states, actions) {shapes[0]}, the MDP has {shapes[1]}")
    return train(spec.params, dataset, mdp, behavior)


def _run_single_seed(args) -> dict[str, tuple[float, float, tuple[str, str] | None]]:
    mdp, behavior, algorithms, seed, num_trajectories, horizon = args
    dataset = simulate(mdp, behavior, num_trajectories, horizon, seed)
    out: dict[str, tuple[float, float, tuple[str, str] | None]] = {}
    for spec in algorithms:
        try:
            learned, defer = train_algorithm(spec, dataset, mdp, behavior)
            value = exact_value(mdp, MixedPolicy(learned, behavior))
            out[spec.label] = (value, defer, None)
        except (ValueError, RuntimeError) as exc:  # deliberate; LinAlgError is a ValueError
            out[spec.label] = (float("nan"), float("nan"), (type(exc).__name__, str(exc)))
    return out


def run_reliability_experiment(
    mdp: TabularMdp,
    behavior: BehaviorPolicy,
    algorithms: list[AlgorithmSpec],
    num_seeds: int,
    num_trajectories: int,
    horizon: int,
    master_seed: int,
    jobs: int = 1,
) -> ExperimentResult:
    """Repeat dataset draw, training and exact evaluation over seeds.

    Seed ``i`` uses master seed ``master_seed + i``; every algorithm in the
    list trains on the same per-seed dataset.  Results are assembled in seed
    order, so output is byte-identical no matter how many worker processes
    (``jobs``, at least 1) run the seeds.  A training failure (``ValueError``
    or ``RuntimeError``) marks that (algorithm, seed) cell as missing and
    records its reason instead of aborting the experiment; other exceptions
    propagate.
    """
    check("num_seeds", num_seeds, NONNEGATIVE)
    check("jobs", jobs, COUNT)
    labels = [spec.label for spec in algorithms]
    if len(set(labels)) != len(labels):
        raise ValueError("algorithm labels must be unique")
    seeds = [master_seed + i for i in range(num_seeds)]
    payloads = [(mdp, behavior, algorithms, seed, num_trajectories, horizon) for seed in seeds]
    if jobs > 1 and payloads:
        # Imported here so that `import dprl` does not load the pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_seed = list(pool.map(_run_single_seed, payloads))
    else:
        per_seed = [_run_single_seed(p) for p in payloads]

    values: dict[str, list[float]] = {label: [] for label in labels}
    defer_fractions: dict[str, list[float]] = {label: [] for label in labels}
    failures: dict[str, list[tuple[int, str, str]]] = {label: [] for label in labels}
    for seed, row in zip(seeds, per_seed):
        for label in labels:
            value, defer, error = row[label]
            values[label].append(value)
            defer_fractions[label].append(defer)
            if error is not None:
                failures[label].append((seed, *error))
    return ExperimentResult(
        labels=labels,
        seeds=seeds,
        values=values,
        defer_fractions=defer_fractions,
        failures=failures,
    )

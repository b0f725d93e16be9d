"""Command-line front end: generate, train, evaluate, bounds, sweep.

All commands are driven by one JSON config file, validated up front with
unknown keys rejected.  Outputs (line-delimited datasets, policy JSON, CSV
tables, JSON summaries) are byte-identical across reruns of the same
config, including when seeds are fanned out to ``--jobs`` worker processes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

from .bounds import VARIANT, VARIANT_STATEMENT, bound_comparison_rows
from .envs import ENVIRONMENTS, build_environment
from .estimation import EVERY_VISIT, FIRST_VISIT, count_visits
from .evaluation import (
    ALGORITHMS,
    AlgorithmSpec,
    MixedPolicy,
    PolicyError,
    exact_value,
    load_policy,
    run_reliability_experiment,
    save_policy,
    train_algorithm,
)
from .mdp import (
    COUNT,
    FRACTION,
    LEVEL,
    NONNEGATIVE,
    BehaviorPolicy,
    DatasetError,
    check_params,
    load_dataset,
    rule,
    save_dataset,
    simulate,
)

class ConfigError(ValueError):
    """Raised for malformed or unknown configuration content."""


_ANY = ("any value", lambda v: True)  # a section checked on its own
_NONNEGATIVE = ("a nonnegative integer", NONNEGATIVE[1])  # the library's test, the CLI's words
_CONFIG = {"environment": _ANY, "dataset": _ANY, "seeds": _NONNEGATIVE, "algorithms": _ANY}
_DATASET = {"num_trajectories": _NONNEGATIVE, "horizon": COUNT, "master_seed": _NONNEGATIVE}
_BOUNDS = {
    "delta": LEVEL,
    "n_wedge_grid": rule("a list of integers >= 1", list, lambda v: all(COUNT[1](n) for n in v)),
    "pqi_b": FRACTION,
}
_LABEL = rule("a non-empty string without '/' or '\\'", str,
              lambda v: v != "" and not {"/", "\\"} & set(v))


def _check(section: str, payload, required: dict, optional: dict) -> None:
    if not isinstance(payload, dict):
        raise ConfigError(f"{section}: must be an object")
    try:
        check_params(payload, required, optional)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def validate_config(config: dict) -> dict:
    """Check keys and values, algorithms' against ``ALGORITHMS``; fill in labels; return a copy."""
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    _check("config", config, _CONFIG, {"bounds": _ANY})

    env = config["environment"]
    if not isinstance(env, dict) or "id" not in env:
        raise ConfigError("environment: must be an object with an 'id'")
    if not isinstance(env["id"], str) or env["id"] not in ENVIRONMENTS:
        raise ConfigError(f"environment: unknown id {env['id']!r}")
    _check(f"environment[{env['id']}]", {k: v for k, v in env.items() if k != "id"}, {},
           ENVIRONMENTS[env["id"]][0])
    _check("dataset", config["dataset"], _DATASET, {})

    algorithms = config["algorithms"]
    if not isinstance(algorithms, list) or not algorithms:
        raise ConfigError("algorithms: must be a non-empty list")
    name_totals: dict[str, int] = {}
    for entry in algorithms:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError("algorithms: each entry must be an object with a 'name'")
        name = entry["name"]
        if not isinstance(name, str) or name not in ALGORITHMS:
            raise ConfigError(f"algorithms: unknown name {name!r}")
        name_totals[name] = name_totals.get(name, 0) + 1
        required, optional, _ = ALGORITHMS[name]
        params = {k: v for k, v in entry.items() if k != "name"}
        _check(f"algorithms[{name}]", params, required, {**optional, "label": _LABEL})

    normalized = json.loads(json.dumps(config))  # deep copy, JSON-clean
    occurrence: dict[str, int] = {}
    for entry in normalized["algorithms"]:
        name = entry["name"]
        occurrence[name] = occurrence.get(name, 0) + 1
        if "label" not in entry:
            entry["label"] = name if name_totals[name] == 1 else f"{name}_{occurrence[name]}"
    labels = [e["label"] for e in normalized["algorithms"]]
    if len(set(labels)) != len(labels):
        raise ConfigError("algorithms: labels must be unique")

    if "bounds" in normalized:
        _check("bounds", normalized["bounds"], _BOUNDS, {"variant": VARIANT})
    return normalized


def load_config(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return validate_config(raw)


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _build_env(config: dict):
    env = dict(config["environment"])
    env_id = env.pop("id")
    try:
        return build_environment(env_id, **env)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"environment[{env_id}]: {exc}") from exc


def _algorithm_specs(config: dict) -> list[AlgorithmSpec]:
    specs = []
    for entry in config["algorithms"]:
        params = {k: v for k, v in entry.items() if k not in ("name", "label")}
        specs.append(AlgorithmSpec(name=entry["name"], label=entry["label"], params=params))
    return specs


def _flag(value_rule: tuple, convert=int):
    """An argparse ``type`` reading ``convert(text)``, which must pass a value rule."""
    what, test = value_rule

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not test(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_SEEDS_FLAG, _JOBS_FLAG = _flag(_NONNEGATIVE), _flag(COUNT)
_OUT_FLAG = _flag(rule("a non-empty path", str, bool), str)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _dataset_path(out: Path, index: int) -> Path:
    return out / "datasets" / f"seed_{index:04d}.jsonl"


def cmd_generate(args, config: dict, out: Path) -> int:
    mdp, behavior = _build_env(config)
    num_seeds = args.seeds if args.seeds is not None else config["seeds"]
    if num_seeds == 0:
        print("no seeds requested; nothing to write")
        return 0
    spec = config["dataset"]
    master_seeds = []
    for i in range(num_seeds):
        master = spec["master_seed"] + i
        master_seeds.append(master)
        dataset = simulate(mdp, behavior, spec["num_trajectories"], spec["horizon"], master)
        save_dataset(dataset, _dataset_path(out, i))
    _write_json(
        out / "datasets" / "meta.json",
        {
            "config_hash": config_hash(config),
            "environment": mdp.name,
            "num_datasets": num_seeds,
            "master_seeds": master_seeds,
        },
    )
    print(f"wrote {num_seeds} dataset(s) under {out / 'datasets'}")
    return 0


def cmd_train(args, config: dict, out: Path) -> int:
    mdp, behavior = _build_env(config)
    specs = {spec.label: spec for spec in _algorithm_specs(config)}
    if args.algorithm not in specs:
        raise ConfigError(
            f"unknown algorithm label {args.algorithm!r}; configured: {sorted(specs)}"
        )
    dataset = load_dataset(args.dataset, num_states=mdp.num_states, num_actions=mdp.num_actions)
    learned, defer_fraction = train_algorithm(specs[args.algorithm], dataset, mdp, behavior)
    if learned is None:  # the logging policy itself
        learned = BehaviorPolicy(behavior.action_probabilities, kind="behavior")
    path = out / f"policy_{args.algorithm}.json"
    save_policy(learned, path)
    print(f"trained {args.algorithm}: defer_fraction={defer_fraction:.6f} -> {path}")
    return 0


def cmd_evaluate(args, config: dict, out: Path) -> int:
    mdp, behavior = _build_env(config)
    policy = load_policy(args.policy, behavior)
    value = exact_value(mdp, MixedPolicy(policy, behavior))
    behavior_value = exact_value(mdp, MixedPolicy(None, behavior))
    payload = {
        "config_hash": config_hash(config),
        "environment": mdp.name,
        "policy_file": Path(args.policy).name,
        "value": value,
        "behavior_value": behavior_value,
        "improvement": value - behavior_value,
    }
    _write_json(out / "evaluation.json", payload)
    print(f"value={value!r} behavior={behavior_value!r}")
    return 0


def cmd_bounds(args, config: dict, out: Path) -> int:
    if "bounds" not in config:
        raise ConfigError("config has no 'bounds' section")
    mdp, behavior = _build_env(config)
    spec = config["dataset"]
    dataset = simulate(mdp, behavior, spec["num_trajectories"], spec["horizon"], spec["master_seed"])
    first = count_visits(dataset, mode=FIRST_VISIT)
    every = count_visits(dataset, mode=EVERY_VISIT)
    section = config["bounds"]
    rows = bound_comparison_rows(
        first,
        pessimism_counts=every,
        v_max=mdp.v_max,
        gamma=mdp.gamma,
        delta=section["delta"],
        n_wedge_grid=section["n_wedge_grid"],
        num_states=mdp.num_states,
        num_actions=mdp.num_actions,
        pqi_b=section["pqi_b"],
        dataset_size=len(dataset),
        variant=section.get("variant", VARIANT_STATEMENT),
    )
    _write_csv(
        out / "bounds.csv",
        ["method", "n_wedge", "b", "num_states", "c_n_wedge", "bound", "note"],
        rows,
    )
    print(f"wrote {len(rows)} bound rows -> {out / 'bounds.csv'}")
    return 0


def cmd_sweep(args, config: dict, out: Path) -> int:
    mdp, behavior = _build_env(config)
    num_seeds = args.seeds if args.seeds is not None else config["seeds"]
    spec = config["dataset"]
    result = run_reliability_experiment(
        mdp,
        behavior,
        _algorithm_specs(config),
        num_seeds=num_seeds,
        num_trajectories=spec["num_trajectories"],
        horizon=spec["horizon"],
        master_seed=spec["master_seed"],
        jobs=args.jobs,
    )
    rows = []
    for i, seed in enumerate(result.seeds):
        for label in result.labels:
            rows.append(
                {
                    "seed": seed,
                    "algorithm": label,
                    "value": result.values[label][i],
                    "defer_fraction": result.defer_fractions[label][i],
                }
            )
    _write_csv(out / "per_seed.csv", ["seed", "algorithm", "value", "defer_fraction"], rows)
    _write_json(out / "summary.json", {**result.summary(), "config_hash": config_hash(config)})
    print(f"swept {num_seeds} seed(s) x {len(result.labels)} algorithm(s) -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dprl",
        description="Safe offline policy improvement: datasets, training, evaluation, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, jobs: bool = False, seeds: bool = False) -> None:
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", type=_OUT_FLAG, required=True, help="output directory")
        if seeds:
            p.add_argument("--seeds", type=_SEEDS_FLAG, default=None,
                           help="override config seed count")
        if jobs:
            p.add_argument("--jobs", type=_JOBS_FLAG, default=1, help="worker processes (default 1)")

    p = sub.add_parser("generate", help="write per-seed trajectory datasets")
    common(p, seeds=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one configured algorithm on a dataset file")
    common(p)
    p.add_argument("--dataset", required=True, help="line-delimited trajectory file")
    p.add_argument("--algorithm", required=True, help="algorithm label from the config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="exact value of a saved policy")
    common(p)
    p.add_argument("--policy", required=True, help="policy JSON file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bounds", help="emit the bound-comparison table")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="seeded reliability experiment")
    common(p, jobs=True, seeds=True)
    p.set_defaults(func=cmd_sweep)
    return parser


_BOUNDARY_ERRORS = {ConfigError: "config", DatasetError: "dataset", PolicyError: "policy"}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, load_config(args.config), Path(args.out))
    except (ConfigError, DatasetError, PolicyError) as exc:
        print(f"{_BOUNDARY_ERRORS[type(exc)]} error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface anything else as exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

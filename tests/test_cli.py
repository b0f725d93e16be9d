"""End-to-end checks for the command-line front end.

Every command is exercised in process through ``cli.main`` with temporary
directories, including the byte-determinism guarantees for reruns and for
multi-process sweeps.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from dprl import cli
from dprl.cli import ConfigError, config_hash, validate_config
from dprl.envs import build_environment
from dprl.evaluation import load_policy, policy_json
from dprl.mdp import load_dataset


def base_config() -> dict:
    return {
        "environment": {
            "id": "forest",
            "num_chains": 2,
            "depth": 2,
            "epsilon": 0.2,
            "gamma": 0.99,
        },
        "dataset": {"num_trajectories": 30, "horizon": 20, "master_seed": 7},
        "seeds": 3,
        "algorithms": [
            {"name": "dprl", "n_wedge": 3},
            {"name": "spibb", "n_wedge": 3, "behavior": "true"},
            {"name": "pqi", "density_threshold": 0.02},
            {"name": "behavior_clone"},
            {"name": "behavior"},
        ],
        "bounds": {"delta": 0.05, "n_wedge_grid": [1, 3], "pqi_b": 0.02},
    }


def forest_behavior():
    return build_environment("forest", num_chains=2, depth=2, epsilon=0.2, gamma=0.99)[1]


def write_config(directory: Path, config: dict, name: str = "config.json") -> Path:
    path = directory / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _edited(edit) -> dict:
    config = base_config()
    edit(config)
    return config


# Configs that each fail one boundary check, and the message it raises.
MALFORMED_CONFIGS = [
    (_edited(lambda c: c.update(dataset=5)), "dataset: must be an object"),
    ([base_config()], "config root must be a JSON object"),
    (_edited(lambda c: c["environment"].pop("id")), "environment: must be an object with an 'id'"),
    (_edited(lambda c: c.update(algorithms=[5])),
     "algorithms: each entry must be an object with a 'name'"),
]
MALFORMED_CONFIG_IDS = ["dataset-not-object", "root-list", "environment-without-id",
                    "algorithm-not-object"]
CARELESS_OUT_OF_RANGE = _edited(lambda c: c.update(
    environment={"id": "gridworld", "side": 4, "careless_states": [100]}))
# noise 0 makes every action equivalent, so the default careless states have no greedy path.
NOISELESS_GRIDWORLD = _edited(lambda c: c.update(
    environment={"id": "gridworld", "side": 4, "noise": 0}))


class TestValidateConfig:
    @pytest.mark.parametrize("config, message", MALFORMED_CONFIGS, ids=MALFORMED_CONFIG_IDS)
    def test_rejects_malformed_section(self, config, message):
        with pytest.raises(ConfigError) as info:
            validate_config(config)
        assert str(info.value) == message

    def test_builder_failure_becomes_a_config_error(self):
        # The rules accept any nonnegative careless state; only the builder knows the grid size.
        with pytest.raises(ConfigError) as info:
            cli._build_env(validate_config(CARELESS_OUT_OF_RANGE))
        assert str(info.value) == "environment[gridworld]: careless state 100 out of range"

    def test_accepts_base_config_and_assigns_labels(self):
        normalized = validate_config(base_config())
        labels = [e["label"] for e in normalized["algorithms"]]
        assert labels == ["dprl", "spibb", "pqi", "behavior_clone", "behavior"]

    def test_duplicate_names_get_numbered_labels(self):
        config = base_config()
        config["algorithms"] = [
            {"name": "dprl", "n_wedge": 1},
            {"name": "dprl", "n_wedge": 5},
            {"name": "behavior"},
        ]
        normalized = validate_config(config)
        labels = [e["label"] for e in normalized["algorithms"]]
        assert labels == ["dprl_1", "dprl_2", "behavior"]

    def test_explicit_labels_survive(self):
        config = base_config()
        config["algorithms"] = [
            {"name": "dprl", "n_wedge": 1, "label": "strict"},
            {"name": "dprl", "n_wedge": 5, "label": "loose"},
        ]
        labels = [e["label"] for e in validate_config(config)["algorithms"]]
        assert labels == ["strict", "loose"]

    def test_duplicate_labels_rejected(self):
        config = base_config()
        config["algorithms"] = [
            {"name": "dprl", "n_wedge": 1, "label": "same"},
            {"name": "pqi", "density_threshold": 0.1, "label": "same"},
        ]
        with pytest.raises(ConfigError, match="labels must be unique"):
            validate_config(config)

    def test_returns_independent_copy(self):
        config = base_config()
        normalized = validate_config(config)
        normalized["dataset"]["horizon"] = 999
        assert config["dataset"]["horizon"] == 20
        assert "label" not in config["algorithms"][0]

    def test_rejects_unknown_top_level_key(self):
        config = base_config()
        config["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config(config)

    def test_rejects_missing_required_section(self):
        config = base_config()
        del config["algorithms"]
        with pytest.raises(ConfigError, match="missing keys"):
            validate_config(config)

    def test_rejects_unknown_environment_id(self):
        config = base_config()
        config["environment"] = {"id": "cliffworld"}
        with pytest.raises(ConfigError, match="unknown id"):
            validate_config(config)

    def test_rejects_unknown_environment_parameter(self):
        config = base_config()
        config["environment"]["sides"] = 4
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config(config)

    @pytest.mark.parametrize(
        "environment, match",
        [
            ({"id": "gridworld", "careless_states": [2.7]}, "careless_states must be null or"),
            ({"id": "gridworld", "careless_states": [True]}, "careless_states must be null or"),
            ({"id": "gridworld", "noise": True}, r"noise must be a number in \[0, 1\]"),
            ({"id": "gridworld", "side": 1}, "side must be an integer >= 2"),
            ({"id": "forest", "num_chains": 2.0}, "num_chains must be an integer >= 1"),
            ({"id": "forest", "gamma": 1}, r"gamma must be a number in \(0, 1\)"),
            ({"id": "cql", "epsilon": 0.7}, r"epsilon must be a number in \[0, 0.5\]"),
        ],
    )
    def test_rejects_bad_environment_value(self, environment, match):
        config = base_config()
        config["environment"] = environment
        with pytest.raises(ConfigError, match=rf"environment\[{environment['id']}\]: {match}"):
            validate_config(config)

    def test_rejects_unknown_dataset_key(self):
        config = base_config()
        config["dataset"]["episodes"] = 10
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config(config)

    def test_rejects_incomplete_dataset(self):
        config = base_config()
        del config["dataset"]["horizon"]
        with pytest.raises(ConfigError, match="missing keys"):
            validate_config(config)

    @pytest.mark.parametrize("seeds", [-1, 2.5, "3", True])
    def test_rejects_bad_seed_count(self, seeds):
        config = base_config()
        config["seeds"] = seeds
        with pytest.raises(ConfigError, match="nonnegative integer"):
            validate_config(config)

    def test_rejects_empty_algorithm_list(self):
        config = base_config()
        config["algorithms"] = []
        with pytest.raises(ConfigError, match="non-empty list"):
            validate_config(config)

    def test_rejects_unknown_algorithm_name(self):
        config = base_config()
        config["algorithms"] = [{"name": "dqn"}]
        with pytest.raises(ConfigError, match="unknown name"):
            validate_config(config)

    @pytest.mark.parametrize(
        "entry, match",
        [
            ({"name": "spibb", "n_wedge": 3, "behavior": "bogus"}, r"\[spibb\]: behavior must be"),
            ({"name": "dprl", "n_wedge": 3, "tail_mode": "x"}, r"\[dprl\]: tail_mode must be"),
            ({"name": "dprl", "n_wedge": 3, "count_mode": "x"}, r"\[dprl\]: count_mode must be"),
            ({"name": "dprl", "n_wedge": 0}, r"\[dprl\]: n_wedge must be an integer >= 1"),
            ({"name": "dprl", "n_wedge": 2.7}, r"\[dprl\]: n_wedge must be an integer"),
            ({"name": "dprl", "n_wedge": "5"}, r"\[dprl\]: n_wedge must be an integer"),
            ({"name": "dprl", "n_wedge": True}, r"\[dprl\]: n_wedge must be an integer"),
            ({"name": "dprl", "n_wedge": 3, "tol": 1e-8}, r"unknown keys \['tol'\]"),
            ({"name": "dprl", "n_wedge": 3, "tol": 0}, r"unknown keys \['tol'\]"),
            ({"name": "spibb", "n_wedge": "5"}, r"\[spibb\]: n_wedge must be a number >= 1"),
            ({"name": "spibb", "n_wedge": 0.5}, r"\[spibb\]: n_wedge must be a number >= 1"),
            ({"name": "pqi", "density_threshold": 2}, r"\[pqi\]: density_threshold must be"),
            ({"name": "dprl", "n_wedge": 3, "label": "a/b"}, r"\[dprl\]: label must be"),
            ({"name": "dprl", "n_wedge": 3, "label": "a\\b"}, r"\[dprl\]: label must be"),
            ({"name": "dprl", "n_wedge": 3, "label": ""}, r"\[dprl\]: label must be"),
            ({"name": "dprl", "n_wedge": 3, "label": 7}, r"\[dprl\]: label must be"),
            ({"name": ["dprl"]}, "unknown name"),
        ],
    )
    def test_rejects_bad_algorithm_value(self, entry, match):
        config = base_config()
        config["algorithms"] = [entry]
        with pytest.raises(ConfigError, match=match):
            validate_config(config)

    def test_spibb_accepts_float_and_infinite_thresholds(self):
        config = base_config()
        config["algorithms"] = [{"name": "spibb", "n_wedge": 1e18}, {"name": "spibb", "n_wedge": 2.5},
                                {"name": "spibb", "n_wedge": float("inf")}]
        assert len(validate_config(config)["algorithms"]) == 3

    @pytest.mark.parametrize(
        "section, key, value, match",
        [
            ("dataset", "horizon", "20", "dataset: horizon must be an integer >= 1"),
            ("dataset", "horizon", 0, "dataset: horizon must be an integer >= 1"),
            ("dataset", "horizon", True, "dataset: horizon must be an integer >= 1"),
            ("dataset", "num_trajectories", -3, "dataset: num_trajectories must be a nonnegative"),
            ("dataset", "master_seed", -1, "dataset: master_seed must be a nonnegative"),
            ("bounds", "n_wedge_grid", [2.5], r"bounds: n_wedge_grid must be a list of integers"),
            ("bounds", "n_wedge_grid", 3, r"bounds: n_wedge_grid must be a list of integers"),
            ("bounds", "delta", "0.05", r"bounds: delta must be a number in \(0, 1\]"),
            ("bounds", "delta", 0, r"bounds: delta must be a number in \(0, 1\]"),
            ("bounds", "pqi_b", 1, r"bounds: pqi_b must be a number in \(0, 1\)"),
        ],
    )
    def test_rejects_bad_dataset_or_bounds_value(self, section, key, value, match):
        config = base_config()
        config[section][key] = value
        with pytest.raises(ConfigError, match=match):
            validate_config(config)

    def test_rejects_unknown_algorithm_parameter(self):
        config = base_config()
        config["algorithms"] = [{"name": "dprl", "n_wedge": 3, "threshold": 0.1}]
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config(config)

    def test_rejects_missing_algorithm_parameter(self):
        config = base_config()
        config["algorithms"] = [{"name": "spibb"}]
        with pytest.raises(ConfigError, match="missing keys"):
            validate_config(config)

    def test_rejects_unknown_bounds_key(self):
        config = base_config()
        config["bounds"]["alpha"] = 0.1
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config(config)

    def test_rejects_incomplete_bounds(self):
        config = base_config()
        del config["bounds"]["pqi_b"]
        with pytest.raises(ConfigError, match="missing keys"):
            validate_config(config)

    def test_rejects_bad_bound_variant(self):
        config = base_config()
        config["bounds"]["variant"] = "tight"
        with pytest.raises(ConfigError, match="variant"):
            validate_config(config)

    def test_hash_ignores_key_order(self):
        config = validate_config(base_config())
        reordered = json.loads(json.dumps(config, sort_keys=True))
        assert config_hash(config) == config_hash(reordered)

    def test_hash_sees_value_changes(self):
        first = validate_config(base_config())
        second = json.loads(json.dumps(first))
        second["dataset"]["master_seed"] = 8
        assert config_hash(first) != config_hash(second)


class TestJobsResolution:
    """``--jobs`` alone sets the worker count; ``DPRL_JOBS`` in the environment is not read."""

    @staticmethod
    def jobs(*flags: str) -> int:
        return cli.build_parser().parse_args(["sweep", "--config", "c", "--out", "o", *flags]).jobs

    def test_flag_beats_environment_variable(self, monkeypatch):
        monkeypatch.setenv("DPRL_JOBS", "3")
        assert self.jobs("--jobs", "4") == 4

    @pytest.mark.parametrize("value", ["3", "many", "0", "-3", "2.5"])
    def test_environment_variable_is_ignored(self, monkeypatch, value):
        monkeypatch.setenv("DPRL_JOBS", value)
        assert self.jobs() == 1

    def test_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("DPRL_JOBS", raising=False)
        assert self.jobs() == 1


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset tree shared by the train/evaluate tests."""
    root = tmp_path_factory.mktemp("cli_workspace")
    out = root / "out"
    cfg = write_config(root, base_config())
    rc = cli.main(["generate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return cfg, out


class TestGenerate:
    def test_writes_requested_datasets(self, workspace):
        cfg, out = workspace
        files = sorted((out / "datasets").glob("seed_*.jsonl"))
        assert [f.name for f in files] == ["seed_0000.jsonl", "seed_0001.jsonl", "seed_0002.jsonl"]
        meta = json.loads((out / "datasets" / "meta.json").read_text(encoding="utf-8"))
        assert meta["num_datasets"] == 3
        assert meta["master_seeds"] == [7, 8, 9]
        assert meta["config_hash"] == config_hash(validate_config(base_config()))
        env = dict(base_config()["environment"])
        mdp, _ = build_environment(env.pop("id"), **env)
        dataset = load_dataset(files[0], mdp.num_states, mdp.num_actions)
        assert len(dataset) == 30

    def test_seed_override_and_zero_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "empty"
        rc = cli.main(["generate", "--config", str(cfg), "--out", str(out), "--seeds", "0"])
        assert rc == 0
        assert not out.exists()
        assert "nothing to write" in capsys.readouterr().out

    def test_jobs_flag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as info:
            cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path), "--jobs", "2"])
        assert info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        cfg, out = workspace
        again = tmp_path / "again"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(again)]) == 0
        assert read_tree(again) == read_tree(out)


class TestTrain:
    @pytest.mark.parametrize("label", ["dprl", "spibb", "pqi", "behavior_clone", "behavior"])
    def test_written_file_is_the_loaded_policy_byte_for_byte(self, workspace, label):
        cfg, out = workspace
        assert cli.main([
            "train", "--config", str(cfg), "--out", str(out),
            "--dataset", str(out / "datasets" / "seed_0002.jsonl"), "--algorithm", label,
        ]) == 0
        path = out / f"policy_{label}.json"
        text = policy_json(load_policy(path, forest_behavior())) + "\n"
        assert path.read_bytes() == text.encode("utf-8")

    def test_decision_point_policy_round_trips(self, workspace):
        cfg, out = workspace
        dataset = out / "datasets" / "seed_0000.jsonl"
        rc = cli.main([
            "train", "--config", str(cfg), "--out", str(out),
            "--dataset", str(dataset), "--algorithm", "dprl",
        ])
        assert rc == 0
        policy = load_policy(out / "policy_dprl.json", forest_behavior())
        assert policy.n_wedge == 3
        for state, action in policy.verdicts.items():
            assert isinstance(state, int) and isinstance(action, int)

    def test_behavior_label_writes_logging_rows(self, workspace):
        cfg, out = workspace
        dataset = out / "datasets" / "seed_0000.jsonl"
        rc = cli.main([
            "train", "--config", str(cfg), "--out", str(out),
            "--dataset", str(dataset), "--algorithm", "behavior",
        ])
        assert rc == 0
        behavior = forest_behavior()
        policy = load_policy(out / "policy_behavior.json", behavior)
        assert policy.kind == "behavior"
        np.testing.assert_array_equal(
            policy.action_probabilities, behavior.action_probabilities
        )

    def test_unknown_label_exits_with_config_error(self, workspace, capsys):
        cfg, out = workspace
        dataset = out / "datasets" / "seed_0000.jsonl"
        rc = cli.main([
            "train", "--config", str(cfg), "--out", str(out),
            "--dataset", str(dataset), "--algorithm", "mystery",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "bad_step",
        [[-1, 0, 0.5], [99, 0, 0.5], [0, 7, 0.5], [0.5, 0, 0.5], [0, 0, float("nan")]],
        ids=["negative-state", "state-too-large", "action-too-large", "fractional-id", "nan"],
    )
    def test_bad_dataset_line_exits_2_with_line_number(self, workspace, tmp_path, capsys, bad_step):
        cfg, out = workspace
        good = (out / "datasets" / "seed_0000.jsonl").read_text(encoding="utf-8").splitlines()
        broken = tmp_path / "broken.jsonl"
        bad_line = json.dumps({"seed": 1, "steps": [[0, 0, 0.1], bad_step]})
        broken.write_text("\n".join([*good[:2], bad_line, *good[2:]]) + "\n", encoding="utf-8")
        rc = cli.main([
            "train", "--config", str(cfg), "--out", str(tmp_path / "out"),
            "--dataset", str(broken), "--algorithm", "dprl",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("dataset error:")
        assert "line 3:" in err

    def test_unreachable_count_threshold_defers_everywhere(self, tmp_path):
        config = base_config()
        config["algorithms"] = [{"name": "dprl", "n_wedge": 10**9}]
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out), "--seeds", "1"]) == 0
        rc = cli.main([
            "train", "--config", str(cfg), "--out", str(out),
            "--dataset", str(out / "datasets" / "seed_0000.jsonl"), "--algorithm", "dprl",
        ])
        assert rc == 0
        payload = json.loads((out / "policy_dprl.json").read_text(encoding="utf-8"))
        assert payload["decision_states"] == []
        assert payload["verdicts"]
        assert set(payload["verdicts"].values()) == {"DEFER"}

    def test_spibb_with_unreachable_threshold_returns_behavior_rows(self, tmp_path):
        config = base_config()
        config["algorithms"] = [{"name": "spibb", "n_wedge": 1e18, "behavior": "true"}]
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out), "--seeds", "1"]) == 0
        rc = cli.main([
            "train", "--config", str(cfg), "--out", str(out),
            "--dataset", str(out / "datasets" / "seed_0000.jsonl"), "--algorithm", "spibb",
        ])
        assert rc == 0
        behavior = forest_behavior()
        policy = load_policy(out / "policy_spibb.json", behavior)
        np.testing.assert_allclose(
            policy.action_probabilities, behavior.action_probabilities, atol=1e-12
        )


class TestEvaluate:
    def test_reports_exact_values(self, workspace):
        cfg, out = workspace
        dataset = out / "datasets" / "seed_0001.jsonl"
        assert cli.main([
            "train", "--config", str(cfg), "--out", str(out),
            "--dataset", str(dataset), "--algorithm", "spibb",
        ]) == 0
        rc = cli.main([
            "evaluate", "--config", str(cfg), "--out", str(out),
            "--policy", str(out / "policy_spibb.json"),
        ])
        assert rc == 0
        report = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
        assert report["policy_file"] == "policy_spibb.json"
        assert report["environment"].startswith("forest")
        assert report["improvement"] == report["value"] - report["behavior_value"]

    def test_behavior_policy_has_zero_improvement(self, workspace):
        cfg, out = workspace
        dataset = out / "datasets" / "seed_0000.jsonl"
        assert cli.main([
            "train", "--config", str(cfg), "--out", str(out),
            "--dataset", str(dataset), "--algorithm", "behavior",
        ]) == 0
        rc = cli.main([
            "evaluate", "--config", str(cfg), "--out", str(out),
            "--policy", str(out / "policy_behavior.json"),
        ])
        assert rc == 0
        report = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
        assert report["value"] == report["behavior_value"]
        assert report["improvement"] == 0.0

    def test_missing_policy_file_is_a_generic_error(self, workspace, capsys):
        cfg, out = workspace
        rc = cli.main([
            "evaluate", "--config", str(cfg), "--out", str(out),
            "--policy", str(out / "no_such_policy.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestBounds:
    def test_four_rows_per_grid_point(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        rc = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        with (out / "bounds.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 2
        assert [r["method"] for r in rows[:4]] == ["dprl", "spibb", "pqi", "count_pessimism"]
        assert {r["n_wedge"] for r in rows} == {"1", "3"}
        for row in rows:
            assert float(row["bound"]) <= 0.0

    def test_zero_trajectories_rejected_before_the_environment_is_built(self, tmp_path, capsys):
        config = base_config()
        config["dataset"]["num_trajectories"] = 0
        for environment in (config["environment"], CARELESS_OUT_OF_RANGE["environment"]):
            config["environment"] = environment
            cfg = write_config(tmp_path, config)
            out = tmp_path / "out"
            assert cli.main(["bounds", "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "config error: bounds: dataset.num_trajectories must be >= 1, got 0\n")
            assert not out.exists()

    def test_missing_bounds_section_rejected(self, tmp_path, capsys):
        config = base_config()
        del config["bounds"]
        cfg = write_config(tmp_path, config)
        rc = cli.main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "bounds" in capsys.readouterr().err


class TestSweep:
    def run_sweep(self, tmp_path: Path, name: str, extra: list[str]) -> Path:
        cfg = write_config(tmp_path, base_config(), name=f"{name}.json")
        out = tmp_path / name
        rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out), *extra])
        assert rc == 0
        return out

    def test_per_seed_table_is_seed_major(self, tmp_path):
        out = self.run_sweep(tmp_path, "serial", [])
        with (out / "per_seed.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        labels = ["dprl", "spibb", "pqi", "behavior_clone", "behavior"]
        assert len(rows) == 3 * len(labels)
        assert [r["algorithm"] for r in rows] == labels * 3
        assert [r["seed"] for r in rows] == [s for s in ("7", "8", "9") for _ in labels]
        for row in rows:
            assert np.isfinite(float(row["value"]))

        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert sorted(summary["algorithms"]) == sorted(labels)
        assert summary["num_seeds"] == 3
        assert summary["config_hash"] == config_hash(validate_config(base_config()))
        for stats in summary["algorithms"].values():
            assert stats["num_failures"] == 0

    def test_rerun_and_parallel_runs_are_byte_identical(self, tmp_path):
        first = self.run_sweep(tmp_path, "first", [])
        again = self.run_sweep(tmp_path, "again", [])
        parallel = self.run_sweep(tmp_path, "parallel", ["--jobs", "2"])
        assert read_tree(first) == read_tree(again)
        assert read_tree(first) == read_tree(parallel)

    def test_jobs_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        serial = self.run_sweep(tmp_path, "serial_env", [])
        monkeypatch.setenv("DPRL_JOBS", "0")  # not a worker count, and not read
        via_env = self.run_sweep(tmp_path, "via_env", [])
        assert read_tree(serial) == read_tree(via_env)


class TestExitCodes:
    @pytest.mark.parametrize(
        "command, edit",
        [
            ("sweep", lambda c: c["algorithms"][1].update(behavior="bogus")),
            ("sweep", lambda c: c.update(seeds=True)),
            ("generate", lambda c: c["dataset"].update(horizon=0)),
            ("bounds", lambda c: c["bounds"].update(delta="0.05")),
            ("generate", lambda c: c["environment"].update(depth="2")),
            ("sweep", lambda c: c["algorithms"][0].update(tol=1e-8)),
        ],
        ids=["spibb-behavior", "bool-seeds", "zero-horizon", "string-delta", "string-depth",
             "dprl-tol"],
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, command, edit):
        config = base_config()
        edit(config)
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--seeds", "-2"], "argument --seeds: must be a nonnegative integer"),
            (["sweep", "--seeds", "-1"], "argument --seeds: must be a nonnegative integer"),
            (["sweep", "--seeds", "2.5"], "argument --seeds: must be a nonnegative integer"),
            (["sweep", "--jobs", "-3"], "argument --jobs: must be an integer >= 1"),
            (["sweep", "--jobs", "0"], "argument --jobs: must be an integer >= 1"),
        ],
        ids=["generate-negative-seeds", "sweep-negative-seeds", "sweep-fractional-seeds",
             "sweep-negative-jobs", "sweep-zero-jobs"],
    )
    def test_bad_integer_flag_exits_2(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--config", str(cfg), "--out", str(out)])
        assert info.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p: p.update(verdicts={"-1": 0}, decision_states=[-1]), "state id"),
            (lambda p: p.update(verdicts={"999": 0}, decision_states=[999]), "state id"),
            (lambda p: p["verdicts"].update({"0": 7}), "action id"),
            # The ids one past the last: the environment has 12 states and 3 actions.
            (lambda p: p.update(verdicts={"12": 0}, decision_states=[12]), "state id"),
            (lambda p: p["verdicts"].update({"12": "DEFER"}), "state id"),
            (lambda p: p["verdicts"].update({"0": 3}), "action id"),
            (lambda p: p["verdicts"].update({"0": 1.0}), "verdicts must map"),
            (lambda p: p.update(format="other"), "format"),
            (lambda p: p.pop("format"), "format"),
            (lambda p: p.pop("verdicts"), "missing key 'verdicts'"),
            (lambda p: p.update(n_wedge=2.7), "n_wedge must be an integer >= 1, got 2.7"),
            (lambda p: p.update(n_wedge="20"), "n_wedge must be an integer >= 1, got '20'"),
            (lambda p: p.update(n_wedge=True), "n_wedge must be an integer >= 1, got True"),
            (lambda p: p.update(n_wedge=0), "n_wedge must be an integer >= 1, got 0"),
            (lambda p: p.update(iterations=2.7), "iterations must be an integer >= 0, got 2.7"),
            (lambda p: p.update(iterations="20"), "iterations must be an integer >= 0, got '20'"),
            (lambda p: p.update(iterations=True), "iterations must be an integer >= 0, got True"),
            (lambda p: p.update(iterations=-1), "iterations must be an integer >= 0, got -1"),
            (lambda p: p["verdicts"].update({"00": 2}), "key '00' is not a canonical state id"),
            (lambda p: p.update(verdicts={"+0": 1}), "key '+0' is not a canonical state id"),
            (lambda p: p.update(verdicts={" 0": 1}), "key ' 0' is not a canonical state id"),
            (lambda p: p.update(decision_states=[]), "decision_states must list"),
            (lambda p: p.update(decision_states=[0, 1]), "decision_states must list"),
            (lambda p: p.update(decision_states=[0.0]), "decision_states must list"),
            (lambda p: p.update(decision_states=[False]), "decision_states must list"),
            (lambda p: p.pop("decision_states"), "missing key 'decision_states'"),
        ],
        ids=["negative-state", "state-too-large", "action-too-large", "state-at-num-states",
             "defer-at-num-states", "action-at-num-actions", "float-action",
             "other-format", "no-format", "no-verdicts", "float-n-wedge", "string-n-wedge",
             "bool-n-wedge", "zero-n-wedge", "float-iterations", "string-iterations",
             "bool-iterations", "negative-iterations", "zero-padded-key", "plus-key",
             "space-key", "decision-states-short", "decision-states-with-defer",
             "float-decision-state", "bool-decision-state", "no-decision-states"],
    )
    def test_bad_decision_point_file_exits_2(self, workspace, tmp_path, capsys, edit, match):
        payload = {"format": "dprl-policy", "kind": "decision-point", "n_wedge": 1,
                   "iterations": 1, "decision_states": [0], "verdicts": {"0": 1, "1": "DEFER"}}
        edit(payload)
        self.assert_policy_error(workspace, tmp_path, capsys, json.dumps(payload), match)

    @pytest.mark.parametrize(
        "first_row, match",
        [
            ([2.0, 0.0, 0.0], "probability row"),
            ([1.5, -0.5, 0.0], "probability row"),
            ([float("nan")] * 3, "probability row"),
            (["0.5", 0.5, 0.0], "numbers"),
            (None, "shape"),
        ],
        ids=["not-stochastic", "negative", "nan", "string-entry", "too-few-rows"],
    )
    def test_bad_row_file_exits_2(self, workspace, tmp_path, capsys, first_row, match):
        rows = forest_behavior().action_probabilities.tolist()
        assert len(rows[0]) == 3
        if first_row is None:
            rows.pop()
        else:
            rows[0] = first_row
        text = json.dumps({"format": "dprl-policy", "kind": "spibb", "params": {}, "rows": rows})
        self.assert_policy_error(workspace, tmp_path, capsys, text, match)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p: p.update(kind=5), "kind must be a string, got 5"),
            (lambda p: p.update(kind=None), "kind must be a string, got None"),
            (lambda p: p.pop("kind"), "missing key 'kind'"),
            (lambda p: p.update(params=5), "params must be an object, got 5"),
            (lambda p: p.update(rows=5), "rows must be a list, got 5"),
            (lambda p: p.update(rows=[1, 2]), "rows[0] must be a list of numbers, got 1"),
            (lambda p: p.update(rows=[[1.0, 0.0, 0.0], [0.5, True, 0.5]]),
             "rows[1] must be a list of numbers, got [0.5, True, 0.5]"),
            (lambda p: p["rows"][1].pop(), "rows must have equal lengths"),
        ],
        ids=["int-kind", "null-kind", "no-kind", "int-params", "int-rows", "flat-rows",
             "bool-entry", "ragged-rows"],
    )
    def test_bad_row_envelope_exits_2(self, workspace, tmp_path, capsys, edit, match):
        payload = {"format": "dprl-policy", "kind": "spibb", "params": {},
                   "rows": forest_behavior().action_probabilities.tolist()}
        edit(payload)
        self.assert_policy_error(workspace, tmp_path, capsys, json.dumps(payload), match)

    def test_invalid_json_policy_exits_2(self, workspace, tmp_path, capsys):
        self.assert_policy_error(workspace, tmp_path, capsys, "{not json", "p.json")

    @pytest.mark.parametrize("kind", ["config", "dataset", "policy"])
    def test_file_that_is_not_utf8_exits_2(self, workspace, tmp_path, capsys, kind):
        cfg, _ = workspace
        latin = tmp_path / "latin.bin"
        latin.write_bytes(b"\xff")
        argv = {
            "config": ["generate", "--config", str(latin)],
            "dataset": ["train", "--config", str(cfg), "--dataset", str(latin), "--algorithm", "dprl"],
            "policy": ["evaluate", "--config", str(cfg), "--policy", str(latin)],
        }[kind]
        rc = cli.main([*argv, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"{kind} error: {latin}: 'utf-8' codec can't decode byte 0xff"
        )
        assert not (tmp_path / "out").exists()

    @staticmethod
    def assert_policy_error(workspace, tmp_path, capsys, text, match):
        cfg, _ = workspace
        policy = tmp_path / "p.json"
        policy.write_text(text, encoding="utf-8")
        rc = cli.main([
            "evaluate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--policy", str(policy),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"policy error: {policy}: ")
        assert match in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, message",
        MALFORMED_CONFIGS
        + [(CARELESS_OUT_OF_RANGE, "environment[gridworld]: careless state 100 out of range"),
           (NOISELESS_GRIDWORLD,
            "environment[gridworld]: greedy path failed to reach the goal")],
        ids=[*MALFORMED_CONFIG_IDS, "builder-failure", "builder-runtime-error"],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, config, message):
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["generate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err

    def test_config_path_that_cannot_be_read_exits_2(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, base_config())
        for path, reason in ((tmp_path, "Is a directory"), (cfg / "x.json", "Not a directory")):
            assert cli.main(["generate", "--config", str(path), "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == (
                f"config error: cannot read config file {path}: {reason}\n")

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(Path, "read_text", refuse)
        assert cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot read config file {cfg}: Permission denied\n")
        assert not (tmp_path / "out").exists()

    def test_invalid_json_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json", encoding="utf-8")
        rc = cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_no_output_directory_anywhere(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        for command in ("generate", "train", "evaluate", "bounds", "sweep"):
            with pytest.raises(SystemExit) as info:
                cli.main([command, "--config", str(cfg)])
            assert info.value.code == 2
            assert "--out" in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            cli.main(["generate", "--config", str(cfg), "--out", ""])
        assert info.value.code == 2
        assert "--out: must be a non-empty path, got ''" in capsys.readouterr().err

    @pytest.mark.parametrize("output_dir", [5, "", "from_config"], ids=["int", "empty", "path"])
    def test_bad_output_dir_exits_2(self, tmp_path, capsys, monkeypatch, output_dir):
        # --out is the one output directory; the config has no output_dir key.
        config = base_config()
        config["output_dir"] = output_dir
        cfg = write_config(tmp_path, config)
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["generate", "--config", str(cfg), "--seeds", "1", "--out", "out"])
        assert rc == 2
        assert capsys.readouterr().err == "config error: config: unknown keys ['output_dir']\n"
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "from_config").exists()
        assert not (tmp_path / "datasets").exists()

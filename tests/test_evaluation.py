"""Policy composition, exact and rollout evaluation, tail risk, harness."""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    deterministic_chain,
    three_state_eval_chain,
    uniform_behavior,
)
from dprl.discrete import DecisionPointPolicy
from dprl import evaluation
from dprl.envs import build_forest_mdp, build_gridworld
from dprl.evaluation import (
    AlgorithmSpec,
    MixedPolicy,
    cvar,
    exact_value,
    load_policy,
    run_reliability_experiment,
    save_policy,
    train_algorithm,
)
from dprl.mdp import BehaviorPolicy, RewardSpec, TabularMdp, simulate

FOREST_MIDDLE_ARM_VALUE = 0.53366445  # 0.55 * 0.99**3, derived by hand


def single_loop(reward: float = 0.5, gamma: float = 0.75) -> TabularMdp:
    return TabularMdp(
        transitions=np.ones((1, 1, 1)),
        rewards=RewardSpec.constant(np.array([[reward]])),
        gamma=gamma,
        start_state=0,
    )


class TestMixedPolicy:
    def test_none_defers_to_behavior_everywhere(self):
        behavior = uniform_behavior(3, 2)
        rows = MixedPolicy(learned=None, behavior=behavior).rows()
        np.testing.assert_array_equal(rows, behavior.action_probabilities)
        rows[0, 0] = 9.0  # returned rows are a copy
        assert behavior.action_probabilities[0, 0] == 0.5

    def test_decision_point_overrides_only_its_verdicts(self):
        behavior = uniform_behavior(3, 2)
        policy = DecisionPointPolicy(
            n_wedge=1, verdicts={1: 1}, defer_states=frozenset({0}), iterations=1
        )
        rows = MixedPolicy(learned=policy, behavior=behavior).rows()
        np.testing.assert_allclose(rows[0], [0.5, 0.5])
        np.testing.assert_allclose(rows[1], [0.0, 1.0])
        np.testing.assert_allclose(rows[2], [0.5, 0.5])

    def test_baseline_policy_rows_pass_through(self):
        behavior = uniform_behavior(2, 2)
        learned = BehaviorPolicy(
            action_probabilities=np.array([[1.0, 0.0], [0.25, 0.75]]), kind="x"
        )
        rows = MixedPolicy(learned=learned, behavior=behavior).rows()
        np.testing.assert_allclose(rows, learned.action_probabilities)


class TestExactValue:
    def test_single_state_loop_geometric_series(self):
        mdp = single_loop(reward=0.5, gamma=0.75)
        value = exact_value(mdp, MixedPolicy(None, uniform_behavior(1, 1)))
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_closed_form_chain(self):
        mdp, behavior = three_state_eval_chain()
        assert exact_value(mdp, MixedPolicy(None, behavior)) == pytest.approx(
            0.756, abs=1e-12
        )

    def test_defer_everywhere_equals_behavior_value(self):
        mdp, behavior = build_forest_mdp(num_chains=3, depth=2, epsilon=0.2)
        empty = DecisionPointPolicy(
            n_wedge=10**9, verdicts={}, defer_states=frozenset(), iterations=0
        )
        behavior_value = exact_value(mdp, MixedPolicy(None, behavior))
        mixed_value = exact_value(mdp, MixedPolicy(empty, behavior))
        assert abs(mixed_value - behavior_value) <= 1e-10

    def test_logging_value_is_solved_once_per_environment_and_behavior(self, monkeypatch):
        mdp, behavior = build_forest_mdp(num_chains=3, depth=2, epsilon=0.2)
        solve, solved = evaluation.policy_state_values, []
        fresh = float(solve(mdp, behavior.action_probabilities)[mdp.start_state])
        monkeypatch.setattr(evaluation, "policy_state_values",
                            lambda *args: solved.append(args) or solve(*args))
        first = exact_value(mdp, MixedPolicy(None, behavior))
        assert exact_value(mdp, MixedPolicy(None, behavior)) == first == fresh
        assert len(solved) == 1
        twin = BehaviorPolicy(behavior.action_probabilities, kind="twin")  # another pair
        assert exact_value(mdp, MixedPolicy(None, twin)) == fresh and len(solved) == 2
        empty = DecisionPointPolicy(n_wedge=1, verdicts={}, defer_states=frozenset(), iterations=0)
        exact_value(mdp, MixedPolicy(empty, behavior))  # a learned policy is solved each time
        exact_value(mdp, MixedPolicy(empty, behavior))
        assert len(solved) == 4

    def test_forest_middle_arm_frozen_value(self):
        mdp, behavior = build_forest_mdp(num_chains=10, depth=3, epsilon=0.1, gamma=0.99)
        rows = np.zeros_like(behavior.action_probabilities)
        rows[:, 1] = 1.0
        learned = BehaviorPolicy(action_probabilities=rows, kind="probe")
        value = exact_value(mdp, MixedPolicy(learned, behavior))
        assert value == pytest.approx(FOREST_MIDDLE_ARM_VALUE, abs=1e-9)


class TestRollouts:
    def test_deterministic_mdp_rollouts_equal_exact_value(self):
        mdp = deterministic_chain(4, gamma=0.9)
        behavior = uniform_behavior(4, 2)
        rows = np.zeros((4, 2))
        rows[:, 0] = 1.0
        policy = MixedPolicy(BehaviorPolicy(rows, kind="probe"), behavior)
        exact = exact_value(mdp, policy)
        returns = oracles.rollout_returns(mdp, policy, rollouts=20, seed=3)
        np.testing.assert_allclose(returns, exact, atol=1e-12)
        assert oracles.mc_value(mdp, policy, rollouts=20, seed=3) == pytest.approx(exact)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_sample_mean_brackets_exact_value(self, seed):
        mdp, behavior = three_state_eval_chain()
        policy = MixedPolicy(None, behavior)
        exact = exact_value(mdp, policy)
        returns = oracles.rollout_returns(mdp, policy, rollouts=400, seed=seed)
        sem = returns.std(ddof=1) / np.sqrt(len(returns))
        assert abs(returns.mean() - exact) <= 3.0 * sem

    def test_same_seed_reproduces_returns(self):
        mdp, behavior = three_state_eval_chain()
        policy = MixedPolicy(None, behavior)
        a = oracles.rollout_returns(mdp, policy, rollouts=50, seed=11)
        b = oracles.rollout_returns(mdp, policy, rollouts=50, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_zero_rollouts_rejected(self):
        mdp, behavior = three_state_eval_chain()
        with pytest.raises(ValueError, match="rollouts"):
            oracles.rollout_returns(mdp, MixedPolicy(None, behavior), rollouts=0, seed=0)


class TestCvar:
    def test_worst_five_percent_of_range(self):
        assert cvar(np.arange(100, dtype=float), 0.05) == pytest.approx(2.0)

    def test_alpha_one_is_the_mean(self):
        values = np.array([3.0, 1.0, 2.0])
        assert cvar(values, 1.0) == pytest.approx(values.mean())

    def test_matches_sort_slice_oracle_on_random_draws(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=500)
        for alpha in (0.01, 0.05, 0.25, 0.5, 1.0):
            assert cvar(values, alpha) == pytest.approx(
                oracles.sort_slice_cvar(values, alpha), rel=1e-12
            )

    def test_monotone_in_alpha_and_below_mean(self):
        rng = np.random.default_rng(3)
        values = rng.random(200)
        grid = [cvar(values, a) for a in (0.05, 0.1, 0.5, 1.0)]
        assert grid == sorted(grid)
        assert grid[0] <= values.mean() + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            cvar([], 0.05)
        with pytest.raises(ValueError):
            cvar([1.0], 0.0)
        with pytest.raises(ValueError):
            cvar([1.0], 1.5)


class TestTrainDispatch:
    def test_behavior_entry_trains_nothing(self):
        mdp, behavior = build_forest_mdp(num_chains=1, depth=1)
        ds = simulate(mdp, behavior, num_trajectories=5, horizon=5, master_seed=0)
        learned, defer = train_algorithm(
            AlgorithmSpec(name="behavior", label="behavior"), ds, mdp, behavior
        )
        assert learned is None and defer == 1.0

    def test_dprl_defer_fraction_counts_actionable_states(self):
        mdp, behavior = build_forest_mdp(num_chains=1, depth=1, epsilon=0.2)
        ds = simulate(mdp, behavior, num_trajectories=40, horizon=5, master_seed=1)
        learned, defer = train_algorithm(
            AlgorithmSpec(name="dprl", label="dprl", params={"n_wedge": 2}),
            ds,
            mdp,
            behavior,
        )
        actionable = mdp.num_states - len(mdp.terminal_states)
        assert defer == pytest.approx(1.0 - len(learned.verdicts) / actionable)

    def test_spibb_estimated_behavior_source(self):
        mdp, behavior = build_forest_mdp(num_chains=1, depth=1, epsilon=0.2)
        ds = simulate(mdp, behavior, num_trajectories=30, horizon=5, master_seed=2)
        learned, _ = train_algorithm(
            AlgorithmSpec(
                name="spibb",
                label="spibb",
                params={"n_wedge": 3, "behavior": "estimated"},
            ),
            ds,
            mdp,
            behavior,
        )
        assert learned.params["behavior"] == "estimated"
        with pytest.raises(ValueError):
            train_algorithm(
                AlgorithmSpec(
                    name="spibb", label="x", params={"n_wedge": 3, "behavior": "guess"}
                ),
                ds,
                mdp,
                behavior,
            )

    @pytest.mark.parametrize(
        "name, params, match",
        [
            ("dprl", {"n_wedge": 3, "typo": 1}, "unknown keys"),
            ("dprl", {}, "missing keys"),
            ("dprl", {"n_wedge": 2.5}, "n_wedge must be an integer"),
            ("pqi", {"density_threshold": 0}, "density_threshold must be"),
        ],
    )
    def test_registry_rules_apply_to_library_calls(self, name, params, match):
        mdp, behavior = build_forest_mdp(num_chains=1, depth=1)
        ds = simulate(mdp, behavior, num_trajectories=2, horizon=5, master_seed=0)
        with pytest.raises(ValueError, match=match):
            train_algorithm(AlgorithmSpec(name=name, label="x", params=params), ds, mdp, behavior)

    VALID_PARAMS = {
        "dprl": {"n_wedge": 2},
        "spibb": {"n_wedge": 3},
        "pqi": {"density_threshold": 0.02},
        "behavior_clone": {},
        "behavior": {},
    }

    @pytest.mark.parametrize("name", sorted(evaluation.ALGORITHMS))
    def test_dataset_of_another_environment_rejected(self, name):
        grid, grid_behavior = build_gridworld(side=4)
        ds = simulate(grid, grid_behavior, num_trajectories=5, horizon=5, master_seed=0)
        forest, behavior = build_forest_mdp(num_chains=1, depth=1)
        spec = AlgorithmSpec(name=name, label="x", params=self.VALID_PARAMS[name])
        with pytest.raises(ValueError, match=r"dataset has .* \(16, 4\), the MDP has \(5, 3\)"):
            train_algorithm(spec, ds, forest, behavior)
        # the same number of states with a different number of actions
        narrow = dataclasses.replace(ds, states=[], actions=[], rewards=[], offsets=[0], seeds=[],
                                     num_states=forest.num_states)
        with pytest.raises(ValueError, match=r"\(5, 4\), the MDP has \(5, 3\)"):
            train_algorithm(spec, narrow, forest, behavior)

    def test_unknown_name_rejected(self):
        mdp, behavior = build_forest_mdp(num_chains=1, depth=1)
        ds = simulate(mdp, behavior, num_trajectories=2, horizon=5, master_seed=0)
        with pytest.raises(ValueError, match="unknown algorithm"):
            train_algorithm(
                AlgorithmSpec(name="mystery", label="m"), ds, mdp, behavior
            )


def ids_below(n: int):
    """Ids in ``[0, n)`` as ints or numpy ints, and a few values no id may take."""
    return st.integers(0, n - 1) | st.integers(0, n - 1).map(np.int64) | st.sampled_from([-1, True, 1.5])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


class TestPolicyFiles:
    STATES, ACTIONS = 6, 3

    @staticmethod
    def round_trip(policy):
        with tempfile.TemporaryDirectory() as tmp:
            save_policy(policy, Path(tmp) / "p.json")
            behavior = uniform_behavior(TestPolicyFiles.STATES, TestPolicyFiles.ACTIONS)
            return load_policy(Path(tmp) / "p.json", behavior)

    @settings(max_examples=150, deadline=None)
    @given(
        n_wedge=st.integers(-1, 4) | st.just(True),
        iterations=st.integers(-1, 4) | st.integers(0, 4).map(np.int64),
        verdicts=st.dictionaries(ids_below(STATES), ids_below(ACTIONS), max_size=4),
        defer_states=st.frozensets(ids_below(STATES), max_size=3),
    )
    def test_decision_point_record_that_constructs_round_trips(
        self, n_wedge, iterations, verdicts, defer_states
    ):
        try:
            policy = DecisionPointPolicy(n_wedge=n_wedge, verdicts=verdicts,
                                         defer_states=defer_states, iterations=iterations)
        except ValueError:
            return
        assert self.round_trip(policy) == policy

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.text() | st.just("decision-point") | st.integers(),
        params=st.dictionaries(st.text(), JSON_VALUES, max_size=3) | st.integers(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_record_that_constructs_round_trips(self, kind, params, seed):
        rows = np.random.default_rng(seed).dirichlet(np.ones(self.ACTIONS), size=self.STATES)
        try:
            policy = BehaviorPolicy(rows, kind=kind, params=params)
        except ValueError:
            return
        back = self.round_trip(policy)
        assert (back.kind, back.params) == (policy.kind, policy.params)
        assert np.array_equal(back.action_probabilities, policy.action_probabilities)


class TestReliabilityExperiment:
    def specs(self):
        return [
            AlgorithmSpec(name="dprl", label="dprl", params={"n_wedge": 3}),
            AlgorithmSpec(name="behavior", label="behavior"),
        ]

    def run(self, jobs=1, num_seeds=4):
        mdp, behavior = build_forest_mdp(num_chains=2, depth=2, epsilon=0.2)
        return run_reliability_experiment(
            mdp,
            behavior,
            self.specs(),
            num_seeds=num_seeds,
            num_trajectories=25,
            horizon=6,
            master_seed=100,
            jobs=jobs,
        )

    def test_shapes_and_seed_layout(self):
        result = self.run()
        assert result.labels == ["dprl", "behavior"]
        assert result.seeds == [100, 101, 102, 103]
        assert len(result.values["dprl"]) == 4
        assert result.failures == {"dprl": [], "behavior": []}
        assert all(0.0 <= f <= 1.0 for f in result.defer_fractions["dprl"])
        np.testing.assert_allclose(result.defer_fractions["behavior"], 1.0)

    def test_summary_structure(self):
        result = self.run()
        summary = result.summary()
        assert set(summary) == {"num_seeds", "algorithms"}  # the CLI adds config_hash
        assert summary["num_seeds"] == 4
        for label in ("dprl", "behavior"):
            entry = summary["algorithms"][label]
            assert set(entry) == {
                "cvar_5",
                "mean_value",
                "mean_defer_fraction",
                "num_failures",
            }
            assert entry["cvar_5"] <= entry["mean_value"] + 1e-12
            assert entry["num_failures"] == 0

    def test_serial_reruns_and_parallel_agree(self):
        a = self.run(jobs=1)
        b = self.run(jobs=1)
        c = self.run(jobs=2)
        assert a.values == b.values == c.values
        assert a.defer_fractions == b.defer_fractions == c.defer_fractions

    def test_failures_recorded_not_raised(self):
        mdp, behavior = build_forest_mdp(num_chains=1, depth=1)
        specs = [
            AlgorithmSpec(name="mystery", label="broken"),
            AlgorithmSpec(name="behavior", label="behavior"),
        ]
        result = run_reliability_experiment(
            mdp, behavior, specs, num_seeds=2, num_trajectories=5, horizon=5, master_seed=0
        )
        assert result.failures["broken"] == [0, 1]
        assert np.isnan(result.values["broken"]).all()
        assert result.failures["behavior"] == []
        reason = ("ValueError", "unknown algorithm 'mystery'")
        assert result.errors == {"broken": [reason, reason], "behavior": []}
        algorithms = result.summary()["algorithms"]
        assert algorithms["broken"]["num_failures"] == 2
        assert algorithms["broken"]["failures"] == [
            {"seed": seed, "error": "ValueError", "message": "unknown algorithm 'mystery'"}
            for seed in (0, 1)
        ]
        assert "failures" not in algorithms["behavior"]
        # A label with no finite value gets nan from the summary and from each statistic.
        stats = ("cvar_5", "mean_value", "mean_defer_fraction")
        assert all(math.isnan(algorithms["broken"][key]) for key in stats)
        methods = (result.cvar, result.mean_value, result.mean_defer_fraction)
        assert all(math.isnan(method("broken")) for method in methods)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken_clone(*args):
            raise TypeError("bug inside a trainer")

        monkeypatch.setattr(evaluation, "train_behavior_clone", broken_clone)
        mdp, behavior = build_forest_mdp(num_chains=1, depth=1)
        specs = [AlgorithmSpec(name="behavior_clone", label="clone")]
        with pytest.raises(TypeError, match="bug inside a trainer"):
            run_reliability_experiment(
                mdp, behavior, specs, num_seeds=1, num_trajectories=5, horizon=5, master_seed=0
            )

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -2):  # not quietly run in-process
            with pytest.raises(ValueError, match=f"jobs must be an integer >= 1, got {jobs}"):
                self.run(jobs=jobs, num_seeds=1)

    @pytest.mark.parametrize("key", ["num_seeds", "jobs"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_counts_rejected(self, key, value):
        # 2.5 used to fail inside range() and True to run one seed.
        low = 0 if key == "num_seeds" else 1
        with pytest.raises(ValueError, match=rf"^{key} must be an integer >= {low}, got {value!r}$"):
            self.run(**{key: value})

    def test_duplicate_labels_rejected(self):
        mdp, behavior = build_forest_mdp(num_chains=1, depth=1)
        specs = [
            AlgorithmSpec(name="behavior", label="same"),
            AlgorithmSpec(name="behavior_clone", label="same"),
        ]
        with pytest.raises(ValueError, match="unique"):
            run_reliability_experiment(
                mdp, behavior, specs, num_seeds=1, num_trajectories=2, horizon=3, master_seed=0
            )

"""Benchmark environment layout and logging-policy tests."""

import inspect

import numpy as np
import pytest

from dprl.envs import (
    ENVIRONMENTS,
    build_cql_mdp,
    build_environment,
    build_forest_mdp,
    build_gridworld,
)
from dprl.evaluation import MixedPolicy, exact_value
from dprl.mdp import BehaviorPolicy
from dprl.solvers import optimal_values
from oracles import dense_optimal_values, greedy_grid_path, loop_grid_transitions

# independently derived in closed form (Fraction arithmetic)
FOREST_BEHAVIOR_ROOT_VALUE = 0.54336744  # depth 3, gamma 0.99, epsilon 0.1
GRID2_OPTIMAL_START_VALUE = 6.011393514460999  # side 2, noise 1, gamma 0.95


def corridor_picks(path: list[int]) -> list[int]:
    """The documented default careless states: 5 evenly spaced interior states of ``path``."""
    interior = path[1:-1]
    count = min(5, len(interior))
    return [interior[k * len(interior) // (count + 1)] for k in range(1, count + 1)]


class TestForest:
    def test_minimal_layout_state_count(self):
        mdp, _ = build_forest_mdp(num_chains=1, depth=1)
        # root + 3 chains of length 1 + sink
        assert mdp.num_states == 5
        assert mdp.num_actions == 3

    def test_two_chain_depth_two_layout(self):
        mdp, behavior = build_forest_mdp(num_chains=2, depth=2, epsilon=0.1, gamma=0.99)
        assert mdp.num_states == 12
        sink = 11
        # root action 0 splits uniformly over the two good chain heads
        np.testing.assert_allclose(mdp.transitions[0, 0, [1, 3]], 0.5)
        np.testing.assert_allclose(mdp.transitions[0, 1, 5], 1.0)
        np.testing.assert_allclose(mdp.transitions[0, 2, [7, 9]], 0.5)
        # chains advance deterministically regardless of action
        for head, tail in [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]:
            np.testing.assert_allclose(mdp.transitions[head, :, tail], 1.0)
            np.testing.assert_allclose(mdp.transitions[tail, :, sink], 1.0)
        # pay only at final chain states, on every action
        means = mdp.rewards.mean()
        np.testing.assert_allclose(means[[2, 4]], 0.7)
        np.testing.assert_allclose(means[6], 0.55)
        np.testing.assert_allclose(means[[8, 10]], 0.5)
        assert np.all(means[[0, 1, 3, 5, 7, 9]] == 0.0)
        assert mdp.terminal_states == frozenset({sink})

    def test_logging_policy_rows(self):
        _, behavior = build_forest_mdp(num_chains=3, depth=2, epsilon=0.1)
        np.testing.assert_allclose(behavior.action_probabilities[0], [0.1, 0.8, 0.1])
        np.testing.assert_allclose(behavior.action_probabilities[1:], 1.0 / 3.0)

    def test_behavior_root_value_matches_closed_form(self):
        mdp, behavior = build_forest_mdp(num_chains=10, depth=3, epsilon=0.1, gamma=0.99)
        value = exact_value(mdp, MixedPolicy(learned=None, behavior=behavior))
        assert value == pytest.approx(FOREST_BEHAVIOR_ROOT_VALUE, abs=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_forest_mdp(num_chains=0)
        with pytest.raises(ValueError):
            build_forest_mdp(depth=0)
        with pytest.raises(ValueError):
            build_forest_mdp(epsilon=0.6)


class TestCql:
    def test_action_count(self):
        mdp, _ = build_cql_mdp(num_risky=8, epsilon=0.1)
        assert mdp.num_actions == 10
        assert mdp.num_states == 11

    def test_uniform_logger_with_single_risky_arm(self):
        _, behavior = build_cql_mdp(num_risky=1, epsilon=1.0 / 3.0)
        np.testing.assert_allclose(behavior.action_probabilities[0], 1.0 / 3.0)

    def test_good_arm_value_is_exactly_interval_mean(self):
        mdp, behavior = build_cql_mdp(num_risky=8, epsilon=0.1, gamma=0.99)
        rows = np.zeros((mdp.num_states, mdp.num_actions))
        rows[:, 0] = 1.0
        always_good = BehaviorPolicy(action_probabilities=rows, kind="probe")
        value = exact_value(mdp, MixedPolicy(learned=always_good, behavior=behavior))
        assert value == pytest.approx(0.7, abs=1e-12)

    def test_episodes_are_one_step(self):
        mdp, behavior = build_cql_mdp(num_risky=2, epsilon=0.1)
        from dprl.mdp import simulate

        ds = simulate(mdp, behavior, num_trajectories=20, horizon=10, master_seed=0)
        assert all(len(t.states) == 1 for t in ds)

    def test_logger_rows(self):
        _, behavior = build_cql_mdp(num_risky=4, epsilon=0.1)
        row = behavior.action_probabilities[0]
        np.testing.assert_allclose(row[:2], [0.1, 0.8])
        np.testing.assert_allclose(row[2:], 0.025)


class TestGridworld:
    def test_default_grid_has_hundred_states(self):
        mdp, _ = build_gridworld(side=10)
        assert mdp.num_states == 100
        assert mdp.num_actions == 4

    def test_goal_pays_and_restarts(self):
        mdp, _ = build_gridworld(side=3, careless_states=frozenset())
        goal = 8
        np.testing.assert_allclose(mdp.transitions[goal, :, 0], 1.0)
        np.testing.assert_allclose(mdp.rewards.lo[goal], 0.9)
        np.testing.assert_allclose(mdp.rewards.hi[goal], 1.0)
        assert mdp.terminal_states == frozenset()

    def test_noise_free_two_by_two_start_value(self):
        mdp, behavior = build_gridworld(side=2, noise=1.0, careless_states=frozenset(), gamma=0.95)
        value = exact_value(mdp, MixedPolicy(learned=None, behavior=behavior))
        assert value == pytest.approx(GRID2_OPTIMAL_START_VALUE, abs=1e-9)

    def test_careless_goal_keeps_its_best_action(self):
        # Every action at the goal restarts with the same reward, so the worst and the
        # best action coincide and the careless row is one-hot on it.
        mdp, behavior = build_gridworld(side=4, careless_states=[15])
        _, q_star, greedy = optimal_values(mdp)
        assert int(np.argmin(q_star[15])) == greedy[15]
        expected = np.zeros(mdp.num_actions)
        expected[greedy[15]] = 1.0
        assert behavior.action_probabilities[15].tolist() == expected.tolist()

    def test_empty_careless_set_recovers_optimal_policy(self):
        mdp, behavior = build_gridworld(side=4, careless_states=frozenset())
        values, _, greedy = optimal_values(mdp)
        np.testing.assert_allclose(
            exact_value(mdp, MixedPolicy(learned=None, behavior=behavior)),
            values[mdp.start_state],
            atol=1e-9,
        )
        expected = np.zeros_like(behavior.action_probabilities)
        expected[np.arange(mdp.num_states), greedy] = 1.0
        np.testing.assert_allclose(behavior.action_probabilities, expected)

    def test_careless_states_flip_to_worst_action(self):
        careless = frozenset({5})
        mdp, behavior = build_gridworld(side=3, careless_states=careless)
        _, q_star, greedy = optimal_values(mdp)
        row = behavior.action_probabilities[5]
        worst = int(np.argmin(q_star[5]))
        assert row[worst] == pytest.approx(0.9)
        assert row[int(greedy[5])] == pytest.approx(0.1)
        # everywhere else the expert stays optimal
        for s in range(9):
            if s == 5:
                continue
            assert behavior.action_probabilities[s, int(greedy[s])] == 1.0

    def test_explore_mass_spread_outside_careless_states(self):
        careless = frozenset({5})
        mdp, behavior = build_gridworld(side=3, careless_states=careless, explore=0.2)
        _, q_star, greedy = optimal_values(mdp)
        for s in range(9):
            row = behavior.action_probabilities[s]
            if s == 5:
                # careless rows ignore the exploration knob
                assert row[int(np.argmin(q_star[5]))] == pytest.approx(0.9)
                continue
            assert row[int(greedy[s])] == pytest.approx(0.85)
            assert np.min(row) == pytest.approx(0.05)
        assert np.allclose(behavior.action_probabilities.sum(axis=1), 1.0)

    def test_explore_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="explore"):
            build_gridworld(side=3, careless_states=frozenset(), explore=1.5)

    def test_default_careless_states_sit_on_corridor_interior(self):
        mdp, behavior = build_gridworld(side=6)
        # With explore 0 only a careless row puts 0.9 on one action.
        picks = np.flatnonzero(behavior.action_probabilities.max(axis=1) == 0.9).tolist()
        path = greedy_grid_path(6, optimal_values(mdp)[2])
        assert set(picks) <= set(path[1:-1])
        assert len(picks) == 5
        assert picks == sorted(corridor_picks(path))
        _, again = build_gridworld(side=6)
        assert again.action_probabilities.tobytes() == behavior.action_probabilities.tobytes()

    def test_greedy_path_on_tiny_grid(self):
        mdp, behavior = build_gridworld(side=2, noise=1.0)
        path = greedy_grid_path(2, optimal_values(mdp)[2])
        assert path[0] == 0 and path[-1] == 3 and len(path) == 3
        # the one interior state is the default careless pick
        careless = np.flatnonzero(behavior.action_probabilities.max(axis=1) < 1.0).tolist()
        assert careless == path[1:2]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_gridworld(side=1)
        with pytest.raises(ValueError):
            build_gridworld(side=3, noise=1.5)
        with pytest.raises(ValueError):
            build_gridworld(side=3, careless_states=frozenset({99}))


class TestGridOracle:
    """The vectorised gridworld build against the loop-built reference."""

    @pytest.mark.parametrize("side", range(2, 13))
    def test_transitions_equal_loop_oracle(self, side):
        for noise in (0.0, 0.25, 0.9, 1.0):
            expected = loop_grid_transitions(side, noise).tobytes()
            for gamma in (0.5, 0.95):
                for explore in (0.0, 0.3):
                    mdp, _ = build_gridworld(
                        side=side, noise=noise, careless_states=frozenset(),
                        gamma=gamma, explore=explore,
                    )
                    assert mdp.transitions.tobytes() == expected

    @pytest.mark.parametrize("side", range(3, 13, 3))
    def test_default_careless_pick_matches_corridor_oracle(self, side):
        for noise, gamma, explore in ((0.5, 0.9, 0.0), (0.9, 0.95, 0.2), (1.0, 0.99, 0.0)):
            mdp, implicit = build_gridworld(side=side, noise=noise, gamma=gamma, explore=explore)
            picks = corridor_picks(greedy_grid_path(side, optimal_values(mdp)[2]))
            _, explicit = build_gridworld(
                side=side, noise=noise, careless_states=picks, gamma=gamma, explore=explore
            )
            assert implicit.action_probabilities.tobytes() == (
                explicit.action_probabilities.tobytes()
            )

    @pytest.mark.parametrize("side", range(2, 13))
    def test_expert_equals_the_dense_oracle_byte_for_byte(self, side):
        # The expert's greedy ties rest on the dense lookahead's bytes: an edge-sum
        # lookahead flips the greedy policy on some of these configurations.
        for noise in (0.1, 0.25, 0.5, 0.9, 1.0):
            for gamma in (0.5, 0.9, 0.95, 0.99):
                mdp, _ = build_gridworld(side=side, noise=noise, careless_states=frozenset(),
                                         gamma=gamma)
                for got, expected in zip(optimal_values(mdp), dense_optimal_values(mdp)):
                    assert got.dtype == expected.dtype
                    assert got.tobytes() == expected.tobytes(), (noise, gamma)

    def test_uniform_noise_has_no_greedy_path(self):
        # noise 0 makes every action equivalent; the greedy walk never arrives
        with pytest.raises(RuntimeError, match="greedy path failed"):
            build_gridworld(side=4, noise=0.0)
        mdp, _ = build_gridworld(side=4, noise=0.0, careless_states=frozenset())
        assert mdp.num_states == 16
        assert greedy_grid_path(4, optimal_values(mdp)[2]) is None


class TestRegistry:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown environment"):
            build_environment("lava")

    def test_forest_by_id(self):
        mdp, _ = build_environment("forest", num_chains=1, depth=1)
        assert mdp.name.startswith("forest(")

    @pytest.mark.parametrize("env_id", ["forest", "cql", "gridworld"])
    def test_rules_cover_exactly_the_builder_keywords(self, env_id):
        rules, builder = ENVIRONMENTS[env_id]
        assert set(rules) == set(inspect.signature(builder).parameters)

    @pytest.mark.parametrize("state", [2.7, True, "2"])
    def test_gridworld_rejects_non_integer_careless_state(self, state):
        with pytest.raises(ValueError, match="careless_states must be null or a list of integers"):
            build_environment("gridworld", side=3, careless_states=[state])

    @pytest.mark.parametrize(
        "env_id, params, message",
        [
            ("gridworld", {"side": 3, "noise": True}, "noise must be a number in [0, 1], got True"),
            ("gridworld", {"side": 3.0}, "side must be an integer >= 2, got 3.0"),
            ("forest", {"num_chains": 2.0}, "num_chains must be an integer >= 1, got 2.0"),
            ("forest", {"num_chains": 2.5}, "num_chains must be an integer >= 1, got 2.5"),
            ("forest", {"depth": True}, "depth must be an integer >= 1, got True"),
            ("cql", {"epsilon": 0.7}, "epsilon must be a number in [0, 0.5], got 0.7"),
            ("cql", {"gamma": 1}, "gamma must be a number in (0, 1), got 1"),
            ("cql", {"size": 3}, "unknown keys ['size']"),
        ],
        ids=["bool-noise", "float-side", "float-chains", "fractional-chains", "bool-depth",
             "wide-epsilon", "gamma-one", "unknown-key"],
    )
    def test_library_calls_apply_the_registry_rules(self, env_id, params, message):
        with pytest.raises(ValueError) as info:
            build_environment(env_id, **params)
        assert str(info.value) == message
        if not message.startswith("unknown keys"):  # the builder applies the same rule
            with pytest.raises(ValueError) as info:
                ENVIRONMENTS[env_id][1](**params)
            assert str(info.value) == message

    def test_gridworld_accepts_careless_list(self):
        mdp, behavior = build_environment(
            "gridworld", side=3, careless_states=[4], noise=0.9, gamma=0.95
        )
        assert mdp.num_states == 9
        assert behavior.action_probabilities[4].max() == pytest.approx(0.9)

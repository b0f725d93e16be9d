"""Blocked lookahead and in-place Bellman systems against the dense formulas."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dprl.baselines import fit_mle_model, train_pqi, train_spibb
from dprl.envs import build_forest_mdp
from dprl.mdp import RewardSpec, TabularMdp, simulate
from dprl.solvers import (
    bellman_system,
    discounted_lookahead,
    optimal_values,
    policy_iteration,
    policy_state_values,
)

GAMMAS = st.sampled_from([0.5, 0.9, 0.95, 0.99, 1.0 / 3.0, 0.123456789])


def assert_same_bytes(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@st.composite
def tables(draw, max_states=60):
    """An (S, A, S) table: sparse or dense, some all-zero rows, signed entries if drawn."""
    num_states = draw(st.integers(1, max_states))
    num_actions = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (num_states, num_actions, num_states)
    table = rng.random(shape) * (rng.random(shape) < draw(st.sampled_from([0.02, 0.2, 1.0])))
    table[rng.random(shape[:2]) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if draw(st.booleans()):
        table *= np.where(rng.random(shape) < 0.5, -1.0, 1.0)  # also flips zeros to -0.0
    return table, rng


def draw_values(rng, num_states):
    scale = 10.0 ** rng.integers(-3, 4, size=num_states)
    return rng.normal(size=num_states) * scale * (rng.random(num_states) < 0.9)


class TestDiscountedLookahead:
    @settings(max_examples=200, deadline=None)
    @given(tables(), GAMMAS)
    def test_equals_the_dense_product_byte_for_byte(self, case, gamma):
        table, rng = case
        values = draw_values(rng, table.shape[0])
        got = discounted_lookahead(table, values, gamma)
        assert_same_bytes(got, oracles.dense_lookahead(table, values, gamma))

    @pytest.mark.parametrize("num_states,num_actions", [(305, 3), (97, 7), (40, 40), (5, 9)])
    def test_many_blocks_and_actions_outnumbering_states(self, num_states, num_actions):
        rng = np.random.default_rng(num_states * num_actions)
        table = rng.random((num_states, num_actions, num_states)) ** 4
        values = -draw_values(rng, num_states)
        got = discounted_lookahead(table, values, 0.99)
        assert_same_bytes(got, oracles.dense_lookahead(table, values, 0.99))


class TestBellmanSystem:
    @settings(max_examples=200, deadline=None)
    @given(tables(max_states=40), GAMMAS)
    def test_equals_the_dense_system_in_place(self, case, gamma):
        table, _ = case
        p_pi = table[:, 0].copy()
        expected = oracles.dense_bellman_system(p_pi, gamma)
        got = bellman_system(p_pi, gamma)
        assert got is p_pi
        assert_same_bytes(got, expected)

    def test_signed_zeros_match(self):
        p_pi = np.array([[0.0, -0.0], [-0.0, 1.0]])
        expected = oracles.dense_bellman_system(p_pi, 0.5)
        got = bellman_system(p_pi.copy(), 0.5)
        assert_same_bytes(got, expected)
        assert not np.signbit(got[0, 1]) and not np.signbit(got[1, 0])


class TestPolicyIteration:
    def test_stops_on_the_current_policy(self):
        # Row 0 improves once from action 0 to action 2; row 1 has one allowed action.
        allowed = np.array([[True, True, True], [False, True, False]])
        scores = {(0, 1): [[0.0, 0.5, 1.0], [9.0, 0.0, 9.0]],
                  (2, 1): [[0.0, 0.5, 2.0], [9.0, 0.0, 9.0]]}
        policy, rounds = policy_iteration(lambda p: np.array(scores[tuple(p.tolist())]),
                                          allowed, np.zeros((2, 3)))
        assert policy.tolist() == [2, 1] and rounds == 2

    def test_a_repeated_earlier_policy_ends_a_tie_cycle(self):
        # Under action 1 the two actions tie and the tie goes to action 0; under
        # action 0, action 1 is better by a last-bit margin.  Without the repeat
        # rule the greedy policy would alternate until the cap.
        scores = {0: [[0.3, 0.30000000000000004]], 1: [[0.30000000000000004] * 2]}
        seen = []

        def score(policy):
            seen.append(int(policy[0]))
            return np.array(scores[int(policy[0])])

        policy, rounds = policy_iteration(score, np.ones((1, 2), bool), np.zeros((1, 2)))
        assert policy.tolist() == [0] and rounds == 2 and seen == [0, 1]

    def test_nothing_to_choose_takes_no_round(self):
        policy, rounds = policy_iteration(None, np.ones((0, 3), bool), np.zeros((0, 3)))
        assert policy.shape == (0,) and rounds == 0


def paying_terminal_mdp() -> TabularMdp:
    """State 0 moves to state 1, a terminal whose actions would pay 0.5 if it were acted in."""
    transitions = np.zeros((2, 2, 2))
    transitions[:, :, 1] = 1.0
    rewards = RewardSpec.constant(np.array([[0.2, 0.1], [0.5, 0.5]]))
    return TabularMdp(transitions, rewards, gamma=0.9, start_state=0, terminal_states={1})


class TestOptimalValues:
    @pytest.mark.parametrize("build", [lambda: build_forest_mdp(num_chains=2, depth=2)[0],
                                       paying_terminal_mdp], ids=["forest", "paying-terminal"])
    def test_terminal_states_match_value_iteration(self, build):
        # q_from_values pins each terminal state's value and Q row to 0.
        mdp = build()
        terminal = sorted(mdp.terminal_states)
        assert terminal == [mdp.num_states - 1]
        v_star, q_star, greedy = optimal_values(mdp)
        v_oracle, q_oracle = oracles.value_iteration(mdp)
        np.testing.assert_allclose(v_star, v_oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q_star, q_oracle, rtol=0, atol=1e-12)
        assert greedy.tolist() == np.argmax(q_oracle >= q_oracle.max(axis=1, keepdims=True) - 1e-9,
                                            axis=1).tolist()
        assert (q_star[terminal] == 0.0).all() and (v_star[terminal] == 0.0).all()

    def test_forest_root(self):
        v_star, _, greedy = optimal_values(build_forest_mdp(num_chains=2, depth=2)[0])
        assert greedy[0] == 0
        assert v_star[0] == pytest.approx(0.68607, abs=1e-12)

    def test_action_rows_of_the_wrong_shape_rejected(self):
        mdp, _ = build_forest_mdp(num_chains=2, depth=2)
        with pytest.raises(ValueError) as info:
            policy_state_values(mdp, np.ones((mdp.num_states, mdp.num_actions + 1)))
        assert str(info.value) == "action_rows shape must be (S, A)"


class TestPqiMasking:
    """PQI zeroes filtered pairs in place of building a filtered copy of the model."""

    @settings(max_examples=200, deadline=None)
    @given(tables(), GAMMAS, st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def test_masked_rows_equal_the_filtered_model(self, case, gamma, filtered_share):
        p_hat, rng = case
        num_states, num_actions, _ = p_hat.shape
        surviving = rng.random((num_states, num_actions)) >= filtered_share
        r_mod = np.where(surviving, rng.random((num_states, num_actions)), 0.0)
        p_mod = np.where(surviving[:, :, None], p_hat, 0.0)
        states = np.arange(num_states)
        policy = rng.integers(0, num_actions, size=num_states)
        values = draw_values(rng, num_states)

        p_pi = p_hat[states, policy]
        p_pi[~surviving[states, policy]] = 0.0
        expected = oracles.dense_bellman_system(p_mod[states, policy], gamma)
        assert_same_bytes(bellman_system(p_pi, gamma), expected)

        lookahead = discounted_lookahead(p_hat, values, gamma)
        lookahead[~surviving] = 0.0
        assert_same_bytes(r_mod + lookahead, r_mod + oracles.dense_lookahead(p_mod, values, gamma))


class TestMemory:
    """A learner or evaluator holds at most one (S, A, S) table beyond its inputs.

    On the forest benchmark size the model table is 2.2 MB and an (S, S)
    array 0.74 MB; the bounds below allow the learners one table plus two
    (S, S) arrays and the evaluator, which is handed the MDP, two (S, S)
    arrays.
    """

    @staticmethod
    def peak_bytes(call) -> int:
        call()  # the first call may import numpy internals lazily
        gc.collect()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peaks_stay_within_one_table(self):
        mdp, behavior = build_forest_mdp(num_chains=50, depth=3, epsilon=0.2)
        dataset = simulate(mdp, behavior, num_trajectories=100, horizon=30, master_seed=3)
        num_states, num_actions = mdp.num_states, mdp.num_actions
        table = num_states * num_actions * num_states * 8
        square = num_states * num_states * 8

        def fresh():
            """A copy of the dataset, so each call fits the model a dataset keeps."""
            return dataclasses.replace(dataset)

        calls = {
            "fit_mle_model": (lambda: fit_mle_model(fresh()),
                              table + 2 * square),
            "train_spibb": (lambda: train_spibb(fresh(), behavior, 10, mdp.gamma),
                            table + 2 * square),
            "train_pqi": (lambda: train_pqi(fresh(), 0.02, mdp.gamma), table + 2 * square),
            "policy_state_values": (
                lambda: policy_state_values(mdp, behavior.action_probabilities), 2 * square),
        }
        peaks = {name: self.peak_bytes(call) for name, (call, _) in calls.items()}
        over = {name: (peaks[name], bound) for name, (_, bound) in calls.items()
                if peaks[name] > bound}
        assert not over, f"peak bytes over the bound: {over}"

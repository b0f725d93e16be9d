"""Edge lists, in-place Bellman systems and the topological solve against the dense
formulas."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import GAMMAS, layered_mdps, random_mdp
from dprl import solvers
from dprl.baselines import MleModel, _model_scores, fit_mle_model, train_pqi, train_spibb
from dprl.envs import build_forest_mdp, build_gridworld
from dprl.mdp import Edges, RewardSpec, TabularMdp, simulate
from dprl.solvers import (
    bellman_system,
    optimal_values,
    policy_edges,
    policy_iteration,
    policy_state_values,
    q_from_values,
    solve_bellman,
)


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
    """``r + gamma * P @ V``: the true MDP's keeps the bytes of the dense product, and a model's,
    summed over its edges, matches the dense product up to rounding."""

    @settings(max_examples=200, deadline=None)
    @given(tables(), GAMMAS)
    def test_equals_the_dense_product_byte_for_byte(self, case, gamma):
        # q_from_values builds the gridworld expert, whose greedy ties rest on these bytes.
        table, rng = case
        num_states, num_actions, _ = table.shape
        table = np.abs(table)
        table[:, :, 0] += table.sum(axis=2) == 0.0
        table /= table.sum(axis=2, keepdims=True)
        means = rng.random((num_states, num_actions))
        terminal = frozenset(np.flatnonzero(rng.random(num_states) < 0.2).tolist())
        mdp = TabularMdp(table, RewardSpec(lo=means, hi=means), gamma=gamma, start_state=0,
                         terminal_states=terminal)
        values = draw_values(rng, num_states)
        pinned = values.copy()
        pinned[sorted(terminal)] = 0.0
        expected = mdp.expected_rewards + oracles.dense_lookahead(table, pinned, gamma)
        expected[sorted(terminal)] = 0.0
        assert_same_bytes(q_from_values(mdp, values), expected)

    @pytest.mark.parametrize("num_states,num_actions", [(305, 3), (97, 7), (40, 40), (5, 9)])
    def test_model_lookahead_matches_the_dense_product(self, num_states, num_actions):
        # Wide rows, every entry an edge: the edge sums round differently from the dense
        # product, by at most a row's length of ulps of the largest value.
        rng = np.random.default_rng(num_states * num_actions)
        table = rng.random((num_states, num_actions, num_states)) ** 4
        table /= table.sum(axis=2, keepdims=True)
        model = MleModel(oracles.loop_edges(table), rng.random((num_states, num_actions)),
                         np.ones((num_states, num_actions), dtype=np.int64))
        rows = rng.random((num_states, num_actions))
        rows /= rows.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(
            _model_scores(model, rows, 0.99),
            oracles.dense_model_scores(oracles.dense_model(model), rows, 0.99),
            rtol=0, atol=num_states * np.finfo(float).eps / (1.0 - 0.99))


class TestEdges:
    @settings(max_examples=100, deadline=None)
    @given(layered_mdps())
    def test_mdp_edges_equal_the_loop_oracle(self, case):
        mdp, _ = case
        for got, expected in zip(mdp.edges, oracles.loop_edges(mdp.transitions)):
            assert_same_bytes(got, expected)
            assert not got.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_policy_table_adds_actions_in_order(self, case):
        # A full system is built from its edges.  Each entry is a running sum over the actions
        # in order, which is how numpy's einsum forms it from two states on, so the systems of
        # oracles.dense_policy_state_values keep their bytes.
        table, rng = case
        table = np.abs(table)
        num_states, num_actions, _ = table.shape
        rows = rng.random((num_states, num_actions)) * (rng.random((num_states, num_actions)) < 0.7)
        got = solvers._dense_block(*policy_edges(oracles.loop_edges(table), rows), num_states)
        expected = np.zeros((num_states, num_states))
        for a in range(num_actions):
            expected = expected + rows[:, a, None] * table[:, a]
        assert_same_bytes(got, expected)


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


class SolveSpy:
    """Records the size of every ``np.linalg.solve`` system; ``fail`` makes each call raise."""

    def __init__(self, monkeypatch, fail: bool = False):
        self.sizes, self.fail, solve = [], fail, np.linalg.solve

        def spy(system, rhs):
            self.sizes.append(len(system))
            if self.fail:
                raise AssertionError("np.linalg.solve was called")
            return solve(system, rhs)

        monkeypatch.setattr(np.linalg, "solve", spy)


class TestSolveBellman:
    """The topological solve against one dense solve of the whole system."""

    @settings(max_examples=300, deadline=None)
    @given(layered_mdps())
    def test_equals_the_dense_solve(self, case):
        mdp, rows = case
        got = policy_state_values(mdp, rows)
        expected = oracles.dense_policy_state_values(mdp, rows)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 / (1.0 - mdp.gamma))
        assert (got[sorted(mdp.terminal_states)] == 0.0).all()

    @pytest.mark.parametrize("num_states,num_actions,seed", [(1, 1, 0), (7, 3, 1), (40, 4, 2)])
    def test_nothing_peels_from_a_random_mdp_so_its_bytes_hold(self, num_states, num_actions,
                                                              seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, num_states, num_actions)
        rows = rng.random((num_states, num_actions))
        rows /= rows.sum(axis=1, keepdims=True)
        assert_same_bytes(policy_state_values(mdp, rows),
                          oracles.dense_policy_state_values(mdp, rows))

    def test_nothing_peels_from_the_gridworld_so_its_bytes_hold(self):
        mdp, behavior = build_gridworld(side=10)
        uniform = np.full(behavior.action_probabilities.shape, 0.25)
        for rows in (behavior.action_probabilities, uniform):
            assert_same_bytes(policy_state_values(mdp, rows),
                              oracles.dense_policy_state_values(mdp, rows))

    def test_only_the_cyclic_core_is_factored(self, monkeypatch):
        # 0 -> 1 -> {1, 2}; 2 -> 3 <-> 4; 5 -> terminal 6.  State 1 loops on itself
        # and 0, 1 and 2 lead into the cycle of 3 and 4, so the core is 0..4; 5 peels.
        rows = np.array([0, 1, 1, 2, 3, 4, 5, 6])
        cols = np.array([1, 1, 2, 3, 4, 3, 6, 6])
        weights = np.array([1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0])
        p_pi = oracles.dense_from_edges(rows, cols, weights, (7, 7))
        rewards = np.arange(1.0, 8.0)
        system = oracles.dense_bellman_system(p_pi, 0.9)
        system[6], system[6, 6] = 0.0, 1.0
        expected = np.linalg.solve(system, np.r_[rewards[:6], 0.0])
        spy = SolveSpy(monkeypatch)
        got = solve_bellman(rows, cols, weights, rewards, 0.9, terminal={6})
        assert spy.sizes == [5]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)
        assert got[5] == 6.0 and got[6] == 0.0


class TestWhereTheSavingComesFrom:
    """Forest systems are acyclic once the sink is pinned, so they need no LU solve."""

    def test_forest_evaluation_and_model_learners_solve_nothing(self, monkeypatch):
        mdp, behavior = build_forest_mdp(num_chains=10, depth=3, epsilon=0.2)
        dataset = simulate(mdp, behavior, num_trajectories=100, horizon=30, master_seed=3)
        expected = oracles.dense_policy_state_values(mdp, behavior.action_probabilities)
        spibb, pqi = train_spibb(dataset, behavior, 10, mdp.gamma), train_pqi(dataset, 0.02,
                                                                             mdp.gamma)
        spy = SolveSpy(monkeypatch, fail=True)
        values = policy_state_values(mdp, behavior.action_probabilities)
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-14)
        fresh = dataclasses.replace(dataset)  # fits its own model, solving nothing either
        for learned, again in ((spibb, train_spibb(fresh, behavior, 10, mdp.gamma)),
                               (pqi, train_pqi(fresh, 0.02, mdp.gamma))):
            assert_same_bytes(again.action_probabilities, learned.action_probabilities)
        assert spy.sizes == []

    def test_a_gridworld_evaluation_is_one_full_solve(self, monkeypatch):
        mdp, behavior = build_gridworld(side=10)
        spy = SolveSpy(monkeypatch)
        policy_state_values(mdp, behavior.action_probabilities)
        assert spy.sizes == [mdp.num_states]


def paying_terminal_mdp() -> TabularMdp:
    """State 0 moves to state 1, a terminal whose actions would pay 0.5 if it were acted in."""
    transitions = np.zeros((2, 2, 2))
    transitions[:, :, 1] = 1.0
    means = np.array([[0.2, 0.1], [0.5, 0.5]])
    rewards = RewardSpec(lo=means, hi=means)
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
        table, rng = case
        num_states, num_actions, _ = table.shape
        table = np.abs(table)
        table /= np.maximum(1.0, table.sum(axis=2, keepdims=True))  # substochastic rows
        surviving = rng.random((num_states, num_actions)) >= filtered_share
        r_hat = rng.random((num_states, num_actions))
        n_sa = np.ones((num_states, num_actions), dtype=np.int64)
        edges = oracles.loop_edges(table)
        model = MleModel(edges, r_hat, n_sa)
        kept = surviving.ravel()[edges.pair]
        filtered = MleModel(Edges(*(column[kept] for column in edges)),
                            np.where(surviving, r_hat, 0.0), n_sa)
        states = np.arange(num_states)
        policy = rng.integers(0, num_actions, size=num_states)
        chosen = np.zeros((num_states, num_actions))
        chosen[states, policy] = 1.0

        masked = chosen * surviving
        assert all(map(np.array_equal, policy_edges(edges, masked),
                       policy_edges(filtered.edges, chosen)))
        scores = np.where(surviving, _model_scores(model, masked, gamma), 0.0)
        assert_same_bytes(scores, _model_scores(filtered, chosen, gamma))


class TestMemory:
    """Peak bytes of the learners and the evaluator, each learner call on a fresh copy of the
    dataset so that the model fit counts too.

    On the forest benchmark size the old bounds still hold: one (S, A, S) table (2.2 MB)
    plus two (S, S) arrays (0.74 MB each) for the learners, two (S, S) arrays for the
    evaluator.  At 200 chains the peaks must scale with the edges and the (state, action)
    pairs instead: an (S, S) array is 11.6 MB there, 190 times the bound's unit.
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

    def over(self, num_chains: int, bounds) -> dict:
        """``name -> (peak, bound)`` of each call over ``bounds(mdp)[name]``."""
        mdp, behavior = build_forest_mdp(num_chains=num_chains, depth=3, epsilon=0.2)
        dataset = simulate(mdp, behavior, num_trajectories=100, horizon=30, master_seed=3)

        def fresh():
            """A copy of the dataset, so each call fits the model a dataset keeps."""
            return dataclasses.replace(dataset)

        calls = {
            "fit_mle_model": lambda: fit_mle_model(fresh()),
            "train_spibb": lambda: train_spibb(fresh(), behavior, 10, mdp.gamma),
            "train_pqi": lambda: train_pqi(fresh(), 0.02, mdp.gamma),
            "policy_state_values": lambda: policy_state_values(mdp, behavior.action_probabilities),
        }
        limits = bounds(mdp)
        peaks = {name: self.peak_bytes(call) for name, call in calls.items()}
        return {name: (peaks[name], limits[name]) for name in calls if peaks[name] > limits[name]}

    def test_peaks_stay_within_one_table(self):
        def bounds(mdp):
            table = mdp.num_states * mdp.num_actions * mdp.num_states * 8
            square = mdp.num_states * mdp.num_states * 8
            return {"fit_mle_model": table + 2 * square, "train_spibb": table + 2 * square,
                    "train_pqi": table + 2 * square, "policy_state_values": 2 * square}

        over = self.over(50, bounds)
        assert not over, f"peak bytes over the bound: {over}"

    def test_peaks_scale_with_edges_and_pairs(self):
        # Eight floats per edge and per pair; the peaks measured 3 to 4.8 of them.
        def bounds(mdp):
            unit = (len(mdp.edges.pair) + mdp.num_states * mdp.num_actions) * 8
            return dict.fromkeys(["fit_mle_model", "train_spibb", "train_pqi",
                                  "policy_state_values"], 8 * unit)

        over = self.over(200, bounds)
        assert not over, f"peak bytes over the bound: {over}"

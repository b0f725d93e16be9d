"""Decision-point gating, elevated semi-Markov model, and policy iteration tests."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_dataset, make_traj, random_datasets, random_mdp, uniform_behavior
from dprl.discrete import (
    TAIL_ABSORB,
    TAIL_DROP,
    TAIL_MODES,
    DecisionPointPolicy,
    DecisionPointSets,
    SmdpModel,
    identify_decision_points,
    make_smdp,
    smdp_policy_iteration,
    train_decision_point_policy,
)
from dprl.envs import build_environment
from dprl.estimation import (
    FIRST_VISIT,
    VISIT_MODES,
    ValueEstimates,
    count_visits,
    monte_carlo_estimates,
)
from dprl.evaluation import (
    MixedPolicy,
    PolicyError,
    exact_value,
    load_policy,
    policy_json,
    save_policy,
)
from dprl.mdp import simulate


def multi_step_dataset():
    """Nine hand-built trajectories where the greedy raw estimate is wrong.

    At state 0 the single-step action a0 looks best by raw Monte Carlo
    (0.5 vs 0.45) but routing through state 1 via a1 is worth 0.72 once
    state 1's pooled data is taken into account.  Enumerated by hand:
    policy a0 scores 0.5, policy a1 scores 0.72, V(1) = 0.8.
    """
    trajs = [
        make_traj([0], [0], [0.5]),
        make_traj([0], [0], [0.5]),
        make_traj([0, 1], [1, 0], [0.0, 0.5]),
        make_traj([0, 1], [1, 0], [0.0, 0.5]),
        make_traj([0], [2], [0.1]),
        make_traj([0], [2], [0.1]),
        make_traj([1], [0], [1.0]),
        make_traj([1], [0], [1.0]),
        make_traj([1], [0], [1.0]),
    ]
    return make_dataset(trajs, num_states=2, num_actions=3)


def pipeline(dataset, n_wedge, gamma, tail_mode=TAIL_ABSORB):
    counts = count_visits(dataset, FIRST_VISIT)
    estimates = monte_carlo_estimates(dataset, gamma, FIRST_VISIT)
    dp = identify_decision_points(counts, estimates, n_wedge)
    model = make_smdp(dataset, dp, gamma, tail_mode)
    return counts, estimates, dp, model


def assert_matches_loop_oracle(ds, tail_mode, count_mode, n_wedge, gamma):
    """Verdicts, iteration count and every round's bytes equal the loop oracle's."""
    counts = count_visits(ds, count_mode)
    est = monte_carlo_estimates(ds, gamma, count_mode)
    dp = identify_decision_points(counts, est, n_wedge)
    model = make_smdp(ds, dp, gamma, tail_mode)
    expected_history, history = [], []
    verdicts, iterations = oracles.loop_smdp_policy_iteration(model, dp, est, expected_history)
    policy = smdp_policy_iteration(model, dp, est, history=history)
    assert policy.verdicts == verdicts
    assert policy.iterations == iterations
    as_bytes = [(v.tobytes(), p.tobytes()) for v, p in expected_history]
    assert [(v.tobytes(), p.tobytes()) for v, p in history] == as_bytes


def sets_from_gate(gate, observed=None) -> DecisionPointSets:
    """Decision-point sets with this (S, A) gate; ``observed`` defaults to every state."""
    gate = np.asarray(gate, dtype=bool)
    observed = np.ones(len(gate), dtype=bool) if observed is None else np.asarray(observed)
    return DecisionPointSets(gate=gate, observed=observed, n_wedge=1)


def assert_smdp_matches_loop_oracle(ds, dp, gamma, tail_mode):
    """Every table of ``make_smdp`` has the loop oracle's dtype, shape and bytes."""
    model = make_smdp(ds, dp, gamma, tail_mode)
    expected = oracles.loop_make_smdp(ds, dp, gamma, tail_mode)
    assert model.states == expected.states
    for field in fields(SmdpModel)[1:]:
        got, want = getattr(model, field.name), getattr(expected, field.name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), field.name
        assert got.tobytes() == want.tobytes(), field.name


@st.composite
def long_segment_datasets(draw):
    """Datasets whose decision visits lie 16 to 200 steps apart.

    States 0-3 can be decision states; each trajectory visits some of them
    once, in a drawn order, and fills the steps between with state 4.  Half
    the gaps come from a short list, so segments of equal length (ties in
    ``make_smdp``'s longest-first order) are common.  Trajectories may be
    empty or never visit a decision state, and so add no segment or tail.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = st.one_of(st.sampled_from([16, 17, 40]), st.integers(16, 200))
    trajs = []
    for seed in range(draw(st.integers(1, 6))):
        states = [4] * draw(st.sampled_from([0, 0, 3]))
        for s in draw(st.permutations(range(4)))[: draw(st.integers(0, 4))]:
            states += [s] + [4] * (draw(gaps) - 1)
        n = len(states)
        rewards = rng.random(n) * 10.0 ** rng.integers(-3, 4, n)
        trajs.append(make_traj(states, rng.integers(0, 2, n), rewards, seed))
    return make_dataset(trajs, 5, 2)


def decision_sets_of(ds, mask: int) -> DecisionPointSets:
    """Decision points, passing action 0, at the states whose bits are set in ``mask``."""
    gate = np.zeros((ds.num_states, ds.num_actions), dtype=bool)
    gate[[s for s in range(ds.num_states) if mask >> s & 1], 0] = True
    return sets_from_gate(gate, observed=gate.any(axis=1))


class TestGate:
    def test_sets_keep_each_fact_once(self):
        assert [f.name for f in fields(DecisionPointSets)] == ["gate", "observed", "n_wedge"]
        dp = sets_from_gate([[True, False], [False, False], [False, False]], [True, True, False])
        assert dp.decision_states == frozenset({0})
        assert dp.defer_states == frozenset({1})  # state 2 was never observed
        with pytest.raises(AttributeError):
            dp.decision_states = frozenset({1})

    def test_threshold_and_advantage_gate(self):
        ds = multi_step_dataset()
        counts = count_visits(ds, FIRST_VISIT)
        est = monte_carlo_estimates(ds, 0.9, FIRST_VISIT)
        dp = identify_decision_points(counts, est, n_wedge=2)
        assert np.argwhere(dp.gate).tolist() == [[0, 0], [0, 1], [1, 0]]
        assert dp.decision_states == frozenset({0, 1})
        assert dp.defer_states == frozenset()

    def test_tie_with_state_value_qualifies(self):
        # single action at a single state: q_hat == v_hat exactly
        ds = make_dataset([make_traj([0], [0], [0.3])], 1, 1)
        counts = count_visits(ds, FIRST_VISIT)
        est = monte_carlo_estimates(ds, 0.9, FIRST_VISIT)
        dp = identify_decision_points(counts, est, n_wedge=1)
        assert np.argwhere(dp.gate).tolist() == [[0, 0]]

    def test_zero_threshold_rejected(self):
        ds = make_dataset([make_traj([0], [0], [0.3])], 1, 1)
        counts = count_visits(ds, FIRST_VISIT)
        est = monte_carlo_estimates(ds, 0.9, FIRST_VISIT)
        with pytest.raises(ValueError, match="n_wedge"):
            identify_decision_points(counts, est, n_wedge=0)

    @pytest.mark.parametrize("n_wedge", [np.int64(3), 2.5, True])
    def test_threshold_is_an_int_the_policy_file_holds(self, n_wedge, tmp_path):
        ds = multi_step_dataset()
        if isinstance(n_wedge, np.integer):
            path = tmp_path / "policy.json"
            save_policy(train_decision_point_policy(ds, n_wedge, 0.9), path)
            back = load_policy(path, uniform_behavior(2, 3))
            assert type(back.n_wedge) is int and back.n_wedge == 3
        else:
            with pytest.raises(ValueError, match="n_wedge must be an integer"):
                train_decision_point_policy(ds, n_wedge, 0.9)

    def test_vacuous_threshold_defers_everything(self):
        ds = multi_step_dataset()
        counts = count_visits(ds, FIRST_VISIT)
        est = monte_carlo_estimates(ds, 0.9, FIRST_VISIT)
        dp = identify_decision_points(counts, est, n_wedge=10**6)
        assert dp.decision_states == frozenset()
        assert dp.defer_states == frozenset({0, 1})

    def test_below_count_action_excluded(self):
        ds = multi_step_dataset()
        counts = count_visits(ds, FIRST_VISIT)
        est = monte_carlo_estimates(ds, 0.9, FIRST_VISIT)
        dp = identify_decision_points(counts, est, n_wedge=3)
        # only (1, a0) has three or more first visits
        assert np.argwhere(dp.gate).tolist() == [[1, 0]]
        assert dp.defer_states == frozenset({0})

    def test_threshold_monotonicity_on_simulated_data(self):
        rng = np.random.default_rng(7)
        mdp = random_mdp(rng, num_states=4, num_actions=2)
        ds = simulate(mdp, uniform_behavior(4, 2), num_trajectories=20, horizon=8, master_seed=3)
        counts = count_visits(ds, FIRST_VISIT)
        est = monte_carlo_estimates(ds, mdp.gamma, FIRST_VISIT)
        previous = None
        previous_defer = None
        for n_wedge in range(1, 8):
            dp = identify_decision_points(counts, est, n_wedge)
            assert dp.decision_states.isdisjoint(dp.defer_states)
            observed = frozenset(int(s) for s in np.nonzero(counts.n_s >= 1)[0])
            assert dp.decision_states | dp.defer_states == observed
            if previous is not None:
                assert not (dp.gate & ~previous).any()
                assert previous_defer <= dp.defer_states
            previous = dp.gate
            previous_defer = dp.defer_states


class TestMakeSmdp:
    def test_two_step_segment_statistics(self):
        # one trajectory through a non-decision state: discount 0.81,
        # discounted segment reward 0.5 + 0.9 * 0.25 = 0.725
        ds = make_dataset([make_traj([0, 1, 2], [0, 0, 0], [0.5, 0.25, 0.0])], 3, 1)
        dp = sets_from_gate([[True], [False], [True]])
        model = make_smdp(ds, dp, gamma=0.9)
        assert model.states == (0, 2)
        i, j = 0, 1  # state 0 -> state 2
        assert model.counts[i, 0, j] == 1
        assert model.p_tilde[i, 0, j] == pytest.approx(1.0)
        assert model.gamma_tilde[i, 0, j] == pytest.approx(0.81)
        assert model.r_tilde[i, 0, j] == pytest.approx(0.725)

    def test_split_destinations_average_evenly(self):
        ds = make_dataset(
            [
                make_traj([0, 1], [0, 0], [0.0, 0.0]),
                make_traj([0, 2], [0, 0], [0.0, 0.0]),
            ],
            3,
            1,
        )
        dp = sets_from_gate([[True], [True], [True]])
        model = make_smdp(ds, dp, gamma=0.9)
        assert model.p_tilde[0, 0, 1] == pytest.approx(0.5)
        assert model.p_tilde[0, 0, 2] == pytest.approx(0.5)

    def test_tail_modes(self):
        ds = make_dataset([make_traj([0, 1, 1], [0, 0, 0], [0.1, 0.2, 0.3])], 2, 1)
        dp = sets_from_gate([[True], [False]])
        absorbed = make_smdp(ds, dp, gamma=0.5, tail_mode=TAIL_ABSORB)
        dropped = make_smdp(ds, dp, gamma=0.5, tail_mode=TAIL_DROP)
        # absorb keeps the whole discounted tail 0.1 + 0.5*0.2 + 0.25*0.3
        assert absorbed.counts[0, 0, 1] == 1
        assert absorbed.r_tilde[0, 0, 1] == pytest.approx(0.275)
        assert absorbed.gamma_tilde[0, 0, 1] == pytest.approx(0.5**3)
        assert dropped.counts.sum() == 0

    def test_invalid_arguments(self):
        ds = make_dataset([make_traj([0], [0], [0.0])], 1, 1)
        dp = sets_from_gate([[True]])
        with pytest.raises(ValueError, match="tail_mode"):
            make_smdp(ds, dp, gamma=0.9, tail_mode="loop")
        with pytest.raises(ValueError, match="gamma"):
            make_smdp(ds, dp, gamma=1.0)

    @pytest.mark.parametrize("tail_mode", [TAIL_ABSORB, TAIL_DROP])
    @given(random_datasets(), st.integers(0, 63), st.sampled_from([0.5, 0.9, 0.99]))
    @example(multi_step_dataset(), 0b00, 0.9)  # no decision state
    @example(multi_step_dataset(), 0b11, 0.9)  # every state a decision state
    @example(  # every visit in one trajectory, with revisits, beside empty ones
        make_dataset([make_traj([], [], []), make_traj([2, 0, 3, 2, 1, 0, 2], [1, 0, 1, 0, 1, 1, 0],
                                                       [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]),
                      make_traj([3, 3], [0, 1], [1.0, 1.0]), make_traj([], [], [])], 4, 2),
        0b0111, 0.9,
    )
    def test_matches_loop_oracle(self, tail_mode, ds, mask, gamma):
        assert_smdp_matches_loop_oracle(ds, decision_sets_of(ds, mask), gamma, tail_mode)

    @pytest.mark.parametrize("tail_mode", [TAIL_ABSORB, TAIL_DROP])
    @given(long_segment_datasets(), st.integers(1, 15), st.sampled_from([0.5, 0.9, 0.95, 0.99]))
    def test_long_segments_match_loop_oracle(self, tail_mode, ds, mask, gamma):
        # From 16 steps on, a BLAS dot blocks its sum and numpy's pow can
        # differ from the running product, so both would show here.
        assert_smdp_matches_loop_oracle(ds, decision_sets_of(ds, mask), gamma, tail_mode)

    def test_rewards_are_summed_left_to_right(self):
        # 1 + 2**-55 rounds back to 1 at every step of a left-to-right sum,
        # while any blocked sum (a BLAS dot, a pairwise sum) keeps the 39
        # small terms together and ends above 1.
        rewards = [1.0] + [2.0 ** (k - 55) for k in range(1, 40)]
        ds = make_dataset([make_traj([0] + [1] * 39, [0] * 40, rewards)], 2, 1)
        model = make_smdp(ds, sets_from_gate([[True], [False]]), gamma=0.5)
        assert model.r_tilde[0, 0, 1] == 1.0
        assert model.gamma_tilde[0, 0, 1] == 2.0**-40

    def test_discounts_are_running_products(self):
        # Trajectory k takes action k - 1 at decision state 0 and then k - 1
        # steps in state 1, so cell (0, k - 1, absorb) holds powers[k].
        gamma, longest = 0.95, 60
        ds = make_dataset([make_traj([0] + [1] * (k - 1), [k - 1] * k, [0.0] * k)
                           for k in range(1, longest + 1)], 2, longest)
        gate = np.zeros((2, longest), dtype=bool)
        gate[0] = True
        model = make_smdp(ds, sets_from_gate(gate), gamma)
        running = [gamma]
        while len(running) < longest:
            running.append(running[-1] * gamma)
        assert model.gamma_tilde[0, :, 1].tolist() == running
        assert running != [gamma**k for k in range(1, longest + 1)]  # the test can tell them apart

    @pytest.mark.parametrize("tail_mode", [TAIL_ABSORB, TAIL_DROP])
    @given(random_datasets(), st.integers(0, 63))
    def test_matches_straight_line_recomputation(self, tail_mode, ds, mask):
        dp = decision_sets_of(ds, mask)
        model = make_smdp(ds, dp, 0.9, tail_mode)
        table = oracles.straight_line_smdp(ds, dp.decision_states, 0.9, tail_mode)
        expected = np.zeros((*model.counts.shape, 3))
        for (s, a, dest), entry in table.items():
            j = len(model.states) if dest == "absorb" else model.states.index(dest)
            cell = entry["count"], entry["gamma_bar"], entry["r_bar"]
            expected[model.states.index(s), a, j] = cell
        np.testing.assert_array_equal(model.counts, expected[..., 0])
        np.testing.assert_allclose(model.gamma_tilde, expected[..., 1], rtol=1e-12)
        np.testing.assert_allclose(model.r_tilde, expected[..., 2], rtol=1e-9)

    def test_model_invariants_on_simulated_data(self):
        rng = np.random.default_rng(23)
        mdp = random_mdp(rng, num_states=5, num_actions=2)
        ds = simulate(mdp, uniform_behavior(5, 2), num_trajectories=30, horizon=10, master_seed=2)
        _, _, dp, model = pipeline(ds, n_wedge=2, gamma=mdp.gamma)
        observed = model.counts > 0
        # probability rows over observed (state, action) cells sum to one
        row_sums = model.p_tilde.sum(axis=2)
        np.testing.assert_allclose(row_sums[model.counts.sum(axis=2) > 0], 1.0, atol=1e-9)
        # per-segment mean discounts live in (0, gamma]
        assert np.all(model.gamma_tilde[observed] > 0.0)
        assert np.all(model.gamma_tilde[observed] <= mdp.gamma + 1e-12)
        # aggregated reward is the probability-weighted per-destination mean
        np.testing.assert_allclose(
            model.r_bar, (model.r_tilde * model.p_tilde).sum(axis=2), atol=1e-9
        )


class TestPolicyIteration:
    def test_singular_elevated_system_names_the_state(self):
        # A self-loop with discount 1 leaves I - W singular.
        one = np.ones((1, 1, 2))
        one[..., 1] = 0.0
        model = SmdpModel(states=(0,), counts=one.astype(np.int64), p_tilde=one, gamma_tilde=one,
                          r_tilde=np.zeros((1, 1, 2)), r_bar=np.zeros((1, 1)))
        estimates = ValueEstimates(v_hat=np.zeros(1), q_hat=np.zeros((1, 1)))
        with pytest.raises(RuntimeError) as info:
            smdp_policy_iteration(model, sets_from_gate(np.ones((1, 1), bool)), estimates)
        assert str(info.value) == (
            "singular evaluation system; check segment discounts at decision state 0")

    def test_single_decision_point_converges_immediately(self):
        ds = make_dataset([make_traj([0], [0], [0.5])], 1, 1)
        _, est, dp, model = pipeline(ds, n_wedge=1, gamma=0.9)
        policy = smdp_policy_iteration(model, dp, est)
        assert policy.verdicts == {0: 0}
        assert policy.iterations == 1

    def test_multi_step_route_beats_raw_greedy(self):
        ds = multi_step_dataset()
        _, est, dp, model = pipeline(ds, n_wedge=2, gamma=0.9)
        history = []
        policy = smdp_policy_iteration(model, dp, est, history=history)
        assert policy.verdicts == {0: 1, 1: 0}
        # first round evaluates the raw-greedy verdict a0 before switching
        np.testing.assert_allclose(history[0][1], [0, 0])
        np.testing.assert_allclose(history[-1][0], [0.72, 0.8], atol=1e-9)

    def test_matches_enumeration_on_hand_instance(self):
        ds = multi_step_dataset()
        _, est, dp, model = pipeline(ds, n_wedge=2, gamma=0.9)
        history = []
        policy = smdp_policy_iteration(model, dp, est, history=history)
        envelope = oracles.enumerate_smdp_policies(model, dp, est)
        np.testing.assert_allclose(history[-1][0], envelope, atol=1e-8)

    def test_empty_decision_set_defers_everywhere(self):
        ds = multi_step_dataset()
        counts = count_visits(ds, FIRST_VISIT)
        est = monte_carlo_estimates(ds, 0.9, FIRST_VISIT)
        dp = identify_decision_points(counts, est, n_wedge=10**6)
        model = make_smdp(ds, dp, 0.9)
        policy = smdp_policy_iteration(model, dp, est)
        assert policy.verdicts == {}
        assert policy.iterations == 0
        assert policy.defer_states == frozenset({0, 1})

    def test_value_iterates_nondecreasing_on_random_instances(self):
        rng = np.random.default_rng(4)
        checked = 0
        for trial in range(100):
            mdp = random_mdp(rng, num_states=4, num_actions=2, gamma=0.9)
            ds = simulate(
                mdp,
                uniform_behavior(4, 2),
                num_trajectories=12,
                horizon=8,
                master_seed=1000 + trial,
            )
            _, est, dp, model = pipeline(ds, n_wedge=2, gamma=0.9)
            if not dp.decision_states:
                continue
            history = []
            policy = smdp_policy_iteration(model, dp, est, history=history)
            for earlier, later in zip(history, history[1:]):
                assert np.all(later[0] >= earlier[0] - 1e-9)
            num_dp = len(model.states)
            assert policy.iterations <= num_dp * ds.num_actions + 1
            # every verdict is an action passing the gate at its state
            for s, a in policy.verdicts.items():
                assert dp.gate[s, a]
            checked += 1
        assert checked >= 80

    def test_model_state_without_a_passing_action_is_named(self):
        ds = multi_step_dataset()
        _, est, dp, model = pipeline(ds, n_wedge=2, gamma=0.9)
        narrower = sets_from_gate(dp.gate & [[True], [False]])  # nothing passes at state 1
        with pytest.raises(ValueError, match="model state 1 has no action passing the gate"):
            smdp_policy_iteration(model, narrower, est)

    def test_nonconvergence_guard_raises(self, monkeypatch):
        ds = multi_step_dataset()
        _, est, dp, model = pipeline(ds, n_wedge=2, gamma=0.9)
        monkeypatch.setattr(np, "array_equal", lambda a, b: False)  # never stable
        with pytest.raises(RuntimeError, match="did not converge"):
            smdp_policy_iteration(model, dp, est)

    @settings(max_examples=200, deadline=None)
    @given(
        random_datasets(),
        st.sampled_from(TAIL_MODES),
        st.sampled_from(VISIT_MODES),
        st.integers(1, 3),
        st.sampled_from([0.5, 0.9]),
    )
    @example(multi_step_dataset(), TAIL_DROP, FIRST_VISIT, 2, 0.9)  # pairs pinned to q_hat
    @example(multi_step_dataset(), TAIL_ABSORB, FIRST_VISIT, 10**6, 0.9)  # no decision states
    def test_matches_loop_oracle(self, ds, tail_mode, count_mode, n_wedge, gamma):
        assert_matches_loop_oracle(ds, tail_mode, count_mode, n_wedge, gamma)

    def test_matches_loop_oracle_on_a_last_bit_tie(self):
        # At state 31 two actions' scores tie up to the last bit: scores from one
        # gemv instead of per-pair dots pick the other action here.
        mdp, behavior = build_environment("gridworld", side=10, noise=0.9, explore=0.2)
        ds = simulate(mdp, behavior, 25, 100, 6)
        assert_matches_loop_oracle(ds, TAIL_ABSORB, FIRST_VISIT, 2, mdp.gamma)

    def test_pairs_without_elevated_rows_are_pinned_to_q_hat(self):
        # Dropped tails leave (0, a0) and (1, a0) without segments.
        ds = multi_step_dataset()
        _, est, dp, model = pipeline(ds, n_wedge=2, gamma=0.9, tail_mode=TAIL_DROP)
        assert not model.counts[0, 0].any() and not model.counts[1, 0].any()
        history = []
        smdp_policy_iteration(model, dp, est, history=history)
        np.testing.assert_array_equal(history[0][0], [est.q_hat[0, 0], est.q_hat[1, 0]])

    def test_forest_stops_on_stable_policy_only(self):
        # A value-change tolerance stopped this seed after 1 round with action 2 at
        # state 31; the stable policy takes action 0 there, at the same exact value.
        mdp, behavior = build_environment("forest", num_chains=10)
        ds = simulate(mdp, behavior, 100, 30, 0)
        policy = train_decision_point_policy(ds, n_wedge=10, gamma=mdp.gamma)
        assert policy.iterations == 2
        assert policy.verdicts == {31: 0, 33: 0}
        value = exact_value(mdp, MixedPolicy(policy, behavior))
        stopped_early = DecisionPointPolicy(10, {31: 2, 33: 0}, policy.defer_states, 1)
        assert value == exact_value(mdp, MixedPolicy(stopped_early, behavior))


class TestPolicyObject:
    def test_act_and_round_trip(self, tmp_path):
        policy = DecisionPointPolicy(
            n_wedge=5,
            verdicts={3: 1, 10: 0},
            defer_states=frozenset({4, 7}),
            iterations=2,
        )
        behavior = uniform_behavior(11, 2).action_probabilities
        rows = policy.rows(behavior)
        assert rows[3].tolist() == [0.0, 1.0] and rows[10].tolist() == [1.0, 0.0]
        others = np.delete(np.arange(11), [3, 10])
        assert np.array_equal(rows[others], behavior[others])  # no verdict: logging policy acts
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        back = load_policy(path, uniform_behavior(11, 2))
        assert back.verdicts == policy.verdicts
        assert back.defer_states == policy.defer_states
        assert back.n_wedge == 5 and back.iterations == 2

    def test_json_defer_markers(self):
        policy = DecisionPointPolicy(
            n_wedge=2, verdicts={0: 1}, defer_states=frozenset({5}), iterations=1
        )
        text = policy_json(policy)
        assert '"5": "DEFER"' in text
        assert '"0": 1' in text

    def test_state_both_verdict_and_deferral_rejected(self):
        # policy_json would write "DEFER" for state 0, which load_policy rejects.
        with pytest.raises(ValueError, match="state 0 is both a verdict and a deferral"):
            DecisionPointPolicy(n_wedge=1, verdicts={0: 0}, defer_states=frozenset({0}),
                                iterations=1)

    @pytest.mark.parametrize(
        "changes, message",
        [(dict(verdicts={0: 1.5}), "verdict action id must be an integer >= 0, got 1.5"),
         (dict(verdicts={0: True}), "verdict action id must be an integer >= 0, got True"),
         (dict(verdicts={0.5: 1}), "verdict state id must be an integer >= 0, got 0.5"),
         (dict(verdicts={-1: 1}), "verdict state id must be an integer >= 0, got -1"),
         (dict(defer_states=frozenset({"3"})), "defer state id must be an integer >= 0, got '3'"),
         (dict(n_wedge=True), "n_wedge must be an integer >= 1, got True"),
         (dict(n_wedge=0), "n_wedge must be an integer >= 1, got 0"),
         (dict(iterations=-1), "iterations must be an integer >= 0, got -1"),
         (dict(iterations=2.0), "iterations must be an integer >= 0, got 2.0")],
        ids=["float-action", "bool-action", "float-state", "negative-state", "string-defer",
             "bool-n-wedge", "zero-n-wedge", "negative-iterations", "float-iterations"],
    )
    def test_record_no_policy_file_holds_rejected(self, changes, message):
        # Each used to construct; exact_value or load_policy then failed on it.
        fields = dict(n_wedge=2, verdicts={0: 1}, defer_states=frozenset({5}), iterations=1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            DecisionPointPolicy(**{**fields, **changes})

    def test_numpy_ids_stored_as_python_ints(self):
        # save_policy used to raise "Object of type int64 is not JSON serializable".
        policy = DecisionPointPolicy(n_wedge=np.int64(2), verdicts={np.int64(0): np.int64(1)},
                                     defer_states=frozenset({np.int64(5)}), iterations=np.int64(1))
        ids = [policy.n_wedge, policy.iterations, *policy.defer_states]
        ids += [i for pair in policy.verdicts.items() for i in pair]
        assert all(type(i) is int for i in ids)
        assert '"0": 1' in policy_json(policy) and '"5": "DEFER"' in policy_json(policy)

    def test_other_kind_with_verdicts_rejected(self, tmp_path):
        # Only kind "decision-point" reads verdicts; any other kind needs rows.
        path = tmp_path / "p.json"
        path.write_text('{"format": "dprl-policy", "kind": "tabular", "verdicts": {}}')
        with pytest.raises(PolicyError, match="not a stochastic-row policy file"):
            load_policy(path, uniform_behavior(1, 2))


class TestTrainConvenience:
    def test_end_to_end_matches_component_pipeline(self):
        ds = multi_step_dataset()
        policy = train_decision_point_policy(ds, n_wedge=2, gamma=0.9)
        assert policy.verdicts == {0: 1, 1: 0}
        assert policy.defer_states == frozenset()
        assert policy.provenance is not None
        assert policy.provenance.n_wedge == 2

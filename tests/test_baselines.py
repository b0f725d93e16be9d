"""MLE model fitting and the three baseline trainers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_dataset, make_traj, random_datasets, random_mdp, uniform_behavior
from dprl import baselines
from dprl.baselines import (
    fit_mle_model,
    train_behavior_clone,
    train_pqi,
    train_spibb,
)
from dprl.envs import build_forest_mdp, build_gridworld
from dprl.estimation import EVERY_VISIT, count_visits
from dprl.evaluation import (
    AlgorithmSpec,
    MixedPolicy,
    PolicyError,
    exact_value,
    load_policy,
    save_policy,
    train_algorithm,
)
from dprl.mdp import BehaviorPolicy, simulate

FOREST_BEHAVIOR_ROOT_VALUE = 0.54336744


def every_visit_counts(ds):
    return count_visits(ds, EVERY_VISIT)


class TestMleModel:
    def test_hand_counted_tables(self):
        ds = make_dataset(
            [
                make_traj([0, 1], [0, 0], [0.5, 0.3]),
                make_traj([0], [0], [0.7]),
            ],
            num_states=3,
            num_actions=2,
        )
        model = fit_mle_model(ds)
        assert model.n_sa.sum() == 3
        assert model.n_sa[0, 0] == 2 and model.n_sa[1, 0] == 1
        assert model.r_hat[0, 0] == pytest.approx(0.6)
        assert model.r_hat[1, 0] == pytest.approx(0.3)
        # only the first trajectory records a successor for (0, a0)
        np.testing.assert_allclose(model.p_hat[0, 0], [0.0, 1.0, 0.0])
        # final steps leave no successor: the row stays an all-zero sink
        np.testing.assert_allclose(model.p_hat[1, 0], 0.0)
        np.testing.assert_allclose(model.p_hat[2], 0.0)

    def test_matches_loop_reconstruction_on_simulated_data(self):
        rng = np.random.default_rng(2)
        mdp = random_mdp(rng, num_states=4, num_actions=3)
        ds = simulate(mdp, uniform_behavior(4, 3), num_trajectories=25, horizon=6, master_seed=8)
        model = fit_mle_model(ds)
        p_hat, r_hat, r_n = oracles.mle_from_dataset_loops(ds, 4, 3)
        np.testing.assert_allclose(model.p_hat, p_hat, atol=1e-12)
        np.testing.assert_allclose(model.r_hat, r_hat, atol=1e-12)
        np.testing.assert_array_equal(model.n_sa, r_n)

    def test_one_read_only_fit_per_dataset(self, monkeypatch):
        # The forest-baselines registry entries share the dataset's one fit.
        fits = []
        fit = baselines._fit_mle_model

        def counted_fit(ds):
            fits.append(ds)
            return fit(ds)

        monkeypatch.setattr(baselines, "_fit_mle_model", counted_fit)
        mdp, behavior = build_forest_mdp(num_chains=5, depth=3, epsilon=0.2)
        ds = simulate(mdp, behavior, num_trajectories=20, horizon=30, master_seed=0)
        specs = [AlgorithmSpec("dprl", "dprl", {"n_wedge": 2}),
                 AlgorithmSpec("spibb", "spibb_true", {"n_wedge": 2, "behavior": "true"}),
                 AlgorithmSpec("spibb", "spibb_estimated", {"n_wedge": 2, "behavior": "estimated"}),
                 AlgorithmSpec("pqi", "pqi", {"density_threshold": 0.02}),
                 AlgorithmSpec("behavior_clone", "behavior_clone"),
                 AlgorithmSpec("behavior", "behavior")]
        for spec in specs:
            train_algorithm(spec, ds, mdp, behavior)
        model = fit_mle_model(ds)
        assert len(fits) == 1 and fits[0] is ds and fit_mle_model(ds) is model
        for table in (model.p_hat, model.r_hat, model.n_sa):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1


class TestBaselinePolicy:
    def test_round_trip(self, tmp_path):
        policy = BehaviorPolicy(
            action_probabilities=np.array([[0.25, 0.75]]),
            kind="spibb",
            params={"n_wedge": 3.0, "behavior": "true"},
        )
        path = tmp_path / "p.json"
        save_policy(policy, path)
        back = load_policy(path, uniform_behavior(1, 2))
        np.testing.assert_allclose(back.action_probabilities, policy.action_probabilities)
        assert back.kind == "spibb"
        assert back.params == {"n_wedge": 3.0, "behavior": "true"}

    def test_row_file_without_rows_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"format": "dprl-policy", "kind": "spibb", "params": {}}')
        with pytest.raises(PolicyError, match="not a stochastic-row policy file"):
            load_policy(path, uniform_behavior(1, 2))


class TestSpibb:
    def test_under_observed_everywhere_returns_behavior(self):
        ds = make_dataset([make_traj([0], [0], [0.5])], 2, 2)
        behavior = uniform_behavior(2, 2)
        policy = train_spibb(ds, behavior, n_wedge=5, gamma=0.9)
        np.testing.assert_allclose(
            policy.action_probabilities, behavior.action_probabilities
        )

    def test_infinite_threshold_returns_behavior(self):
        rng = np.random.default_rng(3)
        mdp = random_mdp(rng, 3, 2)
        behavior = uniform_behavior(3, 2)
        ds = simulate(mdp, behavior, num_trajectories=10, horizon=5, master_seed=1)
        policy = train_spibb(ds, behavior, n_wedge=np.inf, gamma=0.9)
        np.testing.assert_array_equal(
            policy.action_probabilities, behavior.action_probabilities
        )

    def test_full_coverage_unit_threshold_is_greedy_model_optimum(self):
        rng = np.random.default_rng(4)
        mdp = random_mdp(rng, 3, 2)
        behavior = uniform_behavior(3, 2)
        ds = simulate(mdp, behavior, num_trajectories=60, horizon=8, master_seed=2)
        model = fit_mle_model(ds)
        assert np.all(model.n_sa >= 1)  # full coverage at this seed
        policy = train_spibb(ds, behavior, n_wedge=1, gamma=0.9)
        # every row is deterministic and model-optimal
        assert np.all(np.isin(policy.action_probabilities, [0.0, 1.0]))
        best_vec, best_rows = oracles.spibb_vertex_enumeration(
            ds, behavior.action_probabilities, 1, 0.9, 3, 2, every_visit_counts
        )
        np.testing.assert_allclose(policy.action_probabilities, best_rows)

    def test_matches_vertex_enumeration_on_five_state_chain(self):
        rng = np.random.default_rng(5)
        mdp = random_mdp(rng, 5, 3, gamma=0.9)
        behavior = uniform_behavior(5, 3)
        ds = simulate(mdp, behavior, num_trajectories=40, horizon=6, master_seed=3)
        policy = train_spibb(ds, behavior, n_wedge=3, gamma=0.9)
        best_vec, _ = oracles.spibb_vertex_enumeration(
            ds, behavior.action_probabilities, 3, 0.9, 5, 3, every_visit_counts
        )
        p_hat, r_hat, _ = oracles.mle_from_dataset_loops(ds, 5, 3)
        # compare full vectors via a loop-built solve
        a_mat = np.eye(5)
        b_vec = np.zeros(5)
        rows = policy.action_probabilities
        for s in range(5):
            for a in range(3):
                if rows[s, a] == 0.0:
                    continue
                b_vec[s] += rows[s, a] * r_hat[s, a]
                a_mat[s] -= 0.9 * rows[s, a] * p_hat[s, a]
        got = np.linalg.solve(a_mat, b_vec)
        np.testing.assert_allclose(got, best_vec, atol=1e-8)

    def test_one_step_grid_audit_at_fine_discretization(self):
        # no feasible 1e-3 reallocation improves any state's one-step value
        rng = np.random.default_rng(6)
        mdp = random_mdp(rng, 4, 3, gamma=0.9)
        behavior = uniform_behavior(4, 3)
        ds = simulate(mdp, behavior, num_trajectories=30, horizon=6, master_seed=4)
        n_wedge = 3
        policy = train_spibb(ds, behavior, n_wedge=n_wedge, gamma=0.9)
        rows = policy.action_probabilities
        p_hat, r_hat, r_n = oracles.mle_from_dataset_loops(ds, 4, 3)
        values = np.linalg.solve(
            np.eye(4) - 0.9 * np.einsum("sa,sap->sp", rows, p_hat),
            (rows * r_hat).sum(axis=1),
        )
        q = r_hat + 0.9 * p_hat @ values
        counts = every_visit_counts(ds)
        for s in range(4):
            free = np.nonzero(counts.n_sa[s] >= n_wedge)[0]
            if len(free) == 0:
                continue
            mass = behavior.action_probabilities[s, free].sum()
            fractions = np.linspace(0.0, 1.0, 1001)
            if len(free) == 1:
                allocations = np.array([[mass]])
            elif len(free) == 2:
                allocations = mass * np.stack([fractions, 1.0 - fractions], axis=1)
            else:
                f0, f1 = np.meshgrid(fractions, fractions, indexing="ij")
                keep = f0 + f1 <= 1.0 + 1e-12
                allocations = mass * np.stack(
                    [f0[keep], f1[keep], 1.0 - f0[keep] - f1[keep]], axis=1
                )
            grid_best = float((allocations @ q[s, free]).max())
            assert float(rows[s, free] @ q[s, free]) >= grid_best - 1e-9

    def test_mass_preservation_and_pinned_rare_pairs(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            mdp = random_mdp(rng, 4, 3)
            behavior = uniform_behavior(4, 3)
            ds = simulate(
                mdp, behavior, num_trajectories=12, horizon=5, master_seed=50 + trial
            )
            n_wedge = int(rng.integers(1, 6))
            policy = train_spibb(ds, behavior, n_wedge=n_wedge, gamma=0.9)
            rows = policy.action_probabilities
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
            counts = every_visit_counts(ds)
            rare = counts.n_sa < n_wedge
            # rare pairs keep their behavior probability exactly
            np.testing.assert_array_equal(
                rows[rare], behavior.action_probabilities[rare]
            )

    def test_estimated_behavior_label(self):
        mdp, behavior = build_forest_mdp(num_chains=1, depth=1, epsilon=0.2)
        ds = simulate(mdp, behavior, num_trajectories=10, horizon=3, master_seed=0)
        for params, label in (({}, "true"), ({"behavior": "true"}, "true"),
                              ({"behavior": "estimated"}, "estimated")):
            spec = AlgorithmSpec("spibb", "spibb", {"n_wedge": 1, **params})
            policy, _ = train_algorithm(spec, ds, mdp, behavior)
            assert policy.params == {"n_wedge": 1.0, "behavior": label}

    def test_gamma_validation(self):
        ds = make_dataset([make_traj([0], [0], [0.1])], 1, 1)
        with pytest.raises(ValueError):
            train_spibb(ds, uniform_behavior(1, 1), n_wedge=1, gamma=1.0)

    @pytest.mark.parametrize("n_wedge", [float("nan"), 0, -3, 0.5])
    def test_n_wedge_below_one_or_nan_rejected(self, n_wedge):
        ds = make_dataset([make_traj([0], [0], [0.1])], 1, 1)
        with pytest.raises(ValueError, match="n_wedge must be a number >= 1"):
            train_spibb(ds, uniform_behavior(1, 1), n_wedge=n_wedge, gamma=0.9)

    def test_behavior_of_another_shape_rejected(self):
        grid, grid_behavior = build_gridworld(side=4)
        ds = simulate(grid, grid_behavior, num_trajectories=5, horizon=5, master_seed=0)
        _, forest_behavior = build_forest_mdp(num_chains=1, depth=1)
        with pytest.raises(ValueError, match=r"shape \(5, 3\), the model has .* \(16, 4\)"):
            train_spibb(ds, forest_behavior, n_wedge=1, gamma=0.9)


class TestPqi:
    def two_arm_dataset(self):
        trajs = [make_traj([0], [0], [0.1]) for _ in range(10)]
        trajs += [make_traj([0], [1], [0.9]) for _ in range(10)]
        return make_dataset(trajs, num_states=2, num_actions=2)

    def test_greedy_pick_between_dense_arms(self):
        policy = train_pqi(self.two_arm_dataset(), density_threshold=0.1, gamma=0.9)
        np.testing.assert_allclose(policy.action_probabilities[0], [0.0, 1.0])

    def test_threshold_above_every_density_falls_back_to_majority(self):
        policy = train_pqi(self.two_arm_dataset(), density_threshold=0.9, gamma=0.9)
        # both arms filtered; the tie on counts resolves to the lowest index
        np.testing.assert_allclose(policy.action_probabilities[0], [1.0, 0.0])
        # unseen state falls back to uniform
        np.testing.assert_allclose(policy.action_probabilities[1], [0.5, 0.5])

    def test_fallback_state_leads_nowhere(self):
        # State 1 has no surviving pair: it falls back to action 0, whose rare
        # move into the rewarding loop at state 2 is filtered, so reaching
        # state 1 is worth 0 and state 0 takes the 0.1 arm instead.
        trajs = [make_traj([0, 1, 2], [0, 0, 0], [0.0, 0.0, 1.0])]
        trajs += [make_traj([0], [0], [0.0]) for _ in range(3)]
        trajs += [make_traj([0, 3], [1, 0], [0.1, 0.0]) for _ in range(4)]
        trajs += [make_traj([2, 2, 2, 2], [0, 0, 0, 0], [1.0] * 4)]
        ds = make_dataset(trajs, num_states=4, num_actions=2)
        policy = train_pqi(ds, density_threshold=0.1, gamma=0.9)
        np.testing.assert_array_equal(policy.action_probabilities[:2], [[0.0, 1.0], [1.0, 0.0]])

    def test_zero_and_unit_thresholds_rejected(self):
        ds = self.two_arm_dataset()
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                train_pqi(ds, density_threshold=bad, gamma=0.9)

    def test_chosen_actions_respect_the_filter(self):
        rng = np.random.default_rng(9)
        mdp = random_mdp(rng, 4, 3)
        ds = simulate(mdp, uniform_behavior(4, 3), num_trajectories=25, horizon=6, master_seed=6)
        model = fit_mle_model(ds)
        density = model.n_sa / ds.total_steps()
        for b in (0.005, 0.02, 0.08):
            policy = train_pqi(ds, density_threshold=b, gamma=0.9)
            for s in range(4):
                chosen = int(np.argmax(policy.action_probabilities[s]))
                if (density[s] >= b).any():
                    assert density[s, chosen] >= b

    def test_filtered_set_shrinks_as_threshold_grows(self):
        rng = np.random.default_rng(10)
        mdp = random_mdp(rng, 4, 3)
        ds = simulate(mdp, uniform_behavior(4, 3), num_trajectories=25, horizon=6, master_seed=7)
        model = fit_mle_model(ds)
        density = model.n_sa / ds.total_steps()
        previous = None
        for b in (0.001, 0.01, 0.05, 0.2):
            surviving = frozenset(map(tuple, np.argwhere(density >= b)))
            if previous is not None:
                assert surviving <= previous
            previous = surviving

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1),
           st.sampled_from([0.01, 0.05, 0.15]), st.sampled_from([0.5, 0.9]))
    def test_optimal_on_the_filtered_model(self, num_states, num_actions, seed, threshold, gamma):
        rng = np.random.default_rng(seed)
        trajs = []
        for i in range(rng.integers(1, 6)):
            length = int(rng.integers(1, 8))
            rewards = rng.random(length) * (rng.random(length) < 0.7)
            trajs.append(make_traj(rng.integers(0, num_states, length),
                                   rng.integers(0, num_actions, length), rewards, i))
        ds = make_dataset(trajs, num_states, num_actions)
        policy = train_pqi(ds, threshold, gamma)
        model = oracles.loop_fit_mle_model(ds, num_states, num_actions)
        chosen = np.argmax(policy.action_probabilities, axis=1)
        got = oracles.filtered_policy_value(model, threshold, gamma, chosen)
        best = oracles.enumerate_pqi_policies(model, threshold, gamma)
        np.testing.assert_allclose(got, best, rtol=1e-12, atol=1e-12)

    def test_forest_failure_mode_across_seeds(self):
        # with thin good-chain coverage the filter zeroes the good arm's
        # continuation, so the plan settles for the middle arm or worse
        mdp, behavior = build_forest_mdp(num_chains=10, depth=3, epsilon=0.1, gamma=0.99)
        failures = 0
        for seed in range(100):
            ds = simulate(mdp, behavior, num_trajectories=100, horizon=10, master_seed=seed)
            policy = train_pqi(ds, density_threshold=0.02, gamma=0.99)
            value = exact_value(mdp, MixedPolicy(learned=policy, behavior=behavior))
            if value <= FOREST_BEHAVIOR_ROOT_VALUE + 1e-9:
                failures += 1
        assert failures >= 80


class TestBehaviorClone:
    def test_observed_frequencies(self):
        ds = make_dataset(
            [make_traj([0, 0, 0], [0, 0, 1], [0.0, 0.0, 0.0])], 2, 2
        )
        clone = train_behavior_clone(ds)
        np.testing.assert_allclose(clone.action_probabilities[0], [2 / 3, 1 / 3])
        np.testing.assert_allclose(clone.action_probabilities[1], [0.5, 0.5])
        np.testing.assert_allclose(clone.action_probabilities.sum(axis=1), 1.0)
        assert clone.kind == "behavior-clone"

    def test_explicit_sizes_must_match_the_dataset(self):
        ds = make_dataset([make_traj([0, 1], [2, 0], [0.0, 0.0])], 2, 3)
        same = train_behavior_clone(ds, 2, 3).action_probabilities
        np.testing.assert_array_equal(same, train_behavior_clone(ds).action_probabilities)
        for sizes in ((3, 3), (2, 2), (2, None)):
            with pytest.raises(ValueError, match=r"differ from the dataset's \(2, 3\)"):
                train_behavior_clone(ds, *sizes)


def assert_same_array(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@st.composite
def datasets_with_behavior(draw):
    """A dataset plus a behavior row table with uneven, hard-to-sum entries."""
    ds = draw(random_datasets())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.random((ds.num_states, ds.num_actions)) ** 3
    rows *= rng.random(rows.shape) < 0.8
    rows[:, 0] += rows.sum(axis=1) == 0.0
    return ds, BehaviorPolicy(rows / rows.sum(axis=1, keepdims=True))


class TestColumnarMatchesLoops:
    """Model fits and the vectorised trainers reproduce the per-state loops byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(random_datasets())
    def test_fit_mle_model(self, ds):
        got = fit_mle_model(ds)
        expected = oracles.loop_fit_mle_model(ds, ds.num_states, ds.num_actions)
        for name in ("p_hat", "r_hat", "n_sa"):
            assert_same_array(getattr(got, name), getattr(expected, name))
        assert got.n_sa.sum() == ds.total_steps()  # the density base train_pqi uses

    @settings(max_examples=150, deadline=None)
    @given(
        datasets_with_behavior(),
        st.sampled_from([1, 2, 5, float("inf")]),
        st.booleans(),
        st.sampled_from([0.5, 0.9]),
    )
    def test_spibb(self, case, n_wedge, cloned, gamma):
        ds, behavior = case
        reference = train_behavior_clone(ds) if cloned else behavior
        got = train_spibb(ds, reference, n_wedge, gamma)
        model = oracles.loop_fit_mle_model(ds, ds.num_states, ds.num_actions)
        expected = oracles.loop_spibb_rows(model, reference.action_probabilities, n_wedge, gamma)
        assert_same_array(got.action_probabilities, expected)

    @settings(max_examples=150, deadline=None)
    @given(random_datasets(), st.sampled_from([0.001, 0.02, 0.2, 0.6]), st.sampled_from([0.5, 0.9]))
    def test_pqi(self, ds, threshold, gamma):
        if ds.total_steps() == 0:
            with pytest.raises(ValueError, match="no steps"):
                train_pqi(ds, threshold, gamma)
            return
        got = train_pqi(ds, threshold, gamma)
        model = oracles.loop_fit_mle_model(ds, ds.num_states, ds.num_actions)
        assert_same_array(got.action_probabilities, oracles.loop_pqi_rows(model, threshold, gamma))

    def test_spibb_free_mass_sums_compacted_entries(self):
        # Ten actions with one rare pair: the free mass is the pairwise sum
        # of the nine free entries, not a masked sum over all ten.
        rng = np.random.default_rng(5)
        steps = [(0, a) for a in range(1, 10)] * 2 + [(0, 0)]
        ds = make_dataset(
            [make_traj([s for s, _ in steps], [a for _, a in steps], rng.random(len(steps)))], 1, 10
        )
        rows = rng.random((1, 10)) ** 3
        behavior = BehaviorPolicy(rows / rows.sum())
        got = train_spibb(ds, behavior, n_wedge=2, gamma=0.9)
        model = oracles.loop_fit_mle_model(ds, 1, 10)
        expected = oracles.loop_spibb_rows(model, behavior.action_probabilities, 2, 0.9)
        assert_same_array(got.action_probabilities, expected)
        assert (got.action_probabilities > 0).sum() == 2

    def test_near_ties_go_to_the_lowest_allowed_action(self):
        # Decimal rewards whose model values differ only by rounding.  State 1
        # loops on itself under both actions, with mean rewards 0.15 and
        # 0.15000000000000002.  At gamma 0.6 action 1 scores higher; at 0.8
        # both score 0.7500000000000001 and the tie goes to action 0.  At 0.5,
        # 0.7 and 0.9 they tie only while action 1 is chosen, so greedy
        # policy iteration would alternate; it stops on the first repeated
        # policy instead, which at 0.9 gives state 1 action 0 in both learners.
        episodes = [
            ([2, 0], [1, 1], [0.3, 0.25]),
            ([2, 2, 1, 1], [0, 0, 0, 1], [0.1, 0.05, 0.05, 0.1]),
            ([0, 0, 2, 1], [0, 1, 0, 0], [0.3, 0.3, 0.3, 0.15]),
            ([0, 2, 2, 0], [0, 1, 0, 1], [0.05, 0.25, 0.1, 0.05]),
            ([2, 0, 0, 1, 1], [0, 0, 1, 1, 0], [0.3, 0.3, 0.05, 0.2, 0.25]),
        ]
        ds = make_dataset([make_traj(*e) for e in episodes], 3, 2)
        model = oracles.loop_fit_mle_model(ds, 3, 2)
        behavior = uniform_behavior(3, 2)
        for gamma, state_1 in ((0.5, None), (0.6, [0.0, 1.0]), (0.7, None),
                               (0.8, [1.0, 0.0]), (0.9, [1.0, 0.0])):
            for got, expected in (
                (train_spibb(ds, behavior, 1, gamma),
                 oracles.loop_spibb_rows(model, behavior.action_probabilities, 1, gamma)),
                (train_pqi(ds, 0.001, gamma), oracles.loop_pqi_rows(model, 0.001, gamma)),
            ):
                assert_same_array(got.action_probabilities, expected)
                if state_1 is not None:
                    assert got.action_probabilities[1].tolist() == state_1

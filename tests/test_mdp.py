"""Core MDP container, simulator, and dataset serialization tests."""

import dataclasses
import json
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    deterministic_chain,
    make_dataset,
    make_traj,
    three_state_eval_chain,
    uniform_behavior,
)
from dprl.continuous import ContinuousTrajectory, NeighborIndex
from dprl.envs import build_forest_mdp, build_gridworld
from dprl.evaluation import MixedPolicy, exact_value
from dprl.mdp import (
    BehaviorPolicy,
    DatasetError,
    RewardSpec,
    TabularMdp,
    Trajectory,
    TrajectoryDataset,
    load_dataset,
    save_dataset,
    simulate,
    trajectory_seeds,
)
import dprl.mdp as mdp_module
from dprl.mdp import _lockstep_rollout, _support_table
from oracles import bisect_rollout, bisect_simulate, loop_save_dataset, seed_sequence_seed


def single_state_loop(gamma: float = 0.9) -> TabularMdp:
    transitions = np.ones((1, 1, 1))
    return TabularMdp(
        transitions=transitions,
        rewards=RewardSpec(lo=np.array([[0.5]]), hi=np.array([[0.5]])),
        gamma=gamma,
        start_state=0,
    )


class TestContainers:
    def test_reward_spec_mean(self):
        spec = RewardSpec(lo=np.array([[0.2, 0.0]]), hi=np.array([[0.4, 1.0]]))
        np.testing.assert_allclose(spec.mean(), [[0.3, 0.5]])

    def test_reward_spec_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            RewardSpec(lo=np.array([[0.5]]), hi=np.array([[0.2]]))
        # NaN passes "hi < lo" either way round; simulate would then log NaN rewards.
        for lo, hi in ((np.nan, 0.2), (0.0, np.nan), (0.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                RewardSpec(lo=np.array([[lo]]), hi=np.array([[hi]]))

    def test_mdp_rejects_bad_row_sum(self):
        # A NaN row passes both "|sum - 1| > tol" and "p < 0", so it needs the
        # comparisons written to fail on NaN.
        for row in ([0.5], [np.nan], [np.nan, 1.0], [1.5, -0.5]):
            transitions = np.array(row).reshape(1, 1, -1) * np.ones((len(row), 1, 1))
            with pytest.raises(ValueError, match=r"transition row \[0, 0\] .*sum to 1"):
                TabularMdp(
                    transitions=transitions,
                    rewards=RewardSpec(lo=np.zeros((len(row), 1)), hi=np.zeros((len(row), 1))),
                    gamma=0.9,
                    start_state=0,
                )

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.1, 1.5])
    def test_mdp_rejects_gamma_outside_open_interval(self, gamma):
        with pytest.raises(ValueError):
            TabularMdp(
                transitions=np.ones((1, 1, 1)),
                rewards=RewardSpec(lo=np.zeros((1, 1)), hi=np.zeros((1, 1))),
                gamma=gamma,
                start_state=0,
            )

    def test_mdp_rejects_reward_outside_scale(self):
        with pytest.raises(ValueError):
            TabularMdp(
                transitions=np.ones((1, 1, 1)),
                rewards=RewardSpec(lo=np.array([[1.5]]), hi=np.array([[1.5]])),
                gamma=0.9,
                start_state=0,
                r_max=1.0,
            )

    def test_mdp_rejects_out_of_range_start_and_terminal(self):
        with pytest.raises(ValueError):
            TabularMdp(
                transitions=np.ones((1, 1, 1)),
                rewards=RewardSpec(lo=np.zeros((1, 1)), hi=np.zeros((1, 1))),
                gamma=0.9,
                start_state=3,
            )
        with pytest.raises(ValueError):
            TabularMdp(
                transitions=np.ones((1, 1, 1)),
                rewards=RewardSpec(lo=np.zeros((1, 1)), hi=np.zeros((1, 1))),
                gamma=0.9,
                start_state=0,
                terminal_states=frozenset({7}),
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [("start_state", True, "start_state must be a state id in [0, 1), got True"),
         ("start_state", 0.5, "start_state must be a state id in [0, 1), got 0.5"),
         ("terminal_states", {0.5}, "terminal state must be a state id in [0, 1), got 0.5")],
        ids=["bool-start", "fractional-start", "fractional-terminal"],
    )
    def test_mdp_rejects_state_ids_that_are_not_integers(self, field, value, message):
        # 0.5 used to start, or end, at state 0.
        with pytest.raises(ValueError) as info:
            TabularMdp(transitions=np.ones((1, 1, 1)),
                       rewards=RewardSpec(lo=np.zeros((1, 1)), hi=np.zeros((1, 1))),
                       gamma=0.9, **{"start_state": 0, field: value})
        assert str(info.value) == message

    def test_v_max(self):
        mdp = single_state_loop(gamma=0.95)
        assert mdp.v_max == pytest.approx(20.0)

    def test_behavior_policy_rejects_non_probability_rows(self):
        with pytest.raises(ValueError):
            BehaviorPolicy(np.array([[0.7, 0.7]]))
        with pytest.raises(ValueError):
            BehaviorPolicy(np.array([[0.5, 0.5], [np.nan, 1.0]]))

    @pytest.mark.parametrize(
        "field, value, message",
        [("kind", 5, "kind must be a string, got 5"),
         ("kind", "decision-point", "kind must not be 'decision-point'"),
         ("params", 5, "params must be an object, got 5")],
        ids=["int-kind", "decision-point-kind", "int-params"],
    )
    def test_behavior_policy_rejects_a_record_no_policy_file_holds(self, field, value, message):
        # save_policy used to write these, and load_policy refused the file.
        with pytest.raises(ValueError, match=message):
            BehaviorPolicy(np.array([[0.5, 0.5]]), **{field: value})


    @pytest.mark.parametrize(
        "build, message",
        [(lambda: BehaviorPolicy([[True, False], ["1", "0"]]),
          "action_probabilities must hold numbers, not <U5"),
         (lambda: BehaviorPolicy(np.eye(2, dtype=bool)),
          "action_probabilities must hold numbers, not bool"),
         (lambda: RewardSpec(lo=[[True]], hi=[["1"]]), "lo must hold numbers, not bool"),
         (lambda: RewardSpec(lo=[[0.0]], hi=[["1"]]), "hi must hold numbers, not <U1"),
         (lambda: TabularMdp(np.ones((1, 1, 1), dtype=bool), RewardSpec(lo=[[0.0]], hi=[[0.0]]),
                             0.9, 0),
          "transitions must hold numbers, not bool"),
         # A bool among numbers, which numpy reads as float64 too.
         (lambda: RewardSpec(lo=[[0.0, True]], hi=[[1.0, 1.0]]), "lo must hold numbers, not bool"),
         (lambda: TabularMdp([[[0.0, np.True_]], [[1, 0.0]]],
                             RewardSpec(lo=[[0.0]] * 2, hi=[[0.0]] * 2), 0.9, 0),
          "transitions must hold numbers, not bool"),
         (lambda: BehaviorPolicy([np.array([True, False]), [0.5, 0.5]]),
          "action_probabilities must hold numbers, not bool"),
         (lambda: TrajectoryDataset(states=[0, 0], actions=[0, 0], rewards=(0.5, False),
                                    offsets=[0, 2], seeds=[0], num_states=1, num_actions=1),
          "rewards must hold numbers, not bool")],
        ids=["policy-strings", "policy-bools", "lo-bool", "hi-string",
             "transitions-bool", "lo-mixed-bool", "transitions-mixed-bool",
             "policy-bool-array-row", "dataset-rewards-mixed-bool"],
    )
    def test_float_tables_reject_bools_and_strings(self, build, message):
        # Each used to build, storing 1.0 for True and "1".
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "build, message",
        [(lambda: RewardSpec(lo=np.zeros(2), hi=np.zeros(2)),
          "reward bounds must be matching (S, A) arrays"),
         (lambda: TabularMdp(np.ones((2, 2)), RewardSpec(lo=np.zeros((2, 1)), hi=np.zeros((2, 1))),
                             0.9, 0),
          "transitions must have shape (S, A, S)"),
         (lambda: TabularMdp(np.full((2, 1, 2), 0.5),
                             RewardSpec(lo=np.zeros((2, 2)), hi=np.zeros((2, 2))), 0.9, 0),
          "reward table shape must match (S, A)"),
         (lambda: BehaviorPolicy(np.array([0.5, 0.5])), "action_probabilities must be (S, A)"),
         (lambda: TrajectoryDataset.from_trajectories(
             [Trajectory(states=np.array([0, 1]), actions=np.array([0]),
                         rewards=np.array([0.0, 0.0]), seed=0)], 2, 1),
          "states, actions and rewards must be 1-d and of equal length")],
        ids=["one-dimensional-bounds", "two-dimensional-transitions", "reward-shape",
             "one-dimensional-rows", "unequal-trajectory"],
    )
    def test_shape_checks(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_float_tables_accept_integers(self):
        policy = BehaviorPolicy([[1, 0], [0, 1]])
        spec = RewardSpec(lo=[[0]], hi=[[1]])
        assert policy.action_probabilities.dtype == spec.lo.dtype == spec.hi.dtype == np.float64
        assert spec.mean().tolist() == [[0.5]]


class TestSeeds:
    def test_trajectory_seed_deterministic(self):
        assert int(trajectory_seeds(42, 7, 8)[0]) == int(trajectory_seeds(42, 7, 8)[0])

    def test_trajectory_seed_distinct_across_indices(self):
        seeds = {int(trajectory_seeds(42, i, i + 1)[0]) for i in range(200)}
        assert len(seeds) == 200

    @settings(max_examples=150, deadline=None)
    @given(
        master_seed=st.sampled_from([1, 2, 3, 4, 5, 7]).flatmap(
            lambda words: st.integers(2 ** (32 * words - 32) if words > 1 else 0,
                                      2 ** (32 * words) - 1)),
        start=(st.integers(0, 40) | st.integers(2**32 - 20, 2**32 + 4)
               | st.integers(2**64 - 20, 2**64)),
        length=st.integers(0, 24),
    )
    @example(master_seed=0, start=0, length=24)
    @example(master_seed=2**128 + 2**96 + 5, start=2**32 - 3, length=6)
    def test_trajectory_seeds_equal_numpy(self, master_seed, start, length):
        # Masters of 1 to 7 words; ranges that cross 2**32 (one index word to two) and empty ones.
        stop = min(start + length, 2**64)
        seeds = trajectory_seeds(master_seed, start, stop)
        assert seeds.dtype == np.uint64 and seeds.shape == (stop - start,)
        assert seeds.tolist() == [seed_sequence_seed(master_seed, i) for i in range(start, stop)]

    def test_trajectory_seeds_across_two_to_the_32(self):
        seeds = trajectory_seeds(2**64 + 9, 2**32 - 2, 2**32 + 2).tolist()
        assert seeds == [seed_sequence_seed(2**64 + 9, i) for i in range(2**32 - 2, 2**32 + 2)]
        for empty in (trajectory_seeds(3, 5, 5), trajectory_seeds(3, 2**64, 2**64)):
            assert empty.dtype == np.uint64 and empty.shape == (0,)

    @pytest.mark.parametrize("index", [-1, 2**64])
    def test_trajectory_seed_index_outside_uint64_range_rejected(self, index):
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            trajectory_seeds(0, index, index + 1)

    def test_trajectory_seeds_range_outside_uint64_rejected(self):
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            trajectory_seeds(0, 2**64 - 1, 2**64 + 1)
        with pytest.raises(ValueError, match="master_seed must be an integer >= 0"):
            trajectory_seeds(-1, 0, 1)

    @pytest.mark.parametrize("master_seed", [True, False, 1.0, "1"])
    def test_trajectory_seeds_master_must_be_a_non_bool_integer(self, master_seed):
        with pytest.raises(ValueError, match=r"master_seed must be an integer >= 0, got "):
            trajectory_seeds(master_seed, 0, 2)

    @pytest.mark.parametrize("start", [True, False, 0.0])
    def test_trajectory_seeds_start_must_be_a_non_bool_integer(self, start):
        with pytest.raises(ValueError, match=r"^start must be an integer, got "):
            trajectory_seeds(0, start, 2)

    @pytest.mark.parametrize("stop", [True, False, 2.0])
    def test_trajectory_seeds_stop_must_be_a_non_bool_integer(self, stop):
        with pytest.raises(ValueError, match=r"^stop must be an integer, got "):
            trajectory_seeds(0, 0, stop)

    def test_trajectory_seed_distinct_across_masters(self):
        a = {int(trajectory_seeds(1, i, i + 1)[0]) for i in range(100)}
        b = {int(trajectory_seeds(2, i, i + 1)[0]) for i in range(100)}
        assert not (a & b)


class TestSimulate:
    def test_single_state_loop_runs_full_horizon(self):
        mdp = single_state_loop()
        ds = simulate(mdp, uniform_behavior(1, 1), num_trajectories=3, horizon=5, master_seed=0)
        assert len(ds) == 3
        for traj in ds:
            assert traj.states.tolist() == [0] * 5
            assert traj.actions.tolist() == [0] * 5
            np.testing.assert_allclose(traj.rewards, 0.5)

    def test_terminal_state_never_recorded_as_step(self):
        mdp = deterministic_chain(4)
        ds = simulate(mdp, uniform_behavior(4, 2), num_trajectories=5, horizon=50, master_seed=1)
        for traj in ds:
            assert 3 not in traj.states
            assert len(traj.states) == 3  # reaches terminal in exactly 3 moves

    def test_rewards_stay_inside_declared_interval(self):
        transitions = np.ones((1, 1, 1))
        mdp = TabularMdp(
            transitions=transitions,
            rewards=RewardSpec(lo=np.array([[0.25]]), hi=np.array([[0.75]])),
            gamma=0.9,
            start_state=0,
        )
        ds = simulate(mdp, uniform_behavior(1, 1), num_trajectories=10, horizon=20, master_seed=3)
        for traj in ds:
            assert np.all(traj.rewards >= 0.25) and np.all(traj.rewards <= 0.75)

    def test_same_master_seed_reproduces_identical_data(self):
        mdp = deterministic_chain(5)
        pol = uniform_behavior(5, 2)
        a = simulate(mdp, pol, num_trajectories=8, horizon=10, master_seed=11)
        b = simulate(mdp, pol, num_trajectories=8, horizon=10, master_seed=11)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.states, tb.states)
            np.testing.assert_array_equal(ta.actions, tb.actions)
            np.testing.assert_array_equal(ta.rewards, tb.rewards)
            assert ta.seed == tb.seed

    def test_different_master_seeds_differ(self):
        mdp = deterministic_chain(5)
        pol = uniform_behavior(5, 2)
        a = simulate(mdp, pol, num_trajectories=8, horizon=10, master_seed=11)
        b = simulate(mdp, pol, num_trajectories=8, horizon=10, master_seed=12)
        assert any(
            ta.actions.tolist() != tb.actions.tolist()
            for ta, tb in zip(a, b)
        )

    def test_transition_frequency_matches_binomial_rate(self):
        # two-armed next-state draw with p = 0.1; observe the second step
        transitions = np.zeros((3, 1, 3))
        transitions[0, 0, 1] = 0.1
        transitions[0, 0, 2] = 0.9
        transitions[1, 0, 1] = 1.0
        transitions[2, 0, 2] = 1.0
        mdp = TabularMdp(
            transitions=transitions,
            rewards=RewardSpec(lo=np.zeros((3, 1)), hi=np.zeros((3, 1))),
            gamma=0.9,
            start_state=0,
        )
        ds = simulate(mdp, uniform_behavior(3, 1), num_trajectories=1000, horizon=2, master_seed=5)
        rare = sum(1 for traj in ds if traj.states[1] == 1)
        # three-sigma band: 3 * sqrt(0.1 * 0.9 / 1000) ~ 0.0285
        assert abs(rare / 1000 - 0.1) <= 0.0285

    def test_validation_errors(self):
        mdp = single_state_loop()
        pol = uniform_behavior(1, 1)
        with pytest.raises(ValueError):
            simulate(mdp, pol, num_trajectories=1, horizon=0, master_seed=0)
        with pytest.raises(ValueError):
            simulate(mdp, pol, num_trajectories=-1, horizon=5, master_seed=0)
        with pytest.raises(ValueError):
            simulate(mdp, uniform_behavior(2, 1), num_trajectories=1, horizon=5, master_seed=0)

    @pytest.mark.parametrize(
        "name, value",
        [("num_trajectories", 2.0), ("num_trajectories", True), ("horizon", 5.0),
         ("horizon", True), ("master_seed", 1.5), ("master_seed", -1), ("master_seed", True)],
    )
    def test_counts_and_seed_must_be_integers(self, name, value):
        # Not a TypeError inside numpy or SeedSequence, nor True read as 1.
        args = {"num_trajectories": 1, "horizon": 5, "master_seed": 0, name: value}
        with pytest.raises(ValueError, match=rf"{name} must be an integer >= \d, got {value!r}"):
            simulate(single_state_loop(), uniform_behavior(1, 1), **args)

    def test_numpy_integers_accepted(self):
        mdp, pol = single_state_loop(), uniform_behavior(1, 1)
        want = simulate(mdp, pol, num_trajectories=2, horizon=3, master_seed=4)
        have = simulate(mdp, pol, np.int64(2), np.int32(3), np.uint64(4))
        assert have.seeds == want.seeds and np.array_equal(have.rewards, want.rewards)

    def test_zero_trajectories_allowed(self):
        mdp = single_state_loop()
        ds = simulate(mdp, uniform_behavior(1, 1), num_trajectories=0, horizon=5, master_seed=0)
        assert list(ds) == [] and ds.total_steps() == 0


class TestSerialization:
    def test_ndjson_round_trip(self, tmp_path):
        mdp = deterministic_chain(5)
        ds = simulate(mdp, uniform_behavior(5, 2), num_trajectories=6, horizon=10, master_seed=9)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path, num_states=5, num_actions=2)
        assert len(back) == 6
        for ta, tb in zip(ds, back):
            np.testing.assert_array_equal(ta.states, tb.states)
            np.testing.assert_array_equal(ta.actions, tb.actions)
            np.testing.assert_allclose(ta.rewards, tb.rewards)
            assert ta.seed == tb.seed
        assert back.total_steps() == ds.total_steps()

    def test_load_takes_the_given_sizes(self, tmp_path):
        trajs = [make_traj([0, 3], [1, 0], [0.5, 0.25])]
        ds = make_dataset(trajs, num_states=4, num_actions=2)
        path = tmp_path / "tiny.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path, num_states=9, num_actions=3)
        assert back.num_states == 9 and back.num_actions == 3
        with pytest.raises(TypeError):
            load_dataset(path)  # sizes are not inferred from the data

    def test_bytes_match_documented_layout(self, tmp_path):
        ds = make_dataset([make_traj([0, 3], [1, 0], [0.5, 0.1], seed=7)], 4, 2)
        path = tmp_path / "tiny.jsonl"
        save_dataset(ds, path)
        assert path.read_text(encoding="utf-8") == (
            '{"seed": 7, "steps": [[0, 1, 0.5], [3, 0, 0.1]]}\n'
        )

    def test_empty_trajectory_round_trips(self, tmp_path):
        ds = make_dataset([make_traj([], [], [], seed=3), make_traj([1], [0], [0.2])], 2, 1)
        path = tmp_path / "empty.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path, num_states=2, num_actions=1)
        assert [len(t) for t in back] == [0, 1]
        assert back.states.dtype == np.int64 and next(iter(back)).states.dtype == np.int64
        assert back.rewards.dtype == np.float64 and next(iter(back)).rewards.dtype == np.float64
        assert back.num_states == 2 and back.num_actions == 1


@st.composite
def random_datasets(draw):
    """Datasets of 0-5 trajectories, empty ones included, with seeds up to 2**64 - 1."""
    num_states, num_actions = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    trajectories = []
    for _ in range(draw(st.integers(0, 5))):
        steps = draw(st.lists(st.tuples(st.integers(0, num_states - 1),
                                        st.integers(0, num_actions - 1),
                                        st.floats(allow_nan=False, allow_infinity=False)),
                              max_size=6))
        states, actions, rewards = zip(*steps) if steps else ((), (), ())
        trajectories.append(make_traj(states, actions, rewards, draw(st.integers(0, 2**64 - 1))))
    return make_dataset(trajectories, num_states, num_actions)


class TestFileColumns:
    @settings(max_examples=100, deadline=None)
    @given(ds=random_datasets())
    def test_save_writes_the_per_trajectory_bytes_and_load_reads_the_columns(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            path, oracle = Path(tmp) / "data.jsonl", Path(tmp) / "loop.jsonl"
            save_dataset(ds, path)
            loop_save_dataset(ds, oracle)
            assert path.read_bytes() == oracle.read_bytes()
            back = load_dataset(path, ds.num_states, ds.num_actions)
        for name in ("states", "actions", "rewards", "offsets"):
            have, want = getattr(back, name), getattr(ds, name)
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes()  # -0.0 too
        assert back.seeds == ds.seeds and all(type(s) is int for s in back.seeds)


class TestLoadValidation:
    """Bad ids and rewards are rejected at load time, naming the line."""

    def write(self, tmp_path, bad_steps):
        lines = [
            json.dumps({"seed": 0, "steps": [[0, 0, 0.5], [1, 1, 0.25]]}),
            "",
            json.dumps({"seed": 1, "steps": bad_steps}),
        ]
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "bad_steps, message",
        [
            ([[-1, 0, 0.5]], "state id -1 outside"),
            ([[0, 0, 0.5], [3, 0, 0.5]], "state id 3 outside"),
            ([[0, -1, 0.5]], "action id -1 outside"),
            ([[0, 2, 0.5]], "action id 2 outside"),
            ([[1.5, 0, 0.5]], "state id 1.5 is not an integer"),
            ([[1.0, 0, 0.5]], "state id 1.0 is not an integer"),
            ([[0, "1", 0.5]], "action id '1' is not an integer"),
            ([[0, True, 0.5]], "action id True is not an integer"),
            ([[0, 0, float("nan")]], "reward nan is not a finite number"),
            ([[0, 0, float("inf")]], "reward inf is not a finite number"),
            ([[0, 0, "0.5"]], "reward '0.5' is not a finite number"),
            ([[0, 0]], "expected"),
            ([[0, 0, 0.5], [0, 0, 0.5, 9]], "triple"),
        ],
    )
    def test_rejected_with_line_number(self, tmp_path, bad_steps, message):
        path = self.write(tmp_path, bad_steps)
        with pytest.raises(DatasetError, match="line 3: .*" + message):
            load_dataset(path, num_states=3, num_actions=2)

    def test_huge_state_id_rejected(self, tmp_path):
        # Not a 10,000,001-state dataset whose model cannot be allocated.
        path = self.write(tmp_path, [[10_000_000, 0, 0.5]])
        with pytest.raises(DatasetError, match=r"line 3: state id 10000000 outside \[0, 3\)"):
            load_dataset(path, num_states=3, num_actions=2)

    @pytest.mark.parametrize(
        "line", ["not json", "[1, 2]", '{"steps": []}', '{"seed": 0, "steps": 5}']
    )
    def test_malformed_record_rejected(self, tmp_path, line):
        path = tmp_path / "data.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="line 1: expected"):
            load_dataset(path, num_states=3, num_actions=2)

    @pytest.mark.parametrize(
        "seed", ["5.7", "true", '"5"', "1e3", "-1", str(2**64), "null", "[5]"]
    )
    def test_seed_must_be_an_integer_in_uint64_range(self, tmp_path, seed):
        path = tmp_path / "data.jsonl"
        good = json.dumps({"seed": 0, "steps": [[0, 0, 0.5]]})
        path.write_text(f'{good}\n{{"seed": {seed}, "steps": [[0, 0, 0.5]]}}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match=r"line 2: seed .* is not an integer in \[0, 2\*\*64"):
            load_dataset(path, 1, 1)

    def test_seed_range_ends_are_accepted(self, tmp_path):
        path = tmp_path / "data.jsonl"
        lines = [json.dumps({"seed": seed, "steps": []}) for seed in (0, 2**64 - 1)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert [t.seed for t in load_dataset(path, num_states=1, num_actions=1)] == [0, 2**64 - 1]

    def test_is_a_value_error(self):
        assert issubclass(DatasetError, ValueError)


class TestDatasetConstruction:
    """The columns are checked once, when a dataset is built."""

    def columns(self, **changes):
        fields = dict(states=[0, 1, 2], actions=[1, 0, 1], rewards=[0.5, 0.25, 1.0],
                      offsets=[0, 2, 3], seeds=[4, 5], num_states=3, num_actions=2)
        return {**fields, **changes}

    def test_consistent_columns_accepted(self):
        ds = TrajectoryDataset(**self.columns(seeds=[np.uint64(4), 5], num_states=np.int64(3)))
        assert len(ds) == 2 and ds.total_steps() == 3
        assert [type(s) for s in ds.seeds] == [int, int]
        assert ds.num_states == 3 and type(ds.num_states) is int
        assert [t.states.tolist() for t in ds] == [[0, 1], [2]]

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(actions=[1, 0]), "equal length"),
            (dict(rewards=[0.5, 0.25, 1.0, 0.0]), "equal length"),
            (dict(states=[[0, 1, 2]]), "1-d columns"),
            (dict(states=[0, 1.5, 2]), "states must hold integer ids"),
            (dict(actions=[1.0, 0.0, 1.0]), "actions must hold integer ids"),
            (dict(seeds=[4, 5.0]), "seed must be an integer, got 5.0"),
            (dict(offsets=[1, 2, 3]), "offsets must run from 0 to 3"),  # start
            (dict(offsets=[0, 2, 4]), "offsets must run from 0 to 3"),  # end
            (dict(offsets=[0, 3, 2, 3], seeds=[4, 5, 6]), "without decreasing"),
            (dict(offsets=[0, 3]), "one more entry than the 2 seeds"),
            (dict(states=[0, 3, 2]), r"state id 3 outside \[0, 3\)"),
            (dict(states=[0, -1, 2]), r"state id -1 outside"),
            (dict(actions=[1, 2, 0]), r"action id 2 outside \[0, 2\)"),
            # Step (0, 3) with 3 actions would be counted as pair (1, 0).
            (dict(states=[0], actions=[3], rewards=[0.5], offsets=[0, 1], seeds=[0],
                  num_actions=3), r"action id 3 outside \[0, 3\)"),
            (dict(rewards=[0.5, np.inf, 1.0]), "reward inf is not finite"),
            (dict(rewards=[0.5, 0.25, np.nan]), "reward nan is not finite"),
            # Not read as offsets [0, 2, 3] or rewards of 1.0.
            (dict(offsets=[0, 2.5, 3]), "offsets must hold integer ids, not float64"),
            (dict(rewards=["1", "0", "1"]), "rewards must hold numbers, not <U1"),
            (dict(rewards=[True, False, True]), "rewards must hold numbers, not bool"),
            # Python ints past int64 among smaller ones, which numpy reads as float64.
            (dict(states=[0, 2**63, 1]),
             r"^states must hold ids below 2\*\*63, got 9223372036854775808$"),
        ],
    )
    def test_inconsistent_columns_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            TrajectoryDataset(**self.columns(**changes))

    @pytest.mark.parametrize("name", ["states", "actions", "offsets"])
    def test_unsigned_ids_past_int64_refused_as_given(self, name):
        # The int64 cast would wrap 2**63 to -2**63 and name an id never given.
        given = np.array(self.columns()[name][:-1] + [2**63], dtype=np.uint64)
        with pytest.raises(ValueError, match=rf"^{name} must hold ids below 2\*\*63, "
                                             rf"got 9223372036854775808$"):
            TrajectoryDataset(**self.columns(**{name: given}))
        fits = np.array(self.columns()[name], dtype=np.uint64)
        assert getattr(TrajectoryDataset(**self.columns(**{name: fits})), name).dtype == np.int64

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_range_rejected(self, seed):
        # save_dataset would write it and load_dataset refuse it.
        with pytest.raises(ValueError, match=rf"seed {seed} outside \[0, 2\*\*64\)"):
            TrajectoryDataset(**self.columns(seeds=[4, seed]))

    def test_largest_seed_round_trips(self, tmp_path):
        ds = TrajectoryDataset(**self.columns(seeds=[0, 2**64 - 1]))
        save_dataset(ds, tmp_path / "data.jsonl")
        assert load_dataset(tmp_path / "data.jsonl", 3, 2).seeds == (0, 2**64 - 1)

    @pytest.mark.parametrize("name", ["num_states", "num_actions"])
    @pytest.mark.parametrize("size", [2.5, True, -1])
    def test_sizes_must_be_nonnegative_integers(self, name, size):
        # Not a TypeError inside numpy once the dataset is counted.
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 0, got {size!r}"):
            TrajectoryDataset(**self.columns(states=[0, 0, 0], actions=[0, 0, 0], **{name: size}))

    def test_load_dataset_checks_sizes(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps({"seed": 0, "steps": [[0, 0, 0.5]]}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="num_states must be an integer >= 0, got 2.5"):
            load_dataset(path, num_states=2.5, num_actions=1)

    def test_float_trajectory_ids_rejected(self):
        # Not truncated to states [0] and actions [1].
        for trajectory, message in ((Trajectory([0.5], [1], [0.3], 0), "states must hold integer ids"),
                                    (Trajectory([0], [1.2], [0.3], 0), "actions must hold integer ids"),
                                    (Trajectory([0], [1], ["1"], 0), "rewards must hold numbers")):
            with pytest.raises(ValueError, match=message):
                TrajectoryDataset.from_trajectories([trajectory], 2, 2)
        # numpy reads an empty list as float64; an empty trajectory list is a dataset too.
        ds = TrajectoryDataset.from_trajectories([Trajectory([], [], [], 0),
                                                  Trajectory([1], [0], [0.3], 1)], 2, 1)
        assert ds.states.dtype == ds.actions.dtype == np.int64
        assert [t.states.tolist() for t in ds] == [[], [1]]
        none = TrajectoryDataset.from_trajectories([], 2, 1)
        assert len(none) == 0 and none.states.dtype == np.int64 and none.rewards.dtype == np.float64

    @settings(max_examples=300, deadline=None)
    @given(column=st.sampled_from(["dataset states", "dataset actions", "dataset offsets",
                                   "dataset seeds", "trajectory states", "trajectory actions",
                                   "trajectory seed", "continuous actions", "index actions",
                                   "index trajectory ids"]),
           ids=st.lists(st.integers(0, 1), min_size=1, max_size=8),
           data=st.data())
    def test_a_bool_in_an_integer_column_is_refused(self, column, ids, data):
        # numpy casts True among ints to 1, so each of these used to count a step, an
        # offset, a seed or a neighbor as 0 or 1 instead of refusing the column.
        flag = data.draw(st.sampled_from([True, False, np.True_, np.False_]))

        def with_flag(values):
            values = list(values)
            values[data.draw(st.integers(0, len(values) - 1))] = flag
            return values

        n = len(ids)
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=3)))
        offsets, rewards, states = [0, *cuts, n], [0.5] * n, np.zeros((n, 2))
        seeds = list(range(len(offsets) - 1))
        dataset = dict(states=ids, actions=ids, rewards=rewards, offsets=offsets, seeds=seeds,
                       num_states=2, num_actions=2)
        index = dict(states=states, actions=ids, returns=rewards, trajectory_ids=sorted(ids),
                     metric_weights=np.ones(2), radius=1.0)
        kind, _, name = column.partition(" ")
        with pytest.raises(ValueError, match="bool|True|False"):
            if kind == "dataset":
                TrajectoryDataset(**{**dataset, name: with_flag(dataset[name])})
            elif kind == "trajectory":
                fields = dict(states=ids, actions=ids, rewards=rewards, seed=0)
                fields[name] = flag if name == "seed" else with_flag(ids)
                TrajectoryDataset.from_trajectories([Trajectory(**fields)], 2, 2)
            elif kind == "continuous":
                ContinuousTrajectory(states, with_flag(ids), rewards)
            else:
                name = name.replace(" ", "_")
                NeighborIndex(**{**index, name: with_flag(index[name])})

    @pytest.mark.parametrize("name", ["states", "actions", "rewards", "offsets"])
    def test_columns_cannot_be_written(self, name):
        ds = TrajectoryDataset(**self.columns())
        ds.visits.order("pair", "first-visit")  # built from the columns it must not outlive
        with pytest.raises(ValueError, match="read-only"):
            getattr(ds, name)[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            next(iter(ds)).rewards[0] = 1.0  # trajectories are views of the columns
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ds, name, np.zeros(3))
        with pytest.raises(ValueError, match="read-only"):
            ds.visits.keys["pair"][0] = 1

    def test_pickle_holds_the_columns_alone(self):
        mdp, behavior = build_gridworld(side=4)
        ds = simulate(mdp, behavior, 6, 12, 5)
        before = len(pickle.dumps(ds))

        def visit_view(dataset):
            visits = dataset.visits
            view = {"trajectory": visits.trajectory.tolist()}
            for kind in ("state", "pair"):
                view[kind] = visits.keys[kind].tolist()
                for mode in ("first-visit", "every-visit"):
                    view[kind, mode] = (visits.order(kind, mode).tolist(),
                                        visits.counts(kind, mode).tolist())
            return view

        expected = visit_view(ds)
        assert len(pickle.dumps(ds)) == before  # the visit index stays out
        got = pickle.loads(pickle.dumps(ds))
        for name in ("states", "actions", "rewards", "offsets"):
            assert not getattr(got, name).flags.writeable
            assert getattr(got, name).tobytes() == getattr(ds, name).tobytes()
        assert "visits" not in vars(got) and got.seeds == ds.seeds
        assert visit_view(got) == expected

    def test_callers_arrays_stay_theirs(self):
        columns = self.columns(states=np.array([0, 1, 2]), rewards=np.array([0.5, 0.25, 1.0]))
        ds = TrajectoryDataset(**columns)
        columns["states"][0] = 2
        columns["rewards"][0] = 9.0
        assert ds.states.tolist() == [0, 1, 2] and ds.rewards.tolist() == [0.5, 0.25, 1.0]
        assert isinstance(ds.seeds, tuple)


@st.composite
def small_mdps(draw):
    """Random small MDP and logger with terminals, zero-mass tails and short rows."""
    num_states = draw(st.integers(1, 5))
    num_actions = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random((num_states, num_actions, num_states))
    raw *= rng.random(raw.shape) < 0.6  # sparse rows: many zero-probability successors
    raw[..., 0] += raw.sum(axis=2) == 0.0
    transitions = raw / raw.sum(axis=2, keepdims=True)
    rows = rng.random((num_states, num_actions))
    for s in range(num_states):  # zero-probability trailing actions
        rows[s, draw(st.integers(1, num_actions)):] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    if draw(st.booleans()):  # rows summing to 1 - 1e-12, so the clamp can fire
        transitions *= 1.0 - 1e-12
        rows *= 1.0 - 1e-12
    lo = rng.random((num_states, num_actions)) / 2
    hi = np.where(rng.random(lo.shape) < 0.3, lo, lo + rng.random(lo.shape) / 2)
    mdp = TabularMdp(
        transitions=transitions,
        rewards=RewardSpec(lo=lo, hi=hi),
        gamma=0.9,
        start_state=draw(st.integers(0, num_states - 1)),
        terminal_states=frozenset(draw(st.sets(st.integers(0, num_states - 1)))),
    )
    return mdp, BehaviorPolicy(rows)


@st.composite
def edge_rows(draw, width: int, rng) -> np.ndarray:
    """One probability row of ``width >= 3`` entries shaped like a sampler edge case."""
    kind = draw(st.sampled_from(["gaps", "short tail", "single", "tiny"]))
    row = np.zeros(width)
    if kind == "single":  # one successor
        row[draw(st.integers(0, width - 1))] = 1.0
    elif kind == "tiny":  # 1e-300 after 0.5 leaves the running sum at 0.5
        row[sorted(draw(st.sets(st.integers(0, width - 1), min_size=3, max_size=3)))] = (
            0.5, 1e-300, 0.5)
    else:  # positive entries with zero gaps between them; "short tail" sums to 1 - 1e-10
        last = width - 2 if kind == "short tail" else width - 1  # and ends in zero mass
        columns = sorted(draw(st.sets(st.integers(0, last), min_size=1, max_size=last + 1)))
        row[columns] = rng.random(len(columns)) + 0.01
        row /= row.sum()
        if kind == "short tail":
            row *= 1.0 - 1e-10
    return row


@st.composite
def edge_row_mdps(draw):
    """Random MDP and logger whose every row is one of :func:`edge_rows`."""
    num_states, num_actions = draw(st.integers(3, 5)), draw(st.integers(3, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transitions = np.array([[draw(edge_rows(num_states, rng)) for _ in range(num_actions)]
                            for _ in range(num_states)])
    rows = np.array([draw(edge_rows(num_actions, rng)) for _ in range(num_states)])
    lo = rng.random((num_states, num_actions)) / 2
    mdp = TabularMdp(
        transitions=transitions,
        rewards=RewardSpec(lo=lo, hi=lo + rng.random(lo.shape) / 2),
        gamma=0.9,
        start_state=draw(st.integers(0, num_states - 1)),
        terminal_states=frozenset(draw(st.sets(st.integers(0, num_states - 1), max_size=1))),
    )
    return mdp, BehaviorPolicy(rows)


def assert_same_episode(traj, states, actions, rewards):
    assert traj.states.dtype == np.int64 and traj.actions.dtype == np.int64
    assert traj.rewards.dtype == np.float64
    assert traj.states.tobytes() == np.asarray(states, dtype=np.int64).tobytes()
    assert traj.actions.tobytes() == np.asarray(actions, dtype=np.int64).tobytes()
    assert traj.rewards.tobytes() == np.asarray(rewards, dtype=np.float64).tobytes()


class TestLockstepMatchesOracle:
    """The lockstep simulator reproduces the per-trajectory bisect simulator bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        case=small_mdps() | edge_row_mdps(),
        num_trajectories=st.integers(0, 6),
        horizon=st.integers(1, 8),
        master_seed=st.integers(0, 2**32 - 1),
    )
    def test_simulate_equals_bisect_oracle(self, case, num_trajectories, horizon, master_seed):
        mdp, policy = case
        ds = simulate(mdp, policy, num_trajectories, horizon, master_seed)
        expected = bisect_simulate(mdp, policy, num_trajectories, horizon, master_seed)
        assert len(ds) == len(expected)
        for traj, (seed, states, actions, rewards) in zip(ds, expected):
            assert type(traj.seed) is int and traj.seed == seed
            assert_same_episode(traj, states, actions, rewards)

    @settings(max_examples=30, deadline=None)
    @given(case=small_mdps(), num_trajectories=st.integers(0, 6),
           master_seed=st.integers(2**64, 2**256))
    def test_simulate_equals_oracle_for_wide_masters(self, case, num_trajectories, master_seed):
        # Masters of 3 to 9 words take the seed derivation's word loops.
        mdp, policy = case
        ds = simulate(mdp, policy, num_trajectories, 4, master_seed)
        expected = bisect_simulate(mdp, policy, num_trajectories, 4, master_seed)
        assert list(ds.seeds) == [seed for seed, *_ in expected]
        for traj, (_, *episode) in zip(ds, expected):
            assert_same_episode(traj, *episode)

    @settings(max_examples=120, deadline=None)
    @given(case=small_mdps() | edge_row_mdps(), data=st.data())
    def test_rollout_equals_oracle_on_edge_uniforms(self, case, data):
        # Uniforms at 0 and just below 1 hit the CDF ends, where the clamp
        # and the zero-mass tails decide the outcome; 0.5 and its neighbour
        # hit the running sum that a 1e-300 entry leaves where it was.
        mdp, policy = case
        shape = (data.draw(st.integers(0, 4)), data.draw(st.integers(1, 6)), 3)
        edges = st.sampled_from([0.0, np.nextafter(0.5, 0.0), 0.5, 1.0 - 1e-10,
                                 np.nextafter(1.0 - 1e-10, 1.0), 1.0 - 1e-12,
                                 np.nextafter(1.0, 0.0)])
        values = data.draw(
            st.lists(edges | st.floats(0.0, 1.0, exclude_max=True),
                     min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))
        )
        draws = np.asarray(values, dtype=np.float64).reshape(shape)
        states, actions, rewards, lengths = _lockstep_rollout(mdp, policy, draws)
        for i, episode in enumerate(bisect_rollout(mdp, policy, draws)):
            n = lengths[i]
            traj = make_traj(states[i, :n], actions[i, :n], rewards[i, :n])
            assert_same_episode(traj, *episode)
            # Every logged action and every step between logged states has
            # positive probability, also where the clamp fired.
            s, a = states[i, :n], actions[i, :n]
            assert (policy.action_probabilities[s, a] > 0).all()
            assert (mdp.transitions[s[:-1], a[:-1], s[1:]] > 0).all()

    def test_clamp_picks_last_positive_index_when_uniform_exceeds_short_row(self):
        # Row sums 1 - 1e-12 with a zero-mass last entry: a uniform above the
        # total passes every CDF entry and must land on index 1, not 2.
        transitions = np.zeros((3, 3, 3))
        transitions[:, :, 0] = 0.5
        transitions[:, :, 1] = 0.5 - 1e-12
        mdp = TabularMdp(transitions, RewardSpec(lo=np.zeros((3, 3)), hi=np.zeros((3, 3))), 0.9, 0)
        policy = BehaviorPolicy(np.array([[0.5, 0.5 - 1e-12, 0.0]] * 3))
        draws = np.full((1, 2, 3), np.nextafter(1.0, 0.0))
        states, actions, _, lengths = _lockstep_rollout(mdp, policy, draws)
        assert lengths.tolist() == [2]
        assert actions[0].tolist() == [1, 1] and states[0].tolist() == [0, 1]
        assert bisect_rollout(mdp, policy, draws)[0][:2] == ([0, 1], [1, 1])

    def test_support_table_keeps_positive_entries_and_pads(self):
        rows = np.array([[0.5, 1e-300, 0.0, 0.5], [0.0, 0.0, 1.0, 0.0],
                         [0.25, 0.0, 0.75 - 1e-10, 0.0]])
        cdf, ids = _support_table(rows)
        assert cdf.tolist() == [[0.5, 0.5, 1.0], [1.0, np.inf, np.inf],
                                [0.25, np.cumsum(rows[2])[2], np.inf]]
        assert ids.tolist() == [[0, 1, 3, 3], [2, 2, 2, 2], [0, 2, 2, 2]]
        assert not cdf.flags.writeable and not ids.flags.writeable

    def test_horizon_one_and_zero_trajectories(self):
        mdp = deterministic_chain(4)
        policy = uniform_behavior(4, 2)
        one = simulate(mdp, policy, num_trajectories=5, horizon=1, master_seed=2)
        for traj, (seed, *episode) in zip(one, bisect_simulate(mdp, policy, 5, 1, 2)):
            assert len(traj) == 1 and traj.seed == seed
            assert_same_episode(traj, *episode)
        assert list(simulate(mdp, policy, 0, 1, 2)) == []

    def test_blocked_lockstep_equals_oracle(self, monkeypatch):
        # Blocks of 2 trajectories at horizon 3 (7 // 3), with a ragged last block.
        monkeypatch.setattr(mdp_module, "_LOCKSTEP_SLOTS", 7)
        mdp = three_state_eval_chain()[0]
        policy = BehaviorPolicy(np.array([[0.6, 0.4]] * 3))
        ds = simulate(mdp, policy, num_trajectories=5, horizon=3, master_seed=4)
        expected = bisect_simulate(mdp, policy, 5, 3, 4)
        assert [t.seed for t in ds] == [seed for seed, *_ in expected]
        for traj, (_, *episode) in zip(ds, expected):
            assert_same_episode(traj, *episode)

    def test_stored_columns_are_compact(self, monkeypatch):
        # Blocks of 2 episodes at horizon 50, each 3 steps long: the columns
        # hold total_steps() entries, not num_trajectories * horizon.
        monkeypatch.setattr(mdp_module, "_LOCKSTEP_SLOTS", 100)
        mdp = deterministic_chain(4)
        ds = simulate(mdp, uniform_behavior(4, 2), num_trajectories=5, horizon=50, master_seed=1)
        assert ds.total_steps() == 15 and ds.offsets.tolist() == [0, 3, 6, 9, 12, 15]
        for column in (ds.states, ds.actions, ds.rewards):
            assert column.base is None and column.flags.c_contiguous and column.shape == (15,)
        for traj in ds:  # views into the columns, not copies
            assert traj.states.base is ds.states and traj.rewards.base is ds.rewards


class TestFrozenEnvironment:
    """An MDP and a policy take their arrays read-only, so their cached tables cannot go stale."""

    def test_arrays_and_fields_refuse_writes(self):
        mdp, behavior = build_forest_mdp(num_chains=3, depth=2, epsilon=0.2)
        simulate(mdp, behavior, 5, 10, 0)  # builds the tables
        arrays = [mdp.transitions, mdp.rewards.lo, mdp.rewards.hi, behavior.action_probabilities,
                  mdp.expected_rewards, *mdp.step_tables, *behavior.action_table]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.5
        for record, name in [(mdp, "transitions"), (mdp, "gamma"), (mdp, "terminal_states"),
                             (mdp.rewards, "lo"), (mdp.rewards, "hi"),
                             (behavior, "action_probabilities"), (behavior, "kind")]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, getattr(record, name))

    def test_transition_table_is_taken_not_copied(self):
        table = np.full((2, 1, 2), 0.5)
        mdp = TabularMdp(table, RewardSpec(lo=np.zeros((2, 1)), hi=np.zeros((2, 1))), 0.9, 0)
        assert mdp.transitions is table and not table.flags.writeable

    def test_caches_stay_out_of_pickles(self):
        mdp, behavior = build_gridworld(side=4)
        before = len(pickle.dumps((mdp, behavior)))
        simulate(mdp, behavior, 5, 10, 0)
        exact_value(mdp, MixedPolicy(None, behavior))
        assert {"step_tables", "expected_rewards", "edges"} <= set(vars(mdp))
        assert "action_table" in vars(behavior)
        assert len(pickle.dumps((mdp, behavior))) == before

    def test_unpickled_environment_samples_the_same_bytes(self):
        mdp, behavior = build_forest_mdp(num_chains=4, depth=3, epsilon=0.2)
        expected = simulate(mdp, behavior, 30, 10, 3)
        mdp, behavior = pickle.loads(pickle.dumps((mdp, behavior)))
        for array in (mdp.transitions, mdp.rewards.lo, mdp.rewards.hi,
                      behavior.action_probabilities):
            assert not array.flags.writeable
        got = simulate(mdp, behavior, 30, 10, 3)
        for name in ("states", "actions", "rewards", "offsets"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
        assert got.seeds == expected.seeds

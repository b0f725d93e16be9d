"""Visit counting and Monte-Carlo value estimation tests."""

import dataclasses
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_dataset, make_traj, random_datasets
from dprl.baselines import fit_mle_model, train_behavior_clone
from dprl.discrete import identify_decision_points, make_smdp, train_decision_point_policy
from dprl.estimation import (
    EVERY_VISIT,
    FIRST_VISIT,
    CountTable,
    ValueEstimates,
    _visit_means,
    count_visits,
    longest_first,
    monte_carlo_estimates,
    segment_reduce,
    segment_suffix_returns,
)
from dprl.evaluation import policy_json

NUM_STATES = 4
NUM_ACTIONS = 2


@st.composite
def small_datasets(draw):
    num_trajs = draw(st.integers(min_value=1, max_value=5))
    trajs = []
    for _ in range(num_trajs):
        length = draw(st.integers(min_value=1, max_value=6))
        states = draw(
            st.lists(
                st.integers(0, NUM_STATES - 1), min_size=length, max_size=length
            )
        )
        actions = draw(
            st.lists(
                st.integers(0, NUM_ACTIONS - 1), min_size=length, max_size=length
            )
        )
        rewards = draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False, width=32),
                min_size=length,
                max_size=length,
            )
        )
        trajs.append(make_traj(states, actions, rewards))
    return make_dataset(trajs, NUM_STATES, NUM_ACTIONS)


def one_segment_returns(rewards, gamma: float) -> np.ndarray:
    return segment_suffix_returns(rewards, [0, len(rewards)], gamma)


class TestSuffixReturns:
    def test_two_step_example(self):
        np.testing.assert_allclose(one_segment_returns(np.array([1.0, 1.0]), 0.5), [1.5, 1.0])

    def test_single_step_is_identity(self):
        np.testing.assert_allclose(one_segment_returns(np.array([0.3]), 0.9), [0.3])

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        rewards = rng.random(7)
        gamma = 0.8
        got = one_segment_returns(rewards, gamma)
        for t in range(7):
            direct = sum(gamma ** (k - t) * rewards[k] for k in range(t, 7))
            assert got[t] == pytest.approx(direct, rel=1e-12)


class TestCounts:
    def test_repeated_pair_counted_once_in_first_visit(self):
        ds = make_dataset(
            [make_traj([0, 0], [0, 0], [0.0, 0.0])], NUM_STATES, NUM_ACTIONS
        )
        first = count_visits(ds, FIRST_VISIT)
        every = count_visits(ds, EVERY_VISIT)
        assert first.n_sa[0, 0] == 1
        assert every.n_sa[0, 0] == 2

    def test_state_counts_are_row_sums(self):
        ds = make_dataset(
            [make_traj([0, 0, 1], [0, 1, 0], [0.0, 0.0, 0.0])],
            NUM_STATES,
            NUM_ACTIONS,
        )
        table = count_visits(ds, FIRST_VISIT)
        assert [f.name for f in fields(CountTable)] == ["n_sa"]  # n_s is derived
        np.testing.assert_array_equal(table.n_s, table.n_sa.sum(axis=1))
        assert table.n_s[0] == 2  # two distinct pairs at state 0

    def test_unknown_mode_rejected(self):
        ds = make_dataset([make_traj([0], [0], [0.0])], NUM_STATES, NUM_ACTIONS)
        with pytest.raises(ValueError, match="mode"):
            count_visits(ds, "median-visit")

    @settings(max_examples=50, deadline=None)
    @given(small_datasets())
    def test_first_visit_never_exceeds_every_visit(self, ds):
        first = count_visits(ds, FIRST_VISIT)
        every = count_visits(ds, EVERY_VISIT)
        assert np.all(first.n_sa <= every.n_sa)
        assert np.all(first.n_s <= every.n_s)


class TestMonteCarlo:
    def test_single_trajectory_state_value(self):
        ds = make_dataset(
            [make_traj([0, 1], [0, 0], [1.0, 1.0])], NUM_STATES, NUM_ACTIONS
        )
        est = monte_carlo_estimates(ds, gamma=0.5)
        assert est.v_hat[0] == pytest.approx(1.5)
        assert est.v_hat[1] == pytest.approx(1.0)

    def test_pair_value_averages_across_trajectories(self):
        ds = make_dataset(
            [
                make_traj([2], [1], [0.6]),
                make_traj([2], [1], [0.8]),
            ],
            NUM_STATES,
            NUM_ACTIONS,
        )
        est = monte_carlo_estimates(ds, gamma=0.9)
        assert est.q_hat[2, 1] == pytest.approx(0.7)
        assert est.v_hat[2] == pytest.approx(0.7)

    def test_unvisited_entries_are_nan_with_false_masks(self):
        ds = make_dataset([make_traj([0], [0], [0.5])], NUM_STATES, NUM_ACTIONS)
        est = monte_carlo_estimates(ds, gamma=0.9)
        assert [f.name for f in fields(ValueEstimates)] == ["v_hat", "q_hat"]  # nan marks support
        assert not np.isnan(est.v_hat[0]) and not np.isnan(est.q_hat[0, 0])
        assert np.isnan(est.v_hat[3])
        assert np.isnan(est.q_hat[0, 1])

    def test_first_visit_uses_first_occurrence_only(self):
        # revisiting state 0 must not contribute a second state return
        ds = make_dataset(
            [make_traj([0, 0], [0, 0], [1.0, 1.0])], NUM_STATES, NUM_ACTIONS
        )
        est = monte_carlo_estimates(ds, gamma=0.5, mode=FIRST_VISIT)
        assert est.v_hat[0] == pytest.approx(1.5)
        every = monte_carlo_estimates(ds, gamma=0.5, mode=EVERY_VISIT)
        assert every.v_hat[0] == pytest.approx((1.5 + 1.0) / 2)

    def test_gamma_validation(self):
        ds = make_dataset([make_traj([0], [0], [0.5])], NUM_STATES, NUM_ACTIONS)
        with pytest.raises(ValueError):
            monte_carlo_estimates(ds, gamma=1.0)

    @settings(max_examples=50, deadline=None)
    @given(small_datasets(), st.sampled_from([FIRST_VISIT, EVERY_VISIT]))
    def test_state_value_lies_inside_contributing_return_range(self, ds, mode):
        gamma = 0.9
        est = monte_carlo_estimates(ds, gamma, mode=mode)
        # recompute contributing returns per state by hand
        per_state: dict[int, list[float]] = {}
        for traj in ds:
            suffix = oracles.loop_suffix_returns(traj.rewards, gamma)
            seen = set()
            for t, s in enumerate(traj.states):
                s = int(s)
                if mode == FIRST_VISIT:
                    if s in seen:
                        continue
                    seen.add(s)
                per_state.setdefault(s, []).append(float(suffix[t]))
        for s, returns in per_state.items():
            assert min(returns) - 1e-12 <= est.v_hat[s] <= max(returns) + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(small_datasets(), st.sampled_from([FIRST_VISIT, EVERY_VISIT]))
    def test_single_observed_action_pins_state_to_pair_value(self, ds, mode):
        est = monte_carlo_estimates(ds, 0.9, mode=mode)
        table = count_visits(ds, mode)
        for s in range(NUM_STATES):
            observed = np.flatnonzero(table.n_sa[s])
            if len(observed) == 1:
                a = int(observed[0])
                assert est.v_hat[s] == pytest.approx(est.q_hat[s, a], rel=1e-12)


def assert_same_array(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestColumnarMatchesLoops:
    """The columnar estimators reproduce the per-trajectory loops byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(random_datasets(), st.sampled_from([FIRST_VISIT, EVERY_VISIT]))
    def test_counts(self, ds, mode):
        got = count_visits(ds, mode)
        expected = oracles.loop_count_visits(ds, mode)
        assert_same_array(got.n_sa, expected.n_sa)
        assert_same_array(got.n_s, expected.n_s)

    @settings(max_examples=150, deadline=None)
    @given(
        random_datasets(),
        st.sampled_from([FIRST_VISIT, EVERY_VISIT]),
        st.sampled_from([0.1, 0.9, 0.99]),
    )
    def test_monte_carlo_estimates(self, ds, mode, gamma):
        got = monte_carlo_estimates(ds, gamma, mode)
        expected = oracles.loop_monte_carlo_estimates(ds, gamma, mode)
        for name in ("v_hat", "q_hat"):
            assert_same_array(getattr(got, name), getattr(expected, name))

    @settings(max_examples=100, deadline=None)
    @given(random_datasets(), st.sampled_from([0.1, 0.9, 0.99]))
    def test_suffix_returns(self, ds, gamma):
        got = segment_suffix_returns(ds.rewards, ds.offsets, gamma)
        expected = [oracles.loop_suffix_returns(t.rewards, gamma) for t in ds]
        assert_same_array(got, np.concatenate([np.empty(0), *expected]))
        for traj, want in zip(ds, expected):
            assert_same_array(one_segment_returns(traj.rewards, gamma), want)

    def test_columns_follow_dataset_order(self):
        ds = make_dataset(
            [make_traj([1, 2], [0, 1], [0.5, 0.25]), make_traj([], [], []),
             make_traj([3], [1], [1.0])],
            NUM_STATES,
            NUM_ACTIONS,
        )
        assert ds.states.tolist() == [1, 2, 3] and ds.actions.tolist() == [0, 1, 1]
        assert ds.rewards.tolist() == [0.5, 0.25, 1.0] and ds.offsets.tolist() == [0, 2, 2, 3]
        columns = (ds.states, ds.actions, ds.rewards, ds.offsets)
        assert [c.dtype for c in columns] == [np.int64, np.int64, np.float64, np.int64]
        # The stored columns are the only copy: iteration slices them.
        assert [t.rewards.tolist() for t in ds] == [[0.5, 0.25], [], [1.0]]
        assert all(t.rewards.base is ds.rewards for t in ds)

    def test_no_trajectories(self):
        ds = make_dataset([], NUM_STATES, NUM_ACTIONS)
        assert count_visits(ds).n_sa.tolist() == [[0, 0]] * NUM_STATES
        est = monte_carlo_estimates(ds, 0.9)
        assert np.isnan(est.v_hat).all() and np.isnan(est.q_hat).all()


# Slice lengths on both sides of numpy's pairwise-sum edges: 8 lanes from 8
# elements, one plain block up to 128, halves above.
EDGE_LENGTHS = [1, 2, 7, 8, 9, 15, 16, 17, 120, 127, 128, 129, 135, 136, 137, 255, 256, 257, 400]


@st.composite
def mixed_magnitudes(draw, size):
    """Values spanning 40 decades, both signs, with signed zeros among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=size) * 10.0 ** rng.integers(-20, 21, size)
    values[rng.random(size) < 0.05] = rng.choice([0.0, -0.0])
    return values


class TestSegmentMeans:
    """``segment_reduce`` equals ``np.mean`` of each run, byte for byte."""

    @staticmethod
    def assert_means(values, sizes):
        bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        expected = [np.mean(values[a:b]) if b > a else np.nan for a, b in zip(bounds, bounds[1:])]
        got = segment_reduce(values, np.asarray(sizes, dtype=np.int64))
        assert_same_array(got, np.array(expected, dtype=np.float64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 400), st.sampled_from(EDGE_LENGTHS)), max_size=12)
           .flatmap(lambda sizes: st.tuples(st.just(sizes), mixed_magnitudes(sum(sizes)))))
    def test_equals_numpy_mean(self, case):
        sizes, values = case
        self.assert_means(values, sizes)

    @pytest.mark.parametrize("length", EDGE_LENGTHS)
    def test_every_edge_length(self, length):
        rng = np.random.default_rng(length)
        values = rng.random(3 * length) * 10.0 ** rng.integers(-8, 9, 3 * length)
        self.assert_means(values, [length, 0, length, length])

    @pytest.mark.parametrize("length", EDGE_LENGTHS)
    def test_many_runs_of_one_length(self, length):
        # 200 runs of one length are reduced as one block of rows; 50 empty runs among them.
        rng = np.random.default_rng(length)
        sizes = np.full(250, length)
        sizes[::5] = 0
        values = rng.normal(size=200 * length) * 10.0 ** rng.integers(-20, 21, 200 * length)
        values[rng.random(values.size) < 0.05] = rng.choice([0.0, -0.0])
        self.assert_means(values, sizes)

    def test_nine_negative_zeros_give_positive_zero(self):
        # Eight lanes of -0.0 sum to -0.0; np.mean adds its sum to +0.0.
        for length in (1, 7, 8, 9, 200):
            zeros = np.full(length, -0.0)
            got = segment_reduce(zeros, np.array([length]))
            assert got.tobytes() == np.array([0.0]).tobytes() == np.mean(zeros).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 400), st.sampled_from(EDGE_LENGTHS)), max_size=12)
           .flatmap(lambda sizes: st.tuples(st.just(sizes), mixed_magnitudes(sum(sizes)))))
    def test_sum_equals_numpy_sum(self, case):
        # SPIBB's free mass: each run reduced as np.sum reduces it alone.
        sizes, values = case
        bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        expected = [np.sum(values[a:b]) if b > a else np.nan for a, b in zip(bounds, bounds[1:])]
        got = segment_reduce(values, np.asarray(sizes, dtype=np.int64), np.ndarray.sum)
        assert_same_array(got, np.array(expected, dtype=np.float64))


class TestLongestFirst:
    @given(st.lists(st.integers(0, 9), max_size=20))
    def test_order_and_live_counts(self, lengths):
        lengths = np.array(lengths, dtype=np.int64)
        order, live = longest_first(lengths)
        assert order.tolist() == sorted(range(len(lengths)), key=lambda i: -lengths[i])
        assert live.tolist() == [int((lengths > k).sum()) for k in range(max(lengths, default=0))]


class TestVisitMeans:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(
        st.just(k),
        st.lists(st.tuples(st.integers(0, k - 1), st.sampled_from([-7, 0, 3, 2**40]),
                           st.floats(-1e6, 1e6)), max_size=60),
        st.sampled_from([FIRST_VISIT, EVERY_VISIT]),
    )))
    def test_equals_unique_and_mean_oracle(self, case):
        # Groups are any integers in runs, as trajectory ids in a neighbour
        # index are; keys interleave freely.
        num_keys, steps, mode = case
        keys, groups, values = (np.array(c) for c in zip(*steps)) if steps else (
            np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
        groups = np.sort(groups)
        values = values.astype(np.float64)
        got = _visit_means(keys, values, groups, mode, num_keys)
        expected = oracles.unique_visit_means(keys, values, groups, mode, num_keys)
        for have, want in zip(got, expected):
            assert_same_array(have, want)


GAMMA = 0.9
# Every consumer of the visit index, as (dataset, decision sets) -> result.
CONSUMERS = {
    "count-first": lambda ds, dp: count_visits(ds, FIRST_VISIT),
    "count-every": lambda ds, dp: count_visits(ds, EVERY_VISIT),
    "estimate-first": lambda ds, dp: monte_carlo_estimates(ds, GAMMA, FIRST_VISIT),
    "estimate-every": lambda ds, dp: monte_carlo_estimates(ds, 0.5, EVERY_VISIT),
    "smdp": lambda ds, dp: make_smdp(ds, dp, GAMMA),
    "fit": lambda ds, dp: fit_mle_model(ds),
    "clone": lambda ds, dp: train_behavior_clone(ds),
    "train": lambda ds, dp: policy_json(train_decision_point_policy(ds, 1, GAMMA)),
}


def as_bytes(result):
    """A result as comparable bytes: dataclass fields, arrays with dtype and shape, or repr."""
    if dataclasses.is_dataclass(result):
        return [as_bytes(getattr(result, f.name)) for f in fields(result)]
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    return repr(result)


class TestSharedVisitIndex:
    """Every consumer reads ``dataset.visits``; sharing it changes no byte."""

    @settings(max_examples=60, deadline=None)
    @given(random_datasets(), st.permutations(list(CONSUMERS) * 2))
    def test_any_order_twice_equals_a_fresh_copy(self, ds, order):
        fresh = dataclasses.replace(ds)
        dp = identify_decision_points(count_visits(fresh), monte_carlo_estimates(fresh, GAMMA), 1)
        for name in order:
            got = as_bytes(CONSUMERS[name](ds, dp))
            assert got == as_bytes(CONSUMERS[name](dataclasses.replace(ds), dp)), name

    def test_results_do_not_share_the_index(self):
        ds = make_dataset([make_traj([0, 1, 0], [1, 0, 1], [0.5, 0.25, 1.0])],
                          NUM_STATES, NUM_ACTIONS)
        counts = count_visits(ds)
        counts.n_sa[0, 1] = 99  # a caller's table is its own
        assert count_visits(ds).n_sa[0, 1] == 1

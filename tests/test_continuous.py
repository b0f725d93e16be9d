"""Neighborhood variant: radius scan, ball tree, queries, covering numbers."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_dataset, make_traj, random_mdp, uniform_behavior
from dprl.balltree import BallTree
from dprl.continuous import (
    NEIGHBOR_ALL,
    NEIGHBOR_FIRST,
    ContinuousTrajectory,
    NeighborIndex,
    build_index,
    estimate_covering_number,
    query,
)
from dprl.estimation import EVERY_VISIT, count_visits, monte_carlo_estimates
from dprl.discrete import identify_decision_points
from dprl.mdp import simulate


@pytest.mark.parametrize(
    "make, message",
    [(lambda: ContinuousTrajectory(states=[0.0, 1.0], actions=[0, 1], rewards=[0.0, 0.0]),
      "states must be (T, d)"),
     (lambda: ContinuousTrajectory(states=[[0.0], [1.0]], actions=[0], rewards=[0.0, 0.0]),
      "states, actions and rewards must have equal length"),
     (lambda: NeighborIndex(np.zeros((3, 2)), np.zeros(3, np.int64), np.zeros(3),
                            np.zeros(3, np.int64), np.ones(3), 0.1),
      "state dimension does not match metric_weights")],
    ids=["one-dimensional-states", "unequal-lengths", "index-dimension"],
)
def test_shape_checks(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def flat_index(points, actions, returns, radius, weights=None):
    """Index over loose points, one synthetic trajectory id per point."""
    points = np.asarray(points, dtype=np.float64)
    k = len(points)
    if weights is None:
        weights = np.ones(points.shape[1])
    return NeighborIndex(
        states=points,
        actions=np.asarray(actions, dtype=np.int64),
        returns=np.asarray(returns, dtype=np.float64),
        trajectory_ids=np.arange(k, dtype=np.int64),
        metric_weights=np.asarray(weights, dtype=np.float64),
        radius=radius,
    )


@st.composite
def random_indexes(draw):
    """Small indexes on a coarse lattice, so neighborhoods share points and groups grow past 8.

    Actions come from a set with gaps (ids 1, 3 and 4 are never stored),
    trajectory ids are negative, gapped or huge (in runs, as the index
    requires), and returns span six orders of magnitude or take only the
    values 0 and 1, so that actions tie.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(0, 60))
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        returns = rng.normal(size=size) * 10.0 ** rng.integers(-3, 4, size=size)
    else:
        returns = rng.integers(0, 2, size=size) * 1.0
    return NeighborIndex(
        states=rng.integers(0, 4, size=(size, dim)) * 0.5,
        actions=rng.choice([0, 2, 5], size=size, p=rng.dirichlet(np.ones(3))),
        returns=returns,
        trajectory_ids=np.sort(rng.choice([-3, 0, 1, 4, 5, 7, 9, 11, 2**40], size=size)),
        metric_weights=rng.uniform(0.5, 2.0, size=dim),
        radius=draw(st.sampled_from([0.0, 0.5, 0.8, 1.2, 3.0])),
    )


@st.composite
def scan_cases(draw):
    """An index, a query state, and the id of a stored point on the radius or ``None``.

    Points sit on a half-unit lattice, so duplicates are common, or are
    normal draws.  The radius is 0, a lattice distance, or the scaled
    distance from the query to a stored point computed with the scan's own
    arithmetic, which puts that point exactly on the boundary.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 4))
    size = draw(st.sampled_from([0, 1, 2, 5, 20, 50]))
    if draw(st.booleans()):
        points = rng.integers(-2, 3, size=(size, dim)) * 0.5
        state = rng.integers(-2, 3, size=dim) * 0.5
    else:
        points = rng.normal(size=(size, dim))
        state = rng.normal(size=dim)
    weights = rng.uniform(0.1, 10.0, size=dim) if draw(st.booleans()) else np.ones(dim)
    kind = draw(st.sampled_from(["zero", "lattice", "boundary"]))
    on_radius = None
    radius = 0.0
    if kind == "lattice":
        radius = draw(st.sampled_from([0.5, 1.0, 1.5]))
    elif kind == "boundary" and size:
        on_radius = draw(st.integers(0, size - 1))
        scale = np.sqrt(weights)
        radius = float(np.sqrt(((points[on_radius] * scale - state * scale) ** 2).sum()))
    index = flat_index(points, rng.integers(0, 3, size), rng.normal(size=size), radius, weights)
    return index, state, on_radius


def float_bytes(value):
    return None if value is None else np.float64(value).tobytes()


def assert_same_verdict(got, want):
    assert got.decision == want.decision
    assert got.state_count == want.state_count
    assert got.action_counts == want.action_counts
    assert float_bytes(got.v_estimate) == float_bytes(want.v_estimate)
    assert {a: float_bytes(q) for a, q in got.q_estimates.items()} == {
        a: float_bytes(q) for a, q in want.q_estimates.items()
    }


class TestMatchesLoopOracles:
    """``query`` and ``estimate_covering_number`` equal the per-action loops in ``oracles``."""

    @settings(max_examples=150, deadline=None)
    @given(random_indexes(), st.data())
    def test_query(self, index, data):
        mode = data.draw(st.sampled_from([NEIGHBOR_ALL, NEIGHBOR_FIRST]))
        # lattice points, and a point far outside it whose neighborhood is empty
        state = data.draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 0.7, 50.0]))
        state = np.full(index.states.shape[1], state)
        n_wedge = data.draw(st.integers(1, len(index.neighbors(state)) + 2))
        assert_same_verdict(
            query(index, state, n_wedge, mode), oracles.loop_query(index, state, n_wedge, mode)
        )

    @settings(max_examples=100, deadline=None)
    @given(random_indexes(), st.integers(1, 12))
    def test_covering_number(self, index, n_wedge):
        if len(index):
            got = estimate_covering_number(index, n_wedge)
            assert got == oracles.two_pass_covering_number(index, n_wedge)

    def test_empty_neighborhood_and_empty_index(self):
        index = flat_index(np.zeros((2, 1)), [0, 3], [0.5, 0.25], radius=0.1)
        for target in (index, flat_index(np.empty((0, 1)), [], [], radius=0.1)):
            for mode in (NEIGHBOR_ALL, NEIGHBOR_FIRST):
                verdict = query(target, np.array([9.0]), 1, mode)
                assert_same_verdict(verdict, oracles.loop_query(target, np.array([9.0]), 1, mode))
        assert query(index, np.array([9.0]), 1).action_counts == {0: 0, 3: 0}

    def test_first_visit_means_follow_index_order_not_trajectory_ids(self):
        # nine co-located points of action 0 from nine trajectories: pairwise
        # summation of these returns depends on their order
        returns = np.array([1e16, 1.0, -1e16, 1.0, 3.0, 1e-3, 2.0, 5.0, 7.0])
        fields = dict(states=np.zeros((9, 1)), actions=np.zeros(9, dtype=np.int64),
                      returns=returns, metric_weights=np.ones(1), radius=0.5)
        # Ids that run backwards would order the visits against the index: rejected.
        with pytest.raises(ValueError, match="trajectory_ids must not decrease"):
            NeighborIndex(**fields, trajectory_ids=np.arange(9)[::-1])
        index = NeighborIndex(**fields, trajectory_ids=np.arange(9) * 7 - 20)
        verdict = query(index, np.zeros(1), 1, NEIGHBOR_FIRST)
        assert float_bytes(verdict.v_estimate) == float_bytes(np.mean(returns))
        assert float_bytes(verdict.v_estimate) != float_bytes(np.mean(returns[::-1]))
        assert_same_verdict(verdict, oracles.loop_query(index, np.zeros(1), 1, NEIGHBOR_FIRST))


class TestBallTree:
    def test_matches_linear_scan_on_random_queries(self):
        rng = np.random.default_rng(0)
        points = rng.random((500, 3))
        tree = BallTree(points)
        ones = np.ones(3)
        for _ in range(50):
            q = rng.random(3)
            radius = float(rng.random())
            got = tree.query_radius(q, radius)
            want = oracles.linear_scan_neighbors(points, ones, q, radius)
            np.testing.assert_array_equal(got, want)

    def test_zero_radius_hits_exact_duplicates(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        tree = BallTree(points)
        np.testing.assert_array_equal(tree.query_radius(np.zeros(2), 0.0), [0, 2])

    def test_empty_tree(self):
        tree = BallTree(np.empty((0, 2)))
        assert tree.query_radius(np.zeros(2), 1.0).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BallTree(np.zeros(3))
        tree = BallTree(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            tree.query_radius(np.zeros(2), -0.5)


class TestIndex:
    @pytest.mark.parametrize("column", ["states", "actions", "returns", "trajectory_ids",
                                        "metric_weights"])
    def test_columns_are_read_only(self, column):
        # The action universe and the metric scale are derived once, at construction;
        # a write into a column used to reach numpy's IndexError at the next query.
        index = flat_index([[0.0], [0.1], [0.2], [0.3]], [0, 0, 1, 1], [1.0, 0.5, 0.25, 0.0], 1.0)
        before = query(index, np.array([0.15]), 1)
        array = getattr(index, column)
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 5
        assert_same_verdict(query(index, np.array([0.15]), 1), before)

    def test_suffix_returns_stored_per_timestep(self):
        traj = ContinuousTrajectory(
            states=np.array([[0.0], [1.0]]),
            actions=np.array([0, 0]),
            rewards=np.array([1.0, 1.0]),
        )
        index = build_index([traj], gamma=0.5, metric_weights=np.ones(1), radius=0.1)
        np.testing.assert_allclose(index.returns, [1.5, 1.0])
        np.testing.assert_array_equal(index.trajectory_ids, [0, 0])

    def test_ragged_trajectories_match_per_trajectory_loop(self):
        rng = np.random.default_rng(9)
        trajs = [
            ContinuousTrajectory(rng.random((n, 2)), rng.integers(0, 3, n), rng.random(n))
            for n in (0, 5, 1, 0, 12)
        ]
        index = build_index(iter(trajs), gamma=0.9, metric_weights=np.ones(2), radius=0.1)
        expected = [oracles.loop_suffix_returns(t.rewards, 0.9) for t in trajs if len(t.actions)]
        assert index.returns.tobytes() == np.concatenate(expected).tobytes()
        assert index.trajectory_ids.tolist() == [1] * 5 + [2] + [4] * 12
        assert index.states.tobytes() == np.concatenate([t.states for t in trajs]).tobytes()

    def test_weighted_neighbors_match_linear_scan(self):
        rng = np.random.default_rng(3)
        points = rng.random((300, 2))
        weights = np.array([4.0, 0.25])
        index = flat_index(points, np.zeros(300), rng.random(300), 0.4, weights)
        for _ in range(25):
            q = rng.random(2)
            np.testing.assert_array_equal(
                index.neighbors(q),
                oracles.linear_scan_neighbors(points, weights, q, 0.4),
            )

    @settings(max_examples=200, deadline=None)
    @given(scan_cases())
    def test_neighbors_equal_a_ball_tree_byte_for_byte(self, case):
        index, state, on_radius = case
        got = index.neighbors(state)
        want = oracles.tree_neighbors(index, state)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        if on_radius is not None:
            assert on_radius in got

    @pytest.mark.parametrize("state", [0.5, [0.5], [0.5, 0.5, 0.5]])
    def test_query_state_must_match_the_index_dimension(self, state):
        index = flat_index(np.full((3, 2), 0.5), [0, 1, 0], [0.5, 0.25, 1.0], 1.0)
        with pytest.raises(ValueError, match="shape"):
            index.neighbors(np.asarray(state))
        with pytest.raises(ValueError, match="shape"):
            query(index, np.asarray(state), 1)

    @pytest.mark.parametrize("state", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
    def test_non_finite_query_state_rejected(self, state):
        index = flat_index(np.zeros((30, 2)), [0] * 30, np.linspace(0.0, 1.0, 30), 1.0)
        assert query(index, np.zeros(2), 5).decision == 0
        with pytest.raises(ValueError, match="finite"):
            index.neighbors(np.asarray(state))
        with pytest.raises(ValueError, match="finite"):
            query(index, np.asarray(state), 5)

    # numpy reads [0.5, True] as float64 [0.5, 1.0], which used to answer as that point.
    @pytest.mark.parametrize("state", [["0", False], [True, False], ["0.5", "0.5"], [0.5, True],
                                       (np.False_, 0.0), [np.float64(0.5), np.array(True)]])
    def test_query_state_of_strings_or_bools_rejected(self, state):
        index = flat_index(np.zeros((30, 2)), [0] * 30, np.linspace(0.0, 1.0, 30), 1.0)
        with pytest.raises(ValueError, match="state must hold numbers"):
            index.neighbors(state)
        with pytest.raises(ValueError, match="state must hold numbers"):
            query(index, state, 5)

    def test_dimension_scaling_covariance(self):
        rng = np.random.default_rng(4)
        points = rng.random((80, 2))
        returns = rng.random(80)
        actions = rng.integers(0, 2, 80)
        c = 7.0
        scaled_points = points * np.array([c, 1.0])
        base = flat_index(points, actions, returns, 0.3, np.array([1.0, 1.0]))
        scaled = flat_index(
            scaled_points, actions, returns, 0.3, np.array([1.0 / c**2, 1.0])
        )
        for _ in range(10):
            q = rng.random(2)
            np.testing.assert_array_equal(
                base.neighbors(q), scaled.neighbors(q * np.array([c, 1.0]))
            )
            va = query(base, q, n_wedge=2)
            vb = query(scaled, q * np.array([c, 1.0]), n_wedge=2)
            assert va.decision == vb.decision
            assert va.state_count == vb.state_count
            assert va.q_estimates == vb.q_estimates

    def test_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            build_index([], gamma=1.5, metric_weights=np.ones(1), radius=0.1)
        with pytest.raises(ValueError, match="metric_weights"):
            flat_index(np.zeros((2, 2)), [0, 0], [0.0, 0.0], 0.1, weights=[1.0, 0.0])
        with pytest.raises(ValueError, match="radius"):
            flat_index(np.zeros((2, 2)), [0, 0], [0.0, 0.0], -0.1)
        traj = ContinuousTrajectory(
            states=np.zeros((2, 3)), actions=np.zeros(2, dtype=np.int64), rewards=np.zeros(2)
        )
        with pytest.raises(ValueError, match="dimension"):
            build_index([traj], gamma=0.9, metric_weights=np.ones(2), radius=0.1)
        with pytest.raises(ValueError, match="actions must hold integer ids"):  # not [0, 1]
            ContinuousTrajectory(states=np.zeros((2, 3)), actions=[0.7, 1.9], rewards=np.zeros(2))
        with pytest.raises(ValueError, match="rewards must hold numbers"):
            ContinuousTrajectory(states=np.zeros((2, 3)), actions=[0, 1], rewards=[True, False])
        with pytest.raises(ValueError, match="states must hold numbers, not <U5"):  # not 1.0s
            ContinuousTrajectory(states=[["1"], [True]], actions=[0, 1], rewards=[0.0, 0.0])
        with pytest.raises(ValueError, match="metric_weights must hold numbers, not <U1"):
            build_index([], gamma=0.9, metric_weights=["1"], radius=0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("actions", np.zeros(2)),
            ("actions", np.zeros((3, 1))),
            ("returns", np.zeros(4)),
            ("trajectory_ids", np.zeros(2)),
            ("trajectory_ids", np.zeros((1, 3))),
            ("states", [[0.0, 0.0], [np.nan, 0.0], [0.0, 0.0]]),
            ("states", [[0.0, 0.0], [0.0, -np.inf], [0.0, 0.0]]),
            ("returns", [0.0, np.nan, 0.0]),
            ("returns", [0.0, 0.0, np.inf]),
            ("metric_weights", [1.0, np.nan]),
            ("metric_weights", [np.inf, 1.0]),
            ("radius", np.nan),
            ("radius", np.inf),
            ("trajectory_ids", [0, 1, 0]),  # decreasing: not trajectory-major
            ("trajectory_ids", [2**40, 0, 1]),
            # Not read as actions [0, 1, 0], trajectory ids [0, 0, 1] or returns [1.0, 2.0, 3.0].
            ("actions", [0.7, 1.9, 0.2]),
            ("actions", [True, False, True]),
            ("trajectory_ids", [0.0, 0.5, 1.0]),
            ("returns", ["1", "2", "3"]),
            ("states", np.ones((3, 2), dtype=bool)),
            ("states", [["1", "0"], ["0", "0"], ["0", "1"]]),
            ("metric_weights", ["1", "1"]),
            ("metric_weights", [True, True]),
        ],
    )
    def test_rejects_malformed_fields(self, field, value):
        fields = dict(
            states=np.zeros((3, 2)),
            actions=np.zeros(3, dtype=np.int64),
            returns=np.zeros(3),
            trajectory_ids=np.arange(3),
            metric_weights=np.ones(2),
            radius=0.5,
        )
        with pytest.raises(ValueError, match=field):
            NeighborIndex(**{**fields, field: value})

    @pytest.mark.parametrize("ids", [[-7, -7, 0], [0, 2**40, 2**40], [-3, 4, 2**40], [1, 1, 1]])
    def test_non_decreasing_trajectory_ids_accepted(self, ids):
        fields = dict(states=np.zeros((3, 1)), actions=np.zeros(3, dtype=np.int64),
                      returns=np.array([1.0, 2.0, 4.0]), metric_weights=np.ones(1), radius=0.5)
        index = NeighborIndex(**fields, trajectory_ids=np.array(ids))
        for mode in (NEIGHBOR_ALL, NEIGHBOR_FIRST):
            verdict = query(index, np.zeros(1), 1, mode)
            assert_same_verdict(verdict, oracles.loop_query(index, np.zeros(1), 1, mode))
        assert query(index, np.zeros(1), 1, NEIGHBOR_FIRST).state_count == len(set(ids))

    def test_build_inherits_the_checks(self):
        traj = ContinuousTrajectory(
            states=np.array([[0.0], [np.nan]]), actions=np.zeros(2, dtype=np.int64),
            rewards=np.zeros(2),
        )
        with pytest.raises(ValueError, match="states"):
            build_index([traj], gamma=0.9, metric_weights=np.ones(1), radius=0.1)


class TestQuery:
    def test_single_point_defers_under_count_gate(self):
        index = flat_index(np.zeros((1, 1)), [0], [1.0], radius=0.5)
        verdict = query(index, np.zeros(1), n_wedge=1)
        assert verdict.deferred
        assert verdict.state_count == 1
        assert verdict.v_estimate == pytest.approx(1.0)

    def test_exact_tie_with_state_value_decides(self):
        index = flat_index(np.zeros((3, 1)), [0, 0, 0], [0.4, 0.4, 0.4], radius=0.5)
        verdict = query(index, np.zeros(1), n_wedge=2)
        assert verdict.decision == 0
        assert verdict.v_estimate == pytest.approx(0.4)
        assert verdict.q_estimates[0] == pytest.approx(0.4)

    def test_higher_valued_action_wins(self):
        # ten co-located points: six on action 0 averaging 0.3, four on
        # action 1 averaging 0.8; the pooled state estimate is 0.5
        returns = [0.2, 0.4, 0.3, 0.1, 0.5, 0.3, 0.7, 0.9, 0.75, 0.85]
        actions = [0] * 6 + [1] * 4
        index = flat_index(np.zeros((10, 2)), actions, returns, radius=0.1)
        verdict = query(index, np.zeros(2), n_wedge=4)
        assert verdict.decision == 1
        assert verdict.v_estimate == pytest.approx(0.5, abs=1e-12)
        assert verdict.q_estimates[0] == pytest.approx(0.3, abs=1e-12)
        assert verdict.q_estimates[1] == pytest.approx(0.8, abs=1e-12)
        assert verdict.action_counts == {0: 6, 1: 4}
        assert verdict.state_count == 10

    def test_under_counted_action_cannot_win(self):
        # action 1 has the best mean but only two neighbors
        returns = [0.2, 0.3, 0.4, 0.9, 1.0]
        actions = [0, 0, 0, 1, 1]
        index = flat_index(np.zeros((5, 1)), actions, returns, radius=0.5)
        verdict = query(index, np.zeros(1), n_wedge=3)
        # pooled 0.56; action 0 mean 0.3 below it, action 1 under-counted
        assert verdict.deferred
        assert verdict.action_counts == {0: 3, 1: 2}

    def test_out_of_range_query_defers_with_empty_estimates(self):
        index = flat_index(np.zeros((3, 1)), [0, 0, 0], [0.5, 0.5, 0.5], radius=0.5)
        verdict = query(index, np.array([100.0]), n_wedge=1)
        assert verdict.deferred
        assert verdict.state_count == 0
        assert verdict.v_estimate is None
        assert verdict.q_estimates == {}

    def test_first_per_trajectory_keeps_earliest_point(self):
        traj_a = ContinuousTrajectory(
            states=np.zeros((2, 1)),
            actions=np.array([0, 0]),
            rewards=np.array([0.0, 1.0]),
        )
        traj_b = ContinuousTrajectory(
            states=np.zeros((1, 1)),
            actions=np.array([0]),
            rewards=np.array([0.5]),
        )
        index = build_index([traj_a, traj_b], 0.5, np.ones(1), radius=0.5)
        every = query(index, np.zeros(1), n_wedge=1, neighbor_mode=NEIGHBOR_ALL)
        first = query(index, np.zeros(1), n_wedge=1, neighbor_mode=NEIGHBOR_FIRST)
        assert every.state_count == 3
        assert first.state_count == 2
        # trajectory A contributes its t=0 return 0.0 + 0.5 * 1.0
        assert first.v_estimate == pytest.approx((0.5 + 0.5) / 2)

    def test_defer_monotone_in_threshold(self):
        rng = np.random.default_rng(8)
        points = rng.random((150, 2))
        index = flat_index(points, rng.integers(0, 3, 150), rng.random(150), 0.2)
        for _ in range(15):
            q = rng.random(2)
            deferred_before = False
            for k in range(1, 11):
                verdict = query(index, q, n_wedge=k)
                if deferred_before:
                    assert verdict.deferred
                deferred_before = verdict.deferred

    def test_validation(self):
        index = flat_index(np.zeros((1, 1)), [0], [0.0], 0.1)
        with pytest.raises(ValueError):
            query(index, np.zeros(1), n_wedge=0)
        with pytest.raises(ValueError):
            query(index, np.zeros(1), n_wedge=1, neighbor_mode="nearest")

    @pytest.mark.parametrize("n_wedge", [True, 2.5, float("nan")])
    def test_threshold_is_an_integer(self, n_wedge):
        # The rule identify_decision_points applies; nan used to defer every query.
        index = flat_index(np.zeros((4, 1)), [0] * 4, [0.0] * 4, 0.1)
        message = re.escape(f"n_wedge must be an integer >= 1, got {n_wedge!r}")
        with pytest.raises(ValueError, match=message):
            query(index, np.zeros(1), n_wedge)
        with pytest.raises(ValueError, match=message):
            estimate_covering_number(index, n_wedge)


class TestCoveringNumbers:
    def test_identical_points_need_one_ball(self):
        index = flat_index(np.zeros((4, 2)), [0] * 4, [0.0] * 4, radius=0.1)
        cover = estimate_covering_number(index, n_wedge=3)
        assert cover.m_dense == 1 and cover.m_total == 1

    def test_sparse_cluster_joins_extension_only(self):
        points = np.vstack([np.zeros((5, 2)), np.full((1, 2), 10.0)])
        index = flat_index(points, [0] * 6, [0.0] * 6, radius=0.1)
        cover = estimate_covering_number(index, n_wedge=3)
        assert cover.m_dense == 1 and cover.m_total == 2

    def test_actions_partition_the_cover(self):
        index = flat_index(np.zeros((6, 2)), [0, 0, 0, 1, 1, 1], [0.0] * 6, radius=0.1)
        cover = estimate_covering_number(index, n_wedge=2)
        assert cover.m_dense == 2 and cover.m_total == 2

    def test_within_factor_two_of_shuffled_greedy(self):
        rng = np.random.default_rng(9)
        points = rng.random((200, 2))
        weights = np.ones(2)
        radius, n_wedge = 0.1, 5
        index = flat_index(points, np.zeros(200), rng.random(200), radius)
        cover = estimate_covering_number(index, n_wedge)
        # recompute the dense core by linear scan
        core_ids = [
            i
            for i in range(200)
            if len(oracles.linear_scan_neighbors(points, weights, points[i], radius))
            >= n_wedge
        ]
        oracle_rng = np.random.default_rng(10)
        dense_oracle = oracles.shuffled_greedy_cover(
            points[core_ids], weights, radius, oracle_rng
        )
        total_oracle = oracles.shuffled_greedy_cover(points, weights, radius, oracle_rng)
        assert cover.m_dense <= 2 * dense_oracle
        assert dense_oracle <= 2 * cover.m_dense
        assert cover.m_total <= 2 * total_oracle
        assert total_oracle <= 2 * cover.m_total
        assert cover.m_dense <= cover.m_total

    def test_validation(self):
        index = flat_index(np.zeros((1, 1)), [0], [0.0], 0.1)
        with pytest.raises(ValueError):
            estimate_covering_number(index, n_wedge=0)
        empty = build_index([], gamma=0.9, metric_weights=np.ones(1), radius=0.1)
        with pytest.raises(ValueError, match="no points"):
            estimate_covering_number(empty, n_wedge=1)


class TestDiscreteAgreement:
    def test_one_hot_embedding_reproduces_discrete_gate(self):
        rng = np.random.default_rng(12)
        mdp = random_mdp(rng, num_states=5, num_actions=2, gamma=0.9)
        ds = simulate(
            mdp, uniform_behavior(5, 2), num_trajectories=15, horizon=6, master_seed=21
        )
        counts = count_visits(ds, EVERY_VISIT)
        est = monte_carlo_estimates(ds, 0.9, EVERY_VISIT)
        n_wedge = 2
        dp = identify_decision_points(counts, est, n_wedge)

        eye = np.eye(5)
        trajs = [
            ContinuousTrajectory(
                states=eye[t.states], actions=t.actions, rewards=t.rewards
            )
            for t in ds
        ]
        index = build_index(trajs, gamma=0.9, metric_weights=np.ones(5), radius=0.5)
        for s in range(5):
            verdict = query(index, eye[s], n_wedge=n_wedge, neighbor_mode=NEIGHBOR_ALL)
            advantaged = {
                a
                for a, q in verdict.q_estimates.items()
                if verdict.action_counts[a] >= n_wedge and q >= verdict.v_estimate
            }
            assert advantaged == set(np.flatnonzero(dp.gate[s]).tolist())
            # identical multisets in identical order: bitwise-equal means
            if not np.isnan(est.v_hat[s]):
                assert verdict.v_estimate == est.v_hat[s]
            for a, q in verdict.q_estimates.items():
                assert q == est.q_hat[s, a]

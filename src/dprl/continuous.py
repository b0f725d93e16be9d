"""Neighbor-based decision-point queries for vector-valued states.

States live in ``R^d`` under a weighted Euclidean metric
``d(s, s')**2 = sum_j w_j * (s_j - s'_j)**2``; actions are still discrete
and never mix (two points with different actions are never neighbors for
action-level statistics).  Every logged timestep is stored with its
discounted suffix return, and value estimates at a query state are plain
averages over the radius neighborhood.  A query defers whenever the state
neighborhood is too small or no action passes both the count and the
advantage gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .balltree import BallTree
from .discrete import advantage_mask
from .estimation import (
    EVERY_VISIT,
    FIRST_VISIT,
    _visit_means,
    segment_ids,
    segment_suffix_returns,
)
from .mdp import COUNT, FRACTION, RADIUS, _int_ids, _read_only, _reals, check, one_of

NEIGHBOR_ALL = "all"
NEIGHBOR_FIRST = "first-per-trajectory"
_NEIGHBOR_MODE = one_of(NEIGHBOR_ALL, NEIGHBOR_FIRST)


@dataclass
class ContinuousTrajectory:
    """One logged episode with vector states."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self) -> None:
        self.states = _reals(self.states, "states")
        self.actions = _int_ids(self.actions, "actions")
        self.rewards = _reals(self.rewards, "rewards")
        if self.states.ndim != 2:
            raise ValueError("states must be (T, d)")
        if not (len(self.states) == len(self.actions) == len(self.rewards)):
            raise ValueError("states, actions and rewards must have equal length")


@dataclass
class ContinuousVerdict:
    """Outcome of one query: an action index, or ``None`` meaning defer.

    Estimates are reported for whatever was computable: ``v_estimate`` is
    ``None`` only when the state neighborhood is empty, and ``q_estimates``
    contains entries only for actions with at least one neighbor.
    """

    decision: int | None
    v_estimate: float | None
    q_estimates: dict[int, float]
    action_counts: dict[int, int]
    state_count: int

    @property
    def deferred(self) -> bool:
        return self.decision is None


class NeighborIndex:
    """Radius-searchable store of logged timesteps and their returns.

    A radius query is one exact vectorised scan over the stored points,
    O(K·d) per query; building the index does no search-structure work.
    The index takes its arrays read-only, without copying them, so a float64
    or int64 array passed in becomes read-only itself.

    Attributes:
        states: ``(K, d)`` raw state vectors in insertion order, which is
            trajectory-major and time-minor.
        actions / returns / trajectory_ids: ``(K,)`` aligned; trajectory
            ids may be any integers but must not decrease.
        metric_weights: ``(d,)`` positive, finite per-dimension weights.
        radius: neighborhood radius in the weighted metric.
    """

    def __init__(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        returns: np.ndarray,
        trajectory_ids: np.ndarray,
        metric_weights: np.ndarray,
        radius: float,
    ) -> None:
        self.states = _reals(states, "states")
        self.actions = _int_ids(actions, "actions")
        self.returns = _reals(returns, "returns")
        self.trajectory_ids = _int_ids(trajectory_ids, "trajectory_ids")
        self.metric_weights = _reals(metric_weights, "metric_weights")
        w = self.metric_weights
        if w.ndim != 1 or not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("metric_weights must be positive and finite per dimension")
        if self.states.ndim != 2 or self.states.shape[1] != len(w):
            raise ValueError("state dimension does not match metric_weights")
        for name in ("actions", "returns", "trajectory_ids"):
            if getattr(self, name).shape != (len(self.states),):
                raise ValueError(f"{name} must be 1-d with one entry per state")
        if (self.trajectory_ids[1:] < self.trajectory_ids[:-1]).any():
            raise ValueError("trajectory_ids must not decrease: the index is trajectory-major")
        for name in ("states", "returns"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        self.radius = float(check("radius", radius, RADIUS))
        for name in ("states", "actions", "returns", "trajectory_ids", "metric_weights"):
            _read_only(getattr(self, name))  # _scale and _universe derive from them
        self._scale = np.sqrt(w)
        self._universe = tuple(np.unique(self.actions).tolist())

    def __len__(self) -> int:
        return len(self.states)

    def action_universe(self) -> tuple[int, ...]:
        return self._universe

    def neighbors(self, state: np.ndarray) -> np.ndarray:
        """Indices of stored points within ``radius`` (inclusive), ascending.

        The distance is ``BallTree``'s per-point test on scaled points, so
        results equal a tree search over ``states * sqrt(metric_weights)``.
        A state of the wrong shape, of strings or bools, or with a NaN or
        infinite coordinate raises ``ValueError``.
        """
        state = _reals(state, "state")
        if state.shape != self._scale.shape:
            raise ValueError(f"state must have shape {self._scale.shape}, got {state.shape}")
        if not np.isfinite(state).all():
            raise ValueError(f"state must be finite, got {state.tolist()}")
        dist = np.sqrt(((self.states * self._scale - state * self._scale) ** 2).sum(axis=1))
        return np.flatnonzero(dist <= self.radius)


def build_index(
    trajectories: Sequence[ContinuousTrajectory],
    gamma: float,
    metric_weights: np.ndarray,
    radius: float,
) -> NeighborIndex:
    """Store every timestep of every trajectory with its suffix return."""
    check("gamma", gamma, FRACTION)
    metric_weights = _reals(metric_weights, "metric_weights")
    trajectories = list(trajectories)  # read several times below
    if any(traj.states.shape[1] != len(metric_weights) for traj in trajectories):
        raise ValueError("trajectory state dimension does not match metric_weights")
    lengths = np.array([len(traj.actions) for traj in trajectories], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    all_states = np.concatenate([np.empty((0, metric_weights.size)), *(t.states for t in trajectories)])
    all_actions = np.concatenate([np.empty(0, np.int64), *(t.actions for t in trajectories)])
    rewards = np.concatenate([np.empty(0), *(t.rewards for t in trajectories)])
    all_returns = segment_suffix_returns(rewards, offsets, gamma)
    return NeighborIndex(
        states=all_states,
        actions=all_actions,
        returns=all_returns,
        trajectory_ids=segment_ids(offsets),
        metric_weights=metric_weights,
        radius=radius,
    )


def query(
    index: NeighborIndex,
    state: np.ndarray,
    n_wedge: int,
    neighbor_mode: str = NEIGHBOR_ALL,
) -> ContinuousVerdict:
    """Decide at a query state from its radius neighborhood, or defer.

    The tabular estimator and gate, applied to the neighborhood: each
    action is a key, each source trajectory a visit group, and
    ``NEIGHBOR_FIRST``/``NEIGHBOR_ALL`` count visits the way first-visit and
    every-visit estimation do.  Defers when the neighborhood holds at most
    ``n_wedge`` points or :func:`advantage_mask` passes no action; otherwise
    returns the passing action with the highest estimate, ties to the lowest
    action index.
    """
    check("n_wedge", n_wedge, COUNT)
    check("neighbor_mode", neighbor_mode, _NEIGHBOR_MODE)
    mode = FIRST_VISIT if neighbor_mode == NEIGHBOR_FIRST else EVERY_VISIT
    hits = index.neighbors(state)
    universe = index.action_universe()
    # Key 0 is the state and key 1 + i action universe[i]: one grouping gives
    # v_hat and every q_hat.  Hits ascend, so their trajectory ids do not decrease.
    actions = 1 + np.searchsorted(universe, index.actions[hits])
    means, sizes = _visit_means(
        np.concatenate([np.zeros_like(actions), actions]),
        np.tile(index.returns[hits], 2),
        np.tile(index.trajectory_ids[hits], 2),
        mode,
        1 + len(universe),
    )
    v_hat, q_hat, state_count, counts = means[0], means[1:], sizes[0], sizes[1:]
    passing = advantage_mask(counts, q_hat, v_hat, n_wedge)
    decision = None
    if state_count > n_wedge and passing.any():
        decision = universe[int(np.where(passing, q_hat, -np.inf).argmax())]
    return ContinuousVerdict(
        decision=decision,
        v_estimate=float(v_hat) if state_count else None,
        q_estimates={a: float(q) for a, q, n in zip(universe, q_hat, counts) if n},
        action_counts=dict(zip(universe, counts.tolist())),
        state_count=int(state_count),
    )


@dataclass
class CoveringNumbers:
    """Greedy ball-cover sizes of the stored points.

    ``m_dense`` covers only the dense-region points (those with at least
    ``n_wedge`` same-action neighbors within the radius, themselves
    included); ``m_total`` extends that same cover to every stored point, so
    ``m_dense <= m_total`` holds by construction.  Actions partition the
    space: a ball never covers points of another action.
    """

    m_dense: int
    m_total: int


def estimate_covering_number(index: NeighborIndex, n_wedge: int) -> CoveringNumbers:
    """Greedy radius-ball covers of the dense region and the whole index."""
    check("n_wedge", n_wedge, COUNT)
    if len(index) == 0:
        raise ValueError("index holds no points")
    m_dense = m_total = 0
    for a in index.action_universe():
        pts = index.states[index.actions == a] * index._scale
        tree = BallTree(pts)
        core = np.flatnonzero([len(tree.query_radius(p, index.radius)) >= n_wedge for p in pts])
        # Greedy centres over the core points first, then over all points: the
        # first part covers the dense region, the whole extends it everywhere.
        covered = np.zeros(len(pts), dtype=bool)
        for k, i in enumerate(np.concatenate([core, np.arange(len(pts))]).tolist()):
            if not covered[i]:
                covered[tree.query_radius(pts[i], index.radius)] = True
                m_dense += k < len(core)
                m_total += 1
    return CoveringNumbers(m_dense=m_dense, m_total=m_total)

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

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .balltree import BallTree
from .estimation import segment_suffix_returns

NEIGHBOR_ALL = "all"
NEIGHBOR_FIRST = "first-per-trajectory"
_NEIGHBOR_MODES = (NEIGHBOR_ALL, NEIGHBOR_FIRST)


@dataclass
class ContinuousTrajectory:
    """One logged episode with vector states."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
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

    Attributes:
        states: ``(K, d)`` raw state vectors in insertion order, which is
            trajectory-major and time-minor.
        actions / returns / trajectory_ids / time_indices: ``(K,)`` aligned.
        metric_weights: ``(d,)`` positive per-dimension weights.
        radius: neighborhood radius in the weighted metric.
    """

    def __init__(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        returns: np.ndarray,
        trajectory_ids: np.ndarray,
        time_indices: np.ndarray,
        metric_weights: np.ndarray,
        radius: float,
        leaf_size: int = 16,
    ) -> None:
        self.states = np.asarray(states, dtype=np.float64)
        self.actions = np.asarray(actions, dtype=np.int64)
        self.returns = np.asarray(returns, dtype=np.float64)
        self.trajectory_ids = np.asarray(trajectory_ids, dtype=np.int64)
        self.time_indices = np.asarray(time_indices, dtype=np.int64)
        self.metric_weights = np.asarray(metric_weights, dtype=np.float64)
        if self.metric_weights.ndim != 1 or np.any(self.metric_weights <= 0):
            raise ValueError("metric_weights must be positive per dimension")
        if self.states.ndim != 2 or self.states.shape[1] != len(self.metric_weights):
            raise ValueError("state dimension does not match metric_weights")
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.radius = float(radius)
        self.leaf_size = leaf_size
        self._scale = np.sqrt(self.metric_weights)
        self._scaled = self.states * self._scale[None, :]
        self._tree = BallTree(self._scaled, leaf_size=leaf_size)

    def __len__(self) -> int:
        return len(self.states)

    def action_universe(self) -> tuple[int, ...]:
        return tuple(int(a) for a in np.unique(self.actions))

    def neighbors(self, state: np.ndarray) -> np.ndarray:
        """Indices of stored points within ``radius``, ascending."""
        scaled = np.asarray(state, dtype=np.float64) * self._scale
        return self._tree.query_radius(scaled, self.radius)

    def save(self, path: str | Path) -> None:
        """Persist raw points; trees are rebuilt on load."""
        payload = {
            "format": "neighbor-index",
            "metric_weights": self.metric_weights.tolist(),
            "radius": self.radius,
            "leaf_size": self.leaf_size,
            "points": [
                {
                    "state": self.states[i].tolist(),
                    "action": int(self.actions[i]),
                    "return": float(self.returns[i]),
                    "trajectory": int(self.trajectory_ids[i]),
                    "time": int(self.time_indices[i]),
                }
                for i in range(len(self))
            ],
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")

    @staticmethod
    def load(path: str | Path) -> "NeighborIndex":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("format") != "neighbor-index":
            raise ValueError("not a neighbor-index file")
        points = payload["points"]
        dim = len(payload["metric_weights"])
        states = np.array([p["state"] for p in points], dtype=np.float64).reshape(len(points), dim)
        return NeighborIndex(
            states=states,
            actions=np.array([p["action"] for p in points], dtype=np.int64),
            returns=np.array([p["return"] for p in points], dtype=np.float64),
            trajectory_ids=np.array([p["trajectory"] for p in points], dtype=np.int64),
            time_indices=np.array([p["time"] for p in points], dtype=np.int64),
            metric_weights=np.array(payload["metric_weights"], dtype=np.float64),
            radius=float(payload["radius"]),
            leaf_size=int(payload["leaf_size"]),
        )


def build_index(
    trajectories: Sequence[ContinuousTrajectory],
    gamma: float,
    metric_weights: np.ndarray,
    radius: float,
    leaf_size: int = 16,
) -> NeighborIndex:
    """Store every timestep of every trajectory with its suffix return."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    metric_weights = np.asarray(metric_weights, dtype=np.float64)
    trajectories = list(trajectories)  # read several times below
    if any(traj.states.shape[1] != len(metric_weights) for traj in trajectories):
        raise ValueError("trajectory state dimension does not match metric_weights")
    lengths = np.array([len(traj.actions) for traj in trajectories], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    all_states = np.concatenate([np.empty((0, metric_weights.size)), *(t.states for t in trajectories)])
    all_actions = np.concatenate([np.empty(0, np.int64), *(t.actions for t in trajectories)])
    rewards = np.concatenate([np.empty(0), *(t.rewards for t in trajectories)])
    all_returns = segment_suffix_returns(rewards, offsets, gamma)
    all_times = np.arange(len(all_actions)) - np.repeat(offsets[:-1], lengths)
    return NeighborIndex(
        states=all_states,
        actions=all_actions,
        returns=all_returns,
        trajectory_ids=np.repeat(np.arange(len(lengths)), lengths),
        time_indices=all_times,
        metric_weights=metric_weights,
        radius=radius,
        leaf_size=leaf_size,
    )


def _first_per_trajectory(index: NeighborIndex, candidate_ids: np.ndarray) -> np.ndarray:
    """Keep only the earliest in-ball point of each source trajectory.

    Candidates arrive ascending; insertion order is time-ordered within a
    trajectory, so the first id seen per trajectory is the earliest.
    """
    keep: list[int] = []
    seen: set[int] = set()
    for i in candidate_ids:
        n = int(index.trajectory_ids[i])
        if n not in seen:
            seen.add(n)
            keep.append(int(i))
    return np.asarray(keep, dtype=np.int64)


def query(
    index: NeighborIndex,
    state: np.ndarray,
    n_wedge: int,
    neighbor_mode: str = NEIGHBOR_ALL,
) -> ContinuousVerdict:
    """Decide at a query state from its radius neighborhood, or defer.

    Defers when the state neighborhood holds at most ``n_wedge`` points, or
    when no action has both more than enough neighbors (at least
    ``n_wedge``) and an estimated value at least the state estimate.
    Otherwise returns the advantageous action with the highest estimate,
    ties to the lowest action index.
    """
    if n_wedge < 1:
        raise ValueError("n_wedge must be >= 1")
    if neighbor_mode not in _NEIGHBOR_MODES:
        raise ValueError(f"neighbor_mode must be one of {_NEIGHBOR_MODES}")
    hits = index.neighbors(state)
    if neighbor_mode == NEIGHBOR_FIRST:
        state_ids = _first_per_trajectory(index, hits)
    else:
        state_ids = hits
    state_count = int(len(state_ids))
    v_estimate = float(np.mean(index.returns[state_ids])) if state_count else None

    q_estimates: dict[int, float] = {}
    action_counts: dict[int, int] = {}
    for a in index.action_universe():
        a_ids = hits[index.actions[hits] == a]
        if neighbor_mode == NEIGHBOR_FIRST:
            a_ids = _first_per_trajectory(index, a_ids)
        action_counts[a] = int(len(a_ids))
        if len(a_ids):
            q_estimates[a] = float(np.mean(index.returns[a_ids]))

    if state_count <= n_wedge or v_estimate is None:
        return ContinuousVerdict(None, v_estimate, q_estimates, action_counts, state_count)
    decision = None
    best = -np.inf
    for a in sorted(q_estimates):
        if action_counts[a] >= n_wedge and q_estimates[a] >= v_estimate and q_estimates[a] > best:
            best = q_estimates[a]
            decision = a
    return ContinuousVerdict(decision, v_estimate, q_estimates, action_counts, state_count)


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
    if n_wedge < 1:
        raise ValueError("n_wedge must be >= 1")
    if len(index) == 0:
        raise ValueError("index holds no points")
    m_dense = 0
    extra = 0
    for a in index.action_universe():
        local_ids = np.nonzero(index.actions == a)[0]
        pts = index._scaled[local_ids]
        tree = BallTree(pts, leaf_size=index.leaf_size)
        neighbor_counts = np.array(
            [len(tree.query_radius(pts[i], index.radius)) for i in range(len(local_ids))]
        )
        core = neighbor_counts >= n_wedge
        covered = np.zeros(len(local_ids), dtype=bool)
        for i in np.nonzero(core)[0]:
            if covered[i]:
                continue
            covered[tree.query_radius(pts[i], index.radius)] = True
            m_dense += 1
        for i in range(len(local_ids)):
            if covered[i]:
                continue
            covered[tree.query_radius(pts[i], index.radius)] = True
            extra += 1
    return CoveringNumbers(m_dense=m_dense, m_total=m_dense + extra)

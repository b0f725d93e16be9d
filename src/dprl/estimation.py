"""Visit counting and Monte-Carlo value estimation from logged trajectories.

Estimates are never imputed: a state or pair with no qualifying visits gets
``nan``.  Returns from truncated trajectories are used as-is, which biases
values low by at most ``gamma**len * v_max``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import TrajectoryDataset

FIRST_VISIT = "first-visit"
EVERY_VISIT = "every-visit"
VISIT_MODES = (FIRST_VISIT, EVERY_VISIT)


@dataclass
class CountTable:
    """Dataset visit counts per (state, action) pair.

    ``n_s`` is the row sum of ``n_sa``, so in first-visit mode it counts
    (trajectory, action-at-state) combinations rather than trajectories
    touching the state.
    """

    n_sa: np.ndarray

    @property
    def n_s(self) -> np.ndarray:
        return self.n_sa.sum(axis=1)


@dataclass
class ValueEstimates:
    """Monte-Carlo state and pair values; ``nan`` marks a value without support.

    Attributes:
        v_hat: ``(S,)`` values, ``nan`` where no trajectory visited the state.
        q_hat: ``(S, A)`` values, ``nan`` where the pair was never observed.
    """

    v_hat: np.ndarray
    q_hat: np.ndarray


def segment_suffix_returns(rewards: np.ndarray, offsets: np.ndarray, gamma: float) -> np.ndarray:
    """Discounted suffix returns within each segment ``offsets[i]:offsets[i + 1]``.

    One backward recurrence ``acc = r_t + gamma * acc`` steps all segments at
    once, so each return is the same float a per-segment loop gives.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    order = np.argsort(-lengths, kind="stable")
    ends, lengths = offsets[1:][order], lengths[order]
    out = np.empty_like(rewards)
    acc = np.zeros(len(ends))
    # live[k - 1] segments have a k-th step from the end.
    live = np.searchsorted(-lengths, -np.arange(1, lengths.max(initial=0) + 1), side="right")
    for k, m in enumerate(live.tolist(), start=1):
        steps = ends[:m] - k
        acc[:m] = rewards[steps] + gamma * acc[:m]
        out[steps] = acc[:m]
    return out


def segment_ids(offsets: np.ndarray) -> np.ndarray:
    """Per step, the index of its segment ``offsets[i]:offsets[i + 1]``."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _check_mode(mode: str) -> None:
    if mode not in VISIT_MODES:
        raise ValueError(f"mode must be one of {VISIT_MODES}, got {mode!r}")


def _first_visits(keys: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Ascending steps of the first visit to each (key, group); group ids are nonnegative."""
    return np.sort(np.unique(keys * (groups.max(initial=-1) + 1) + groups, return_index=True)[1])


def _visit_means(keys, values, groups, mode: str, num_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-key mean of ``values`` over the steps ``mode`` counts, and how many there were.

    A key nobody visited gets mean nan and count 0.  Each key's values are
    reduced as one contiguous slice in step order, exactly as ``np.mean`` of
    that key's list would be (numpy sums pairwise).
    """
    steps = _first_visits(keys, groups) if mode == FIRST_VISIT else np.arange(len(keys))
    steps = steps[np.argsort(keys[steps], kind="stable")]
    keys, values = keys[steps], values[steps]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    bounds = np.append(starts, len(keys))
    means = np.full(num_keys, np.nan)
    sizes = np.zeros(num_keys, dtype=np.int64)
    cuts = bounds.tolist()
    means[keys[starts]] = [np.mean(values[a:b]) for a, b in zip(cuts, cuts[1:])]
    sizes[keys[starts]] = np.diff(bounds)
    return means, sizes


def count_visits(dataset: TrajectoryDataset, mode: str = FIRST_VISIT) -> CountTable:
    """Count (state, action) occurrences across the dataset.

    First-visit mode counts each pair at most once per trajectory, at the
    first time that action is taken in that state.
    """
    _check_mode(mode)
    num_states, num_actions = dataset.num_states, dataset.num_actions
    pairs = dataset.states * num_actions + dataset.actions
    if mode == FIRST_VISIT:
        pairs = pairs[_first_visits(pairs, segment_ids(dataset.offsets))]
    n_sa = np.bincount(pairs, minlength=num_states * num_actions).reshape(num_states, num_actions)
    return CountTable(n_sa=n_sa)


def monte_carlo_estimates(
    dataset: TrajectoryDataset, gamma: float, mode: str = FIRST_VISIT
) -> ValueEstimates:
    """Estimate behavior values by averaging discounted suffix returns.

    In first-visit mode, ``v_hat(s)`` averages one return per trajectory that
    visits ``s`` (from the first visit) and ``q_hat(s, a)`` averages one
    return per trajectory in which ``a`` is taken at ``s`` (from the first
    such time).  Every-visit mode averages over all occurrences.
    """
    _check_mode(mode)
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    num_states, num_actions = dataset.num_states, dataset.num_actions
    returns = segment_suffix_returns(dataset.rewards, dataset.offsets, gamma)
    trajs = segment_ids(dataset.offsets)
    v_hat = _visit_means(dataset.states, returns, trajs, mode, num_states)[0]
    pairs = dataset.states * num_actions + dataset.actions
    q_hat = _visit_means(pairs, returns, trajs, mode, num_states * num_actions)[0]
    return ValueEstimates(v_hat=v_hat, q_hat=q_hat.reshape(num_states, num_actions))

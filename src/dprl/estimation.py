"""Visit counting and Monte-Carlo value estimation from logged trajectories.

Estimates are never imputed: a state or pair with no qualifying visits gets
``nan``.  Returns from truncated trajectories are used as-is, which biases
values low by at most ``gamma**len * v_max``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import FRACTION, TrajectoryDataset, _read_only, check, one_of

FIRST_VISIT = "first-visit"
EVERY_VISIT = "every-visit"
VISIT_MODES = (FIRST_VISIT, EVERY_VISIT)
VISIT_MODE = one_of(*VISIT_MODES)


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


def longest_first(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segments ordered longest first (stable), and ``live[k]``, how many are longer than ``k``.

    So the first ``live[k]`` segments in ``order`` are those with a step at
    position ``k``, for every ``k`` below the longest length.
    """
    order = np.argsort(-lengths, kind="stable")
    return order, np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)))


def segment_suffix_returns(rewards: np.ndarray, offsets: np.ndarray, gamma: float) -> np.ndarray:
    """Discounted suffix returns within each segment ``offsets[i]:offsets[i + 1]``.

    One backward recurrence ``acc = r_t + gamma * acc`` steps all segments at
    once, so each return is the same float a per-segment loop gives.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    order, live = longest_first(np.diff(offsets))
    ends = offsets[1:][order]
    out = np.empty_like(rewards)
    acc = np.zeros(len(ends))
    # live[k - 1] segments have a k-th step from the end.
    for k, m in enumerate(live.tolist(), start=1):
        steps = ends[:m] - k
        acc[:m] = rewards[steps] + gamma * acc[:m]
        out[steps] = acc[:m]
    return out


def segment_ids(offsets: np.ndarray) -> np.ndarray:
    """Per step, the index of its segment ``offsets[i]:offsets[i + 1]``."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _first_in_order(order: np.ndarray, keys: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """``order`` (the steps stably sorted by key) cut to the first visit to each (key, group).

    Within a key, groups must not decrease in step order (as trajectory ids
    in trajectory-major data do), so each group arrives as one run and its
    first visit is where the run changes.
    """
    k, g = keys[order], groups[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (k[1:] != k[:-1]) | (g[1:] != g[:-1])
    return order[first]


def segment_reduce(values: np.ndarray, sizes: np.ndarray, reduce=np.ndarray.mean) -> np.ndarray:
    """``reduce`` of each consecutive run of ``sizes[i]`` values, bit for bit; nan where 0.

    ``reduce`` is ``np.ndarray.mean`` (visit means) or ``np.ndarray.sum``
    (SPIBB's free mass).  The runs of one length are gathered as the rows of
    one array and reduced along ``axis=1``, which reduces each row as numpy
    reduces that run alone.
    """
    out = np.full(len(sizes), np.nan)
    starts = np.cumsum(sizes) - sizes
    for n in np.unique(sizes[sizes > 0]).tolist():
        runs = np.flatnonzero(sizes == n)
        out[runs] = reduce(values[starts[runs, None] + np.arange(n)], axis=1)
    return out


def _visit_means(keys, values, groups, mode: str, num_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-key mean of ``values`` over the steps ``mode`` counts, and how many there were.

    Keys lie in ``[0, num_keys)``; groups are visit-group ids that do not
    decrease in step order within a key.
    A key nobody visited gets mean nan and count 0.  Each key's values are
    reduced in step order, exactly as ``np.mean`` of that key's list would be.
    """
    order = np.argsort(keys, kind="stable")
    if mode == FIRST_VISIT:
        order = _first_in_order(order, keys, groups)
    sizes = np.bincount(keys[order], minlength=num_keys)
    return segment_reduce(values[order], sizes), sizes


class VisitIndex:
    """Where each trajectory of one dataset visits each state and pair.

    Reach it as ``dataset.visits``.  Keys are ``"state"`` (the state id) or
    ``"pair"`` (``state * num_actions + action``).  One stable sort per key
    kind groups the steps by key; each trajectory's first visits are read
    off that order.  So counting, Monte-Carlo estimation (for any gamma),
    elevation, the MLE model and the clone all share it.  Parts are built
    on first use, kept, and returned read-only; the dataset's columns cannot
    change under them.
    """

    def __init__(self, dataset: TrajectoryDataset) -> None:
        num_states, num_actions = dataset.num_states, dataset.num_actions
        self._rewards, self._offsets = dataset.rewards, dataset.offsets
        self.trajectory = _read_only(segment_ids(dataset.offsets))
        self.keys = {"state": dataset.states,
                     "pair": _read_only(dataset.states * num_actions + dataset.actions)}
        self._num_keys = {"state": num_states, "pair": num_states * num_actions}
        self._cache: dict = {}

    def cached(self, key, build):
        """``build()``, made on the first call with ``key`` and kept; an array is kept read-only."""
        if key not in self._cache:
            value = self._cache[key] = build()
            if isinstance(value, np.ndarray):
                _read_only(value)
        return self._cache[key]

    def returns(self, gamma: float) -> np.ndarray:
        """Each step's discounted suffix return within its trajectory."""
        return self.cached(("returns", gamma),
                            lambda: segment_suffix_returns(self._rewards, self._offsets, gamma))

    def order(self, kind: str, mode: str) -> np.ndarray:
        """The steps ``mode`` counts, grouped by ascending key, ascending within a key."""
        if mode == EVERY_VISIT:
            return self.cached((kind, mode), lambda: np.argsort(self.keys[kind], kind="stable"))
        return self.cached((kind, mode), lambda: _first_in_order(
            self.order(kind, EVERY_VISIT), self.keys[kind], self.trajectory))

    def counts(self, kind: str, mode: str) -> np.ndarray:
        """``(num_keys,)`` steps ``mode`` counts per key."""
        keys = self.keys[kind]
        return self.cached(("counts", kind, mode), lambda: np.bincount(
            keys if mode == EVERY_VISIT else keys[self.order(kind, mode)],
            minlength=self._num_keys[kind]))

    def means(self, kind: str, mode: str, gamma: float) -> np.ndarray:
        """``(num_keys,)`` mean suffix return over the steps ``mode`` counts; nan if none."""
        return segment_reduce(self.returns(gamma)[self.order(kind, mode)], self.counts(kind, mode))


def count_visits(dataset: TrajectoryDataset, mode: str = FIRST_VISIT) -> CountTable:
    """Count (state, action) occurrences across the dataset.

    First-visit mode counts each pair at most once per trajectory, at the
    first time that action is taken in that state.
    """
    check("mode", mode, VISIT_MODE)
    n_sa = dataset.visits.counts("pair", mode).reshape(dataset.num_states, dataset.num_actions)
    return CountTable(n_sa=n_sa.copy())


def monte_carlo_estimates(
    dataset: TrajectoryDataset, gamma: float, mode: str = FIRST_VISIT
) -> ValueEstimates:
    """Estimate behavior values by averaging discounted suffix returns.

    In first-visit mode, ``v_hat(s)`` averages one return per trajectory that
    visits ``s`` (from the first visit) and ``q_hat(s, a)`` averages one
    return per trajectory in which ``a`` is taken at ``s`` (from the first
    such time).  Every-visit mode averages over all occurrences.
    """
    check("mode", mode, VISIT_MODE)
    check("gamma", gamma, FRACTION)
    visits = dataset.visits
    q_hat = visits.means("pair", mode, gamma).reshape(dataset.num_states, dataset.num_actions)
    return ValueEstimates(v_hat=visits.means("state", mode, gamma), q_hat=q_hat)

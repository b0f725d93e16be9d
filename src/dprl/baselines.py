"""Tabular baseline learners: SPIBB-style, density-filtered, and cloning.

All three train on the same logged datasets as the decision-point pipeline
and output full per-state action distributions, so they plug into the same
exact evaluator.  Model-based pieces share one maximum-likelihood model of
the MDP; pairs never observed get an all-zero transition row, which behaves
like a transition to a zero-value sink.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .estimation import EVERY_VISIT, count_visits, segment_reduce
from .mdp import FRACTION, BehaviorPolicy, TrajectoryDataset, _read_only, check, rule
from .solvers import bellman_system, discounted_lookahead, policy_iteration


@dataclass(frozen=True)
class MleModel:
    """Empirical MDP estimate from a dataset.

    ``n_sa`` counts every reward observation.  ``p_hat`` divides successor
    counts by the steps of each pair that have a recorded successor, so a
    trajectory's final step (whose arrival state is not logged) contributes
    a reward but no transition, and a pair seen only there keeps an all-zero
    row.  The model holds one ``(S, A, S)`` table, ``p_hat``.  Its tables
    are read-only, so every learner of a dataset can share one fit.
    """

    p_hat: np.ndarray
    r_hat: np.ndarray
    n_sa: np.ndarray

    def __post_init__(self) -> None:
        for table in (self.p_hat, self.r_hat, self.n_sa):
            _read_only(table)


def fit_mle_model(dataset: TrajectoryDataset) -> MleModel:
    """Maximum-likelihood transition and mean-reward tables, fitted once per dataset.

    The model is kept on ``dataset.visits``, so the dataset's learners share
    it.  Rewards are summed in dataset order.  The ``(S, A, S)`` table is
    only written where a transition was seen, so untouched pages stay unmapped.
    """
    return dataset.visits.cached("mle", lambda: _fit_mle_model(dataset))


def _fit_mle_model(dataset: TrajectoryDataset) -> MleModel:
    num_states, num_actions = dataset.num_states, dataset.num_actions
    num_pairs = num_states * num_actions
    states, rewards, offsets = dataset.states, dataset.rewards, dataset.offsets
    pairs = dataset.visits.keys["pair"]
    n_sa = count_visits(dataset, EVERY_VISIT).n_sa
    reward_sums = np.bincount(pairs, weights=rewards, minlength=num_pairs)  # int when empty
    reward_sums = reward_sums.astype(np.float64, copy=False).reshape(num_states, num_actions)
    has_next = np.ones(len(states), dtype=bool)  # all but each trajectory's last step
    has_next[offsets[1:][offsets[1:] > 0] - 1] = False
    step = np.flatnonzero(has_next)
    seen, counts = np.unique(pairs[step] * num_states + states[step + 1], return_counts=True)
    successor_totals = np.bincount(pairs[step], minlength=num_pairs)
    p_hat = np.zeros((num_states, num_actions, num_states))
    p_hat.flat[seen] = counts / successor_totals[seen // num_states]
    r_hat = np.zeros_like(reward_sums)
    np.divide(reward_sums, n_sa, out=r_hat, where=n_sa > 0)
    return MleModel(p_hat=p_hat, r_hat=r_hat, n_sa=n_sa)


def _model_scores(model: MleModel, rows: np.ndarray, gamma: float) -> np.ndarray:
    """``r_hat + gamma * P_hat v`` for the values ``v`` of ``rows`` on the model."""
    p_pi = np.einsum("sa,sat->st", rows, model.p_hat)
    values = np.linalg.solve(bellman_system(p_pi, gamma), (model.r_hat * rows).sum(axis=1))
    del p_pi  # free the system before the lookahead's block buffer exists
    return model.r_hat + discounted_lookahead(model.p_hat, values, gamma)


# SPIBB's n_wedge; inf keeps every behavior row.
N_WEDGE = rule("a number >= 1", numbers.Real, lambda v: v >= 1)


def train_spibb(
    dataset: TrajectoryDataset,
    behavior,
    n_wedge,
    gamma: float,
    model: MleModel | None = None,
) -> BehaviorPolicy:
    """Constrained policy iteration keeping behavior mass on rare pairs.

    Probability mass on pairs with fewer than ``n_wedge`` observations is
    copied from ``behavior.action_probabilities`` (true rows, or an estimate
    such as a cloned policy); the remaining mass concentrates on the best
    sufficiently observed action under the learned model, chosen greedily
    on the behavior rows' values and then by :func:`solvers.policy_iteration`.
    ``n_wedge`` must be a number >= 1: ``n_wedge=inf`` returns the behavior
    exactly, and ``n_wedge=1`` on full coverage is plain greedy policy
    iteration on the learned model.
    """
    check("gamma", gamma, FRACTION)
    check("n_wedge", n_wedge, N_WEDGE)
    if model is None:
        model = fit_mle_model(dataset)
    behavior_rows = behavior.action_probabilities
    if behavior_rows.shape != model.n_sa.shape:
        raise ValueError(f"behavior rows have shape {behavior_rows.shape}, "
                         f"the model has (states, actions) {model.n_sa.shape}")
    free = model.n_sa >= n_wedge
    # Sum each state's free behavior mass as its compacted row, as numpy would.
    num_free = free.sum(axis=1)
    free_mass = segment_reduce(behavior_rows[free], num_free, np.ndarray.sum)
    active = np.flatnonzero(num_free > 0)

    def rows_for(policy: np.ndarray) -> np.ndarray:
        rows = np.where(free, 0.0, behavior_rows)
        rows[active, policy[active]] += free_mass[active]
        return rows

    policy, _ = policy_iteration(lambda p: _model_scores(model, rows_for(p), gamma),
                                 free, _model_scores(model, behavior_rows, gamma))
    return BehaviorPolicy(rows_for(policy), kind="spibb", params={"n_wedge": float(n_wedge)})


def train_pqi(
    dataset: TrajectoryDataset,
    density_threshold: float,
    gamma: float,
    model: MleModel | None = None,
) -> BehaviorPolicy:
    """Plan on the learned model after discarding low-density pairs.

    Pairs whose empirical visit density falls below ``density_threshold``
    are filtered: they earn nothing and lead nowhere, i.e. their value is
    pessimistically zero.  Exact policy iteration on the filtered model
    (:func:`solvers.policy_iteration`, from each state's lowest allowed
    action) yields a deterministic policy over surviving pairs; a state
    with no surviving pair falls back to its empirically most frequent
    action, and unseen states fall back to uniform.
    """
    check("density_threshold", density_threshold, FRACTION)
    check("gamma", gamma, FRACTION)
    if model is None:
        model = fit_mle_model(dataset)
    num_states, num_actions = model.n_sa.shape
    total_steps = model.n_sa.sum()  # n_sa counts every step once
    if total_steps == 0:
        raise ValueError("dataset holds no steps")
    surviving = model.n_sa / total_steps >= density_threshold

    # Choice set: surviving actions, else the majority fallback, else (unseen) all.
    seen = model.n_sa.sum(axis=1) > 0
    allowed = surviving.copy()
    fallback = np.flatnonzero(seen & ~surviving.any(axis=1))
    allowed[fallback, np.argmax(model.n_sa[fallback], axis=1)] = True
    allowed[~seen] = True
    states = np.arange(num_states)

    def score(policy: np.ndarray) -> np.ndarray:
        # A filtered pair gets zero weight in the policy's rows and a zero score.
        rows = np.zeros((num_states, num_actions))
        rows[states, policy] = surviving[states, policy]
        return np.where(surviving, _model_scores(model, rows, gamma), 0.0)

    # Zero start scores: the first policy takes each state's lowest allowed action.
    policy, _ = policy_iteration(score, allowed, np.zeros(allowed.shape))
    rows = np.full((num_states, num_actions), 1.0 / num_actions)
    rows[seen] = 0.0
    rows[states[seen], policy[seen]] = 1.0
    return BehaviorPolicy(rows, kind="pqi", params={"density_threshold": density_threshold})


def train_behavior_clone(
    dataset: TrajectoryDataset,
    num_states: int | None = None,
    num_actions: int | None = None,
) -> BehaviorPolicy:
    """Per-state empirical action frequencies; uniform at unseen states.

    Sizes, when given, must equal the dataset's.
    """
    shape = dataset.num_states, dataset.num_actions
    if (num_states, num_actions) not in ((None, None), shape):
        raise ValueError(f"sizes ({num_states}, {num_actions}) differ from the dataset's {shape}")
    n_sa = count_visits(dataset, EVERY_VISIT).n_sa.astype(np.float64)
    rows = np.full(shape, 1.0 / dataset.num_actions)
    visited = n_sa.sum(axis=1) > 0
    rows[visited] = n_sa[visited] / n_sa[visited].sum(axis=1, keepdims=True)
    return BehaviorPolicy(action_probabilities=rows, kind="behavior-clone", params={})

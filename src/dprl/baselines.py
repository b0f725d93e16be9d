"""Tabular baseline learners: SPIBB-style, density-filtered, and cloning.

All three train on the same logged datasets as the decision-point pipeline
and output full per-state action distributions, so they plug into the same
exact evaluator.  Model-based pieces share one maximum-likelihood model of
the MDP; pairs never observed get an all-zero transition row, which behaves
like a transition to a zero-value sink.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .estimation import EVERY_VISIT, count_visits
from .mdp import TrajectoryDataset
from .solvers import bellman_system, discounted_lookahead


@dataclass
class MleModel:
    """Empirical MDP estimate from a dataset.

    ``n_sa`` counts every reward observation.  ``p_hat`` divides successor
    counts by the steps of each pair that have a recorded successor, so a
    trajectory's final step (whose arrival state is not logged) contributes
    a reward but no transition, and a pair seen only there keeps an all-zero
    row.  The model holds one ``(S, A, S)`` table, ``p_hat``.
    """

    p_hat: np.ndarray
    r_hat: np.ndarray
    n_sa: np.ndarray


@dataclass
class BaselinePolicy:
    """Stochastic tabular policy produced by a baseline learner."""

    action_probabilities: np.ndarray
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.action_probabilities = np.asarray(self.action_probabilities, dtype=np.float64)

    def to_json(self) -> str:
        payload = {
            "format": "dprl-policy",
            "kind": self.kind,
            "params": self.params,
            "rows": [[float(p) for p in row] for row in self.action_probabilities],
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "BaselinePolicy":
        payload = json.loads(text)
        if "rows" not in payload:
            raise ValueError("not a stochastic-row policy file")
        if not all(type(p) in (int, float) for row in payload["rows"] for p in row):
            raise ValueError("rows must hold numbers")
        return BaselinePolicy(
            action_probabilities=np.array(payload["rows"], dtype=np.float64),
            kind=payload.get("kind", "unknown"),
            params=payload.get("params", {}),
        )

    def rows(self, behavior_rows: np.ndarray) -> np.ndarray:
        """A copy of the learned rows, which must have the behavior's (S, A) shape."""
        if self.action_probabilities.shape != behavior_rows.shape:
            raise ValueError(f"rows have shape {self.action_probabilities.shape}, "
                             f"the environment needs {behavior_rows.shape}")
        return self.action_probabilities.copy()


def fit_mle_model(dataset: TrajectoryDataset) -> MleModel:
    """Maximum-likelihood transition and mean-reward tables.

    Rewards are summed in dataset order.  The ``(S, A, S)`` table is only
    written where a transition was seen, so untouched pages stay unmapped.
    """
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


def _evaluate_rows_on_model(model: MleModel, rows: np.ndarray, gamma: float) -> np.ndarray:
    r_pi = (model.r_hat * rows).sum(axis=1)
    p_pi = np.einsum("sa,sat->st", rows, model.p_hat)
    return np.linalg.solve(bellman_system(p_pi, gamma), r_pi)


def train_spibb(
    dataset: TrajectoryDataset,
    behavior,
    n_wedge,
    gamma: float,
    model: MleModel | None = None,
) -> BaselinePolicy:
    """Constrained policy iteration keeping behavior mass on rare pairs.

    Probability mass on pairs with fewer than ``n_wedge`` observations is
    copied from ``behavior.action_probabilities`` (true rows, or an estimate
    such as a cloned policy); the remaining mass concentrates on the best
    sufficiently observed action under the learned model.  ``n_wedge=inf``
    therefore returns the behavior exactly, and ``n_wedge=1`` on full
    coverage is plain greedy policy iteration on the learned model.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if model is None:
        model = fit_mle_model(dataset)
    behavior_rows = behavior.action_probabilities
    if behavior_rows.shape != model.n_sa.shape:
        raise ValueError(f"behavior rows have shape {behavior_rows.shape}, "
                         f"the model has (states, actions) {model.n_sa.shape}")
    num_states, num_actions = behavior_rows.shape
    free = model.n_sa >= n_wedge
    # Sum each state's free behavior mass as its compacted row, as numpy would.
    num_free = free.sum(axis=1)
    free_mass = np.zeros(num_states)
    for k in np.unique(num_free[num_free > 0]).tolist():
        group = np.flatnonzero(num_free == k)
        cols = np.nonzero(free[group])[1].reshape(len(group), k)
        free_mass[group] = behavior_rows[group[:, None], cols].sum(axis=1)
    states = np.arange(num_states)

    # chosen[s] = -1 marks states whose whole row stays behavior mass.
    chosen = np.full(num_states, -1, dtype=np.int64)
    rows = behavior_rows.copy()
    for _ in range(200):
        values = _evaluate_rows_on_model(model, rows, gamma)
        q = model.r_hat + discounted_lookahead(model.p_hat, values, gamma)
        best = np.where(free, q, -np.inf).argmax(axis=1)
        # Hold the incumbent on near-ties; flipping between equal-value
        # allocations would never reach exact stability.
        switch = (chosen < 0) | (q[states, best] > q[states, chosen] + 1e-12)
        new_chosen = np.where((num_free > 0) & switch, best, chosen)
        if np.array_equal(new_chosen, chosen):
            break
        chosen = new_chosen
        active = chosen >= 0
        rows = behavior_rows.copy()
        rows[active] = np.where(free[active], 0.0, rows[active])
        rows[states[active], chosen[active]] += free_mass[active]
    else:
        raise RuntimeError("constrained policy iteration did not stabilize")

    return BaselinePolicy(rows, kind="spibb", params={"n_wedge": float(n_wedge)})


def train_pqi(
    dataset: TrajectoryDataset,
    density_threshold: float,
    gamma: float,
    model: MleModel | None = None,
) -> BaselinePolicy:
    """Plan on the learned model after discarding low-density pairs.

    Pairs whose empirical visit density falls below ``density_threshold``
    are filtered: they earn nothing and lead nowhere, i.e. their value is
    pessimistically zero.  Exact policy iteration on the filtered model
    yields a deterministic policy over surviving pairs; a state with no
    surviving pair falls back to its empirically most frequent action, and
    unseen states fall back to uniform.
    """
    if not 0.0 < density_threshold < 1.0:
        raise ValueError("density_threshold must lie in (0, 1)")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if model is None:
        model = fit_mle_model(dataset)
    num_states, num_actions = model.n_sa.shape
    total_steps = model.n_sa.sum()  # n_sa counts every step once
    if total_steps == 0:
        raise ValueError("dataset holds no steps")
    density = model.n_sa / total_steps
    surviving = density >= density_threshold

    # Filtered pairs earn nothing and lead nowhere: their reward, their row
    # of the policy's transition matrix and their lookahead are zeroed.
    r_mod = np.where(surviving, model.r_hat, 0.0)

    # Choice set: surviving actions, else the majority fallback, else (unseen) all.
    seen = model.n_sa.sum(axis=1) > 0
    allowed = surviving.copy()
    fallback = np.flatnonzero(seen & ~surviving.any(axis=1))
    allowed[fallback, np.argmax(model.n_sa[fallback], axis=1)] = True
    allowed[~seen] = True
    states = np.arange(num_states)
    policy = np.argmax(allowed, axis=1)
    for _ in range(num_states * num_actions + 1):
        p_pi = model.p_hat[states, policy]
        p_pi[~surviving[states, policy]] = 0.0
        values = np.linalg.solve(bellman_system(p_pi, gamma), r_mod[states, policy])
        del p_pi  # free the system before the lookahead's block buffer exists
        lookahead = discounted_lookahead(model.p_hat, values, gamma)
        lookahead[~surviving] = 0.0
        q = r_mod + lookahead
        best = np.where(allowed, q, -np.inf).argmax(axis=1)
        # Switch only on strict improvement; ties keep the incumbent.
        switch = q[states, best] > q[states, policy] + 1e-12
        if not switch.any():
            break
        policy = np.where(switch, best, policy)
    else:
        raise RuntimeError("filtered policy iteration did not stabilize")

    rows = np.full((num_states, num_actions), 1.0 / num_actions)
    rows[seen] = 0.0
    rows[states[seen], policy[seen]] = 1.0
    return BaselinePolicy(
        action_probabilities=rows,
        kind="pqi",
        params={"density_threshold": density_threshold},
    )


def train_behavior_clone(
    dataset: TrajectoryDataset,
    num_states: int | None = None,
    num_actions: int | None = None,
) -> BaselinePolicy:
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
    return BaselinePolicy(action_probabilities=rows, kind="behavior-clone", params={})

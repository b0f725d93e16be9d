"""Independent reference implementations used to cross-check the package.

Everything here is written with plain loops and dictionaries on purpose.
The production code is vectorised; these oracles recompute the same
quantities from first principles so that agreement is meaningful.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from dprl.mdp import trajectory_seed


def linear_scan_neighbors(
    points: np.ndarray, weights: np.ndarray, query: np.ndarray, radius: float
) -> np.ndarray:
    """Brute-force radius query under the weighted Euclidean metric."""
    out = []
    for i in range(points.shape[0]):
        acc = 0.0
        for j in range(points.shape[1]):
            diff = points[i, j] - query[j]
            acc += weights[j] * diff * diff
        if math.sqrt(acc) <= radius:
            out.append(i)
    return np.asarray(out, dtype=np.int64)


def straight_line_smdp(
    trajectories, decision_states, gamma: float, tail_mode: str = "absorb"
) -> dict:
    """Recompute elevated-transition statistics one trajectory at a time.

    Returns a dict keyed by (state, action, successor) where successor is an
    int decision state or the string "absorb".  Values are dicts with raw
    count, summed discount, and summed discounted segment reward, plus the
    per-(s, a) normalised averages.
    """
    decision = set(int(s) for s in decision_states)
    table: dict = {}

    def bump(key, disc, gain):
        entry = table.setdefault(key, {"count": 0, "disc": 0.0, "gain": 0.0})
        entry["count"] += 1
        entry["disc"] += disc
        entry["gain"] += gain

    for traj in trajectories:
        states = [int(s) for s in traj.states]
        actions = [int(a) for a in traj.actions]
        rewards = [float(r) for r in traj.rewards]
        visits = []
        seen = set()
        for t, s in enumerate(states):
            if s in decision and s not in seen:
                visits.append(t)
                seen.add(s)
        for a, b in zip(visits, visits[1:]):
            gain = 0.0
            for t in range(a, b):
                gain += gamma ** (t - a) * rewards[t]
            bump((states[a], actions[a], states[b]), gamma ** (b - a), gain)
        if tail_mode == "absorb" and visits:
            last = visits[-1]
            gain = 0.0
            for t in range(last, len(states)):
                gain += gamma ** (t - last) * rewards[t]
            bump(
                (states[last], actions[last], "absorb"),
                gamma ** (len(states) - last),
                gain,
            )

    # per-(s, a) totals for probabilities
    pair_totals: dict = {}
    for (s, a, _), entry in table.items():
        pair_totals[(s, a)] = pair_totals.get((s, a), 0) + entry["count"]
    for (s, a, dest), entry in table.items():
        n = entry["count"]
        entry["p"] = n / pair_totals[(s, a)]
        entry["gamma_bar"] = entry["disc"] / n
        entry["r_bar"] = entry["gain"] / n
    return table


def smdp_policy_value(model, estimates, assignment: dict) -> np.ndarray:
    """Evaluate one deterministic elevated policy with an explicit solve.

    ``assignment`` maps decision state id -> action.  Rows without elevated
    data are pinned to the raw Monte Carlo action value, mirroring the
    production convention.  Returns values indexed like ``model.states``.
    """
    states = [int(s) for s in model.states]
    d = len(states)
    a_mat = np.zeros((d, d))
    b_vec = np.zeros(d)
    for i, s in enumerate(states):
        act = assignment[s]
        if model.row_mask[i, act]:
            a_mat[i, i] = 1.0
            b_vec[i] = model.r_bar[i, act]
            for j in range(d):
                a_mat[i, j] -= model.p_tilde[i, act, j] * model.gamma_tilde[i, act, j]
            # column d (absorbing tail) contributes zero future value
        else:
            a_mat[i, i] = 1.0
            b_vec[i] = estimates.q_hat[s, act]
    return np.linalg.solve(a_mat, b_vec)


def enumerate_smdp_policies(model, decision_sets, estimates):
    """Exhaust every deterministic advantageous-action assignment.

    Returns the state-wise upper envelope of the evaluated value vectors.
    An optimal deterministic policy attains the envelope at every state
    simultaneously, so policy iteration must reproduce it exactly.
    """
    states = [int(s) for s in model.states]
    choices = [decision_sets.advantageous[s] for s in states]
    envelope = None
    idx = [0] * len(states)
    while True:
        assignment = {s: choices[i][idx[i]] for i, s in enumerate(states)}
        vals = smdp_policy_value(model, estimates, assignment)
        envelope = vals if envelope is None else np.maximum(envelope, vals)
        # odometer increment
        pos = 0
        while pos < len(states):
            idx[pos] += 1
            if idx[pos] < len(choices[pos]):
                break
            idx[pos] = 0
            pos += 1
        if pos == len(states):
            break
    return envelope


def sort_slice_cvar(values, alpha: float) -> float:
    """Mean of the worst ceil(alpha * n) outcomes, by explicit sort."""
    ordered = sorted(float(v) for v in values)
    k = math.ceil(alpha * len(ordered))
    return sum(ordered[:k]) / k


def shuffled_greedy_cover(
    points: np.ndarray, weights: np.ndarray, radius: float, rng: np.random.Generator
) -> int:
    """Greedy ball cover over a shuffled point order; returns cover size."""
    order = rng.permutation(points.shape[0])
    centers: list[int] = []
    for i in order:
        covered = False
        for c in centers:
            acc = 0.0
            for j in range(points.shape[1]):
                diff = points[i, j] - points[c, j]
                acc += weights[j] * diff * diff
            if math.sqrt(acc) <= radius:
                covered = True
                break
        if not covered:
            centers.append(int(i))
    return len(centers)


def loop_policy_value(
    transitions: np.ndarray,
    reward_means: np.ndarray,
    gamma: float,
    rows: np.ndarray,
    terminals,
    start_state: int,
) -> float:
    """Exact policy evaluation with loop-built linear system."""
    n, num_actions = rows.shape
    a_mat = np.zeros((n, n))
    b_vec = np.zeros(n)
    term = set(int(t) for t in terminals)
    for s in range(n):
        a_mat[s, s] = 1.0
        if s in term:
            continue
        for a in range(num_actions):
            pr = rows[s, a]
            if pr == 0.0:
                continue
            b_vec[s] += pr * reward_means[s, a]
            for s2 in range(n):
                a_mat[s, s2] -= gamma * pr * transitions[s, a, s2]
    values = np.linalg.solve(a_mat, b_vec)
    return float(values[start_state])


def mle_from_dataset_loops(dataset, num_states: int, num_actions: int):
    """Empirical model rebuilt with dictionaries (reward mean, transition MLE)."""
    r_sum = np.zeros((num_states, num_actions))
    r_n = np.zeros((num_states, num_actions))
    t_n = np.zeros((num_states, num_actions, num_states))
    for traj in dataset.trajectories:
        steps = len(traj.states)
        for t in range(steps):
            s, a = int(traj.states[t]), int(traj.actions[t])
            r_sum[s, a] += float(traj.rewards[t])
            r_n[s, a] += 1
            if t + 1 < steps:
                t_n[s, a, int(traj.states[t + 1])] += 1
    r_hat = np.where(r_n > 0, r_sum / np.maximum(r_n, 1), 0.0)
    p_hat = np.zeros_like(t_n)
    for s in range(num_states):
        for a in range(num_actions):
            tot = t_n[s, a].sum()
            if tot > 0:
                p_hat[s, a] = t_n[s, a] / tot
    return p_hat, r_hat, r_n


def spibb_vertex_enumeration(
    dataset,
    behavior_rows: np.ndarray,
    n_wedge: int,
    gamma: float,
    num_states: int,
    num_actions: int,
    count_fn,
):
    """Best feasible SPIBB policy by enumerating vertex reallocations.

    Feasible rows keep behaviour mass on under-observed actions and may move
    the remaining mass freely over well-observed ones; the model-optimal
    solution puts all free mass on a single action per state, so enumerating
    those vertices (plus the no-free-action fallback) is exhaustive.
    """
    p_hat, r_hat, _ = mle_from_dataset_loops(dataset, num_states, num_actions)
    counts = count_fn(dataset)
    free = [
        [a for a in range(num_actions) if counts.n_sa[s, a] >= n_wedge]
        for s in range(num_states)
    ]
    choice_lists = [f if f else [None] for f in free]

    def rows_for(assignment):
        rows = behavior_rows.copy()
        for s, pick in enumerate(assignment):
            if pick is None:
                continue
            mass = sum(rows[s, a] for a in free[s])
            for a in free[s]:
                rows[s, a] = 0.0
            rows[s, pick] = mass
        return rows

    def value_of(rows):
        a_mat = np.eye(num_states)
        b_vec = np.zeros(num_states)
        for s in range(num_states):
            for a in range(num_actions):
                pr = rows[s, a]
                if pr == 0.0:
                    continue
                b_vec[s] += pr * r_hat[s, a]
                for s2 in range(num_states):
                    a_mat[s, s2] -= gamma * pr * p_hat[s, a, s2]
        return np.linalg.solve(a_mat, b_vec)

    best_vec = None
    best_rows = None
    idx = [0] * num_states
    while True:
        assignment = [choice_lists[s][idx[s]] for s in range(num_states)]
        rows = rows_for(assignment)
        vals = value_of(rows)
        if best_vec is None or vals.sum() > best_vec.sum() + 1e-12:
            best_vec, best_rows = vals, rows
        pos = 0
        while pos < num_states:
            idx[pos] += 1
            if idx[pos] < len(choice_lists[pos]):
                break
            idx[pos] = 0
            pos += 1
        if pos == num_states:
            break
    return best_vec, best_rows


def bisect_rollout(mdp, policy, draws: np.ndarray) -> list[tuple[list, list, list]]:
    """Roll out one episode at a time with per-step ``bisect`` lookups.

    ``draws[i, t]`` holds the action, reward and successor uniforms of step
    ``t`` of episode ``i``.  Returns ``(states, actions, rewards)`` lists.
    """
    behavior_cdf = np.cumsum(policy.action_probabilities, axis=1).tolist()
    transition_cdf = np.cumsum(mdp.transitions, axis=2).tolist()
    lo = mdp.rewards.lo.tolist()
    span = (mdp.rewards.hi - mdp.rewards.lo).tolist()
    out = []
    for block in draws:
        states, actions, rewards = [], [], []
        s = mdp.start_state
        for u_a, u_r, u_s in block:
            if s in mdp.terminal_states:
                break
            a = min(bisect_right(behavior_cdf[s], u_a), mdp.num_actions - 1)
            states.append(s)
            actions.append(a)
            rewards.append(lo[s][a] + u_r * span[s][a])
            s = min(bisect_right(transition_cdf[s][a], u_s), mdp.num_states - 1)
        out.append((states, actions, rewards))
    return out


def bisect_simulate(mdp, policy, num_trajectories: int, horizon: int, master_seed: int):
    """Per-trajectory simulator: ``(seed, states, actions, rewards)`` per episode.

    Episode ``i`` reads ``default_rng(trajectory_seed(master_seed, i))``
    drawn as one ``(horizon, 3)`` block.
    """
    seeds = [trajectory_seed(master_seed, i) for i in range(num_trajectories)]
    draws = [np.random.default_rng(seed).random((horizon, 3)) for seed in seeds]
    return [(seed, *episode) for seed, episode in zip(seeds, bisect_rollout(mdp, policy, draws))]


def loop_grid_transitions(side: int, noise: float) -> np.ndarray:
    """Gridworld transition tensor built one (state, intended, executed) at a time."""
    moves = ((0, 1), (1, 0), (0, -1), (-1, 0))
    num_states = side * side
    goal = num_states - 1
    transitions = np.zeros((num_states, 4, num_states))
    for y in range(side):
        for x in range(side):
            s = y * side + x
            if s == goal:
                transitions[s, :, 0] = 1.0
                continue
            for intended in range(4):
                for executed in range(4):
                    prob = (noise if executed == intended else 0.0) + (1.0 - noise) / 4
                    dx, dy = moves[executed]
                    nx = min(max(x + dx, 0), side - 1)
                    ny = min(max(y + dy, 0), side - 1)
                    transitions[s, intended, ny * side + nx] += prob
    return transitions

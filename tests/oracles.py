"""Independent reference implementations used to cross-check the package.

Everything here is written with plain loops and dictionaries on purpose.
The production code is vectorised; these oracles recompute the same
quantities from first principles so that agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right

import numpy as np

from dprl.balltree import BallTree
from dprl.baselines import MleModel
from dprl.continuous import NEIGHBOR_FIRST, ContinuousVerdict, CoveringNumbers
from dprl.discrete import SmdpModel
from dprl.estimation import EVERY_VISIT, FIRST_VISIT, CountTable, ValueEstimates
from dprl.mdp import BehaviorPolicy, simulate


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


def tree_neighbors(index, state: np.ndarray) -> np.ndarray:
    """Radius query through a ball tree over the index's scaled points."""
    scale = np.sqrt(index.metric_weights)
    return BallTree(index.states * scale).query_radius(state * scale, index.radius)


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


def loop_make_smdp(dataset, dp, gamma: float, tail_mode: str = "absorb"):
    """``discrete.make_smdp`` one trajectory at a time, with a seen-set for first visits.

    Interior segments and the tail are summed at separate sites, each reward
    added step by step, left to right, against that trajectory's own table of
    powers, which is a running product of ``gamma`` factors.
    """
    states = tuple(sorted(dp.decision_states))
    pos = {s: i for i, s in enumerate(states)}
    num_dp = len(states)
    num_actions = dataset.num_actions
    counts = np.zeros((num_dp, num_actions, num_dp + 1), dtype=np.int64)
    disc = np.zeros((num_dp, num_actions, num_dp + 1))
    gain = np.zeros((num_dp, num_actions, num_dp + 1))

    def discounted(rewards, powers):
        total = 0.0
        for r, p in zip(rewards.tolist(), powers):
            total += r * p
        return total

    for traj in dataset:
        states_t, actions_t = traj.states.tolist(), traj.actions.tolist()
        visits: list[int] = []
        seen: set[int] = set()
        for t, s in enumerate(states_t):
            if s in pos and s not in seen:
                seen.add(s)
                visits.append(t)
        if not visits:
            continue
        length = len(traj)
        powers = [1.0]
        for _ in range(length):
            powers.append(powers[-1] * gamma)
        for t, t_next in zip(visits, visits[1:]):
            i, a, j = pos[states_t[t]], actions_t[t], pos[states_t[t_next]]
            counts[i, a, j] += 1
            disc[i, a, j] += powers[t_next - t]
            gain[i, a, j] += discounted(traj.rewards[t:t_next], powers)
        if tail_mode == "absorb":
            t = visits[-1]
            i, a = pos[states_t[t]], actions_t[t]
            counts[i, a, num_dp] += 1
            disc[i, a, num_dp] += powers[length - t]
            gain[i, a, num_dp] += discounted(traj.rewards[t:], powers)

    observed = counts > 0
    p_tilde = np.zeros_like(disc)
    gamma_tilde = np.zeros_like(disc)
    r_tilde = np.zeros_like(disc)
    row_totals = counts.sum(axis=2)
    np.divide(counts, row_totals[:, :, None], out=p_tilde, where=row_totals[:, :, None] > 0)
    np.divide(disc, counts, out=gamma_tilde, where=observed)
    np.divide(gain, counts, out=r_tilde, where=observed)
    return SmdpModel(
        states=states,
        counts=counts,
        p_tilde=p_tilde,
        gamma_tilde=gamma_tilde,
        r_tilde=r_tilde,
        r_bar=(r_tilde * p_tilde).sum(axis=2),
    )


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
        if model.counts[i, act].any():
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
    choices = [np.flatnonzero(decision_sets.gate[s]).tolist() for s in states]
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


def loop_smdp_policy_iteration(model, decision_sets, estimates, history: list):
    """Policy iteration with per-state evaluate/improve loops; stops on a repeated policy.

    Each round takes every state's best action, ties to the lowest, and stops
    when that policy was taken before (the current one or an earlier one).
    Appends ``(values, policy)`` per round to ``history`` and returns
    ``(verdicts, iterations)``, or raises after ``max(64, 4 * D * A)`` rounds.
    """
    states = model.states
    num_dp = len(states)
    if num_dp == 0:
        return {}, 0
    q_hat = estimates.q_hat
    actions = [np.flatnonzero(decision_sets.gate[s]).tolist() for s in states]
    weights = model.p_tilde[:, :, :num_dp] * model.gamma_tilde[:, :, :num_dp]

    def evaluate(policy):
        system = np.eye(num_dp)
        rhs = np.empty(num_dp)
        for i, s in enumerate(states):
            a = policy[i]
            if model.counts[i, a].any():
                system[i, :] -= weights[i, a]
                rhs[i] = model.r_bar[i, a]
            else:
                rhs[i] = q_hat[s, a]
        return np.linalg.solve(system, rhs)

    def improve(values):
        policy = np.empty(num_dp, dtype=np.int64)
        for i, s in enumerate(states):
            best_action, best_score = actions[i][0], -np.inf
            for a in actions[i]:
                if model.counts[i, a].any():
                    score = model.r_bar[i, a] + float(np.dot(weights[i, a], values))
                else:
                    score = q_hat[s, a]
                if score > best_score:
                    best_score, best_action = score, a
            policy[i] = best_action
        return policy

    policy = np.array(
        [acts[int(np.argmax([q_hat[s, a] for a in acts]))] for s, acts in zip(states, actions)],
        dtype=np.int64,
    )
    taken = [policy.tolist()]
    for iterations in range(1, max(64, 4 * num_dp * model.p_tilde.shape[1]) + 1):
        values = evaluate(policy)
        history.append((values.copy(), policy.copy()))
        policy = improve(values)
        if policy.tolist() in taken:
            return {int(s): int(a) for s, a in zip(states, policy)}, iterations
        taken.append(policy.tolist())
    raise RuntimeError("policy iteration did not converge")


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


def mle_from_dataset_loops(dataset, num_states: int, num_actions: int):
    """Empirical model rebuilt with dictionaries (reward mean, transition MLE)."""
    r_sum = np.zeros((num_states, num_actions))
    r_n = np.zeros((num_states, num_actions))
    t_n = np.zeros((num_states, num_actions, num_states))
    for traj in dataset:
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

    def last_positive(row) -> int:
        return max(i for i, p in enumerate(row) if p > 0)

    last_action = [last_positive(row) for row in policy.action_probabilities.tolist()]
    last_successor = [[last_positive(row) for row in rows] for rows in mdp.transitions.tolist()]
    lo = mdp.rewards.lo.tolist()
    span = (mdp.rewards.hi - mdp.rewards.lo).tolist()
    out = []
    for block in draws:
        states, actions, rewards = [], [], []
        s = mdp.start_state
        for u_a, u_r, u_s in block:
            if s in mdp.terminal_states:
                break
            # A uniform past the row's total picks its last index with positive mass.
            a = min(bisect_right(behavior_cdf[s], u_a), last_action[s])
            states.append(s)
            actions.append(a)
            rewards.append(lo[s][a] + u_r * span[s][a])
            s = min(bisect_right(transition_cdf[s][a], u_s), last_successor[s][a])
        out.append((states, actions, rewards))
    return out


def seed_sequence_seed(master_seed: int, index: int) -> int:
    """Trajectory ``index``'s seed straight from numpy's ``SeedSequence``, one object per seed."""
    sequence = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(sequence.generate_state(1, np.uint64)[0])


def bisect_simulate(mdp, policy, num_trajectories: int, horizon: int, master_seed: int):
    """Per-trajectory simulator: ``(seed, states, actions, rewards)`` per episode.

    Episode ``i`` reads ``default_rng(seed_sequence_seed(master_seed, i))``
    drawn as one ``(horizon, 3)`` block.
    """
    seeds = [seed_sequence_seed(master_seed, i) for i in range(num_trajectories)]
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


def loop_suffix_returns(rewards, gamma: float) -> np.ndarray:
    """Discounted suffix returns by one backward loop over a single trajectory."""
    rewards = np.asarray(rewards, dtype=np.float64)
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def rollout_returns(mdp, policy, rollouts: int, seed: int, horizon: int = 200) -> np.ndarray:
    """Discounted start-state returns of ``policy``'s composed rows over independent rollouts."""
    if rollouts < 1:
        raise ValueError("rollouts must be >= 1")
    sampler = BehaviorPolicy(action_probabilities=policy.rows(), kind="rollout-mixture")
    dataset = simulate(mdp, sampler, rollouts, horizon, seed)
    out = np.empty(rollouts)
    for i, traj in enumerate(dataset):
        powers = mdp.gamma ** np.arange(len(traj))
        out[i] = float(np.dot(powers, traj.rewards))
    return out


def mc_value(mdp, policy, rollouts: int, seed: int, horizon: int = 200) -> float:
    """Sample-mean cross-check of ``evaluation.exact_value`` (biased by truncation)."""
    return float(rollout_returns(mdp, policy, rollouts, seed, horizon=horizon).mean())


def loop_count_visits(dataset, mode: str):
    """Visit counts one step at a time, with a seen-set per trajectory in first-visit mode."""
    n_sa = np.zeros((dataset.num_states, dataset.num_actions), dtype=np.int64)
    for traj in dataset:
        if mode == FIRST_VISIT:
            seen: set[tuple[int, int]] = set()
            for s, a in zip(traj.states, traj.actions):
                key = (int(s), int(a))
                if key not in seen:
                    seen.add(key)
                    n_sa[key] += 1
        else:
            np.add.at(n_sa, (traj.states, traj.actions), 1)
    return CountTable(n_sa=n_sa)


def loop_monte_carlo_estimates(dataset, gamma: float, mode: str):
    """Monte-Carlo values from per-(s, a) lists of returns, one trajectory at a time."""
    num_states, num_actions = dataset.num_states, dataset.num_actions
    v_returns: list[list[float]] = [[] for _ in range(num_states)]
    q_returns = [[[] for _ in range(num_actions)] for _ in range(num_states)]
    for traj in dataset:
        suffix = loop_suffix_returns(traj.rewards, gamma)
        seen_s: set[int] = set()
        seen_sa: set[tuple[int, int]] = set()
        for t, (s, a) in enumerate(zip(traj.states, traj.actions)):
            s, a = int(s), int(a)
            if mode == EVERY_VISIT or s not in seen_s:
                seen_s.add(s)
                v_returns[s].append(suffix[t])
            if mode == EVERY_VISIT or (s, a) not in seen_sa:
                seen_sa.add((s, a))
                q_returns[s][a].append(suffix[t])
    v_hat = np.full(num_states, np.nan)
    q_hat = np.full((num_states, num_actions), np.nan)
    for s in range(num_states):
        if v_returns[s]:
            v_hat[s] = np.mean(np.asarray(v_returns[s]))
        for a in range(num_actions):
            if q_returns[s][a]:
                q_hat[s, a] = np.mean(np.asarray(q_returns[s][a]))
    return ValueEstimates(v_hat=v_hat, q_hat=q_hat)


def unique_visit_means(keys, values, groups, mode: str, num_keys: int):
    """``estimation._visit_means`` with first visits from ``np.unique`` and one ``np.mean`` per key.

    Groups may be any integers; they are ranked first.
    """
    keys, values, groups = (np.asarray(x) for x in (keys, values, groups))
    steps = np.arange(len(keys))
    if mode == FIRST_VISIT:
        ranks = np.unique(groups, return_inverse=True)[1]
        steps = np.sort(np.unique(keys * (ranks.max(initial=-1) + 1) + ranks, return_index=True)[1])
    steps = steps[np.argsort(keys[steps], kind="stable")]
    means = np.full(num_keys, np.nan)
    sizes = np.bincount(keys[steps], minlength=num_keys)
    for key in np.flatnonzero(sizes).tolist():
        means[key] = np.mean(values[steps[keys[steps] == key]])
    return means, sizes


def loop_fit_mle_model(dataset, num_states: int, num_actions: int):
    """Maximum-likelihood model with three ``np.add.at`` calls per trajectory."""
    transition_counts = np.zeros((num_states, num_actions, num_states), dtype=np.int64)
    n_sa = np.zeros((num_states, num_actions), dtype=np.int64)
    reward_sums = np.zeros((num_states, num_actions))
    for traj in dataset:
        states, actions, rewards = traj.states, traj.actions, traj.rewards
        np.add.at(n_sa, (states, actions), 1)
        np.add.at(reward_sums, (states, actions), rewards)
        if len(states) > 1:
            np.add.at(transition_counts, (states[:-1], actions[:-1], states[1:]), 1)
    successor_totals = transition_counts.sum(axis=2)
    p_hat = np.zeros_like(transition_counts, dtype=np.float64)
    np.divide(
        transition_counts,
        successor_totals[:, :, None],
        out=p_hat,
        where=successor_totals[:, :, None] > 0,
    )
    r_hat = np.zeros_like(reward_sums)
    np.divide(reward_sums, n_sa, out=r_hat, where=n_sa > 0)
    return MleModel(p_hat=p_hat, r_hat=r_hat, n_sa=n_sa)


def value_iteration(mdp, max_sweeps: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
    """Optimal ``(values, q)`` by Bellman optimality sweeps, one state and action at a time.

    Terminal states are worth 0 and their Q rows are 0.  Sweeps stop when no
    value changes, or after ``max_sweeps``.
    """
    transitions = mdp.transitions.tolist()
    lo, hi = mdp.rewards.lo.tolist(), mdp.rewards.hi.tolist()
    states, actions = range(mdp.num_states), range(mdp.num_actions)
    values = [0.0] * mdp.num_states
    for _ in range(max_sweeps):
        q = [[0.0] * mdp.num_actions if s in mdp.terminal_states else
             [(lo[s][a] + hi[s][a]) / 2.0
              + mdp.gamma * sum(p * v for p, v in zip(transitions[s][a], values)) for a in actions]
             for s in states]
        new = [max(row) for row in q]
        if new == values:
            break
        values = new
    return np.array(values), np.array(q)


def dense_lookahead(transitions: np.ndarray, values: np.ndarray, gamma: float) -> np.ndarray:
    """``(gamma * P) @ values`` with the whole scaled ``(S, A, S)`` copy."""
    return (gamma * transitions) @ values


def dense_bellman_system(p_pi: np.ndarray, gamma: float) -> np.ndarray:
    """``I - gamma * P_pi`` from a fresh identity."""
    return np.eye(len(p_pi)) - gamma * p_pi


def _solve_rows(model, rows: np.ndarray, gamma: float) -> np.ndarray:
    r_pi = (model.r_hat * rows).sum(axis=1)
    p_pi = np.einsum("sa,sat->st", rows, model.p_hat)
    return np.linalg.solve(dense_bellman_system(p_pi, gamma), r_pi)


def _rounds(model) -> range:
    """Every round policy iteration may take on ``model``: ``max(64, 4 * S * A)``."""
    return range(max(64, 4 * model.n_sa.size))


def loop_spibb_rows(model, behavior_rows: np.ndarray, n_wedge, gamma: float) -> np.ndarray:
    """SPIBB's constrained policy iteration with a loop over states per step.

    The first choice is greedy on the behaviour rows' values.  Each round
    then gives every state's free mass to its best free action, ties to the
    lowest, until the choice repeats one already taken.
    """
    num_states = behavior_rows.shape[0]
    free_lists = [np.nonzero(model.n_sa[s] >= n_wedge)[0] for s in range(num_states)]

    def rows_for(chosen):
        out = behavior_rows.copy()
        for s in range(num_states):
            if chosen[s] >= 0:
                free = free_lists[s]
                mass = behavior_rows[s, free].sum()
                out[s, free] = 0.0
                out[s, chosen[s]] += mass
        return out

    def choose(rows):
        values = _solve_rows(model, rows, gamma)
        q = model.r_hat + dense_lookahead(model.p_hat, values, gamma)
        return np.array([int(free[np.argmax(q[s, free])]) if len(free) else -1
                         for s, free in enumerate(free_lists)], dtype=np.int64)

    taken = [choose(behavior_rows).tolist()]
    for _ in _rounds(model):
        chosen = choose(rows_for(taken[-1])).tolist()
        if chosen in taken:
            return rows_for(chosen)
        taken.append(chosen)
    raise RuntimeError("policy iteration did not converge")


def filtered_pqi_model(model, density_threshold: float):
    """PQI's filtered model and choice lists: ``(r_mod, p_mod, choice_sets, seen)``.

    Filtered pairs earn nothing and lead nowhere.  A state chooses among its
    surviving actions, else its most frequent action, else (unseen) all.
    """
    num_states, num_actions = model.n_sa.shape
    surviving = model.n_sa / model.n_sa.sum() >= density_threshold
    r_mod = np.where(surviving, model.r_hat, 0.0)
    p_mod = np.where(surviving[:, :, None], model.p_hat, 0.0)
    seen = model.n_sa.sum(axis=1) > 0
    choice_sets = []
    for s in range(num_states):
        if surviving[s].any():
            choice_sets.append(np.nonzero(surviving[s])[0])
        elif seen[s]:
            choice_sets.append(np.array([int(np.argmax(model.n_sa[s]))]))
        else:
            choice_sets.append(np.arange(num_actions))
    return r_mod, p_mod, choice_sets, seen


def loop_pqi_rows(model, density_threshold: float, gamma: float) -> np.ndarray:
    """Density-filtered policy iteration with per-state choice lists.

    Starts from each state's lowest allowed action; each round takes every
    state's best allowed action, ties to the lowest, until the policy repeats
    one already taken.
    """
    num_states, num_actions = model.n_sa.shape
    r_mod, p_mod, choice_sets, seen = filtered_pqi_model(model, density_threshold)
    policy = [int(c[0]) for c in choice_sets]
    taken = [policy]
    for _ in _rounds(model):
        r_pi = r_mod[np.arange(num_states), policy]
        p_pi = p_mod[np.arange(num_states), policy]
        values = np.linalg.solve(dense_bellman_system(p_pi, gamma), r_pi)
        q = r_mod + dense_lookahead(p_mod, values, gamma)
        policy = [int(c[int(np.argmax(q[s, c]))]) for s, c in enumerate(choice_sets)]
        if policy in taken:
            break
        taken.append(policy)
    else:
        raise RuntimeError("policy iteration did not converge")
    rows = np.zeros((num_states, num_actions))
    for s in range(num_states):
        if seen[s]:
            rows[s, policy[s]] = 1.0
        else:
            rows[s, :] = 1.0 / num_actions
    return rows


def filtered_policy_value(model, density_threshold: float, gamma: float, policy) -> np.ndarray:
    """Values of the deterministic ``policy`` (one action per state) on PQI's filtered model."""
    r_mod, p_mod, _, _ = filtered_pqi_model(model, density_threshold)
    n = len(policy)
    a_mat = np.eye(n)
    b_vec = np.zeros(n)
    for s, a in enumerate(policy):
        b_vec[s] = r_mod[s, a]
        for s2 in range(n):
            a_mat[s, s2] -= gamma * p_mod[s, a, s2]
    return np.linalg.solve(a_mat, b_vec)


def enumerate_pqi_policies(model, density_threshold: float, gamma: float) -> np.ndarray:
    """Exhaust every deterministic policy over PQI's choice lists on the filtered model.

    Returns the state-wise upper envelope of the evaluated value vectors,
    which an optimal policy attains at every state at once.  Meant for tiny
    models (at most 4 states x 3 actions, 81 policies).
    """
    _, _, choice_sets, _ = filtered_pqi_model(model, density_threshold)
    envelope = None
    for policy in itertools.product(*(c.tolist() for c in choice_sets)):
        values = filtered_policy_value(model, density_threshold, gamma, policy)
        envelope = values if envelope is None else np.maximum(envelope, values)
    return envelope


def _first_per_trajectory(index, candidate_ids: np.ndarray) -> np.ndarray:
    """Keep only the earliest in-ball point of each source trajectory.

    Candidates arrive ascending, so the first id seen per trajectory is the
    earliest in index order.
    """
    keep: list[int] = []
    seen: set[int] = set()
    for i in candidate_ids:
        n = int(index.trajectory_ids[i])
        if n not in seen:
            seen.add(n)
            keep.append(int(i))
    return np.asarray(keep, dtype=np.int64)


def loop_query(index, state: np.ndarray, n_wedge: int, neighbor_mode: str):
    """Radius-neighborhood verdict with its own per-action loop and best-action scan."""
    hits = index.neighbors(state)
    if neighbor_mode == NEIGHBOR_FIRST:
        state_ids = _first_per_trajectory(index, hits)
    else:
        state_ids = hits
    state_count = int(len(state_ids))
    v_estimate = float(np.mean(index.returns[state_ids])) if state_count else None

    q_estimates: dict[int, float] = {}
    action_counts: dict[int, int] = {}
    for a in (int(a) for a in np.unique(index.actions)):
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


def two_pass_covering_number(index, n_wedge: int):
    """Greedy covers with one pass over the dense core and a second extension pass."""
    scaled = index.states * np.sqrt(index.metric_weights)
    m_dense = 0
    extra = 0
    for a in np.unique(index.actions):
        pts = scaled[index.actions == a]
        tree = BallTree(pts)
        neighbor_counts = np.array(
            [len(tree.query_radius(pts[i], index.radius)) for i in range(len(pts))]
        )
        core = neighbor_counts >= n_wedge
        covered = np.zeros(len(pts), dtype=bool)
        for i in np.nonzero(core)[0]:
            if covered[i]:
                continue
            covered[tree.query_radius(pts[i], index.radius)] = True
            m_dense += 1
        for i in range(len(pts)):
            if covered[i]:
                continue
            covered[tree.query_radius(pts[i], index.radius)] = True
            extra += 1
    return CoveringNumbers(m_dense=m_dense, m_total=m_dense + extra)

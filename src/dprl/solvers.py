"""Exact linear-algebra solvers for tabular MDPs.

Everything here works on expected rewards, so results are closed-form values
of the discounted criterion rather than sample estimates.  Terminal states
are pinned to value zero.
"""

from __future__ import annotations

import numpy as np

from .mdp import Edges, TabularMdp


def bellman_system(p_pi: np.ndarray, gamma: float) -> np.ndarray:
    """Turn the ``(S, S)`` buffer ``p_pi`` into ``I - gamma * p_pi`` in place; returns it.

    The floats equal those of the identity minus ``gamma * p_pi``, signed
    zeros included: ``0.0 - gamma * p`` gives +0.0 where ``p *= -gamma``
    would give -0.0.
    """
    np.multiply(p_pi, gamma, out=p_pi)
    np.subtract(0.0, p_pi, out=p_pi)
    p_pi.flat[:: len(p_pi) + 1] += 1.0
    return p_pi


def policy_iteration(score, allowed: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, int]:
    """Greedy policy iteration under the one stopping rule every learner shares.

    A greedy policy takes each row's best-scoring ``allowed`` action, ties to
    the lowest index.  The first is greedy on ``start``; each round takes the
    greedy policy on ``score(policy)`` and stops when it repeats one already
    taken: the current one, or an earlier one when rounding makes two tied
    actions take turns.  Returns the repeat and the round count (0 when there
    is no pair to choose); raises ``RuntimeError`` past ``max(64, 4 * S * A)`` rounds.
    """
    if allowed.size == 0:  # no state or no action: nothing to choose
        return np.zeros(len(allowed), dtype=np.int64), 0
    taken = [np.where(allowed, start, -np.inf).argmax(axis=1)]
    for rounds in range(1, max(64, 4 * allowed.size) + 1):
        policy = np.where(allowed, score(taken[-1]), -np.inf).argmax(axis=1)
        if any(np.array_equal(policy, earlier) for earlier in reversed(taken)):
            return policy, rounds
        taken.append(policy)
    raise RuntimeError("policy iteration did not converge")


def policy_edges(edges: Edges,
                 action_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``P_pi``'s edges ``(rows, cols, weights)`` under the ``(S, A)`` ``action_rows``.

    Each ``(s, a) -> t`` edge is scaled by ``action_rows[s, a]`` and dropped
    if that gives zero.  Several actions may lead from ``s`` to ``t``: their
    edges stay apart, in action order, and add up wherever ``P_pi`` is summed.
    """
    weights = action_rows.ravel()[edges.pair] * edges.probability
    kept = np.flatnonzero(weights)
    return edges.pair[kept] // action_rows.shape[1], edges.successor[kept], weights[kept]


def _dense_block(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """The ``(size, size)`` matrix of the edges; repeated entries add, in edge order."""
    flat = np.bincount(rows * size + cols, weights, minlength=size * size)
    return flat.astype(np.float64, copy=False).reshape(size, size)  # int when there is no edge


def solve_bellman(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, rewards: np.ndarray,
                  gamma: float, terminal=()) -> np.ndarray:
    """Solve ``v = rewards + gamma * P @ v`` with the ``terminal`` states pinned at 0.

    ``P`` is given by its edges: ``P[rows[k], cols[k]]`` is the sum of the
    ``weights[k]`` sharing that entry.  States are solved in topological
    order.  Terminal states come first, at 0.  Then, layer by layer, every
    state whose edges reach only solved states takes
    ``v_s = r_s + gamma * sum_t p_st v_t``, summed over its edges in order.
    The states left over, the cyclic core and the states leading into it (a
    self-loop counts as a cycle), take one dense solve of their ``k x k``
    block, with the solved part moved to the right-hand side.  When no state
    but the terminal ones is solved that way, that solve is of the full
    ``(S, S)`` system, terminal rows pinned.
    """
    num_states = len(rewards)
    terminal = np.fromiter(terminal, dtype=np.int64)
    solved = np.zeros(num_states, dtype=bool)
    solved[terminal] = True
    waiting = np.bincount(rows[~solved[cols]], minlength=num_states)  # a self-loop stays
    ready = ~solved & (waiting == 0)
    if not ready.any():
        system = bellman_system(_dense_block(rows, cols, weights, num_states), gamma)
        system[terminal] = 0.0
        system[terminal, terminal] = 1.0
        return _dense_solve(system, np.where(solved, 0.0, rewards))
    values = np.zeros(num_states)

    def lookahead(states: np.ndarray) -> np.ndarray:
        """``gamma * P @ values`` on the rows ``states`` (a mask), over the solved states."""
        reach = np.flatnonzero(states[rows] & solved[cols])
        sums = np.bincount(rows[reach], weights[reach] * values[cols[reach]],
                           minlength=num_states)
        return gamma * sums[states]

    while ready.any():
        values[ready] = rewards[ready] + lookahead(ready)
        solved |= ready
        waiting -= np.bincount(rows[ready[cols]], minlength=num_states)
        ready = ~solved & (waiting == 0)
    core = ~solved
    if core.any():
        rhs = rewards[core] + lookahead(core)
        inside = np.flatnonzero(core[rows] & core[cols])
        position = np.cumsum(core) - 1  # each core state's index in the block
        block = _dense_block(position[rows[inside]], position[cols[inside]], weights[inside],
                             len(rhs))
        values[core] = _dense_solve(bellman_system(block, gamma), rhs)
    return values


def _dense_solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:  # gamma < 1 makes this unreachable
        raise RuntimeError(f"policy evaluation system is singular: {exc}") from exc


def policy_state_values(mdp: TabularMdp, action_rows: np.ndarray) -> np.ndarray:
    """Solve the Bellman evaluation system for a stochastic tabular policy.

    Args:
        mdp: environment supplying transitions, expected rewards and gamma.
        action_rows: ``(S, A)`` row-stochastic action distribution.

    Returns:
        ``(S,)`` state values, exact up to machine precision
        (:func:`solve_bellman`, terminal states pinned at 0).
    """
    action_rows = np.asarray(action_rows, dtype=np.float64)
    if action_rows.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError("action_rows shape must be (S, A)")
    rewards = (mdp.expected_rewards * action_rows).sum(axis=1)
    return solve_bellman(*policy_edges(mdp.edges, action_rows), rewards, mdp.gamma,
                         mdp.terminal_states)


def q_from_values(mdp: TabularMdp, values: np.ndarray) -> np.ndarray:
    """One-step lookahead: ``Q(s, a) = r(s, a) + gamma * P(s, a, .) @ V``."""
    values = np.asarray(values, dtype=np.float64).copy()
    for t in mdp.terminal_states:
        values[t] = 0.0
    # The dense product, not an edge sum: the gridworld expert's greedy ties rest on its bytes.
    q = mdp.expected_rewards + (mdp.gamma * mdp.transitions) @ values
    for t in mdp.terminal_states:
        q[t, :] = 0.0
    return q


def optimal_values(mdp: TabularMdp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact policy iteration for the optimal policy of a tabular MDP.

    Returns:
        Tuple ``(v_star, q_star, greedy)`` where ``greedy[s]`` is the
        lowest-index optimal action at ``s``.
    """
    num_states, num_actions = mdp.num_states, mdp.num_actions
    greedy = np.zeros(num_states, dtype=np.int64)
    all_states = np.arange(num_states)
    for _ in range(num_states * num_actions + 1):
        rows = np.zeros((num_states, num_actions))
        rows[all_states, greedy] = 1.0
        values = policy_state_values(mdp, rows)
        q = q_from_values(mdp, values)
        # Hold the incumbent action on (near-)ties; switching on solver
        # noise makes equal-value policies oscillate forever.
        best = np.argmax(q, axis=1)
        improved = q[all_states, best] > q[all_states, greedy] + 1e-10
        if not improved.any():
            ties = q >= q[all_states, best, None] - 1e-9
            return values, q, np.argmax(ties, axis=1)
        greedy = np.where(improved, best, greedy)
    raise RuntimeError("policy iteration failed to stabilize")

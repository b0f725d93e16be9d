"""Exact linear-algebra solvers for tabular MDPs.

Everything here works on expected rewards, so results are closed-form values
of the discounted criterion rather than sample estimates.  Terminal states
are pinned to value zero.
"""

from __future__ import annotations

import numpy as np

from .mdp import TabularMdp


def discounted_lookahead(transitions: np.ndarray, values: np.ndarray, gamma: float) -> np.ndarray:
    """``(gamma * P) @ values`` for an ``(S, A, S)`` table, byte for byte.

    The product is formed a block of states at a time, so the scaled copy of
    the table never exceeds ``max(S, A) * S`` floats instead of ``S * A * S``.
    numpy multiplies each state's ``(A, S)`` slice by ``values`` on its own,
    so blocking over states leaves every float as it was.
    """
    num_states, num_actions, _ = transitions.shape
    out = np.empty((num_states, num_actions))
    block = max(1, num_states // num_actions)
    scaled = np.empty((min(block, num_states),) + transitions.shape[1:])
    for lo in range(0, num_states, block):
        hi = min(lo + block, num_states)
        np.multiply(transitions[lo:hi], gamma, out=scaled[:hi - lo])
        np.matmul(scaled[:hi - lo], values, out=out[lo:hi])
    return out


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


def policy_state_values(mdp: TabularMdp, action_rows: np.ndarray) -> np.ndarray:
    """Solve the Bellman evaluation system for a stochastic tabular policy.

    Args:
        mdp: environment supplying transitions, expected rewards and gamma.
        action_rows: ``(S, A)`` row-stochastic action distribution.

    Returns:
        ``(S,)`` state values; exact up to machine precision (direct solve).
    """
    action_rows = np.asarray(action_rows, dtype=np.float64)
    if action_rows.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError("action_rows shape must be (S, A)")
    rhs = (mdp.expected_rewards * action_rows).sum(axis=1)
    system = bellman_system(np.einsum("sa,sat->st", action_rows, mdp.transitions), mdp.gamma)
    for t in mdp.terminal_states:
        system[t, :] = 0.0
        system[t, t] = 1.0
        rhs[t] = 0.0
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:  # gamma < 1 makes this unreachable
        raise RuntimeError(f"policy evaluation system is singular: {exc}") from exc


def q_from_values(mdp: TabularMdp, values: np.ndarray) -> np.ndarray:
    """One-step lookahead: ``Q(s, a) = r(s, a) + gamma * P(s, a, .) @ V``."""
    values = np.asarray(values, dtype=np.float64).copy()
    for t in mdp.terminal_states:
        values[t] = 0.0
    q = mdp.expected_rewards + discounted_lookahead(mdp.transitions, values, mdp.gamma)
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

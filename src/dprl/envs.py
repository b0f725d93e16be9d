"""Synthetic benchmark environments and their data-collection policies.

Three families:

* ``forest``: a root choice between a well-supported good arm (many short
  chains ending in a Unif[0.65, 0.75] reward), a safe arm (constant 0.55)
  and a risky arm (chains ending in Unif[0, 1]).  The data-collection policy
  takes the safe arm most of the time.
* ``cql``: a one-step bandit-style MDP whose optimal arm is rarely logged
  and whose many risky arms are logged almost never.
* ``gridworld``: a noisy grid navigation task logged by a "careless expert"
  that plays optimally except at a few corridor states where it usually
  takes the worst action.  Reaching the goal pays Unif[0.9, 1.0] and
  restarts the episode, so the process is continuing and the state count is
  exactly ``side**2``.
"""

from __future__ import annotations

import numbers

import numpy as np

from .mdp import (
    COUNT,
    FRACTION,
    BehaviorPolicy,
    RewardSpec,
    TabularMdp,
    at_least,
    check,
    check_params,
    rule,
)
from .solvers import optimal_values

GRID_ACTIONS = 4  # 0 = up, 1 = right, 2 = down, 3 = left
_GRID_MOVES = ((0, 1), (1, 0), (0, -1), (-1, 0))  # (dx, dy) per action

# Each rule below serves both a builder and its ENVIRONMENTS entry.
_EPSILON = rule("a number in [0, 0.5]", numbers.Real, lambda v: 0 <= v <= 0.5)
_PROBABILITY = rule("a number in [0, 1]", numbers.Real, lambda v: 0 <= v <= 1)
_SIDE = at_least(2)
_INTEGER = rule("an integer", numbers.Integral, lambda v: True)


def build_forest_mdp(
    num_chains: int = 10,
    depth: int = 3,
    epsilon: float = 0.1,
    gamma: float = 0.99,
) -> tuple[TabularMdp, BehaviorPolicy]:
    """Build the three-armed forest MDP and its logging policy.

    Layout: root, then ``num_chains`` good chains, one middle chain and
    ``num_chains`` risky chains (each ``depth`` states long), then one
    absorbing terminal.  The terminal reward of a chain is paid on the action
    taken at its final state.  The logging policy picks root actions with
    probabilities ``(epsilon, 1 - 2 * epsilon, epsilon)`` and is uniform at
    chain states, where every action moves the same way.
    """
    check("num_chains", num_chains, COUNT)
    check("depth", depth, COUNT)
    check("epsilon", epsilon, _EPSILON)

    num_arm_chains = 2 * num_chains + 1
    num_states = 1 + num_arm_chains * depth + 1
    num_actions = 3
    sink = num_states - 1

    def chain_state(chain: int, step: int) -> int:
        return 1 + chain * depth + step

    transitions = np.zeros((num_states, num_actions, num_states))
    lo = np.zeros((num_states, num_actions))
    hi = np.zeros((num_states, num_actions))

    good = list(range(num_chains))
    middle = [num_chains]
    bad = list(range(num_chains + 1, num_arm_chains))
    for arm_chains, action in ((good, 0), (middle, 1), (bad, 2)):
        for chain in arm_chains:
            transitions[0, action, chain_state(chain, 0)] = 1.0 / len(arm_chains)
    for chain in range(num_arm_chains):
        if chain in good:
            end_lo, end_hi = 0.65, 0.75
        elif chain in middle:
            end_lo, end_hi = 0.55, 0.55
        else:
            end_lo, end_hi = 0.0, 1.0
        for step in range(depth):
            here = chain_state(chain, step)
            nxt = chain_state(chain, step + 1) if step + 1 < depth else sink
            transitions[here, :, nxt] = 1.0
            if step == depth - 1:
                lo[here, :] = end_lo
                hi[here, :] = end_hi
    transitions[sink, :, sink] = 1.0

    mdp = TabularMdp(
        transitions=transitions,
        rewards=RewardSpec(lo=lo, hi=hi),
        gamma=gamma,
        start_state=0,
        terminal_states=frozenset({sink}),
        r_max=1.0,
        name=f"forest(num_chains={num_chains},depth={depth},epsilon={epsilon},gamma={gamma})",
    )

    rows = np.full((num_states, num_actions), 1.0 / num_actions)
    rows[0] = (epsilon, 1.0 - 2.0 * epsilon, epsilon)
    behavior = BehaviorPolicy(action_probabilities=rows, kind="forest-logger")
    return mdp, behavior


def build_cql_mdp(
    num_risky: int = 8,
    epsilon: float = 0.1,
    gamma: float = 0.99,
) -> tuple[TabularMdp, BehaviorPolicy]:
    """Build the one-step MDP with one good, one safe and many risky arms.

    Action 0 pays Unif[0.5, 0.9], action 1 pays a constant 0.55 and each of
    the ``num_risky`` remaining actions pays Unif[0, 1].  Every arm leads to
    its own terminal state, so episodes are a single step.  The logging
    policy plays ``(epsilon, 1 - 2 * epsilon, epsilon / num_risky, ...)``.
    """
    check("num_risky", num_risky, COUNT)
    check("epsilon", epsilon, _EPSILON)

    num_actions = num_risky + 2
    num_states = num_risky + 3  # start, good arm, safe arm, risky arms
    transitions = np.zeros((num_states, num_actions, num_states))
    lo = np.zeros((num_states, num_actions))
    hi = np.zeros((num_states, num_actions))

    for action in range(num_actions):
        transitions[0, action, action + 1] = 1.0
    for s in range(1, num_states):
        transitions[s, :, s] = 1.0
    lo[0, 0], hi[0, 0] = 0.5, 0.9
    lo[0, 1], hi[0, 1] = 0.55, 0.55
    lo[0, 2:], hi[0, 2:] = 0.0, 1.0

    mdp = TabularMdp(
        transitions=transitions,
        rewards=RewardSpec(lo=lo, hi=hi),
        gamma=gamma,
        start_state=0,
        terminal_states=frozenset(range(1, num_states)),
        r_max=1.0,
        name=f"cql(num_risky={num_risky},epsilon={epsilon},gamma={gamma})",
    )

    rows = np.full((num_states, num_actions), 1.0 / num_actions)
    root = np.empty(num_actions)
    root[0] = epsilon
    root[1] = 1.0 - 2.0 * epsilon
    root[2:] = epsilon / num_risky
    rows[0] = root
    behavior = BehaviorPolicy(action_probabilities=rows, kind="cql-logger")
    return mdp, behavior


def _grid_index(x: int, y: int, side: int) -> int:
    return y * side + x


def _grid_transitions(side: int, noise: float) -> np.ndarray:
    """Transition tensor for the grid including the goal-to-start restart.

    Mass is added in (state, intended, executed) order, so a successor that
    several executed moves reach (against a wall) sums them in a fixed order.
    """
    num_states = side * side
    goal = num_states - 1
    moves = np.array(_GRID_MOVES)
    cells = np.arange(goal)[:, None]  # every state but the goal
    nx = np.clip(cells % side + moves[:, 0], 0, side - 1)
    ny = np.clip(cells // side + moves[:, 1], 0, side - 1)
    successor = _grid_index(nx, ny, side)  # (state, executed)
    share = (1.0 - noise) / GRID_ACTIONS
    probs = np.full((GRID_ACTIONS, GRID_ACTIONS), share)  # (intended, executed)
    np.fill_diagonal(probs, noise + share)
    intended = np.arange(GRID_ACTIONS)[:, None]
    transitions = np.zeros((num_states, GRID_ACTIONS, num_states))
    np.add.at(transitions, (cells[:, :, None], intended, successor[:, None, :]), probs)
    transitions[goal, :, 0] = 1.0
    return transitions


def _grid_mdp(side: int, noise: float, gamma: float) -> TabularMdp:
    check("side", side, _SIDE)
    check("noise", noise, _PROBABILITY)
    num_states = side * side
    goal = num_states - 1
    lo = np.zeros((num_states, GRID_ACTIONS))
    hi = np.zeros((num_states, GRID_ACTIONS))
    lo[goal, :], hi[goal, :] = 0.9, 1.0
    return TabularMdp(
        transitions=_grid_transitions(side, noise),
        rewards=RewardSpec(lo=lo, hi=hi),
        gamma=gamma,
        start_state=0,
        terminal_states=frozenset(),
        r_max=1.0,
        name=f"gridworld(side={side},noise={noise},gamma={gamma})",
    )


def _greedy_walk(greedy: np.ndarray, start: int, side: int) -> list[int]:
    path = [start]
    goal = side * side - 1
    s = start
    for _ in range(2 * side * side):
        if s == goal:
            return path
        x, y = s % side, s // side
        dx, dy = _GRID_MOVES[int(greedy[s])]
        s = _grid_index(min(max(x + dx, 0), side - 1), min(max(y + dy, 0), side - 1), side)
        path.append(s)
    raise RuntimeError("greedy path failed to reach the goal")


def _spaced_interior(path: list[int], count: int) -> frozenset[int]:
    interior = path[1:-1]
    count = min(count, len(interior))
    return frozenset(interior[(k * len(interior)) // (count + 1)] for k in range(1, count + 1))


def greedy_intended_path(mdp: TabularMdp, side: int) -> list[int]:
    """States along the optimal policy's intended route from start to goal."""
    _, _, greedy = optimal_values(mdp)
    return _greedy_walk(greedy, mdp.start_state, side)


def default_careless_states(
    side: int, noise: float = 0.9, gamma: float = 0.95, count: int = 5
) -> frozenset[int]:
    """Evenly spaced interior states of the optimal corridor."""
    return _spaced_interior(greedy_intended_path(_grid_mdp(side, noise, gamma), side), count)


def build_gridworld(
    side: int = 10,
    noise: float = 0.9,
    careless_states: frozenset[int] | None = None,
    gamma: float = 0.95,
    explore: float = 0.0,
) -> tuple[TabularMdp, BehaviorPolicy]:
    """Build the grid navigation task and its careless-expert logger.

    Args:
        side: grid edge length; the MDP has exactly ``side**2`` states.
        noise: probability the intended move is executed; otherwise a
            uniformly random action (possibly the intended one) is simulated.
        explore: probability mass the expert spreads uniformly over all
            actions at non-careless states; 0 leaves the expert there
            deterministic.
        careless_states: where the expert takes the worst action (argmin of
            the true optimal Q) with probability 0.9 and the optimal action
            otherwise.  ``None`` selects 5 evenly spaced states on the
            optimal corridor.  Everywhere else the expert is exactly optimal.
        gamma: discount factor.

    The agent starts bottom-left; any action at the top-right goal cell pays
    Unif[0.9, 1.0] and teleports back to the start, so trajectories run to
    the horizon cap and the 100-state count of the 10x10 grid is preserved.
    """
    check("explore", explore, _PROBABILITY)
    mdp = _grid_mdp(side, noise, gamma)
    num_states = mdp.num_states
    if careless_states is not None:
        careless_states = list(careless_states)
        for s in careless_states:
            if not 0 <= check("careless state", s, _INTEGER) < num_states:
                raise ValueError(f"careless state {s} out of range")
        careless_states = frozenset(int(s) for s in careless_states)

    _, q_star, greedy = optimal_values(mdp)
    if careless_states is None:
        careless_states = _spaced_interior(_greedy_walk(greedy, mdp.start_state, side), 5)
    rows = np.full((num_states, GRID_ACTIONS), explore / GRID_ACTIONS)
    rows[np.arange(num_states), greedy] += 1.0 - explore
    for s in careless_states:
        worst = int(np.argmin(q_star[s]))
        best = int(greedy[s])
        rows[s, :] = 0.0
        if worst == best:
            rows[s, best] = 1.0
        else:
            rows[s, worst] = 0.9
            rows[s, best] = 0.1
    behavior = BehaviorPolicy(action_probabilities=rows, kind="careless-expert")
    return mdp, behavior


def build_environment(env_id: str, **params) -> tuple[TabularMdp, BehaviorPolicy]:
    """Build environment ``env_id`` of :data:`ENVIRONMENTS`; ``ValueError`` if its rules fail."""
    if env_id not in ENVIRONMENTS:
        raise ValueError(f"unknown environment id {env_id!r}; known ids: {sorted(ENVIRONMENTS)}")
    rules, build = ENVIRONMENTS[env_id]
    check_params(params, {}, rules)
    return build(**params)


# id -> (rules of its config keys, builder); the keys are the builder's keyword parameters.
ENVIRONMENTS = {
    "forest": (
        {"num_chains": COUNT, "depth": COUNT, "epsilon": _EPSILON, "gamma": FRACTION},
        build_forest_mdp,
    ),
    "cql": ({"num_risky": COUNT, "epsilon": _EPSILON, "gamma": FRACTION}, build_cql_mdp),
    "gridworld": ({
        "side": _SIDE,
        "noise": _PROBABILITY,
        "careless_states": rule("null or a list of integers", (list, type(None)),
                                lambda v: v is None or all(map(_INTEGER[1], v))),
        "gamma": FRACTION,
        "explore": _PROBABILITY,
    }, build_gridworld),
}

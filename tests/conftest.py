"""Shared builders for test fixtures; imported directly by test modules."""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from dprl.mdp import (
    BehaviorPolicy,
    RewardSpec,
    TabularMdp,
    Trajectory,
    TrajectoryDataset,
)

# CI runs with `--hypothesis-profile=ci`: every run draws the same examples,
# so a failure there reproduces locally with the same flag.
settings.register_profile("ci", derandomize=True, deadline=None)


def make_traj(states, actions, rewards, seed: int = 0) -> Trajectory:
    return Trajectory(
        states=np.asarray(states, dtype=np.int64),
        actions=np.asarray(actions, dtype=np.int64),
        rewards=np.asarray(rewards, dtype=np.float64),
        seed=seed,
    )


def make_dataset(trajectories, num_states: int, num_actions: int) -> TrajectoryDataset:
    return TrajectoryDataset.from_trajectories(trajectories, num_states, num_actions)


def deterministic_chain(
    num_states: int,
    gamma: float = 0.9,
    reward: float = 0.5,
    num_actions: int = 2,
) -> TabularMdp:
    """Line graph: every action moves right; last state is terminal.

    The step reward is ``reward`` everywhere for action 0 and half that for
    action 1, giving something for policies to disagree about.
    """
    transitions = np.zeros((num_states, num_actions, num_states))
    for s in range(num_states):
        nxt = min(s + 1, num_states - 1)
        transitions[s, :, nxt] = 1.0
    means = np.zeros((num_states, num_actions))
    means[:, 0] = reward
    means[:, 1:] = reward / 2.0
    return TabularMdp(
        transitions=transitions,
        rewards=RewardSpec.constant(means),
        gamma=gamma,
        start_state=0,
        terminal_states=frozenset({num_states - 1}),
        r_max=1.0,
        name=f"chain({num_states})",
    )


def three_state_eval_chain() -> tuple[TabularMdp, BehaviorPolicy]:
    """Chain s0 -> s1 -> s2(terminal) with interval rewards, gamma 0.8.

    Closed-form behaviour values under rows (0.6, 0.4):
    V(s1) = 0.42, V(s0) = 0.756, Q(s0, a0) = 0.636, Q(s0, a1) = 0.936.
    """
    transitions = np.zeros((3, 2, 3))
    transitions[0, :, 1] = 1.0
    transitions[1, :, 2] = 1.0
    transitions[2, :, 2] = 1.0
    lo = np.array([[0.2, 0.5], [0.0, 0.3], [0.0, 0.0]])
    hi = np.array([[0.4, 0.7], [1.0, 0.3], [0.0, 0.0]])
    mdp = TabularMdp(
        transitions=transitions,
        rewards=RewardSpec(lo=lo, hi=hi),
        gamma=0.8,
        start_state=0,
        terminal_states=frozenset({2}),
        r_max=1.0,
        name="eval-chain",
    )
    behavior = BehaviorPolicy(np.array([[0.6, 0.4]] * 3))
    return mdp, behavior


def uniform_behavior(num_states: int, num_actions: int) -> BehaviorPolicy:
    rows = np.full((num_states, num_actions), 1.0 / num_actions)
    return BehaviorPolicy(rows)


def random_mdp(
    rng: np.random.Generator,
    num_states: int,
    num_actions: int,
    gamma: float = 0.9,
) -> TabularMdp:
    """Dense random MDP with constant rewards and no terminal states."""
    raw = rng.random((num_states, num_actions, num_states)) ** 3
    transitions = raw / raw.sum(axis=2, keepdims=True)
    means = np.round(rng.random((num_states, num_actions)), 3)
    return TabularMdp(
        transitions=transitions,
        rewards=RewardSpec.constant(means),
        gamma=gamma,
        start_state=0,
        name="random",
    )


@st.composite
def random_datasets(draw):
    """Small logged datasets for byte-equality checks against the loop oracles.

    Covers zero trajectories, empty trajectories, states and actions that
    never occur, ten or more actions, long revisiting trajectories (groups
    of 8+ returns, where numpy's pairwise sum differs from a running sum)
    and rewards that either span several magnitudes or nearly tie.
    """
    num_states = draw(st.integers(1, 6))
    num_actions = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    used_states = rng.choice(num_states, size=draw(st.integers(1, num_states)), replace=False)
    used_actions = rng.choice(num_actions, size=draw(st.integers(1, num_actions)), replace=False)
    tie_prone = draw(st.booleans())
    trajs = []
    for seed in range(draw(st.integers(0, 8))):
        length = draw(st.sampled_from([0, 1, 2, 5, 12, 40]))
        if tie_prone:  # decimal rewards whose means tie up to rounding
            rewards = rng.choice([0.1, 0.15, 0.2, 0.3], length)
        else:
            rewards = rng.random(length) * 10.0 ** rng.integers(-3, 4, length)
        trajs.append(
            make_traj(
                rng.choice(used_states, length), rng.choice(used_actions, length), rewards, seed
            )
        )
    return make_dataset(trajs, num_states, num_actions)

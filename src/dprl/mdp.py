"""Tabular MDP primitives: reward models, behavior policies, trajectory data, value rules.

Conventions used throughout the package:

* States and actions are integer indices.
* ``transitions`` is a dense ``(S, A, S)`` tensor of next-state probabilities.
* Rewards are uniform on a per-(state, action) interval ``[lo, hi]``; a
  constant reward is encoded as ``lo == hi``.  Supports always lie inside
  ``[0, r_max]`` so sampled rewards never need clipping.
* Episodes stop on entering a terminal state or at the horizon cap.  Terminal
  states never appear as acted-at steps in a trajectory.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .estimation import VisitIndex

_ROW_SUM_TOL = 1e-9
_SEED_LIMIT = 2**64  # trajectory seeds are integers in [0, 2**64), numpy's uint64 range
_LOCKSTEP_SLOTS = 1 << 16  # trajectory steps simulated per lockstep block
_MASK32 = 0xFFFFFFFF


def _probability_rows(table: np.ndarray) -> np.ndarray:
    """Per last-axis row: entries >= 0 summing to 1 within tolerance; a NaN fails both tests."""
    return (np.abs(table.sum(axis=-1) - 1.0) <= _ROW_SUM_TOL) & (table >= 0.0).all(axis=-1)


def rule(what: str, kind, test: Callable) -> tuple:
    """A value rule ``(what, test)``: a non-bool ``kind`` instance passing ``test``."""
    return what, lambda v: isinstance(v, kind) and not isinstance(v, bool) and test(v)


def check(name: str, value, value_rule: tuple):
    """``value`` itself; ``ValueError("<name> must be <what>, got <value!r>")`` unless it passes."""
    what, test = value_rule
    if not test(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def check_params(params: dict, required: dict, optional: dict) -> None:
    """Raise ``ValueError`` for the first unknown, missing or rule-breaking key."""
    rules = {**optional, **required}
    unknown, missing = sorted(set(params) - set(rules)), sorted(set(required) - set(params))
    if unknown or missing:
        raise ValueError(f"unknown keys {unknown}" if unknown else f"missing keys {missing}")
    for key, value in params.items():
        check(key, value, rules[key])


def at_least(low: int) -> tuple:
    """The rule of an integer >= ``low``."""
    return rule(f"an integer >= {low}", numbers.Integral, lambda v: v >= low)


def one_of(*options: str) -> tuple:
    """The rule of a string among ``options``."""
    return rule(f"one of {list(options)}", str, lambda v: v in options)


# No rule passes a bool, and 2.0, nan and inf are not integers.
COUNT = at_least(1)
NONNEGATIVE = at_least(0)
FRACTION = rule("a number in (0, 1)", numbers.Real, lambda v: 0 < v < 1)
LEVEL = rule("a number in (0, 1]", numbers.Real, lambda v: 0 < v <= 1)
POSITIVE = rule("a positive finite number", numbers.Real, lambda v: 0 < v < math.inf)
RADIUS = rule("a finite number >= 0", numbers.Real, lambda v: 0 <= v < math.inf)
_KIND = rule("a string", str, lambda v: True)
_PARAMS = rule("an object", dict, lambda v: True)


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself, made read-only."""
    array.flags.writeable = False
    return array


class _Frozen:
    """Base of a frozen dataclass: pickles its fields alone, so what it caches stays out of
    the bytes, and unpickles its arrays read-only (numpy unpickles arrays writeable)."""

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                value = _read_only(value)
            object.__setattr__(self, name, value)


def _support_table(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each probability row's CDF at its positive entries, ``(R, K)``, and their ids, ``(R, K + 1)``.

    K is the widest row's number of positive entries.  ``cdf[r, j]`` is the
    row's running sum at its ``j``-th positive entry, bit for bit its full
    ``cumsum`` there, because adding a zero leaves a partial sum as it was;
    shorter rows are padded with ``+inf``.  ``ids[r, j]`` is that entry's
    column, padded with the row's last positive column.  The first full-row
    running sum above a ``u`` in ``[0, 1)`` always has positive mass, so
    ``ids[r, (cdf[r] <= u).sum()]`` is ``bisect_right`` on the full CDF row,
    clamped to the last positive column.
    """
    row, column = np.nonzero(rows > 0)  # row-major: each row's columns ascend
    support = np.bincount(row, minlength=len(rows))
    ends = np.cumsum(support)
    rank = np.arange(len(column)) - np.repeat(ends - support, support)
    width = int(support.max(initial=0))
    cdf = np.zeros((len(rows), width))
    cdf[row, rank] = rows[row, column]
    np.cumsum(cdf, axis=1, out=cdf)
    cdf[np.arange(width) >= support[:, None]] = np.inf
    ids = np.repeat(column[ends - 1][:, None], width + 1, axis=1)
    ids[row, rank] = column
    return _read_only(cdf), _read_only(ids)


class StepTables(NamedTuple):
    """What one lockstep step reads: tables over the flattened ``s * A + a`` pairs, and one mask."""

    successor_cdf: np.ndarray  # (S * A, K), see _support_table
    successor_ids: np.ndarray  # (S * A, K + 1)
    lo: np.ndarray  # (S * A,) reward interval lower ends
    span: np.ndarray  # (S * A,) hi - lo
    terminal: np.ndarray  # (S,) bool


@dataclass(frozen=True)
class RewardSpec(_Frozen):
    """Per-(state, action) uniform reward distributions.

    Attributes:
        lo: ``(S, A)`` array of interval lower endpoints.
        hi: ``(S, A)`` array of interval upper endpoints, ``hi >= lo``.

    Construction checks the bounds, then takes both arrays read-only (a
    float64 array passed in becomes read-only itself) and refuses attribute
    writes.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo, hi = _reals(self.lo, "lo"), _reals(self.hi, "hi")
        if lo.shape != hi.shape or lo.ndim != 2:
            raise ValueError("reward bounds must be matching (S, A) arrays")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("reward bounds must be finite")
        if np.any(hi < lo):
            raise ValueError("reward interval has hi < lo")
        object.__setattr__(self, "lo", _read_only(lo))
        object.__setattr__(self, "hi", _read_only(hi))

    def mean(self) -> np.ndarray:
        """Expected reward per (state, action)."""
        return (self.lo + self.hi) / 2.0

    @staticmethod
    def constant(values: np.ndarray) -> "RewardSpec":
        values = _reals(values, "values")
        return RewardSpec(lo=values.copy(), hi=values.copy())


@dataclass(frozen=True)
class TabularMdp(_Frozen):
    """Finite MDP with dense transition tensor and interval rewards.

    Attributes:
        transitions: ``(S, A, S)`` row-stochastic tensor.
        rewards: reward distributions, support inside ``[0, r_max]``.
        gamma: discount factor in ``(0, 1)``.
        start_state: initial state index.
        terminal_states: states that end an episode on entry.
        r_max: reward scale; ``v_max = r_max / (1 - gamma)`` is finite.
        name: short human-readable descriptor, e.g. ``forest(...)``.

    Construction checks the fields, then takes ``transitions`` read-only
    without copying it (a float64 table passed in becomes read-only itself)
    and refuses attribute writes.  So the tables built from the fields on
    first use (:attr:`step_tables`, :attr:`expected_rewards`) can never go
    stale; they stay out of pickles.
    """

    transitions: np.ndarray
    rewards: RewardSpec
    gamma: float
    start_state: int
    terminal_states: frozenset[int] = field(default_factory=frozenset)
    r_max: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        transitions = _reals(self.transitions, "transitions")
        if transitions.ndim != 3 or transitions.shape[0] != transitions.shape[2]:
            raise ValueError("transitions must have shape (S, A, S)")
        check("gamma", self.gamma, FRACTION)
        check("r_max", self.r_max, POSITIVE)
        bad = np.argwhere(~_probability_rows(transitions)).tolist()
        if bad:
            raise ValueError(f"transition row {bad[0]} must be nonnegative and sum to 1")
        if self.rewards.lo.shape != transitions.shape[:2]:
            raise ValueError("reward table shape must match (S, A)")
        if np.any(self.rewards.lo < 0.0) or np.any(self.rewards.hi > self.r_max + 1e-12):
            raise ValueError("reward support must be within [0, r_max]")
        num_states = transitions.shape[0]
        state = rule(f"a state id in [0, {num_states})", numbers.Integral,
                     lambda v: 0 <= v < num_states)
        check("start_state", self.start_state, state)
        terminal = frozenset(int(check("terminal state", t, state)) for t in self.terminal_states)
        object.__setattr__(self, "transitions", _read_only(transitions))
        object.__setattr__(self, "terminal_states", terminal)

    @property
    def num_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[1]

    @property
    def v_max(self) -> float:
        return self.r_max / (1.0 - self.gamma)

    @cached_property
    def expected_rewards(self) -> np.ndarray:
        """``rewards.mean()``, read-only, built on first use."""
        return _read_only(self.rewards.mean())

    @cached_property
    def step_tables(self) -> StepTables:
        """The successor tables of every (state, action) row and the flat reward bounds."""
        terminal = np.zeros(self.num_states, dtype=bool)
        terminal[list(self.terminal_states)] = True
        lo = _read_only(self.rewards.lo.ravel())
        return StepTables(
            *_support_table(self.transitions.reshape(-1, self.num_states)),
            lo=lo,
            span=_read_only(self.rewards.hi.ravel() - lo),
            terminal=_read_only(terminal),
        )

    @cached_property
    def logging_values(self) -> dict:
        """``id(behavior) -> (behavior, start value)``, filled by ``evaluation.exact_value``.

        Each entry holds its behaviour, so no other object can take its id
        while the entry lives.
        """
        return {}


@dataclass(frozen=True)
class BehaviorPolicy(_Frozen):
    """Stationary stochastic tabular policy: a logging policy or a baseline learner's output.

    Every row of the ``(S, A)`` table must be a probability row.  ``kind``
    names where the rows came from, a string other than ``"decision-point"``
    (the policy-file kind of a ``DecisionPointPolicy``), and ``params`` how
    they were learned, a dict.  Construction takes the table read-only (a
    float64 array passed in becomes read-only itself) and refuses attribute
    writes; :attr:`action_table` is built from it on first use.
    """

    action_probabilities: np.ndarray
    kind: str = "tabular-stochastic"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if check("kind", self.kind, _KIND) == "decision-point":
            raise ValueError("kind must not be 'decision-point', a DecisionPointPolicy's kind")
        check("params", self.params, _PARAMS)
        rows = _reals(self.action_probabilities, "action_probabilities")
        if rows.ndim != 2:
            raise ValueError("action_probabilities must be (S, A)")
        if not _probability_rows(rows).all():
            raise ValueError("every state's action distribution must be a probability row")
        object.__setattr__(self, "action_probabilities", _read_only(rows))

    def rows(self, behavior_rows: np.ndarray) -> np.ndarray:
        """A copy of the rows, which must have the behavior's (S, A) shape."""
        if self.action_probabilities.shape != behavior_rows.shape:
            raise ValueError(f"rows have shape {self.action_probabilities.shape}, "
                             f"the environment needs {behavior_rows.shape}")
        return self.action_probabilities.copy()

    @property
    def num_states(self) -> int:
        return self.action_probabilities.shape[0]

    @property
    def num_actions(self) -> int:
        return self.action_probabilities.shape[1]

    @cached_property
    def action_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The action CDF and ids of each state's row, see :func:`_support_table`."""
        return _support_table(self.action_probabilities)


def _int_ids(values, name: str) -> np.ndarray:
    """``values`` as int64 ids; an empty column may have any dtype, others must be integers."""
    ids = np.asarray(values)
    if ids.size and ids.dtype.kind not in "iu":  # no silent truncation of 1.5 to 1
        raise ValueError(f"{name} must hold integer ids, not {ids.dtype}")
    return ids.astype(np.int64, copy=False)


def _reals(values, name: str) -> np.ndarray:
    """``values`` as float64, any shape; an empty one may have any dtype, others must be numbers."""
    column = np.asarray(values)
    if column.size and column.dtype.kind not in "iuf":  # no "1" or True read as 1.0
        raise ValueError(f"{name} must hold numbers, not {column.dtype}")
    # Nor a bool among numbers, which numpy reads as float64 too; an ndarray has one dtype.
    if column.size and not isinstance(values, np.ndarray) and any(
            isinstance(v, bool) or getattr(v, "dtype", None) == np.bool_
            for v in np.asarray(values, dtype=object).flat):
        raise ValueError(f"{name} must hold numbers, not bool")
    return column.astype(np.float64, copy=False)


@dataclass
class Trajectory:
    """One episode: aligned state/action/reward arrays plus its RNG seed.

    The state entry at position ``t`` is the state an action was taken in;
    the final arrival state (terminal or horizon cutoff) is not recorded.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        self.states = _int_ids(self.states, "states")
        self.actions = _int_ids(self.actions, "actions")
        self.rewards = _reals(self.rewards, "rewards")
        if not (len(self.states) == len(self.actions) == len(self.rewards)):
            raise ValueError("states, actions and rewards must have equal length")

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class TrajectoryDataset(_Frozen):
    """A batch of trajectories stored as flat, read-only step columns.

    ``states``, ``actions`` and ``rewards`` hold every step in dataset order;
    trajectory ``i`` spans ``offsets[i]:offsets[i + 1]`` and was drawn from
    ``seeds[i]``.  Construction checks that the columns have equal length,
    that ``offsets`` runs from 0 to that length without decreasing, that
    ``num_states`` and ``num_actions`` are integers >= 0 (not bools), that
    every id lies in ``[0, num_states)`` or ``[0, num_actions)``, that every
    seed lies in ``[0, 2**64)`` and that every reward is a finite number
    (ids and offsets must already be integers, rewards numbers).  It then
    keeps read-only copies of the columns and refuses attribute writes, so
    :attr:`visits`, built from the columns on first use, can never go stale;
    it stays out of pickles, which unpickle the columns read-only.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    offsets: np.ndarray
    seeds: tuple[int, ...]
    num_states: int
    num_actions: int

    def __post_init__(self) -> None:
        for name in ("num_states", "num_actions"):
            object.__setattr__(self, name, int(check(name, getattr(self, name), NONNEGATIVE)))
        columns = {}
        for name, limit in (("states", self.num_states), ("actions", self.num_actions)):
            ids = columns[name] = _int_ids(getattr(self, name), name)
            outside = (ids < 0) | (ids >= limit)
            if outside.any():
                raise ValueError(f"{name[:-1]} id {ids[outside][0]} outside [0, {limit})")
        rewards = columns["rewards"] = _reals(self.rewards, "rewards")
        if not np.isfinite(rewards).all():
            raise ValueError(f"reward {rewards[~np.isfinite(rewards)][0]} is not finite")
        offsets = columns["offsets"] = _int_ids(self.offsets, "offsets")
        # Python ints, as the JSONL writes them; index() refuses floats.
        seeds = tuple(operator.index(s) for s in self.seeds)
        bad = [s for s in seeds if not 0 <= s < _SEED_LIMIT]
        if bad:
            raise ValueError(f"seed {bad[0]} outside [0, 2**64)")
        steps = columns["states"].size
        if not columns["states"].shape == columns["actions"].shape == rewards.shape == (steps,):
            raise ValueError("states, actions and rewards must be 1-d columns of equal length")
        if (offsets.shape != (len(seeds) + 1,) or offsets[0] != 0
                or offsets[-1] != steps or (np.diff(offsets) < 0).any()):
            raise ValueError(f"offsets must run from 0 to {steps} without decreasing, "
                             f"one more entry than the {len(seeds)} seeds")
        for name, column in columns.items():  # copies: the caller's array stays the caller's
            object.__setattr__(self, name, _read_only(column.copy()))
        object.__setattr__(self, "seeds", seeds)

    @classmethod
    def from_trajectories(
        cls, trajectories, num_states: int, num_actions: int
    ) -> "TrajectoryDataset":
        """Concatenate per-trajectory arrays into the columns, in the given order."""
        trajs = list(trajectories)
        offsets = np.zeros(len(trajs) + 1, dtype=np.int64)
        np.cumsum([len(t) for t in trajs], out=offsets[1:])
        return cls(
            states=np.concatenate([np.empty(0, np.int64), *(t.states for t in trajs)]),
            actions=np.concatenate([np.empty(0, np.int64), *(t.actions for t in trajs)]),
            rewards=np.concatenate([np.empty(0), *(t.rewards for t in trajs)]),
            offsets=offsets,
            seeds=tuple(t.seed for t in trajs),
            num_states=num_states,
            num_actions=num_actions,
        )

    def __len__(self) -> int:
        return len(self.seeds)

    def __iter__(self) -> Iterator[Trajectory]:
        """Each trajectory, its arrays views into the columns."""
        bounds = self.offsets.tolist()
        for seed, start, end in zip(self.seeds, bounds, bounds[1:]):
            yield Trajectory(self.states[start:end], self.actions[start:end],
                             self.rewards[start:end], seed)

    def total_steps(self) -> int:
        return len(self.states)

    @cached_property
    def visits(self) -> VisitIndex:
        """Where each trajectory visits each state and pair, built on first use."""
        from .estimation import VisitIndex  # estimation imports this module

        return VisitIndex(self)


def _hashmix(value, const: int, u32=int, mult: int = 0x931E8875):
    """numpy's ``SeedSequence`` hashmix and next constant; ``u32=np.uint32`` for uint32 arrays."""
    nxt = const * mult & _MASK32
    mixed = (value ^ u32(const)) * u32(nxt) & u32(_MASK32)
    return mixed ^ mixed >> u32(16), nxt


def _mix(value, word, const: int, u32=int):
    """numpy's ``SeedSequence`` mix of ``hashmix(word)`` into pool word ``value``; next constant."""
    mixed, const = _hashmix(word, const, u32)
    mixed = (u32(0xCA01F9DD) * value - u32(0x4973F715) * mixed) & u32(_MASK32)
    return mixed ^ mixed >> u32(16), const


def trajectory_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """Trajectory ``i``'s seed for each ``i`` in ``range(start, stop)``, uint64, in one pass.

    Each equals ``SeedSequence(entropy=master_seed, spawn_key=(i,))``'s
    ``generate_state(1, np.uint64)[0]``, so any trajectory can be regenerated
    alone.  The pool after the master's words, shared by all ``i``, is built
    in Python ints; the index words (two from 2**32 on) mix in as uint32
    lanes.  An index outside ``[0, 2**64)`` raises ``ValueError``.
    """
    master_seed, start, stop = map(operator.index, (master_seed, start, stop))
    if master_seed < 0:
        raise ValueError(f"master_seed must be an integer >= 0, got {master_seed}")
    if start >= stop:
        return np.empty(0, dtype=np.uint64)
    if start < 0 or stop > _SEED_LIMIT:
        raise ValueError(f"trajectory indices [{start}, {stop}) reach outside [0, 2**64)")
    # Little-endian words, zero-padded to the pool size as numpy pads a spawned sequence's.
    words = [master_seed >> shift & _MASK32 for shift in range(0, master_seed.bit_length(), 32)]
    words += [0] * (4 - len(words))
    pool, const = [], 0x43B0D7E5
    for word in words[:4]:
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(4):  # every ordered pair, so late words reach early ones
        for dst in range(4):
            if src != dst:
                pool[dst], const = _mix(pool[dst], pool[src], const)
    for word in words[4:]:
        for dst in range(4):
            pool[dst], const = _mix(pool[dst], word, const)
    index = np.arange(stop - start, dtype=np.uint64) + np.uint64(start)
    pool = [np.full(len(index), value, dtype=np.uint32) for value in pool]
    low, high = (index & np.uint64(_MASK32)).astype(np.uint32), index >> np.uint64(32)
    for dst in range(4):
        pool[dst], const = _mix(pool[dst], low, const, np.uint32)
    if high.any():  # a second index word mixes into its lanes alone
        long, high = high > np.uint64(0), high.astype(np.uint32)
        for dst in range(4):
            mixed, const = _mix(pool[dst], high, const, np.uint32)
            pool[dst] = np.where(long, mixed, pool[dst])
    word0, const = _hashmix(pool[0], 0x8B51F9DD, np.uint32, mult=0x58F38DED)  # generate_state
    word1, _ = _hashmix(pool[1], const, np.uint32, mult=0x58F38DED)
    return word0.astype(np.uint64) | word1.astype(np.uint64) << np.uint64(32)


def trajectory_seed(master_seed: int, index: int) -> int:
    """The RNG seed of trajectory ``index``, see :func:`trajectory_seeds`."""
    return int(trajectory_seeds(master_seed, index, operator.index(index) + 1)[0])


def _lockstep_rollout(
    mdp: TabularMdp, policy: BehaviorPolicy, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Step every episode at once from its ``(horizon, 3)`` block of uniforms.

    Row ``t`` of a block holds the action, reward and successor uniforms of
    step ``t``.  Returns padded ``(N, horizon)`` states, actions and rewards
    plus the ``(N,)`` episode lengths; entries past a length are garbage.
    """
    num_trajectories, horizon, _ = draws.shape
    num_actions = mdp.num_actions
    action_cdf, action_ids = policy.action_table
    table = mdp.step_tables

    states = np.empty((num_trajectories, horizon), dtype=np.int64)
    actions = np.empty((num_trajectories, horizon), dtype=np.int64)
    rewards = np.empty((num_trajectories, horizon))
    lengths = np.full(num_trajectories, horizon)
    live = np.arange(num_trajectories)
    s = np.full(num_trajectories, mdp.start_state, dtype=np.int64)
    for t in range(horizon):
        done = table.terminal[s]
        if done.any():
            lengths[live[done]] = t
            live, s = live[~done], s[~done]
        if not live.size:
            break
        u = draws[live, t]
        # Counting a row's support CDF entries <= u is bisect_right on its full CDF row.
        a = action_ids[s, (action_cdf[s] <= u[:, :1]).sum(axis=1)]
        sa = s * num_actions + a
        states[live, t] = s
        actions[live, t] = a
        rewards[live, t] = table.lo[sa] + u[:, 1] * table.span[sa]
        s = table.successor_ids[sa, (table.successor_cdf[sa] <= u[:, 2:]).sum(axis=1)]
    return states, actions, rewards, lengths


def simulate(
    mdp: TabularMdp,
    policy: BehaviorPolicy,
    num_trajectories: int,
    horizon: int,
    master_seed: int,
) -> TrajectoryDataset:
    """Roll out ``num_trajectories`` independent episodes.

    Args:
        mdp: environment to sample from.
        policy: row-stochastic action distribution per state.
        num_trajectories: episode count, an integer >= 0.
        horizon: hard cap on episode length, an integer >= 1.
        master_seed: root seed, an integer >= 0; per-trajectory streams are split from it.

    Returns:
        TrajectoryDataset that is bit-identical across repeat calls.
    """
    if policy.num_states != mdp.num_states or policy.num_actions != mdp.num_actions:
        raise ValueError("policy shape does not match the MDP")
    num_trajectories = int(check("num_trajectories", num_trajectories, NONNEGATIVE))
    horizon = int(check("horizon", horizon, COUNT))
    master_seed = int(check("master_seed", master_seed, NONNEGATIVE))

    # Each trajectory keeps its own stream, so trajectory i is reproducible
    # on its own; blocks of trajectories then step in lockstep.  The block
    # size bounds the padded buffers at _LOCKSTEP_SLOTS steps.
    seeds: list[int] = []
    columns = ([np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)])
    lengths = [np.zeros(1, dtype=np.int64)]  # offsets are their running sum
    block = max(1, _LOCKSTEP_SLOTS // horizon)
    for first in range(0, num_trajectories, block):
        block_seeds = trajectory_seeds(
            master_seed, first, min(first + block, num_trajectories)).tolist()
        draws = np.empty((len(block_seeds), horizon, 3))
        for row, seed in zip(draws, block_seeds):
            np.random.default_rng(seed).random(out=row)
        *padded, block_lengths = _lockstep_rollout(mdp, policy, draws)
        # A row-major mask keeps each episode's steps, episodes in order.
        logged = np.arange(horizon) < block_lengths[:, None]
        for column, values in zip(columns, padded):
            column.append(values[logged])
        seeds += block_seeds
        lengths.append(block_lengths)
    states, actions, rewards = (np.concatenate(column) for column in columns)
    return TrajectoryDataset(
        states=states,
        actions=actions,
        rewards=rewards,
        offsets=np.cumsum(np.concatenate(lengths)),
        seeds=seeds,
        num_states=mdp.num_states,
        num_actions=mdp.num_actions,
    )


class DatasetError(ValueError):
    """A trajectory file line that does not describe a valid trajectory."""


def save_dataset(dataset: TrajectoryDataset, path: str | Path) -> None:
    """Write one JSON object per trajectory: ``{"seed": ..., "steps": [[s, a, r], ...]}``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for traj in dataset:
            steps = list(zip(traj.states.tolist(), traj.actions.tolist(), traj.rewards.tolist()))
            fh.write(json.dumps({"seed": traj.seed, "steps": steps}) + "\n")


def _id_column(values: tuple, limit: int, what: str, where: str) -> np.ndarray:
    """One column of state or action ids; each must be an integer in ``[0, limit)``."""
    if not all(type(v) is int for v in values):
        bad = next(v for v in values if type(v) is not int)
        raise DatasetError(f"{where}: {what} id {bad!r} is not an integer")
    if values and (min(values) < 0 or max(values) >= limit):
        bad = next(v for v in values if not 0 <= v < limit)
        raise DatasetError(f"{where}: {what} id {bad} outside [0, {limit})")
    return np.asarray(values, dtype=np.int64)


def _read_trajectory(line: str, num_states: int, num_actions: int, where: str) -> Trajectory:
    try:
        record = json.loads(line)
        steps, seed = record["steps"], record["seed"]
        states, actions, rewards = zip(*steps) if steps else ((), (), ())
        well_formed = sum(map(len, steps)) == 3 * len(steps)
        numeric = all(type(r) in (int, float) for r in rewards)
        reward_array = np.asarray(rewards if numeric else (), dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(
            f'{where}: expected {{"seed": int, "steps": [[s, a, r], ...]}} ({exc})'
        ) from exc
    if type(seed) is not int or not 0 <= seed < _SEED_LIMIT:
        raise DatasetError(f"{where}: seed {seed!r} is not an integer in [0, 2**64)")
    if not well_formed:
        raise DatasetError(f"{where}: every step must be a [state, action, reward] triple")
    if not numeric or not np.isfinite(reward_array).all():
        bad = next(r for r in rewards if type(r) not in (int, float) or not math.isfinite(r))
        raise DatasetError(f"{where}: reward {bad!r} is not a finite number")
    return Trajectory(
        states=_id_column(states, num_states, "state", where),
        actions=_id_column(actions, num_actions, "action", where),
        rewards=reward_array,
        seed=seed,
    )


def load_dataset(path: str | Path, num_states: int, num_actions: int) -> TrajectoryDataset:
    """Read a line-delimited trajectory file written by :func:`save_dataset`.

    Ids outside ``[0, num_states)`` or ``[0, num_actions)``, non-integer ids,
    seeds that are not integers in ``[0, 2**64)`` and non-finite rewards
    raise :class:`DatasetError` naming the line; text that is not UTF-8 one naming the file.
    """
    trajectories: list[Trajectory] = []
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    trajectories.append(
                        _read_trajectory(line, num_states, num_actions, f"{path} line {lineno}")
                    )
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: {exc}") from exc
    return TrajectoryDataset.from_trajectories(trajectories, num_states, num_actions)

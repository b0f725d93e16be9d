"""Tabular MDP primitives: reward models, behavior policies, trajectory data, value rules.

Conventions used throughout the package:

* States and actions are integer indices.
* ``transitions`` is a dense ``(S, A, S)`` tensor of next-state probabilities;
  solvers read its nonzero entries as an edge list (:class:`Edges`).
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
INTEGER = rule("an integer", numbers.Integral, lambda v: True)
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


class Edges(NamedTuple):
    """The nonzero entries of an ``(S, A, S)`` transition table, flat and in row order.

    Edge ``k`` leads from the pair ``pair[k] = s * A + a`` to the state
    ``successor[k]`` with ``probability[k]``; pairs ascend, and each pair's
    successors ascend.
    """

    pair: np.ndarray
    successor: np.ndarray
    probability: np.ndarray


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
        lo, hi = _array(self.lo, "lo"), _array(self.hi, "hi")
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
    first use (:attr:`step_tables`, :attr:`edges`, :attr:`expected_rewards`)
    can never go stale; they stay out of pickles.
    """

    transitions: np.ndarray
    rewards: RewardSpec
    gamma: float
    start_state: int
    terminal_states: frozenset[int] = field(default_factory=frozenset)
    r_max: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        transitions = _array(self.transitions, "transitions")
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
    def edges(self) -> Edges:
        """The table's nonzero transitions, read-only, built on first use."""
        index = np.flatnonzero(self.transitions)
        pair, successor = np.divmod(index, self.num_states)
        return Edges(_read_only(pair), _read_only(successor),
                     _read_only(self.transitions.ravel()[index]))


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
        rows = _array(self.action_probabilities, "action_probabilities")
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


def _array(values, name: str, ids: bool = False) -> np.ndarray:
    """``values`` as int64 ids or float64 numbers, any shape; an empty one may have any dtype.

    No bool or string is read as a number, nor a non-integer as an id: numpy
    would store True as 1, "1" as 1.0 and 1.5 as id 1.
    """
    array = np.asarray(values)
    kinds, what = ("iu", "integer ids") if ids else ("iuf", "numbers")
    # Nor a bool among numbers, which numpy casts to their dtype, nor an id past int64, which
    # numpy stores as a float among Python ints; an ndarray has one dtype.
    if array.size and not isinstance(values, np.ndarray):
        items = list(np.asarray(values, dtype=object).flat)
        if ids and (big := [v for v in items if isinstance(v, numbers.Integral) and v >= 2**63]):
            raise ValueError(f"{name} must hold ids below 2**63, got {max(big)}")
        if array.dtype.kind in kinds and any(
                isinstance(v, bool) or getattr(v, "dtype", None) == np.bool_ for v in items):
            raise ValueError(f"{name} must hold {what}, not bool")
    if array.size and array.dtype.kind not in kinds:
        raise ValueError(f"{name} must hold {what}, not {array.dtype}")
    # Nor an unsigned id past int64, which the cast would wrap to a negative one.
    if ids and array.dtype.kind == "u" and array.size and array.max() >= 2**63:
        raise ValueError(f"{name} must hold ids below 2**63, got {array.max()}")
    return array.astype(np.int64 if ids else np.float64, copy=False)


@dataclass(frozen=True)
class Trajectory:
    """One episode: aligned state/action/reward arrays plus its RNG seed.

    The state entry at position ``t`` is the state an action was taken in;
    the final arrival state (terminal or horizon cutoff) is not recorded.
    A record without checks: :meth:`TrajectoryDataset.from_trajectories` checks it.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    seed: int

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class TrajectoryDataset(_Frozen):
    """A batch of trajectories stored as flat, read-only step columns.

    ``states``, ``actions`` and ``rewards`` hold every step in dataset order;
    trajectory ``i`` spans ``offsets[i]:offsets[i + 1]`` and was drawn from
    ``seeds[i]``.  Construction checks that the columns have equal length,
    that ``offsets`` runs from 0 to that length without decreasing, that
    ``num_states`` and ``num_actions`` are integers >= 0, that every id
    lies in ``[0, num_states)`` or ``[0, num_actions)``, that every seed is
    an integer in ``[0, 2**64)`` and that every reward is a finite number
    (ids and offsets must be integers, rewards numbers, none a bool).  It then
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
            ids = columns[name] = _array(getattr(self, name), name, ids=True)
            outside = (ids < 0) | (ids >= limit)
            if outside.any():
                raise ValueError(f"{name[:-1]} id {ids[outside][0]} outside [0, {limit})")
        rewards = columns["rewards"] = _array(self.rewards, "rewards")
        if not np.isfinite(rewards).all():
            raise ValueError(f"reward {rewards[~np.isfinite(rewards)][0]} is not finite")
        offsets = columns["offsets"] = _array(self.offsets, "offsets", ids=True)
        seeds = tuple(int(check("seed", s, INTEGER)) for s in self.seeds)
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
        """Concatenate the trajectories' arrays into the columns, in the given order; each
        trajectory's ids must be integers and its rewards numbers, 1-d and of equal length."""
        trajs = list(trajectories)
        columns = [[np.empty(0, np.int64), *(_array(getattr(t, name), name, ids) for t in trajs)]
                   for name, ids in (("states", True), ("actions", True), ("rewards", False))]
        if any(not s.shape == a.shape == r.shape == (s.size,) for s, a, r in zip(*columns)):
            raise ValueError("states, actions and rewards must be 1-d and of equal length")
        states, actions, rewards = map(np.concatenate, columns)
        return cls(states=states, actions=actions, rewards=rewards,
                   offsets=np.cumsum([s.size for s in columns[0]]), seeds=[t.seed for t in trajs],
                   num_states=num_states, num_actions=num_actions)

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


def _hashmix(value: np.ndarray, const: int, mult: int = 0x931E8875) -> tuple[np.ndarray, int]:
    """numpy's ``SeedSequence`` hashmix of uint32 lanes ``value``, and the next constant."""
    nxt = const * mult & _MASK32
    mixed = (value ^ np.uint32(const)) * np.uint32(nxt)
    return mixed ^ mixed >> np.uint32(16), nxt


def _mix(value: np.ndarray, word: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    """numpy's ``SeedSequence`` mix of ``hashmix(word)`` into uint32 lanes ``value``; next const."""
    mixed, const = _hashmix(word, const)
    mixed = np.uint32(0xCA01F9DD) * value - np.uint32(0x4973F715) * mixed
    return mixed ^ mixed >> np.uint32(16), const


def trajectory_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """Trajectory ``i``'s seed for each ``i`` in ``range(start, stop)``, uint64, in one pass.

    Each equals ``SeedSequence(entropy=master_seed, spawn_key=(i,))``'s
    ``generate_state(1, np.uint64)[0]``, so any trajectory can be regenerated
    alone.  The pool after the master's words, shared by all ``i``, is
    ``SeedSequence(master_seed).pool``; the index words (two from 2**32 on)
    mix into it as uint32 lanes.  An index outside ``[0, 2**64)`` raises
    ``ValueError``, as does a bool or non-integer argument.
    """
    master_seed = int(check("master_seed", master_seed, NONNEGATIVE))
    start = int(check("start", start, INTEGER))
    stop = int(check("stop", stop, INTEGER))
    if start >= stop:
        return np.empty(0, dtype=np.uint64)
    if start < 0 or stop > _SEED_LIMIT:
        raise ValueError(f"trajectory indices [{start}, {stop}) reach outside [0, 2**64)")
    index = np.arange(stop - start, dtype=np.uint64) + np.uint64(start)
    pool = [np.full(len(index), value, dtype=np.uint32)
            for value in np.random.SeedSequence(master_seed).pool]
    # The pool took 4 hashmixes per master word, at least 4 words; the index words go on from there.
    words = -(-master_seed.bit_length() // 32)
    const = 0x43B0D7E5 * pow(0x931E8875, 4 * max(4, words), 2**32) & _MASK32
    low, high = (index & np.uint64(_MASK32)).astype(np.uint32), index >> np.uint64(32)
    for dst in range(4):
        pool[dst], const = _mix(pool[dst], low, const)
    if high.any():  # a second index word mixes into its lanes alone
        long, high = high > np.uint64(0), high.astype(np.uint32)
        for dst in range(4):
            mixed, const = _mix(pool[dst], high, const)
            pool[dst] = np.where(long, mixed, pool[dst])
    word0, const = _hashmix(pool[0], 0x8B51F9DD, mult=0x58F38DED)  # generate_state
    word1, _ = _hashmix(pool[1], const, mult=0x58F38DED)
    return word0.astype(np.uint64) | word1.astype(np.uint64) << np.uint64(32)


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
    states, actions, rewards, bounds = (
        c.tolist() for c in (dataset.states, dataset.actions, dataset.rewards, dataset.offsets))
    with path.open("w", encoding="utf-8") as fh:
        for seed, start, end in zip(dataset.seeds, bounds, bounds[1:]):
            steps = list(zip(states[start:end], actions[start:end], rewards[start:end]))
            fh.write(json.dumps({"seed": seed, "steps": steps}) + "\n")


def _id_column(values: tuple, limit: int, what: str, where: str) -> tuple:
    """One line's state or action ids; each must be an integer in ``[0, limit)``."""
    if not all(type(v) is int for v in values):
        bad = next(v for v in values if type(v) is not int)
        raise DatasetError(f"{where}: {what} id {bad!r} is not an integer")
    if values and (min(values) < 0 or max(values) >= limit):
        bad = next(v for v in values if not 0 <= v < limit)
        raise DatasetError(f"{where}: {what} id {bad} outside [0, {limit})")
    return values


def _read_trajectory(line: str, num_states: int, num_actions: int, where: str) -> tuple:
    """One line's seed and its state, action and reward tuples, checked."""
    try:
        record = json.loads(line)
        steps, seed = record["steps"], record["seed"]
        states, actions, rewards = zip(*steps) if steps else ((), (), ())
        well_formed = sum(map(len, steps)) == 3 * len(steps)
        numeric = all(type(r) in (int, float) for r in rewards)
        finite = numeric and all(map(math.isfinite, rewards))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(
            f'{where}: expected {{"seed": int, "steps": [[s, a, r], ...]}} ({exc})'
        ) from exc
    if type(seed) is not int or not 0 <= seed < _SEED_LIMIT:
        raise DatasetError(f"{where}: seed {seed!r} is not an integer in [0, 2**64)")
    if not well_formed:
        raise DatasetError(f"{where}: every step must be a [state, action, reward] triple")
    if not finite:
        bad = next(r for r in rewards if type(r) not in (int, float) or not math.isfinite(r))
        raise DatasetError(f"{where}: reward {bad!r} is not a finite number")
    return (seed, _id_column(states, num_states, "state", where),
            _id_column(actions, num_actions, "action", where), rewards)


def load_dataset(path: str | Path, num_states: int, num_actions: int) -> TrajectoryDataset:
    """Read a line-delimited trajectory file written by :func:`save_dataset`.

    Ids outside ``[0, num_states)`` or ``[0, num_actions)``, non-integer ids,
    seeds that are not integers in ``[0, 2**64)`` and non-finite rewards
    raise :class:`DatasetError` naming the line; text that is not UTF-8 one naming the file.
    """
    seeds, lengths, columns = [], [0], ([], [], [])
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    seed, *steps = _read_trajectory(line, num_states, num_actions,
                                                    f"{path} line {lineno}")
                    seeds.append(seed)
                    lengths.append(len(steps[0]))
                    for column, values in zip(columns, steps):
                        column.extend(values)
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: {exc}") from exc
    states, actions, rewards = columns
    return TrajectoryDataset(np.array(states, dtype=np.int64), np.array(actions, dtype=np.int64),
                             np.array(rewards, dtype=np.float64), np.cumsum(lengths), seeds,
                             num_states, num_actions)

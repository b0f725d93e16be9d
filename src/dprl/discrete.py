"""Decision-point policy improvement for tabular datasets.

The pipeline restricts policy improvement to state-action pairs that are
both well supported (visit count at least ``n_wedge``) and no worse than the
logging policy's own estimated state value.  States with no such action
defer to the logging policy at run time.  Over the decision-point states an
elevated semi-Markov model is built from consecutive first visits within
each trajectory, and exact policy iteration on that model yields the final
deterministic verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import (
    FIRST_VISIT,
    CountTable,
    ValueEstimates,
    count_visits,
    longest_first,
    monte_carlo_estimates,
)
from .mdp import COUNT, FRACTION, NONNEGATIVE, TrajectoryDataset, check, one_of
from .solvers import policy_iteration

TAIL_DROP = "drop"
TAIL_ABSORB = "absorb"
TAIL_MODES = (TAIL_DROP, TAIL_ABSORB)
TAIL_MODE = one_of(*TAIL_MODES)


@dataclass
class DecisionPointSets:
    """The gate's output: decision points are the states where ``gate`` passes some action.

    ``gate`` is the ``(S, A)`` bool :func:`advantage_mask`, ``observed`` the
    ``(S,)`` bool ``n_s >= 1`` and ``n_wedge`` the count threshold.  Every
    other observed state defers.
    """

    gate: np.ndarray
    observed: np.ndarray
    n_wedge: int

    @property
    def decision_states(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.gate.any(axis=1)).tolist())

    @property
    def defer_states(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.observed & ~self.gate.any(axis=1)).tolist())


@dataclass
class SmdpModel:
    """Empirical semi-Markov model over decision-point states.

    Index ``i`` refers to ``states[i]``; the extra final column indexes the
    virtual absorbing end-of-episode state (zero value).  Cells with zero
    count hold 0 in every table.

    Attributes:
        states: ascending decision-point state ids.
        counts: ``(D, A, D + 1)`` segment counts.
        p_tilde: counts normalized over each ``(state, action)`` row.
        gamma_tilde: mean discount ``gamma**k`` across observed segments.
        r_tilde: mean discounted segment reward per transition.
        r_bar: ``(D, A)`` expected segment reward under ``p_tilde``.
    """

    states: tuple[int, ...]
    counts: np.ndarray
    p_tilde: np.ndarray
    gamma_tilde: np.ndarray
    r_tilde: np.ndarray
    r_bar: np.ndarray


@dataclass
class DecisionPointPolicy:
    """Deterministic verdicts at decision points, deferral elsewhere.

    A state with no verdict, listed in ``defer_states`` or not, runs the
    logging policy.  No state is both a verdict and a deferral.  ``n_wedge``
    is an integer >= 1, ``iterations`` one >= 0, and every state and action
    id an integer >= 0, kept as a Python int.
    """

    n_wedge: int
    verdicts: dict[int, int]
    defer_states: frozenset[int]
    iterations: int
    provenance: DecisionPointSets | None = None

    def __post_init__(self) -> None:
        self.n_wedge = int(check("n_wedge", self.n_wedge, COUNT))
        self.iterations = int(check("iterations", self.iterations, NONNEGATIVE))
        for name, ids in (("verdict state id", self.verdicts), ("defer state id", self.defer_states),
                          ("verdict action id", self.verdicts.values())):
            for i in ids:
                check(name, i, NONNEGATIVE)
        self.verdicts = {int(s): int(a) for s, a in self.verdicts.items()}
        self.defer_states = frozenset(map(int, self.defer_states))
        both = self.verdicts.keys() & self.defer_states
        if both:
            raise ValueError(f"state {min(both)} is both a verdict and a deferral")

    def rows(self, behavior_rows: np.ndarray) -> np.ndarray:
        """A copy of ``behavior_rows`` with each verdict state's row one-hot on its action."""
        num_states, num_actions = behavior_rows.shape
        if not all(s < num_states for s in (*self.verdicts, *self.defer_states)):
            raise ValueError(f"a state id lies outside [0, {num_states})")
        if not all(a < num_actions for a in self.verdicts.values()):
            raise ValueError(f"an action id lies outside [0, {num_actions})")
        rows = behavior_rows.copy()
        for s, a in self.verdicts.items():
            rows[s, :] = 0.0
            rows[s, a] = 1.0
        return rows


def advantage_mask(counts: np.ndarray, q_hat: np.ndarray, v_hat, n_wedge: int) -> np.ndarray:
    """The gate: True where an action's count is at least ``n_wedge`` and ``q_hat >= v_hat``.

    ``v_hat`` holds one value per row of ``q_hat`` (a scalar for one row).
    Ties qualify; undefined (nan) estimates never do.
    """
    return (counts >= n_wedge) & (q_hat >= np.asarray(v_hat)[..., None])


def identify_decision_points(
    counts: CountTable, estimates: ValueEstimates, n_wedge: int
) -> DecisionPointSets:
    """The :class:`DecisionPointSets` of :func:`advantage_mask` on these counts and estimates."""
    n_wedge = int(check("n_wedge", n_wedge, COUNT))
    return DecisionPointSets(
        gate=advantage_mask(counts.n_sa, estimates.q_hat, estimates.v_hat, n_wedge),
        observed=counts.n_s >= 1,
        n_wedge=n_wedge,
    )


def make_smdp(
    dataset: TrajectoryDataset,
    dp: DecisionPointSets,
    gamma: float,
    tail_mode: str = TAIL_ABSORB,
) -> SmdpModel:
    """Accumulate the elevated transition model over decision points.

    Within each trajectory the first visit of every decision-point state is
    recorded (the state first visits of ``dataset.visits``, the estimator's
    own, kept at decision states); consecutive recorded times ``(t, t')``
    contribute one segment keyed by the state-action at ``t`` and the state
    at ``t'``, carrying the discount ``gamma**(t' - t)`` and the discounted
    reward over steps ``t`` through ``t' - 1``.  With ``tail_mode="absorb"`` the remainder of each
    trajectory after its last recorded visit becomes a segment into the
    virtual absorbing state, carrying the full discounted tail reward; with
    ``"drop"`` it is discarded.  ``gamma**k`` is the running product of ``k``
    factors ``gamma``, and each segment's reward is summed left to right, so
    the tables come from IEEE elementwise operations alone (no BLAS ``dot``,
    no ``pow``) and equal a per-trajectory loop's; segments are added to
    their cells in dataset order.
    """
    check("tail_mode", tail_mode, TAIL_MODE)
    check("gamma", gamma, FRACTION)
    states = tuple(np.flatnonzero(dp.gate.any(axis=1)).tolist())
    num_dp = len(states)
    counts = np.zeros((num_dp, dataset.num_actions, num_dp + 1), dtype=np.int64)
    disc = np.zeros(counts.shape)
    gain = np.zeros(counts.shape)

    # Segments run from each first visit to the next one in its trajectory;
    # the last one runs to the trajectory's end, into the absorbing column.
    visits = dataset.visits
    first = visits.order("state", FIRST_VISIT)
    is_decision = np.zeros(dataset.num_states, dtype=bool)
    is_decision[list(states)] = True
    starts = np.sort(first[is_decision[dataset.states[first]]])
    rows = np.searchsorted(states, dataset.states[starts])
    owner = visits.trajectory[starts]
    last = np.diff(owner, append=-1) != 0
    ends = np.where(last, dataset.offsets[owner + 1], np.roll(starts, -1))
    targets = np.where(last, num_dp, np.roll(rows, -1))
    if tail_mode == TAIL_DROP:
        starts, ends, rows, targets = (x[~last] for x in (starts, ends, rows, targets))
    lengths = ends - starts
    powers = np.multiply.accumulate(np.r_[1.0, np.full(lengths.max(initial=0), gamma)])
    # Every segment's reward summed left to right at once: longest first, step
    # k adds to the live[k] segments longer than k.  add.at then accumulates
    # the segments in dataset order.
    order, live = longest_first(lengths)
    first = starts[order]
    acc = np.zeros(len(order))
    for k, m in enumerate(live.tolist()):
        acc[:m] += dataset.rewards[first[:m] + k] * powers[k]
    gains = np.empty_like(acc)
    gains[order] = acc
    cells = (rows, dataset.actions[starts], targets)
    np.add.at(counts, cells, 1)
    np.add.at(disc, cells, powers[lengths])
    np.add.at(gain, cells, gains)

    observed = counts > 0
    p_tilde = np.zeros_like(disc)
    gamma_tilde = np.zeros_like(disc)
    r_tilde = np.zeros_like(disc)
    row_totals = counts.sum(axis=2)
    np.divide(counts, row_totals[:, :, None], out=p_tilde, where=row_totals[:, :, None] > 0)
    np.divide(disc, counts, out=gamma_tilde, where=observed)
    np.divide(gain, counts, out=r_tilde, where=observed)
    r_bar = (r_tilde * p_tilde).sum(axis=2)
    return SmdpModel(
        states=states,
        counts=counts,
        p_tilde=p_tilde,
        gamma_tilde=gamma_tilde,
        r_tilde=r_tilde,
        r_bar=r_bar,
    )


def smdp_policy_iteration(
    model: SmdpModel,
    dp: DecisionPointSets,
    estimates: ValueEstimates,
    history: list | None = None,
) -> DecisionPointPolicy:
    """Exact policy iteration over the elevated model.

    The initial verdict at each decision point is its highest-``q_hat``
    action passing ``dp.gate``; a model state with no such action raises
    ``ValueError``.  Each round solves ``(I - W_pi) v = r_pi`` exactly, where
    ``W`` holds the per-transition discounted weights into decision points
    (the absorbing tail is worth zero) and a pair lacking elevated data has
    a zero weight row and reward ``q_hat``.  It then scores every passing
    pair by ``r + W v`` and takes each state's best, ties to the lowest
    action index, until that greedy policy repeats one already taken
    (:func:`solvers.policy_iteration`, the stopping rule the baselines
    share).  ``history``, if given, receives ``(values, policy)`` of every round.
    """
    states = np.array(model.states, dtype=np.int64)
    num_dp = len(states)
    known = np.isin(states, np.flatnonzero(dp.gate.any(axis=1)))
    if not known.all():
        raise ValueError(f"model state {states[~known][0]} has no action passing the gate in dp")
    q_hat = estimates.q_hat[states]
    has_data = model.counts.sum(axis=2) > 0
    weights = np.where(
        has_data[:, :, None], model.p_tilde[:, :, :num_dp] * model.gamma_tilde[:, :, :num_dp], 0.0
    )
    reward = np.where(has_data, model.r_bar, q_hat)
    rows = np.arange(num_dp)

    def score(policy: np.ndarray) -> np.ndarray:
        system = np.eye(num_dp) - weights[rows, policy]
        try:
            values = np.linalg.solve(system, reward[rows, policy])
        except np.linalg.LinAlgError as exc:
            worst = model.states[int(np.argmax(np.abs(np.diag(system) - 1.0)))]
            raise RuntimeError(
                f"singular evaluation system; check segment discounts at decision state {worst}"
            ) from exc
        if history is not None:
            history.append((values, policy))
        # One (1 x D) @ (D x 1) product per pair, which numpy computes with the same
        # BLAS dot as np.dot(weights[i, a], values).  A gemv (weights @ values)
        # rounds differently and can flip a last-bit tie between two actions.
        return reward + (weights[:, :, None, :] @ values[:, None])[:, :, 0, 0]

    policy, iterations = policy_iteration(score, dp.gate[states], q_hat)
    return DecisionPointPolicy(
        n_wedge=dp.n_wedge,
        verdicts=dict(zip(states.tolist(), policy.tolist())),
        defer_states=dp.defer_states,
        iterations=iterations,
        provenance=dp,
    )


def train_decision_point_policy(
    dataset: TrajectoryDataset,
    n_wedge: int,
    gamma: float,
    tail_mode: str = TAIL_ABSORB,
    count_mode: str = FIRST_VISIT,
) -> DecisionPointPolicy:
    """Count, estimate, gate, elevate and optimize in one call."""
    counts = count_visits(dataset, mode=count_mode)
    estimates = monte_carlo_estimates(dataset, gamma, mode=count_mode)
    dp = identify_decision_points(counts, estimates, n_wedge)
    model = make_smdp(dataset, dp, gamma, tail_mode=tail_mode)
    return smdp_policy_iteration(model, dp, estimates)

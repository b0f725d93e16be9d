"""Worst-case improvement guarantees for offline policy improvement.

Each calculator returns the (negative) high-probability lower bound on the
value difference between a learned policy and the logging policy, so a
number closer to zero is a stronger guarantee.  The density-filtered
planner's bound is an order-of-magnitude expression: all hidden constants
are set to 1 and the polylog factor to ``ln(S * A / delta)``, so it is
comparable only up to constants and is marked as such in emitted tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import CountTable
from .mdp import COUNT, FRACTION, LEVEL, NONNEGATIVE, POSITIVE, RADIUS, check, rule

VARIANT_STATEMENT = "statement"
VARIANT_PROOF = "proof"
VARIANT = rule("'statement' or 'proof'", str, lambda v: v in (VARIANT_STATEMENT, VARIANT_PROOF))


@dataclass
class BoundInputs:
    """Everything the bound family can consume; calculators validate what they use.

    Attributes:
        v_max: value-scale cap, ``r_max / (1 - gamma)``.
        gamma: discount factor.
        n_wedge: visit-count threshold.
        delta: failure probability in ``(0, 1]``.
        c_n_wedge: number of pairs with count at least ``n_wedge``.
        m_r_n_wedge: dense-region covering number for the continuous case.
        epsilon_r: value-variation radius term for the continuous case.
        num_states / num_actions: table sizes for the comparison bounds.
        b: density threshold of the filtered planner.
        dataset_size: trajectory count behind the filtered planner's bound.
    """

    v_max: float
    gamma: float
    n_wedge: int
    delta: float
    c_n_wedge: int | None = None
    m_r_n_wedge: int | None = None
    epsilon_r: float = 0.0
    num_states: int | None = None
    num_actions: int | None = None
    b: float | None = None
    dataset_size: int | None = None


# The rule of each BoundInputs field; None passes none of them.
_RULES = {
    "v_max": POSITIVE, "gamma": FRACTION, "n_wedge": COUNT, "delta": LEVEL,
    "c_n_wedge": NONNEGATIVE, "m_r_n_wedge": COUNT, "epsilon_r": RADIUS,
    "num_states": COUNT, "num_actions": COUNT, "b": FRACTION, "dataset_size": COUNT,
}


def _check_inputs(inputs: BoundInputs, *fields: str) -> None:
    """Check the fields every calculator uses, then ``fields``."""
    for name in ("delta", "gamma", "v_max", "n_wedge", *fields):
        check(name, getattr(inputs, name), _RULES[name])


def count_c_n_wedge(counts: CountTable, n_wedge: int) -> int:
    """Number of state-action pairs observed at least ``n_wedge`` times."""
    check("n_wedge", n_wedge, COUNT)
    return int(np.sum(counts.n_sa >= n_wedge))


def dprl_discrete_bound(inputs: BoundInputs, variant: str = VARIANT_STATEMENT) -> float:
    """Guarantee for tabular decision-point improvement.

    ``variant="statement"`` uses the conservative ``1 / n_wedge`` rate;
    ``"proof"`` the tighter ``1 / (2 * n_wedge)``.  With no qualifying pair
    the learned policy is the logging policy and the bound is exactly 0.
    """
    _check_inputs(inputs, "c_n_wedge")
    check("variant", variant, VARIANT)
    if inputs.c_n_wedge == 0:
        return 0.0
    rate = 2.0 * inputs.n_wedge if variant == VARIANT_PROOF else float(inputs.n_wedge)
    return -(inputs.v_max / (1.0 - inputs.gamma)) * math.sqrt(
        math.log(inputs.c_n_wedge / inputs.delta) / rate
    )


def dprl_continuous_bound(inputs: BoundInputs) -> float:
    """Neighborhood-based analogue over the dense-region cover."""
    _check_inputs(inputs, "m_r_n_wedge", "epsilon_r")
    return (
        -(inputs.v_max / (1.0 - inputs.gamma))
        * math.sqrt(math.log(inputs.m_r_n_wedge / inputs.delta) / (2.0 * inputs.n_wedge))
        - 3.0 * inputs.epsilon_r
    )


def spibb_bound(inputs: BoundInputs) -> float:
    """Comparison guarantee for mass-preserving constrained improvement.

    The union term ``2 * S * A * 2**S / delta`` is evaluated in log space so
    large state counts cannot overflow.
    """
    _check_inputs(inputs, "num_states", "num_actions")
    log_term = (
        math.log(2.0 * inputs.num_states * inputs.num_actions / inputs.delta)
        + inputs.num_states * math.log(2.0)
    )
    return -(4.0 * inputs.v_max / (1.0 - inputs.gamma)) * math.sqrt(
        (2.0 / inputs.n_wedge) * log_term
    )


def pqi_bound(inputs: BoundInputs) -> float:
    """Order-of-magnitude guarantee for the density-filtered planner.

    Comparable up to constants only.  Diverges as the density threshold
    ``b`` approaches 0; as the dataset grows the statistical terms vanish
    and only the effective-horizon truncation term remains.
    """
    _check_inputs(inputs, "num_states", "num_actions", "b", "dataset_size")
    table = inputs.num_states * inputs.num_actions
    horizon = math.ceil(1.0 / (1.0 - inputs.gamma))
    log_factor = math.log(table / inputs.delta)
    lead = inputs.v_max / (inputs.b * (1.0 - inputs.gamma) ** 3)
    statistical = lead * (table / inputs.dataset_size) + lead * math.sqrt(
        table / inputs.dataset_size
    )
    truncation = inputs.gamma**horizon * inputs.v_max / (1.0 - inputs.gamma) ** 2
    return -(log_factor * statistical + truncation)


def count_pessimism_bound(counts: CountTable, inputs: BoundInputs) -> float:
    """Expected clipped count penalty under the empirical pair distribution."""
    _check_inputs(inputs, "num_states", "num_actions")
    n_sa = counts.n_sa
    total = n_sa.sum()
    if total == 0:
        raise ValueError("no observed pairs")
    log_term = math.log(inputs.num_states * inputs.num_actions / inputs.delta)
    observed = n_sa > 0
    clipped = np.minimum(1.0, np.sqrt(2.0 * log_term / n_sa[observed]))
    expectation = float((n_sa[observed] / total * clipped).sum())
    return -(inputs.gamma * inputs.v_max / (1.0 - inputs.gamma) ** 2) * expectation


def bound_comparison_rows(
    counts: CountTable,
    *,
    pessimism_counts: CountTable,
    v_max: float,
    gamma: float,
    delta: float,
    n_wedge_grid: list[int],
    num_states: int,
    num_actions: int,
    pqi_b: float,
    dataset_size: int,
    variant: str = VARIANT_STATEMENT,
) -> list[dict]:
    """One row per (threshold, method) for CSV emission.

    The filtered planner's row does not depend on the threshold; it is
    repeated per grid point so the table stays rectangular.  ``counts``
    gates the decision-point rows; count-based pessimism averages over the
    dataset's step distribution, so it takes its own (every-visit) table,
    ``pessimism_counts``.
    """
    rows: list[dict] = []
    for n_wedge in n_wedge_grid:
        base = dict(
            v_max=v_max,
            gamma=gamma,
            n_wedge=n_wedge,
            delta=delta,
            num_states=num_states,
            num_actions=num_actions,
        )
        c = count_c_n_wedge(counts, n_wedge)
        dprl = dprl_discrete_bound(BoundInputs(**base, c_n_wedge=c), variant=variant)
        spibb = spibb_bound(BoundInputs(**base))
        pqi = pqi_bound(BoundInputs(**base, b=pqi_b, dataset_size=dataset_size))
        pessimism = count_pessimism_bound(pessimism_counts, BoundInputs(**base))
        rows.append({"method": "dprl", "n_wedge": n_wedge, "b": "", "num_states": num_states,
                     "c_n_wedge": c, "bound": dprl, "note": ""})
        rows.append({"method": "spibb", "n_wedge": n_wedge, "b": "", "num_states": num_states,
                     "c_n_wedge": "", "bound": spibb, "note": ""})
        rows.append({"method": "pqi", "n_wedge": n_wedge, "b": pqi_b, "num_states": num_states,
                     "c_n_wedge": "", "bound": pqi, "note": "up_to_constants"})
        rows.append({"method": "count_pessimism", "n_wedge": n_wedge, "b": "", "num_states": num_states,
                     "c_n_wedge": "", "bound": pessimism, "note": ""})
    return rows

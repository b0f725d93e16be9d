"""Safe offline policy improvement with count-gated decision points.

The package trains policies that only act where the logged data gives
enough evidence, deferring to the data-collecting policy everywhere
else, and pairs them with high-confidence lower bounds on the loss that
deferral can incur.
"""

from .balltree import BallTree
from .baselines import (
    BaselinePolicy,
    MleModel,
    fit_mle_model,
    train_behavior_clone,
    train_pqi,
    train_spibb,
)
from .bounds import (
    VARIANT_PROOF,
    VARIANT_STATEMENT,
    BoundInputs,
    bound_comparison_rows,
    count_c_n_wedge,
    count_pessimism_bound,
    dprl_continuous_bound,
    dprl_discrete_bound,
    pqi_bound,
    spibb_bound,
)
from .continuous import (
    NEIGHBOR_ALL,
    NEIGHBOR_FIRST,
    ContinuousTrajectory,
    ContinuousVerdict,
    NeighborIndex,
    build_index,
    estimate_covering_number,
)
from .discrete import (
    TAIL_ABSORB,
    TAIL_DROP,
    DecisionPointPolicy,
    DecisionPointSets,
    SmdpModel,
    identify_decision_points,
    make_smdp,
    smdp_policy_iteration,
    train_decision_point_policy,
)
from .envs import (
    build_cql_mdp,
    build_environment,
    build_forest_mdp,
    build_gridworld,
    default_careless_states,
)
from .estimation import (
    EVERY_VISIT,
    FIRST_VISIT,
    CountTable,
    ValueEstimates,
    count_visits,
    monte_carlo_estimates,
)
from .evaluation import (
    AlgorithmSpec,
    ExperimentResult,
    MixedPolicy,
    cvar,
    exact_value,
    run_reliability_experiment,
    train_algorithm,
)
from .mdp import (
    BehaviorPolicy,
    DatasetError,
    RewardSpec,
    TabularMdp,
    Trajectory,
    TrajectoryDataset,
    load_dataset,
    save_dataset,
    simulate,
    trajectory_seed,
)
from .solvers import optimal_values, policy_state_values, q_from_values

__version__ = "0.1.0"

__all__ = [
    "AlgorithmSpec",
    "BallTree",
    "BaselinePolicy",
    "BehaviorPolicy",
    "BoundInputs",
    "ContinuousTrajectory",
    "ContinuousVerdict",
    "CountTable",
    "DatasetError",
    "DecisionPointPolicy",
    "DecisionPointSets",
    "EVERY_VISIT",
    "ExperimentResult",
    "FIRST_VISIT",
    "MixedPolicy",
    "MleModel",
    "NEIGHBOR_ALL",
    "NEIGHBOR_FIRST",
    "NeighborIndex",
    "RewardSpec",
    "SmdpModel",
    "TAIL_ABSORB",
    "TAIL_DROP",
    "TabularMdp",
    "Trajectory",
    "TrajectoryDataset",
    "VARIANT_PROOF",
    "VARIANT_STATEMENT",
    "ValueEstimates",
    "bound_comparison_rows",
    "build_cql_mdp",
    "build_environment",
    "build_forest_mdp",
    "build_gridworld",
    "build_index",
    "count_c_n_wedge",
    "count_pessimism_bound",
    "count_visits",
    "cvar",
    "default_careless_states",
    "dprl_continuous_bound",
    "dprl_discrete_bound",
    "estimate_covering_number",
    "exact_value",
    "fit_mle_model",
    "identify_decision_points",
    "load_dataset",
    "make_smdp",
    "monte_carlo_estimates",
    "optimal_values",
    "policy_state_values",
    "pqi_bound",
    "q_from_values",
    "run_reliability_experiment",
    "save_dataset",
    "simulate",
    "smdp_policy_iteration",
    "spibb_bound",
    "train_algorithm",
    "train_behavior_clone",
    "train_decision_point_policy",
    "train_pqi",
    "train_spibb",
    "trajectory_seed",
]

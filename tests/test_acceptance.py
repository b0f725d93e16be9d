"""Acceptance gate: one test per release criterion, one printed line each.

Every test prints ``criterion <k>: PASS/FAIL`` with the measured numbers
before asserting, so a full run of this module yields a compact scorecard.
Runtimes target a single core; the slowest criterion is the 500-seed
guarantee check at well under its ten-minute budget.
"""

import json
import math
import time

import numpy as np
import oracles
from scipy.stats import spearmanr

from dprl import cli
from dprl.bounds import BoundInputs, bound_comparison_rows, count_c_n_wedge, dprl_discrete_bound
from dprl.continuous import NEIGHBOR_ALL, ContinuousTrajectory, NeighborIndex, build_index, query
from dprl.discrete import (
    identify_decision_points,
    make_smdp,
    smdp_policy_iteration,
    train_decision_point_policy,
)
from dprl.envs import build_environment
from dprl.estimation import EVERY_VISIT, FIRST_VISIT, count_visits, monte_carlo_estimates
from dprl.evaluation import (
    AlgorithmSpec,
    MixedPolicy,
    cvar,
    exact_value,
    run_reliability_experiment,
)
from dprl.mdp import simulate

from conftest import make_dataset, make_traj, random_mdp, three_state_eval_chain, uniform_behavior


def report(number: int, passed: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_guarantee_holds_across_seeds():
    # 10x10 grid, careless expert, 500 seeds, N=20, delta=0.05: the seed
    # fraction where realized improvement falls below the computed bound
    # must stay within 0.05 plus 0.03 binomial slack.
    start = time.perf_counter()
    mdp, behavior = build_environment("gridworld", side=10, noise=0.9)
    rho_b = exact_value(mdp, MixedPolicy(None, behavior))
    violations = 0
    for seed in range(500):
        dataset = simulate(mdp, behavior, 100, 100, seed)
        counts = count_visits(dataset, mode=FIRST_VISIT)
        policy = train_decision_point_policy(dataset, n_wedge=20, gamma=mdp.gamma)
        value = exact_value(mdp, MixedPolicy(policy, behavior))
        bound = dprl_discrete_bound(
            BoundInputs(
                v_max=mdp.v_max,
                gamma=mdp.gamma,
                n_wedge=20,
                delta=0.05,
                c_n_wedge=count_c_n_wedge(counts, 20),
            )
        )
        if value - rho_b < bound:
            violations += 1
    fraction = violations / 500
    elapsed = time.perf_counter() - start
    report(
        1,
        fraction <= 0.08 and elapsed <= 600.0,
        f"violation fraction {fraction:.4f} <= 0.08, {elapsed:.0f}s <= 600s",
    )


def test_criterion_2_tightest_bound_on_every_forest_size():
    # Forest chain counts {10, 20, 30, 50} x N in {1, 10, 100}, PQI b=0.02:
    # the decision-point bound magnitude is strictly smallest at every point.
    strict = True
    worst_ratio = 0.0
    for num_chains in (10, 20, 30, 50):
        mdp, behavior = build_environment("forest", num_chains=num_chains)
        dataset = simulate(mdp, behavior, 300, 30, 12345)
        rows = bound_comparison_rows(
            count_visits(dataset, mode=FIRST_VISIT),
            pessimism_counts=count_visits(dataset, mode=EVERY_VISIT),
            v_max=mdp.v_max,
            gamma=mdp.gamma,
            delta=0.05,
            n_wedge_grid=[1, 10, 100],
            num_states=mdp.num_states,
            num_actions=mdp.num_actions,
            pqi_b=0.02,
            dataset_size=len(dataset),
        )
        for i in range(0, len(rows), 4):
            magnitudes = {r["method"]: abs(r["bound"]) for r in rows[i : i + 4]}
            others = min(v for k, v in magnitudes.items() if k != "dprl")
            strict = strict and magnitudes["dprl"] < others
            worst_ratio = max(worst_ratio, magnitudes["dprl"] / others)
    report(2, strict, f"strict at all 12 grid points, worst ratio {worst_ratio:.3f}")


def test_criterion_3_failure_modes_of_density_and_cloning_baselines():
    start = time.perf_counter()
    forest_mdp, forest_behavior = build_environment("forest", epsilon=0.2)
    forest = run_reliability_experiment(
        forest_mdp,
        forest_behavior,
        [
            AlgorithmSpec("dprl", "dprl", {"n_wedge": 10}),
            AlgorithmSpec("pqi", "pqi", {"density_threshold": 0.02}),
        ],
        num_seeds=100,
        num_trajectories=100,
        horizon=30,
        master_seed=0,
    )
    cql_mdp, cql_behavior = build_environment("cql", epsilon=0.2)
    cql = run_reliability_experiment(
        cql_mdp,
        cql_behavior,
        [
            AlgorithmSpec("dprl", "dprl", {"n_wedge": 10}),
            AlgorithmSpec("behavior_clone", "behavior_clone", {}),
        ],
        num_seeds=100,
        num_trajectories=100,
        horizon=5,
        master_seed=0,
    )
    elapsed = time.perf_counter() - start
    f_dprl, f_pqi = forest.cvar("dprl"), forest.cvar("pqi")
    c_dprl, c_clone = cql.cvar("dprl"), cql.cvar("behavior_clone")
    report(
        3,
        f_dprl > f_pqi and c_dprl > c_clone and elapsed <= 300.0,
        f"forest {f_dprl:.3f} > {f_pqi:.3f}, one-step {c_dprl:.3f} > {c_clone:.3f}, "
        f"{elapsed:.0f}s <= 300s",
    )


def test_criterion_4_estimated_behavior_degrades_spibb():
    # 8 trajectories on the exploring grid: the estimated-behavior variant
    # loses tail value while deferring keeps the decision-point tail at the
    # logging policy's level.
    mdp, behavior = build_environment("gridworld", side=10, noise=0.9, explore=0.2)
    result = run_reliability_experiment(
        mdp,
        behavior,
        [
            AlgorithmSpec("spibb", "spibb_true", {"n_wedge": 10, "behavior": "true"}),
            AlgorithmSpec("spibb", "spibb_est", {"n_wedge": 10, "behavior": "estimated"}),
            AlgorithmSpec("dprl", "dprl", {"n_wedge": 10}),
        ],
        num_seeds=200,
        num_trajectories=8,
        horizon=100,
        master_seed=0,
    )
    est = result.cvar("spibb_est")
    true = result.cvar("spibb_true")
    dprl = result.cvar("dprl")
    report(
        4,
        est <= true and dprl >= est,
        f"estimated {est:.4f} <= true {true:.4f}, decision-point {dprl:.4f} >= {est:.4f}",
    )


def test_criterion_5_threshold_trades_performance_for_safety():
    grid = [1, 2, 5, 10, 20, 30]
    mdp, behavior = build_environment("gridworld", side=10, noise=0.9, explore=0.2)
    result = run_reliability_experiment(
        mdp,
        behavior,
        [AlgorithmSpec("dprl", f"dprl_{n}", {"n_wedge": n}) for n in grid],
        num_seeds=200,
        num_trajectories=25,
        horizon=100,
        master_seed=0,
    )
    defer = np.array(
        [[result.defer_fractions[f"dprl_{n}"][i] for n in grid] for i in range(200)]
    )
    monotone = bool(np.all(np.diff(defer, axis=1) >= 0))
    cvars = [result.cvar(f"dprl_{n}") for n in grid]
    means = [float(np.mean(result.values[f"dprl_{n}"])) for n in grid]
    rho_cvar = float(spearmanr(grid, cvars).statistic)
    rho_mean = float(spearmanr(grid, means).statistic)
    report(
        5,
        monotone and rho_cvar >= 0.0 and rho_mean <= 0.0,
        f"defer monotone per seed {monotone}, spearman cvar {rho_cvar:+.2f} >= 0, "
        f"mean {rho_mean:+.2f} <= 0",
    )


def _random_elevated_instance(rng):
    num_states = int(rng.integers(2, 6))
    num_actions = 3
    trajectories = []
    for t in range(int(rng.integers(4, 10))):
        length = int(rng.integers(1, 7))
        states = rng.integers(0, num_states, size=length)
        actions = rng.integers(0, num_actions, size=length)
        rewards = np.round(rng.uniform(0.0, 1.0, size=length), 3)
        trajectories.append(make_traj(states, actions, rewards, seed=t))
    return make_dataset(trajectories, num_states, num_actions)


def test_criterion_6_oracle_equivalences():
    rng = np.random.default_rng(20260823)
    checks: dict[str, bool] = {}

    # (a) index radius queries vs linear scan over 100 random indices
    ok = True
    for _ in range(100):
        num_points = int(rng.integers(1, 60))
        dim = int(rng.integers(1, 5))
        points = rng.normal(size=(num_points, dim))
        weights = rng.uniform(0.2, 4.0, size=dim)
        radius = float(rng.uniform(0.1, 2.0))
        index = NeighborIndex(
            states=points,
            actions=rng.integers(0, 3, size=num_points),
            returns=rng.normal(size=num_points),
            trajectory_ids=np.arange(num_points),
            time_indices=np.zeros(num_points, dtype=np.int64),
            metric_weights=weights,
            radius=radius,
        )
        q = rng.normal(size=dim)
        got = sorted(index.neighbors(q))
        want = sorted(oracles.linear_scan_neighbors(points, weights, q, radius))
        ok = ok and got == want
    checks["tree=scan"] = ok

    # (b) elevated policy iteration vs exhaustive enumeration
    ok, checked = True, 0
    while checked < 30:
        dataset = _random_elevated_instance(rng)
        counts = count_visits(dataset, mode=FIRST_VISIT)
        estimates = monte_carlo_estimates(dataset, gamma=0.9, mode=FIRST_VISIT)
        dp = identify_decision_points(counts, estimates, n_wedge=int(rng.integers(1, 3)))
        if not 0 < len(dp.decision_states) <= 6:
            continue
        model = make_smdp(dataset, dp, gamma=0.9)
        history: list = []
        smdp_policy_iteration(model, dp, estimates, history=history)
        envelope = oracles.enumerate_smdp_policies(model, dp, estimates)
        ok = ok and bool(np.all(np.abs(history[-1][0] - envelope) <= 1e-8))
        checked += 1
    checks["pi=enum"] = ok

    # (c) elevated-process tables vs straight-line recomputation
    ok = True
    for trial in range(20):
        dataset = _random_elevated_instance(rng)
        counts = count_visits(dataset, mode=FIRST_VISIT)
        estimates = monte_carlo_estimates(dataset, gamma=0.9, mode=FIRST_VISIT)
        dp = identify_decision_points(counts, estimates, n_wedge=1)
        if not dp.decision_states:
            continue
        for tail_mode in ("absorb", "drop"):
            model = make_smdp(dataset, dp, gamma=0.9, tail_mode=tail_mode)
            expected = oracles.straight_line_smdp(
                dataset.trajectories, set(dp.decision_states), 0.9, tail_mode=tail_mode
            )
            pos = {s: i for i, s in enumerate(model.states)}
            for (s, a, dest), cell in expected.items():
                i = pos[s]
                j = len(model.states) if dest == "absorb" else pos[dest]
                ok = ok and abs(model.p_tilde[i, a, j] - cell["p"]) <= 1e-12
                ok = ok and abs(model.gamma_tilde[i, a, j] - cell["gamma_bar"]) <= 1e-12
                ok = ok and abs(model.r_tilde[i, a, j] - cell["r_bar"]) <= 1e-12
    checks["smdp=straight"] = ok

    # (d) first-visit estimator is unbiased on the three-state chain
    mdp, behavior = three_state_eval_chain()
    v0, q00, q01 = [], [], []
    for seed in range(2000):
        dataset = simulate(mdp, behavior, 30, 5, seed)
        est = monte_carlo_estimates(dataset, gamma=mdp.gamma, mode=FIRST_VISIT)
        v0.append(est.v_hat[0])
        q00.append(est.q_hat[0, 0])
        q01.append(est.q_hat[0, 1])
    ok = True
    for samples, exact in ((v0, 0.756), (q00, 0.636), (q01, 0.936)):
        arr = np.array(samples)
        arr = arr[np.isfinite(arr)]
        sem = arr.std(ddof=1) / np.sqrt(len(arr))
        ok = ok and abs(arr.mean() - exact) <= 3.0 * sem
    checks["mc=exact"] = ok

    # (e) one-hot continuous queries reproduce the discrete advantage sets
    mdp5 = random_mdp(rng, num_states=5, num_actions=2, gamma=0.9)
    dataset = simulate(mdp5, uniform_behavior(5, 2), 15, 6, master_seed=21)
    counts = count_visits(dataset, mode=EVERY_VISIT)
    estimates = monte_carlo_estimates(dataset, gamma=0.9, mode=EVERY_VISIT)
    eye = np.eye(5)
    one_hot = [
        ContinuousTrajectory(states=eye[t.states], actions=t.actions, rewards=t.rewards)
        for t in dataset.trajectories
    ]
    index = build_index(one_hot, gamma=0.9, metric_weights=np.ones(5), radius=0.5)
    ok = True
    for n_wedge in (1, 2, 3):
        dp = identify_decision_points(counts, estimates, n_wedge=n_wedge)
        for s in range(5):
            verdict = query(index, eye[s], n_wedge=n_wedge, neighbor_mode=NEIGHBOR_ALL)
            if verdict.v_estimate is None:
                ok = ok and s not in dp.advantageous
                continue
            advantaged = {
                a
                for a, q in verdict.q_estimates.items()
                if verdict.action_counts[a] >= n_wedge and q >= verdict.v_estimate
            }
            ok = ok and advantaged == set(dp.advantageous.get(s, ()))
    checks["cont=disc"] = ok

    # (f) tail average vs the sort-and-slice oracle; summation order may
    # differ, so compare to relative 1e-12 rather than bitwise
    ok = True
    for _ in range(50):
        values = rng.normal(size=int(rng.integers(1, 120)))
        alpha = float(rng.uniform(0.01, 1.0))
        ok = ok and math.isclose(
            cvar(values, alpha), oracles.sort_slice_cvar(values, alpha), rel_tol=1e-12
        )
    checks["cvar=sort"] = ok

    report(6, all(checks.values()), ", ".join(f"{k} {'ok' if v else 'BAD'}" for k, v in checks.items()))


def test_criterion_7_defer_everywhere_matches_logging_policy():
    worst = 0.0
    for env_id, kwargs in (
        ("gridworld", {"side": 10, "noise": 0.9, "explore": 0.2}),
        ("forest", {"num_chains": 5}),
    ):
        mdp, behavior = build_environment(env_id, **kwargs)
        dataset = simulate(mdp, behavior, 25, 50, 3)
        policy = train_decision_point_policy(dataset, n_wedge=10**9, gamma=mdp.gamma)
        assert not policy.verdicts
        mixed = exact_value(mdp, MixedPolicy(policy, behavior))
        plain = exact_value(mdp, MixedPolicy(None, behavior))
        worst = max(worst, abs(mixed - plain))
    report(7, worst <= 1e-10, f"max |rho(mixed) - rho(behavior)| = {worst:.2e} <= 1e-10")


def test_criterion_8_cli_reruns_are_byte_identical(tmp_path):
    config = {
        "environment": {"id": "forest", "num_chains": 2, "depth": 2, "epsilon": 0.2,
                        "gamma": 0.99},
        "dataset": {"num_trajectories": 30, "horizon": 20, "master_seed": 7},
        "seeds": 3,
        "algorithms": [
            {"name": "dprl", "n_wedge": 3},
            {"name": "spibb", "n_wedge": 3, "behavior": "true"},
            {"name": "pqi", "density_threshold": 0.02},
            {"name": "behavior_clone"},
            {"name": "behavior"},
        ],
        "bounds": {"delta": 0.05, "n_wedge_grid": [1, 3], "pqi_b": 0.02},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")

    def run_all(out, jobs):
        for command in (
            ["generate", "--config", str(cfg), "--out", str(out)],
            ["bounds", "--config", str(cfg), "--out", str(out)],
            ["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs],
        ):
            assert cli.main(command) == 0
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    first = run_all(tmp_path / "first", "1")
    second = run_all(tmp_path / "second", "1")
    parallel = run_all(tmp_path / "parallel", "2")
    same_serial = first == second
    same_parallel = first == parallel
    report(
        8,
        same_serial and same_parallel,
        f"{len(first)} files, rerun identical {same_serial}, two workers identical {same_parallel}",
    )

"""Machine-independent golden answers: what dprl decides on a fixed grid of configs.

For every seed of every config this records the sha256 of the dataset's
JSONL bytes, the first-visit count table's hash, the hash of the elevated
model's segment counts (``make_smdp`` in absorb mode, as training builds
it) and of its ``gamma_tilde`` and ``r_tilde`` bytes, the hash of the
sorted ``[state, action]`` pairs passing the gate, the dprl verdicts and
defer set, the hash of the policy file (``evaluation.policy_json``), the
policy-iteration count and C_{N∧} (pairs seen at least ``n_wedge``
times).  For the baselines it records
the hash of the ``[state, action]`` pairs PQI chooses at ``b = 0.02``
(unseen states, which stay uniform, left out) and of the free pairs
that hold SPIBB's free mass under the true behaviour at the config's
``n_wedge``.  For a continuous point set
in the style of the ``continuous-cover`` benchmark it records the covering
numbers ``(m_dense, m_total)`` and the hash of the query decisions in each
neighbour mode.  Apart from the two elevated tables none of these is a
float, and those two are made from the data by IEEE elementwise operations
alone (running products, left-to-right sums, one division per cell), so
nothing here moves with the BLAS kernel, the thread count or the CPU;
``tests/test_golden.py`` checks them.

Regenerate the manifest (only when answers are meant to change) with

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from dprl import continuous
from dprl.baselines import fit_mle_model, train_pqi, train_spibb
from dprl.bounds import count_c_n_wedge
from dprl.discrete import make_smdp, train_decision_point_policy
from dprl.envs import build_environment
from dprl.estimation import FIRST_VISIT, count_visits
from dprl.evaluation import policy_json
from dprl.mdp import save_dataset, simulate

MANIFEST = Path(__file__).with_name("manifest.jsonl")
PQI_B = 0.02

# name -> the environment, dataset, seeds and dprl entry of a CLI config.
CONFIGS = {
    "readme": {
        "environment": {"id": "forest", "num_chains": 10, "depth": 3, "epsilon": 0.2,
                        "gamma": 0.99},
        "dataset": {"num_trajectories": 100, "horizon": 30, "master_seed": 7},
        "seeds": 100,
        "dprl": {"n_wedge": 10},
    },
    "criterion-8": {
        "environment": {"id": "forest", "num_chains": 2, "depth": 2, "epsilon": 0.2,
                        "gamma": 0.99},
        "dataset": {"num_trajectories": 30, "horizon": 20, "master_seed": 7},
        "seeds": 3,
        "dprl": {"n_wedge": 3},
    },
    "gridworld-10x10": {
        "environment": {"id": "gridworld", "side": 10, "noise": 0.9},
        "dataset": {"num_trajectories": 100, "horizon": 100, "master_seed": 0},
        "seeds": 5,
        "dprl": {"n_wedge": 20},
    },
    "forest-50": {
        "environment": {"id": "forest", "num_chains": 50},
        "dataset": {"num_trajectories": 100, "horizon": 30, "master_seed": 0},
        "seeds": 5,
        "dprl": {"n_wedge": 10},
    },
}


# name -> a point set: gridworld steps embedded as (x, y) / side plus Gaussian
# jitter, the index radius (unit metric weights) and the queries' n_wedge.
COVERS = {
    "continuous-cover": {
        "environment": {"id": "gridworld", "side": 10, "noise": 0.9},
        "dataset": {"num_trajectories": 20, "horizon": 100, "master_seed": 0},
        "jitter": 0.03,
        "radius": 0.05,
        "n_wedge": 5,
        "queries": 200,
    },
}


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def seed_answers(config: dict, workdir: Path) -> list[dict]:
    """One record per seed ``master_seed + i``, as ``dprl generate`` and ``sweep`` draw them."""
    env = dict(config["environment"])
    mdp, behavior = build_environment(env.pop("id"), **env)
    spec, params = config["dataset"], config["dprl"]
    records = []
    for i in range(config["seeds"]):
        master = spec["master_seed"] + i
        dataset = simulate(mdp, behavior, spec["num_trajectories"], spec["horizon"], master)
        path = workdir / f"seed_{master}.jsonl"
        save_dataset(dataset, path)
        counts = count_visits(dataset, mode=FIRST_VISIT)
        policy = train_decision_point_policy(dataset, gamma=mdp.gamma, **params)
        dp = policy.provenance
        model = make_smdp(dataset, dp, mdp.gamma)
        free = fit_mle_model(dataset).n_sa >= params["n_wedge"]
        spibb = train_spibb(dataset, behavior, params["n_wedge"], mdp.gamma).action_probabilities
        pqi = train_pqi(dataset, PQI_B, mdp.gamma).action_probabilities
        records.append({
            "master_seed": master,
            "jsonl_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "n_sa_sha256": sha256_json(counts.n_sa.tolist()),
            "smdp_counts_sha256": sha256_json(model.counts.tolist()),
            "smdp_gamma_tilde_sha256": hashlib.sha256(model.gamma_tilde.tobytes()).hexdigest(),
            "smdp_r_tilde_sha256": hashlib.sha256(model.r_tilde.tobytes()).hexdigest(),
            "gate_sha256": sha256_json(np.argwhere(dp.gate).tolist()),
            "policy_json_sha256": hashlib.sha256(policy_json(policy).encode("utf-8")).hexdigest(),
            "c_n_wedge": count_c_n_wedge(counts, params["n_wedge"]),
            "pi_iterations": policy.iterations,
            "verdicts": {str(s): a for s, a in sorted(policy.verdicts.items())},
            "defer_states": sorted(policy.defer_states),
            "pqi_actions_sha256": sha256_json(np.argwhere(pqi == 1.0).tolist()),
            "spibb_free_actions_sha256": sha256_json(np.argwhere(free & (spibb > 0)).tolist()),
        })
    return records


def cover_answers(config: dict) -> list[dict]:
    """The covering numbers of one seeded point set and its query decisions per neighbour mode."""
    env = dict(config["environment"])
    mdp, behavior = build_environment(env.pop("id"), **env)
    spec, side = config["dataset"], env["side"]
    dataset = simulate(mdp, behavior, spec["num_trajectories"], spec["horizon"],
                       spec["master_seed"])
    rng = np.random.default_rng(spec["master_seed"])
    trajectories = []
    for traj in dataset:
        xy = np.stack([traj.states % side, traj.states // side], axis=1) / side
        xy = xy + rng.normal(0.0, config["jitter"], size=xy.shape)
        trajectories.append(continuous.ContinuousTrajectory(xy, traj.actions, traj.rewards))
    index = continuous.build_index(trajectories, mdp.gamma, np.ones(2), config["radius"])
    cover = continuous.estimate_covering_number(index, config["n_wedge"])
    queries = rng.random((config["queries"], 2))
    decisions = {
        mode: sha256_json([continuous.query(index, q, config["n_wedge"], mode).decision
                           for q in queries])
        for mode in (continuous.NEIGHBOR_ALL, continuous.NEIGHBOR_FIRST)
    }
    return [{"m_dense": cover.m_dense, "m_total": cover.m_total, "decisions_sha256": decisions}]


def manifest_lines(workdir: Path) -> list[str]:
    """Per config, one line holding the config, then one line per seed; point sets last."""
    lines = []
    for name, config in CONFIGS.items():
        lines.append(json.dumps({"name": name, "config": config}, sort_keys=True))
        for record in seed_answers(config, workdir):
            lines.append(json.dumps({"name": name, **record}, sort_keys=True))
    for name, config in COVERS.items():
        lines.append(json.dumps({"name": name, "config": config}, sort_keys=True))
        for record in cover_answers(config):
            lines.append(json.dumps({"name": name, **record}, sort_keys=True))
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = manifest_lines(Path(tmp))
    MANIFEST.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} lines to {MANIFEST}")

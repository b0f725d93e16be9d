"""Safety-bound calculator tests with independently derived frozen values."""

import math

import numpy as np
import pytest

from dprl.bounds import (
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
from dprl.estimation import EVERY_VISIT, FIRST_VISIT, CountTable, count_visits
from dprl.mdp import TrajectoryDataset

from conftest import make_dataset, make_traj, random_mdp

# frozen from closed-form arithmetic done outside the package
DISCRETE_EXAMPLE = -2.145966026289347  # V=1 g=0.9 Nw=100 C=10 d=0.1
CONTINUOUS_EXAMPLE = -2.5077468306808166  # V=1 g=0.9 Nw=50 M=20 d=0.05 er=0.02
SPIBB_EXAMPLE = -34.35755266773901  # V=1 g=0.9 Nw=10 S=1 A=1 d=0.1
PQI_EXAMPLES = {
    (1.0, 0.9, 0.02, 4, 2, 100, 0.1): -79530.70257266393,
    (2.0, 0.95, 0.05, 10, 3, 1000, 0.05): -416251.1430369104,
    (1.0, 0.5, 0.1, 2, 2, 50, 0.2): -87.95836991872699,
}
PESSIMISM_MIXED = -81.53632900160854  # counts [[3,0],[10,2]] V=1 g=0.9 d=0.1


def table(n_sa) -> CountTable:
    n_sa = np.asarray(n_sa, dtype=np.int64)
    return CountTable(n_sa=n_sa)


class TestCountSummary:
    def test_counts_pairs_at_or_above_threshold(self):
        counts = table([[3, 0], [10, 2]])
        assert count_c_n_wedge(counts, 1) == 3
        assert count_c_n_wedge(counts, 3) == 2
        assert count_c_n_wedge(counts, 11) == 0

    def test_matches_brute_loop_on_random_tables(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n_sa = rng.integers(0, 30, size=(5, 4))
            counts = table(n_sa)
            n_wedge = int(rng.integers(1, 35))
            brute = sum(
                1 for s in range(5) for a in range(4) if n_sa[s, a] >= n_wedge
            )
            assert count_c_n_wedge(counts, n_wedge) == brute

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            count_c_n_wedge(table([[1]]), 0)


# Inputs every calculator accepts; each test below breaks one field.
ALL_FIELDS = dict(v_max=1.0, gamma=0.9, n_wedge=10, delta=0.1, c_n_wedge=3, m_r_n_wedge=2,
                  epsilon_r=0.01, num_states=2, num_actions=2, b=0.02, dataset_size=100)
CALCULATORS = {
    "count_c_n_wedge": lambda inputs: count_c_n_wedge(table([[3, 0], [10, 2]]), inputs.n_wedge),
    "dprl_discrete": dprl_discrete_bound,
    "dprl_continuous": dprl_continuous_bound,
    "spibb": spibb_bound,
    "pqi": pqi_bound,
    "count_pessimism": lambda inputs: count_pessimism_bound(table([[3, 0], [10, 2]]), inputs),
}


@pytest.mark.parametrize("name", sorted(CALCULATORS))
@pytest.mark.parametrize("n_wedge", [float("nan"), 2.5, True], ids=["nan", "fraction", "bool"])
def test_every_calculator_rejects_a_threshold_that_is_not_a_count(name, n_wedge):
    # A nan threshold used to count no pair, and so report the strongest guarantee, 0.
    inputs = BoundInputs(**{**ALL_FIELDS, "n_wedge": n_wedge})
    with pytest.raises(ValueError, match=rf"^n_wedge must be an integer >= 1, got {n_wedge!r}$"):
        CALCULATORS[name](inputs)


@pytest.mark.parametrize(
    "name, field, value, what",
    [
        ("dprl_discrete", "c_n_wedge", float("nan"), "an integer >= 0"),
        ("dprl_continuous", "m_r_n_wedge", 2.5, "an integer >= 1"),
        ("dprl_continuous", "epsilon_r", float("nan"), "a finite number >= 0"),
        ("dprl_continuous", "epsilon_r", float("inf"), "a finite number >= 0"),
        ("spibb", "v_max", float("inf"), "a positive finite number"),
        ("pqi", "dataset_size", 2.5, "an integer >= 1"),
        ("pqi", "b", float("nan"), r"a number in \(0, 1\)"),
        ("count_pessimism", "delta", float("nan"), r"a number in \(0, 1\]"),
    ],
    ids=["nan-c", "fractional-m", "nan-epsilon", "inf-epsilon", "inf-v-max",
         "fractional-size", "nan-b", "nan-delta"],
)
def test_calculators_reject_a_field_outside_its_rule(name, field, value, what):
    inputs = BoundInputs(**{**ALL_FIELDS, field: value})
    with pytest.raises(ValueError, match=rf"^{field} must be {what}, got {value!r}$"):
        CALCULATORS[name](inputs)


class TestDiscreteBound:
    def inputs(self, **overrides) -> BoundInputs:
        base = dict(v_max=1.0, gamma=0.9, n_wedge=100, delta=0.1, c_n_wedge=10)
        base.update(overrides)
        return BoundInputs(**base)

    def test_frozen_example(self):
        assert dprl_discrete_bound(self.inputs()) == pytest.approx(
            DISCRETE_EXAMPLE, abs=1e-12
        )

    def test_proof_variant_halves_the_rate(self):
        statement = dprl_discrete_bound(self.inputs(), VARIANT_STATEMENT)
        proof = dprl_discrete_bound(self.inputs(), VARIANT_PROOF)
        assert proof == pytest.approx(statement / math.sqrt(2.0), rel=1e-12)
        assert abs(proof) < abs(statement)

    def test_single_pair_with_certain_failure_budget_is_zero(self):
        assert dprl_discrete_bound(self.inputs(c_n_wedge=1, delta=1.0)) == 0.0

    def test_no_qualifying_pair_is_exactly_zero(self):
        assert dprl_discrete_bound(self.inputs(c_n_wedge=0)) == 0.0

    def test_monotone_in_threshold_pairs_and_delta(self):
        tighter = dprl_discrete_bound(self.inputs(n_wedge=400))
        assert abs(tighter) < abs(dprl_discrete_bound(self.inputs()))
        more_pairs = dprl_discrete_bound(self.inputs(c_n_wedge=100))
        assert abs(more_pairs) > abs(dprl_discrete_bound(self.inputs()))
        stricter = dprl_discrete_bound(self.inputs(delta=0.01))
        assert abs(stricter) > abs(dprl_discrete_bound(self.inputs()))

    def test_vanishes_as_threshold_grows(self):
        values = [
            abs(dprl_discrete_bound(self.inputs(n_wedge=n)))
            for n in (1, 10, 100, 1000, 10**8)
        ]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 1e-2

    def test_validation(self):
        with pytest.raises(ValueError):
            dprl_discrete_bound(self.inputs(c_n_wedge=None))
        with pytest.raises(ValueError):
            dprl_discrete_bound(self.inputs(c_n_wedge=-1))
        with pytest.raises(ValueError):
            dprl_discrete_bound(self.inputs(), variant="loose")
        with pytest.raises(ValueError):
            dprl_discrete_bound(self.inputs(delta=0.0))
        with pytest.raises(ValueError):
            dprl_discrete_bound(self.inputs(n_wedge=0))

    def test_never_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            inputs = BoundInputs(
                v_max=float(rng.uniform(0.1, 50)),
                gamma=float(rng.uniform(0.05, 0.99)),
                n_wedge=int(rng.integers(1, 1000)),
                delta=float(rng.uniform(1e-4, 1.0)),
                c_n_wedge=int(rng.integers(0, 10**6)),
            )
            assert dprl_discrete_bound(inputs) <= 0.0


class TestContinuousBound:
    def inputs(self, **overrides) -> BoundInputs:
        base = dict(
            v_max=1.0, gamma=0.9, n_wedge=50, delta=0.05, m_r_n_wedge=20, epsilon_r=0.02
        )
        base.update(overrides)
        return BoundInputs(**base)

    def test_frozen_example(self):
        assert dprl_continuous_bound(self.inputs()) == pytest.approx(
            CONTINUOUS_EXAMPLE, abs=1e-12
        )

    def test_single_ball_certain_budget_no_variation_is_zero(self):
        value = dprl_continuous_bound(
            self.inputs(m_r_n_wedge=1, delta=1.0, epsilon_r=0.0)
        )
        assert value == 0.0

    def test_variation_radius_adds_three_epsilon(self):
        base = dprl_continuous_bound(self.inputs(epsilon_r=0.0))
        shifted = dprl_continuous_bound(self.inputs(epsilon_r=0.01))
        assert shifted == pytest.approx(base - 0.03, abs=1e-12)

    def test_monotone_in_cover_size(self):
        small = dprl_continuous_bound(self.inputs(m_r_n_wedge=2))
        large = dprl_continuous_bound(self.inputs(m_r_n_wedge=2000))
        assert abs(small) < abs(large)

    def test_validation(self):
        with pytest.raises(ValueError):
            dprl_continuous_bound(self.inputs(m_r_n_wedge=0))
        with pytest.raises(ValueError):
            dprl_continuous_bound(self.inputs(m_r_n_wedge=None))
        with pytest.raises(ValueError):
            dprl_continuous_bound(self.inputs(epsilon_r=-0.1))


class TestSpibbBound:
    def inputs(self, **overrides) -> BoundInputs:
        base = dict(
            v_max=1.0, gamma=0.9, n_wedge=10, delta=0.1, num_states=1, num_actions=1
        )
        base.update(overrides)
        return BoundInputs(**base)

    def test_frozen_example(self):
        assert spibb_bound(self.inputs()) == pytest.approx(SPIBB_EXAMPLE, abs=1e-10)

    def test_log_space_survives_huge_state_counts(self):
        value = spibb_bound(self.inputs(num_states=10**6, num_actions=10))
        assert math.isfinite(value)
        expected = -(4.0 / 0.1) * math.sqrt(
            (2.0 / 10) * (math.log(2.0 * 10**6 * 10 / 0.1) + 10**6 * math.log(2.0))
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_magnitude_grows_with_state_count(self):
        magnitudes = [
            abs(spibb_bound(self.inputs(num_states=s))) for s in (1, 10, 100, 1000)
        ]
        assert magnitudes == sorted(magnitudes)

    def test_always_looser_than_discrete_bound_at_full_table(self):
        # with C <= S * A the comparison bound can never win
        for num_states in (2, 10, 50):
            for num_actions in (2, 4):
                for n_wedge in (1, 10, 100):
                    for delta in (0.01, 0.1, 0.5):
                        shared = dict(
                            v_max=5.0, gamma=0.95, n_wedge=n_wedge, delta=delta
                        )
                        ours = dprl_discrete_bound(
                            BoundInputs(
                                **shared, c_n_wedge=num_states * num_actions
                            )
                        )
                        theirs = spibb_bound(
                            BoundInputs(
                                **shared,
                                num_states=num_states,
                                num_actions=num_actions,
                            )
                        )
                        assert theirs < ours <= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            spibb_bound(self.inputs(num_states=None))
        with pytest.raises(ValueError):
            spibb_bound(self.inputs(num_actions=0))


class TestPqiBound:
    @pytest.mark.parametrize("key,expected", sorted(PQI_EXAMPLES.items()))
    def test_frozen_grid(self, key, expected):
        v_max, gamma, b, s, a, n, delta = key
        inputs = BoundInputs(
            v_max=v_max,
            gamma=gamma,
            n_wedge=1,
            delta=delta,
            num_states=s,
            num_actions=a,
            b=b,
            dataset_size=n,
        )
        assert pqi_bound(inputs) == pytest.approx(expected, rel=1e-12)

    def base(self, **overrides) -> BoundInputs:
        base = dict(
            v_max=1.0,
            gamma=0.9,
            n_wedge=1,
            delta=0.1,
            num_states=4,
            num_actions=2,
            b=0.02,
            dataset_size=100,
        )
        base.update(overrides)
        return BoundInputs(**base)

    def test_diverges_as_threshold_shrinks(self):
        magnitudes = [abs(pqi_bound(self.base(b=b))) for b in (0.5, 0.1, 0.01, 1e-6)]
        assert magnitudes == sorted(magnitudes)
        assert magnitudes[-1] > 1e6 * magnitudes[0] / 1e2

    def test_large_datasets_leave_only_truncation(self):
        horizon = math.ceil(1.0 / (1.0 - 0.9))
        truncation = 0.9**horizon * 1.0 / (1.0 - 0.9) ** 2
        value = pqi_bound(self.base(dataset_size=10**19))
        assert value == pytest.approx(-truncation, rel=1e-4)

    def test_validation(self):
        for bad in (None, 0.0, 1.0):
            with pytest.raises(ValueError):
                pqi_bound(self.base(b=bad))
        with pytest.raises(ValueError):
            pqi_bound(self.base(dataset_size=0))
        with pytest.raises(ValueError):
            pqi_bound(self.base(num_states=None))


class TestCountPessimism:
    def inputs(self, **overrides) -> BoundInputs:
        base = dict(
            v_max=1.0, gamma=0.9, n_wedge=1, delta=0.1, num_states=2, num_actions=2
        )
        base.update(overrides)
        return BoundInputs(**base)

    def test_frozen_mixed_table(self):
        value = count_pessimism_bound(table([[3, 0], [10, 2]]), self.inputs())
        assert value == pytest.approx(PESSIMISM_MIXED, abs=1e-10)

    def test_matches_direct_summation(self):
        n_sa = np.array([[7, 1], [0, 25]])
        log_term = math.log(2 * 2 / 0.1)
        total = n_sa.sum()
        acc = sum(
            (n / total) * min(1.0, math.sqrt(2.0 * log_term / n))
            for n in n_sa.flatten()
            if n > 0
        )
        expected = -(0.9 / 0.01) * acc
        value = count_pessimism_bound(table(n_sa), self.inputs())
        assert value == pytest.approx(expected, rel=1e-12)

    def test_huge_counts_drive_the_penalty_to_zero(self):
        value = count_pessimism_bound(table([[10**12, 10**12]] * 2), self.inputs())
        assert -1e-3 < value <= 0.0

    def test_all_clipped_hits_the_cap(self):
        value = count_pessimism_bound(table([[1, 1], [1, 1]]), self.inputs())
        assert value == pytest.approx(-(0.9 / 0.01), rel=1e-12)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="no observed"):
            count_pessimism_bound(table([[0, 0]]), self.inputs())


# A dense random MDP reaches every state from every pair, so any (state, action) sequence is a
# trajectory it could log; v_max is 1 / (1 - 0.95).
ROWS_MDP = random_mdp(np.random.default_rng(0), 2, 2, gamma=0.95)


def pair_dataset(trajectories) -> TrajectoryDataset:
    """A dataset on ``ROWS_MDP`` of the given ``(state, action)`` sequences, rewards 0."""
    return make_dataset([make_traj([s for s, _ in pairs], [a for _, a in pairs], [0.0] * len(pairs),
                                   seed=i) for i, pairs in enumerate(trajectories)], 2, 2)


def first_visit_dataset(n_sa, repeats: int) -> TrajectoryDataset:
    """Trajectory ``i`` takes each pair ``(s, a)`` with ``n_sa[s][a] > i`` ``repeats`` times in a
    row, so the first-visit table is ``n_sa`` and the every-visit table ``repeats * n_sa``."""
    pairs = [(s, a) for s in range(2) for a in range(2)]
    return pair_dataset([[p for p in pairs if n_sa[p[0]][p[1]] > i for _ in range(repeats)]
                         for i in range(int(np.max(n_sa)))])


class TestComparisonRows:
    def test_rectangular_table_with_notes(self):
        dataset = first_visit_dataset([[30, 2], [15, 40]], repeats=1)
        rows = bound_comparison_rows(
            dataset, ROWS_MDP, delta=0.05, n_wedge_grid=[1, 10, 100], pqi_b=0.02
        )
        assert len(rows) == 12
        methods = [r["method"] for r in rows[:4]]
        assert methods == ["dprl", "spibb", "pqi", "count_pessimism"]
        for row in rows:
            assert row["bound"] <= 0.0
            if row["method"] == "pqi":
                assert row["note"] == "up_to_constants"
                assert row["b"] == 0.02
            else:
                assert row["note"] == ""
        # the c column tracks the threshold
        c_by_wedge = {r["n_wedge"]: r["c_n_wedge"] for r in rows if r["method"] == "dprl"}
        assert c_by_wedge == {1: 4, 10: 3, 100: 0}

    @pytest.mark.parametrize("variant", [VARIANT_STATEMENT, VARIANT_PROOF])
    def test_each_row_is_its_calculator_called_alone(self, variant):
        # The rows written out one by one, each calculator on the fields it uses alone;
        # n_wedge 100 leaves no qualifying pair, so the dprl row is exactly 0.
        dataset = first_visit_dataset([[30, 2], [15, 40]], repeats=2)
        counts = count_visits(dataset, FIRST_VISIT)
        stepwise = count_visits(dataset, EVERY_VISIT)
        shared = dict(v_max=ROWS_MDP.v_max, gamma=ROWS_MDP.gamma, delta=0.05)
        expected = []
        for n_wedge in (1, 10, 100):
            base = dict(shared, n_wedge=n_wedge, num_states=2, num_actions=2)
            c = count_c_n_wedge(counts, n_wedge)
            expected += [
                {"method": "dprl", "n_wedge": n_wedge, "b": "", "num_states": 2, "c_n_wedge": c,
                 "bound": dprl_discrete_bound(BoundInputs(**base, c_n_wedge=c), variant),
                 "note": ""},
                {"method": "spibb", "n_wedge": n_wedge, "b": "", "num_states": 2, "c_n_wedge": "",
                 "bound": spibb_bound(BoundInputs(**base)), "note": ""},
                {"method": "pqi", "n_wedge": n_wedge, "b": 0.02, "num_states": 2, "c_n_wedge": "",
                 "bound": pqi_bound(BoundInputs(**base, b=0.02, dataset_size=len(dataset))),
                 "note": "up_to_constants"},
                {"method": "count_pessimism", "n_wedge": n_wedge, "b": "", "num_states": 2,
                 "c_n_wedge": "", "bound": count_pessimism_bound(stepwise, BoundInputs(**base)),
                 "note": ""},
            ]
        rows = bound_comparison_rows(
            dataset, ROWS_MDP, delta=0.05, n_wedge_grid=[1, 10, 100], pqi_b=0.02, variant=variant
        )
        assert [r["c_n_wedge"] for r in rows if r["method"] == "dprl"] == [4, 3, 0]
        assert rows == expected
        assert [list(r) for r in rows] == [list(r) for r in expected]

    def test_pessimism_rows_use_their_own_counts(self):
        # Five trajectories that each repeat two pairs: first-visit counts [[5, 5], [5, 5]] gate,
        # every-visit counts [[50, 5], [5, 50]] weigh the pessimism penalty.
        dataset = pair_dataset([[(0, 0)] * 10 + [(0, 1), (1, 0)] + [(1, 1)] * 10] * 5)
        gating = count_visits(dataset, FIRST_VISIT)
        stepwise = count_visits(dataset, EVERY_VISIT)
        assert gating.n_sa.tolist() == [[5, 5], [5, 5]]
        assert stepwise.n_sa.tolist() == [[50, 5], [5, 50]]
        rows = bound_comparison_rows(dataset, ROWS_MDP, delta=0.1, n_wedge_grid=[1, 10], pqi_b=0.02)
        # n_wedge 10 leaves no pair gated in, though two pairs were taken 50 times each.
        assert [r["c_n_wedge"] for r in rows if r["method"] == "dprl"] == [4, 0]
        pessimism = [r for r in rows if r["method"] == "count_pessimism"][0]
        inputs = BoundInputs(
            v_max=ROWS_MDP.v_max, gamma=0.95, n_wedge=1, delta=0.1, num_states=2, num_actions=2
        )
        expected = count_pessimism_bound(stepwise, inputs)
        assert pessimism["bound"] == pytest.approx(expected, rel=1e-12)
        assert pessimism["bound"] != pytest.approx(count_pessimism_bound(gating, inputs), rel=1e-3)

    def test_dataset_of_another_shape_rejected(self):
        dataset = make_dataset([make_traj([0, 2], [0, 0], [0.0, 0.0])], 3, 2)
        with pytest.raises(ValueError, match="dataset shape does not match the MDP"):
            bound_comparison_rows(dataset, ROWS_MDP, delta=0.1, n_wedge_grid=[1], pqi_b=0.02)

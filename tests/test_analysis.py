"""Conditional probabilities, effect sizes, stratification, and trial CIs.

All derived expectations here come from the closed form for the 3-qubit
model (uniform confounder; P(T=1|G) = sin^2(1.2), sin^2(0.4); P(O=1|G,T) =
sin^2((0.3 + G + 0.6 T)/2)), assembled with elementary probability rules,
never through the code paths under test.
"""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from qdo import (
    UNIFORM,
    CausalModel,
    Distribution,
    Edge,
    EffectReport,
    Intervention,
    ModelError,
    Prep,
    Query,
    StratumEffect,
    UndefinedConditionalError,
    Variable,
    adjusted_effect,
    aggregate_trials,
    apply_do,
    causal_effect,
    compile_model,
    cond_prob,
    observational_effect,
    run_exact,
    run_sampled,
    stratified_effect,
)
from qdo.analysis import StratumRows
from qdo.experiments import RunConfig, causal_group, run_experiment

S2 = lambda x: math.sin(x / 2.0) ** 2

# Closed-form building blocks for the 3-qubit system.
P_T1 = {0: S2(2.4), 1: S2(0.8)}
P_O1 = {(g, t): S2(0.3 + 1.0 * g + 0.6 * t) for g in (0, 1) for t in (0, 1)}
DP_G0 = P_O1[(0, 1)] - P_O1[(0, 0)]
DP_G1 = P_O1[(1, 1)] - P_O1[(1, 0)]
ACE = 0.5 * (P_O1[(0, 1)] + P_O1[(1, 1)]) - 0.5 * (P_O1[(0, 0)] + P_O1[(1, 0)])
_pt = 0.5 * P_T1[0] + 0.5 * P_T1[1]
OBS_OVERALL = (
    (0.5 * P_T1[0] * P_O1[(0, 1)] + 0.5 * P_T1[1] * P_O1[(1, 1)]) / _pt
    - (0.5 * (1 - P_T1[0]) * P_O1[(0, 0)] + 0.5 * (1 - P_T1[1]) * P_O1[(1, 0)]) / (1 - _pt)
)


@pytest.fixture(scope="module")
def obs3(simpson3_entry):
    return run_exact(compile_model(simpson3_entry.model)), simpson3_entry.model.qubit_map()


class TestCondProb:
    def test_outcome_given_male_treated(self, obs3):
        dist, qmap = obs3
        p = cond_prob(dist, qmap, Query(("O", 1), (("G", 0), ("T", 1))))
        assert p == pytest.approx(S2(0.9), abs=1e-10)
        assert p == pytest.approx(0.1892, abs=5e-4)

    def test_tautology(self, obs3):
        dist, qmap = obs3
        assert cond_prob(dist, qmap, Query(("T", 1), (("T", 1),))) == pytest.approx(1.0)

    def test_high_treatment_rate_group(self, obs3):
        dist, qmap = obs3
        p = cond_prob(dist, qmap, Query(("T", 1), (("G", 0),)))
        assert p == pytest.approx(S2(2.4), abs=1e-10)
        assert p == pytest.approx(0.8687, abs=5e-4)

    def test_empty_condition_is_marginal(self, obs3):
        dist, qmap = obs3
        expected = 0.5 * P_T1[0] + 0.5 * P_T1[1]
        assert cond_prob(dist, qmap, Query(("T", 1))) == pytest.approx(expected, abs=1e-10)

    def test_zero_mass_condition_raises_naming_it(self):
        m = CausalModel("flat", tuple(Variable(name, q) for q, name in enumerate("ABCD")), ())
        dist = run_exact(compile_model(m))
        with pytest.raises(UndefinedConditionalError, match="A=1"):
            cond_prob(dist, m.qubit_map(), Query(("B", 1), (("A", 1),)))
        # A zero-mass given is named before any cell of an adjustment is looked at.
        for adjust in (("D",), ()):
            with pytest.raises(
                UndefinedConditionalError, match=r"^undefined conditional: condition \[A=1\] has zero mass$"
            ):
                adjusted_effect(dist, m.qubit_map(), "B", "C", adjust, given=(("A", 1),))

    def test_unknown_variable_rejected(self, obs3):
        dist, qmap = obs3
        # A name the qubit map cannot hold (unhashable) is unknown too.
        for name in ("Z", ["G"]):
            with pytest.raises(ModelError, match=f"^unknown variable {re.escape(repr(name))} in query$"):
                cond_prob(dist, qmap, Query((name, 1)))
        # A known variable's bit is an int 0 or 1 (model.is_bit): not 2, a
        # bool, a float or a numpy integer.
        for bit in (2, -1, True, False, 1.0, np.int64(1)):
            message = f"^variable 'G': value must be 0 or 1, got {re.escape(repr(bit))}$"
            with pytest.raises(ValueError, match=message):
                cond_prob(dist, qmap, Query(("O", 1), (("G", bit),)))
            with pytest.raises(ValueError, match=message):
                cond_prob(dist, qmap, Query(("G", bit)))

    # A variable named twice in one event: the same bit counts once, both bits
    # hold nowhere. A reader where the last bit named wins fails the conflicts.
    @pytest.mark.parametrize(
        "repeated, once",
        [
            ((("T", 1), ("T", 1)), (("T", 1),)),
            ((("G", 0), ("T", 1), ("G", 0)), (("G", 0), ("T", 1))),
        ],
    )
    def test_repeated_condition_counts_once(self, obs3, repeated, once):
        dist, qmap = obs3
        assert cond_prob(dist, qmap, Query(("O", 1), repeated)) == cond_prob(dist, qmap, Query(("O", 1), once))

    @pytest.mark.parametrize("condition", [(("T", 1), ("T", 0)), (("T", 0), ("G", 1), ("T", 1))])
    def test_conflicting_condition_raises(self, obs3, condition):
        dist, qmap = obs3
        with pytest.raises(UndefinedConditionalError, match="zero mass"):
            cond_prob(dist, qmap, Query(("O", 1), condition))

    @pytest.mark.parametrize(
        "outcome, condition, expected",
        [(("O", 1), (("O", 0),), 0.0), (("O", 1), (("O", 1),), 1.0), (("T", 0), (("G", 1), ("T", 1)), 0.0)],
    )
    def test_outcome_named_in_condition(self, obs3, outcome, condition, expected):
        dist, qmap = obs3
        assert cond_prob(dist, qmap, Query(outcome, condition)) == expected

    def test_adjusting_for_treatment_leaves_an_empty_arm(self, obs3):
        dist, qmap = obs3
        with pytest.raises(UndefinedConditionalError, match=r"undefined stratum cell \(T=0\)"):
            adjusted_effect(dist, qmap, "T", "O", ("T",))

    def test_adjusting_for_outcome_gives_zero(self, obs3):
        dist, qmap = obs3
        assert adjusted_effect(dist, qmap, "T", "O", ("O",))[0] == 0.0

    # A qubit map's value follows the index rule of marginal (model._is_index):
    # "x" is no index, and True is not read as qubit 1.
    @pytest.mark.parametrize("qubit", [5, 3, -1, "x", True])
    def test_qubit_outside_distribution_rejected(self, obs3, qubit):
        dist, qmap = obs3
        with pytest.raises(ValueError, match=f"qubit {re.escape(repr(qubit))} outside a 3-qubit distribution"):
            cond_prob(dist, {**qmap, "X": qubit}, Query(("X", 0)))

    def test_sampled_distribution_uses_counts(self, simpson3_entry):
        dist = run_sampled(compile_model(simpson3_entry.model), 8000, seed=21)
        qmap = simpson3_entry.model.qubit_map()
        p = cond_prob(dist, qmap, Query(("T", 1), (("G", 0),)))
        assert 0.0 <= p <= 1.0
        # counts-ratio must equal the probability-ratio of the same distribution
        sigma = math.sqrt(S2(2.4) * (1 - S2(2.4)) / 4000)
        assert p == pytest.approx(S2(2.4), abs=4 * sigma)


class TestObservationalEffect:
    def test_simpson3_reversal_value(self, obs3):
        dist, qmap = obs3
        effect = observational_effect(dist, qmap, "T", "O")
        assert effect == pytest.approx(OBS_OVERALL, abs=1e-10)
        assert effect == pytest.approx(-0.061, abs=1e-3)

    def test_independent_outcome_gives_zero(self):
        m = CausalModel(
            "indep",
            (Variable("T", 0, Prep.rotation(1.1)), Variable("O", 1, Prep.rotation(0.7))),
            (),
        )
        dist = run_exact(compile_model(m))
        assert observational_effect(dist, m.qubit_map(), "T", "O") == pytest.approx(0.0, abs=1e-12)


class TestStratifiedEffect:
    def test_simpson3_subgroups(self, obs3):
        dist, qmap = obs3
        aggregate, strata = stratified_effect(dist, qmap, "T", "O", "G")
        assert strata[0].effect == pytest.approx(DP_G0, abs=1e-10)
        assert strata[1].effect == pytest.approx(DP_G1, abs=1e-10)
        assert strata[0].effect == pytest.approx(0.166, abs=1e-3)
        assert strata[1].effect == pytest.approx(0.296, abs=1e-3)
        assert sum(s.weight for s in strata) == pytest.approx(1.0, abs=1e-10)
        assert aggregate == pytest.approx(0.5 * DP_G0 + 0.5 * DP_G1, abs=1e-10)

    def test_single_stratum_equals_observational(self, obs3):
        # Z is constant 0: the only stratum carries all the weight.
        m = CausalModel(
            "degenerate",
            (Variable("Z", 0), Variable("T", 1, UNIFORM), Variable("O", 2, Prep.rotation(0.4))),
            (Edge("T", "O", 1, 0.9),),
        )
        dist = run_exact(compile_model(m))
        qmap = m.qubit_map()
        aggregate, strata = stratified_effect(dist, qmap, "T", "O", "Z")
        assert len(strata) == 1 and strata[0].value == 0 and strata[0].weight == pytest.approx(1.0)
        assert aggregate == pytest.approx(observational_effect(dist, qmap, "T", "O"), abs=1e-12)

    def test_backdoor_equality_on_simpson3(self, obs3, simpson3_entry):
        # G blocks every back-door path, so adjustment equals intervention.
        dist, qmap = obs3
        aggregate, _ = stratified_effect(dist, qmap, "T", "O", "G")
        ace = causal_effect(simpson3_entry.model, "T", "O").effect
        assert abs(aggregate - ace) < 1e-10

    def test_single_stratifier_insufficient_on_healthcare10(self, healthcare10_entry):
        dist = run_exact(compile_model(healthcare10_entry.model))
        qmap = healthcare10_entry.model.qubit_map()
        ace = causal_effect(healthcare10_entry.model, "Treatment", "Outcome").effect
        for stratifier in ("Age", "Region"):
            aggregate, _ = stratified_effect(dist, qmap, "Treatment", "Outcome", stratifier)
            assert abs(aggregate - ace) > 0.005

    def test_empty_cell_raises_naming_stratum(self, simpson3_entry):
        surgered = apply_do(simpson3_entry.model, Intervention("T", 1))
        dist = run_exact(compile_model(surgered))
        with pytest.raises(UndefinedConditionalError, match="stratum cell"):
            stratified_effect(dist, surgered.qubit_map(), "T", "O", "G")


class TestAdjustedEffect:
    def test_subgroup_is_observational_within_given_cell(self, obs3):
        dist, qmap = obs3
        assert adjusted_effect(dist, qmap, "T", "O", given=(("G", 0),))[0] == pytest.approx(DP_G0, abs=1e-10)
        assert adjusted_effect(dist, qmap, "T", "O", given=(("G", 1),))[0] == pytest.approx(DP_G1, abs=1e-10)

    @pytest.mark.parametrize(
        "entry, treatment, outcome",
        [("simpson3_entry", "T", "O"), ("healthcare10_entry", "Treatment", "Outcome")],
    )
    def test_backdoor_over_treatment_parents_equals_do(self, request, entry, treatment, outcome):
        model = request.getfixturevalue(entry).model
        dist = run_exact(compile_model(model))
        parents = sorted({e.parent for e in model.incoming(treatment)})
        effect, _ = adjusted_effect(dist, model.qubit_map(), treatment, outcome, parents)
        assert abs(effect - causal_effect(model, treatment, outcome).effect) < 1e-12

    def test_partial_adjustment_misses_do_on_healthcare10(self, healthcare10_entry):
        model = healthcare10_entry.model
        dist = run_exact(compile_model(model))
        effect, strata = adjusted_effect(dist, model.qubit_map(), "Treatment", "Outcome", ("Age", "Region"))
        assert sum(s.weight for s in strata) == pytest.approx(1.0, abs=1e-12)
        assert abs(effect - causal_effect(model, "Treatment", "Outcome").effect) > 0.005


def _counts(cells: dict) -> np.ndarray:
    # Qubits Z = 0, T = 1, O = 2: cell (z, t, o) is entry z + 2 t + 4 o.
    row = np.zeros(8, dtype=np.int64)
    for (z, t, o), n in cells.items():
        row[z + 2 * t + 4 * o] = n
    return row


class TestStacks:
    """A (trials, 2^n) stack gives each row the result of its own Distribution."""

    QMAP = {"Z": 0, "T": 1, "O": 2}
    FULL = _counts({(z, t, o): 3 + z + 2 * t + 5 * o for z in (0, 1) for t in (0, 1) for o in (0, 1)})
    NO_Z1 = _counts({(0, t, o): 4 + t + 3 * o for t in (0, 1) for o in (0, 1)})
    NO_T1 = _counts({(z, 0, o): 2 + z + o for z in (0, 1) for o in (0, 1)})

    @staticmethod
    def _dist(row):
        return Distribution(3, row, shots=int(row.sum()))

    def test_cond_prob_per_row(self):
        stack = np.stack([self.FULL, self.NO_Z1])
        query = Query(("O", 1), (("T", 1),))
        got = cond_prob(stack, self.QMAP, query)
        assert got.tolist() == [cond_prob(self._dist(row), self.QMAP, query) for row in stack]

    def test_cond_prob_names_the_first_empty_row(self):
        stack = np.stack([self.FULL, self.NO_T1, self.NO_T1])
        with pytest.raises(UndefinedConditionalError, match=r"condition \[T=1\] has zero mass") as excinfo:
            cond_prob(stack, self.QMAP, Query(("O", 1), (("T", 1),)))
        assert excinfo.value.trial == 1

    def test_skipped_cell_is_nan_in_its_row(self):
        stack = np.stack([self.FULL, self.NO_Z1])
        effects, strata = adjusted_effect(stack, self.QMAP, "T", "O", ("Z",))
        assert strata.weight.shape == strata.effect.shape == (2, 2)
        for i, row in enumerate(stack):
            effect, row_strata = adjusted_effect(self._dist(row), self.QMAP, "T", "O", ("Z",))
            assert effects[i] == effect
            cells = zip(strata.weight[i].tolist(), strata.effect[i].tolist())
            assert [StratumEffect(z, w, e) for z, (w, e) in enumerate(cells) if not math.isnan(w)] == list(
                row_strata
            )
        assert np.isnan(strata.weight[1, 1]) and np.isnan(strata.effect[1, 1])

    def test_a_cell_no_row_has_is_all_nan(self):
        stack = np.stack([self.NO_Z1, self.NO_Z1])
        _, strata = adjusted_effect(stack, self.QMAP, "T", "O", ("Z",))
        assert not np.isnan(strata.weight[:, 0]).any() and np.isnan(strata.weight[:, 1]).all()
        assert isinstance(adjusted_effect(self._dist(self.NO_Z1), self.QMAP, "T", "O", ("Z",))[1][0].weight, float)

    def test_means_average_the_rows_that_have_a_cell(self):
        # Cell 0 is in both rows, cell 1 only in row 1, cell 2 in none.
        nan = math.nan
        weight = np.array([[0.25, nan, nan], [0.5, 0.5, nan]])
        strata = StratumRows(weight, np.array([[0.1, nan, nan], [0.3, -0.2, nan]]))
        assert strata.means() == (StratumEffect(0, (0.25 + 0.5) / 2, (0.1 + 0.3) / 2), StratumEffect(1, 0.5, -0.2))
        row = StratumRows(strata.weight[:1], strata.effect[:1])
        assert row.means() == (StratumEffect(0, 0.25, 0.1),)

    def test_first_failing_row_keeps_its_first_cell(self):
        # NO_T1 empties the T=1 arm of both cells; Z=0 comes first.
        stack = np.stack([self.FULL, self.NO_Z1, self.NO_T1])
        with pytest.raises(UndefinedConditionalError) as excinfo:
            adjusted_effect(stack, self.QMAP, "T", "O", ("Z",))
        assert str(excinfo.value) == (
            "undefined stratum cell (Z=0): undefined conditional: condition [T=1, Z=0] has zero mass"
        )
        assert excinfo.value.trial == 2

    @pytest.mark.parametrize(
        "rows, error",
        [
            # NO_Z1 has no mass at Z=1; as for one Distribution, the given is named.
            (("FULL", "NO_Z1", "NO_T1"), "undefined conditional: condition [Z=1] has zero mass"),
            # A row before it that fails on a treatment arm still comes first.
            (("FULL", "NO_T1", "NO_Z1"), "undefined conditional: condition [T=1, Z=1] has zero mass"),
        ],
        ids=["given", "earlier-arm"],
    )
    def test_empty_given_fails_naming_the_given(self, rows, error):
        stack = np.stack([getattr(self, row) for row in rows])
        with pytest.raises(UndefinedConditionalError) as excinfo:
            adjusted_effect(stack, self.QMAP, "T", "O", given=(("Z", 1),))
        assert str(excinfo.value) == error
        assert excinfo.value.trial == 1


class TestTemporaries:
    def test_estimators_allocate_at_most_half_a_state(self):
        # v0 is the last axis of the (2,) * n view, so each read of T copies.
        n = 18
        values = np.random.default_rng(0).random(1 << n)
        dist = Distribution(n, values / values.sum())
        qmap = {f"v{q}": q for q in range(n)}
        tracemalloc.start()
        try:
            observational_effect(dist, qmap, "v0", "v1")
            stratified_effect(dist, qmap, "v0", "v1", "v2")
            cond_prob(dist, qmap, Query(("v1", 1), (("v0", 1),)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= dist.values.nbytes // 2 + 64 * 1024


def _half_width(row):
    """1.96 standard errors of a row's trials (K-1 sample standard deviation)."""
    return 1.96 * float(np.std(row.per_trial, ddof=1)) / math.sqrt(len(row.per_trial))


class TestCausalEffect:
    def test_simpson3_exact_point_estimate(self, simpson3_entry):
        report = causal_effect(simpson3_entry.model, "T", "O")
        assert report.effect == pytest.approx(ACE, abs=1e-10)
        assert report.effect == pytest.approx(0.232, abs=1e-3)
        assert report.ci is None and report.per_trial == ()

    def test_no_causal_path_gives_zero(self):
        m = CausalModel(
            "nopath",
            (Variable("G", 0, UNIFORM), Variable("T", 1), Variable("O", 2, Prep.rotation(0.3))),
            (Edge("G", "T", 1, 0.8), Edge("G", "O", 1, 1.0)),
        )
        report = causal_effect(m, "T", "O")
        assert abs(report.effect) < 1e-10

    def test_already_intervened_rejected(self, simpson3_entry):
        surgered = apply_do(simpson3_entry.model, Intervention("T", 1))
        with pytest.raises(ModelError, match="already intervened on: run its observational model with do=$"):
            causal_effect(surgered, "T", "O")

    def test_sampled_backend_reports_ci(self, simpson3_entry):
        report = causal_effect(simpson3_entry.model, "T", "O", RunConfig("sampled", trials=10, seed=5))
        assert len(report.per_trial) == 10
        # ~6 sigma for the mean of 10 trials at 15000 shots; any seed passes.
        assert report.effect == pytest.approx(ACE, abs=0.01)
        low, high = report.ci
        assert low <= report.effect <= high
        assert high - report.effect == pytest.approx(_half_width(report), abs=1e-12)

    def test_sampled_streams_match_run_experiment(self, simpson3_entry):
        cfg = RunConfig(backend="sampled", shots=2000, trials=3, seed=123)
        report = causal_effect(simpson3_entry.model, "T", "O", cfg)
        run = run_experiment(simpson3_entry.model, "T", "O", [causal_group()], cfg)
        assert report.per_trial == run.groups[0].per_trial

    def test_sampled_deterministic(self, simpson3_entry):
        cfg = RunConfig(backend="sampled", shots=2000, trials=3, seed=123)
        a = causal_effect(simpson3_entry.model, "T", "O", cfg)
        b = causal_effect(simpson3_entry.model, "T", "O", cfg)
        assert a.per_trial == b.per_trial


class TestAggregateTrials:
    def test_hand_computed_example(self):
        row = aggregate_trials("g", [0.1, 0.2, 0.3])
        assert row.label == "g" and row.per_trial == (0.1, 0.2, 0.3) and row.strata is None
        assert row.effect == pytest.approx(0.2)
        assert row.ci == pytest.approx((0.0868, 0.3132), abs=5e-4)
        assert row.ci[1] - row.effect == pytest.approx(1.96 * 0.1 / math.sqrt(3), abs=1e-12)

    def test_identical_values_collapse_ci(self):
        row = aggregate_trials("g", [0.25] * 8)
        assert row.ci == pytest.approx((0.25, 0.25))

    def test_single_trial_has_no_ci(self):
        strata = (StratumEffect(0, 1.0, 0.4),)
        row = aggregate_trials("g", [0.4], strata)
        assert row.effect == 0.4 and row.per_trial == (0.4,) and row.strata == strata
        assert row.ci is None

    def test_row_fields(self):
        # One field per quantity: the CI is the (low, high) pair, and the
        # trial count is len(per_trial).
        assert [f.name for f in dataclasses.fields(EffectReport)] == [
            "label", "effect", "per_trial", "ci", "strata",
        ]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_trials("g", [])

    def test_ci_half_width_is_196_standard_errors(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0.2, 0.01, size=30)
        row = aggregate_trials("g", values)
        assert row.ci[1] - row.effect == pytest.approx(_half_width(row), abs=1e-12)
        assert row.effect - row.ci[0] == pytest.approx(_half_width(row), abs=1e-12)


class TestEffectReport:
    # Each row here reached render_chart before a row judged itself.
    @pytest.mark.parametrize("fields, error, message", [
        ({"effect": math.nan}, ValueError, "must be finite"),
        ({"ci": (0.0, math.inf)}, ValueError, "must be finite"),
        ({"effect": True}, TypeError, "must be numbers, got True"),
        ({"effect": "0.1"}, TypeError, "must be numbers, got '0.1'"),
        ({"effect": np.float32(0.1)}, TypeError, "must be numbers"),
        ({"ci": (0.1,)}, TypeError, "ci must be a list of two numbers"),
        ({"ci": (0.0, 0.1, 0.2)}, TypeError, "ci must be a list of two numbers"),
        ({"label": 5}, TypeError, "label must be a string, got 5"),
    ], ids=["nan-effect", "inf-ci", "bool-effect", "str-effect", "float32-effect", "one-bound", "three-bounds",
            "int-label"])
    def test_refused_when_built(self, fields, error, message):
        with pytest.raises(error, match=re.escape(message)):
            EffectReport(**{"label": "g", "effect": 0.1, **fields})

    def test_numbers_are_stored_as_floats(self):
        row = EffectReport("g", 1, ci=[0, np.float64(2.5)])
        assert (type(row.effect), row.ci) == (float, (0.0, 2.5)) and type(row.ci[1]) is float


class TestSignReversalInvariant:
    def test_signs_without_tolerance(self, obs3, simpson3_entry):
        dist, qmap = obs3
        _, strata = stratified_effect(dist, qmap, "T", "O", "G")
        assert strata[0].effect > 0
        assert strata[1].effect > 0
        assert observational_effect(dist, qmap, "T", "O") < 0
        ace = causal_effect(simpson3_entry.model, "T", "O").effect
        assert ace > 0
        # The paradox resolution lands strictly between the subgroup effects.
        assert min(strata[0].effect, strata[1].effect) < ace < max(strata[0].effect, strata[1].effect)

    def test_effects_bounded(self, obs3):
        dist, qmap = obs3
        assert -1.0 <= observational_effect(dist, qmap, "T", "O") <= 1.0

"""The enumeration oracle against the statevector engine, and its closed form."""

import hashlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from qdo import (
    UNIFORM,
    CausalModel,
    Edge,
    Intervention,
    Prep,
    Variable,
    apply_do,
    compile_model,
    conditional_table,
    enumerate_joint,
    run_exact,
)
from conftest import chain_model, make_random_model, random_intervention

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402  (perfbench/ is not a package)


def _max_dev(model):
    engine = run_exact(compile_model(model)).values
    oracle = enumerate_joint(model).values
    return float(np.max(np.abs(engine - oracle)))


class TestAgainstEngine:
    def test_simpson3(self, simpson3_entry):
        assert _max_dev(simpson3_entry.model) < 1e-10

    def test_healthcare10(self, healthcare10_entry):
        assert _max_dev(healthcare10_entry.model) < 1e-10

    def test_after_surgery(self, simpson3_entry, healthcare10_entry):
        for entry in (simpson3_entry, healthcare10_entry):
            for value in (0, 1):
                surgered = apply_do(entry.model, Intervention(entry.roles.treatment, value))
                assert _max_dev(surgered) < 1e-10

    def test_random_models_observational_and_surgered(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            model = make_random_model(rng)
            assert _max_dev(model) < 1e-10
            assert _max_dev(apply_do(model, random_intervention(rng, model))) < 1e-10

    @pytest.mark.parametrize("n", range(6, 13))
    def test_general_benchmark_models_observational_and_surgered(self, n):
        # The benchmark's "general" class gives uniform preps parents.
        for seed in (0, 1):
            case = gen.random_model(np.random.default_rng(seed), n, "general", f"general{n}")
            model = case.model
            assert any(v.prep.kind == "uniform" and model.incoming(v.name) for v in model.variables)
            for m in (model, *(apply_do(model, Intervention(case.treatment, t)) for t in (0, 1))):
                assert _max_dev(m) < 1e-12


class TestClosedForm:
    def test_ground_only_model(self):
        m = CausalModel("zero", (Variable("X", 0),), ())
        assert enumerate_joint(m).values == pytest.approx([1.0, 0.0])

    def test_simpson3_treatment_table(self, simpson3_entry):
        table = conditional_table(simpson3_entry.model, "T")
        assert table[(1,)] == pytest.approx(math.sin(0.4) ** 2, abs=1e-12)
        assert table[(1,)] == pytest.approx(0.1516, abs=5e-4)  # the ~15% group
        assert table[(0,)] == pytest.approx(math.sin(1.2) ** 2, abs=1e-12)

    def test_outcome_table_keys_ordered_by_parent_qubit(self, simpson3_entry):
        table = conditional_table(simpson3_entry.model, "O")
        # key = (G bit, T bit); effective angle 0.3 + 1.0*G + 0.6*T
        for (g, t), p1 in table.items():
            assert p1 == pytest.approx(math.sin((0.3 + 1.0 * g + 0.6 * t) / 2) ** 2, abs=1e-12)
        assert set(table) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_negative_sign_subtracts_in_angle_sum(self):
        m = CausalModel(
            "neg",
            (Variable("A", 0, UNIFORM), Variable("B", 1, Prep.rotation(0.9))),
            (Edge("A", "B", 1, 1.4, sign=-1),),
        )
        table = conditional_table(m, "B")
        assert table[(1,)] == pytest.approx(math.sin((0.9 - 1.4) / 2) ** 2, abs=1e-12)
        assert table[(0,)] == pytest.approx(math.sin(0.45) ** 2, abs=1e-12)

    def test_rows_stay_probabilities_with_negative_signs(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            model = make_random_model(rng)
            for v in model.variables:
                for p1 in conditional_table(model, v.name).values():
                    assert 0.0 <= p1 <= 1.0

    def test_intervened_variable_is_deterministic(self, simpson3_entry):
        surgered = apply_do(simpson3_entry.model, Intervention("T", 1))
        assert conditional_table(surgered, "T") == {(): 1.0}

    def test_uniform_prep_with_parents_is_certified(self):
        # H|0> = RY(pi/2)|0>, so B's active edge adds to pi/2:
        # sin^2((pi/2 + 0.5) / 2) = (1 + sin 0.5) / 2.
        m = CausalModel(
            "hplus",
            (Variable("A", 0), Variable("B", 1, UNIFORM)),
            (Edge("A", "B", 1, 0.5),),
        )
        assert conditional_table(m, "B") == {(0,): 0.5, (1,): (1.0 + math.sin(0.5)) / 2.0}
        assert _max_dev(m) < 1e-12
        # A rotated root makes the edge's branch carry mass.
        rotated = CausalModel("hplus-rotated", (Variable("A", 0, Prep.rotation(1.1)), m.variables[1]), m.edges)
        assert _max_dev(rotated) < 1e-12

    def test_joint_sums_to_one(self, healthcare10_entry):
        assert enumerate_joint(healthcare10_entry.model).values.sum() == pytest.approx(1.0, abs=1e-12)


def test_joint_over_state_budget_refused_before_allocating():
    # 48 qubits: even without the guard, numpy refuses the allocation at once.
    with pytest.raises(ValueError, match=rf"48-qubit state needs {8 << 48} bytes"):
        enumerate_joint(chain_model(48))


# sha256 of enumerate_joint(...).values.tobytes(), recorded with the oracle's
# earlier per-assignment tables. theta is a left-to-right sum in edge order,
# so these bytes hold on every Python version; a compensated sum (math.fsum,
# or sum() from Python 3.12 on) moves them.
JOINT_DIGESTS = {
    ("simpson3_entry", None): "bd02b6c0e7a5b7c21b542e157125e7169515af3225428aa206f49c4b72d6998a",
    ("simpson3_entry", 0): "1807264fac881fb5d29ff64f853a15f770312076c3f79d862d4e8a01d14f616d",
    ("simpson3_entry", 1): "8823825813240759ad2e69f48450965ce59fcd65ca43d724e079f8ff287aa5c7",
    ("healthcare10_entry", None): "a8ccbd47942ca191bb4c1858cfcf51844531f8e01fdcf1cd0a277abb6b1cfed0",
    ("healthcare10_entry", 0): "9bde02b9dd320de133ed3b523b09dc67c9aa4b9e8dfc64833eb30c9389baba9b",
    ("healthcare10_entry", 1): "24d1b6770ce93c0d1222c27f01a371c445b60c34c7229ead25a02ca31d305090",
}


@pytest.mark.parametrize("entry, value", list(JOINT_DIGESTS))
def test_catalog_joint_bytes_are_pinned(request, entry, value):
    catalog_entry = request.getfixturevalue(entry)
    model = catalog_entry.model
    if value is not None:
        model = apply_do(model, Intervention(catalog_entry.roles.treatment, value))
    digest = hashlib.sha256(enumerate_joint(model).values.tobytes()).hexdigest()
    assert digest == JOINT_DIGESTS[entry, value]

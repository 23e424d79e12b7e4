"""Catalog models carry exactly the published gate parameters."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from qdo import (
    GROUND,
    catalog,
    causal_effect,
    compile_model,
    enumerate_joint,
    run_exact,
    topological_order,
    validate,
)
from qdo.model import model_from_dict, model_to_dict


class TestSimpson3:
    def test_structure(self, simpson3_entry):
        m = simpson3_entry.model
        assert [(v.name, v.qubit, v.prep.kind) for v in m.variables] == [
            ("G", 0, "uniform"), ("T", 1, "ground"), ("O", 2, "rotation"),
        ]
        assert m.variable("O").prep.angle == pytest.approx(0.3)
        assert [(e.parent, e.child, e.control_value, e.angle, e.sign) for e in m.edges] == [
            ("G", "T", 0, 2.4, 1),
            ("G", "T", 1, 0.8, 1),
            ("G", "O", 1, 1.0, 1),
            ("T", "O", 1, 0.6, 1),
        ]
        assert simpson3_entry.roles.treatment == "T"
        assert simpson3_entry.roles.outcome == "O"
        assert simpson3_entry.roles.stratifiers == ("G",)

    def test_validates_clean(self, simpson3_entry):
        assert validate(simpson3_entry.model) == []

    def test_treatment_rates(self, simpson3_entry):
        table_t = enumerate_joint(simpson3_entry.model)
        qmap = simpson3_entry.model.qubit_map()
        idx = np.arange(8)
        p_g0 = table_t.values[((idx >> qmap["G"]) & 1) == 0]
        p_t1_g0 = p_g0[((idx[((idx >> qmap["G"]) & 1) == 0] >> qmap["T"]) & 1) == 1].sum() / p_g0.sum()
        assert p_t1_g0 == pytest.approx(math.sin(1.2) ** 2, abs=1e-10)
        assert p_t1_g0 == pytest.approx(0.869, abs=1e-3)

    def test_baseline_outcome_rate(self, simpson3_entry):
        from qdo import Query, cond_prob

        dist = run_exact(compile_model(simpson3_entry.model))
        p = cond_prob(dist, simpson3_entry.model.qubit_map(), Query(("O", 1), (("G", 0), ("T", 0))))
        assert p == pytest.approx(math.sin(0.15) ** 2, abs=1e-10)
        assert p == pytest.approx(0.0224, abs=5e-4)


class TestHealthcare10:
    def test_shape(self, healthcare10_entry):
        m = healthcare10_entry.model
        assert len(m.variables) == 10
        assert len(m.edges) == 19
        assert validate(m) == []

    def test_variable_preps(self, healthcare10_entry):
        m = healthcare10_entry.model
        base_angles = {
            "Age": 1.0, "Treatment": 0.2, "Insurance": 0.3, "Hospital": 0.4,
            "Doctor": 0.5, "Outcome": 0.1, "Satisfaction": 0.3,
        }
        for name, angle in base_angles.items():
            v = m.variable(name)
            assert v.prep.kind == "rotation" and v.prep.angle == pytest.approx(angle)
        for name in ("Income", "Region", "GenderBias"):
            assert m.variable(name).prep == GROUND

    def test_qubit_assignment_follows_listing(self, healthcare10_entry):
        names = [v.name for v in sorted(healthcare10_entry.model.variables, key=lambda v: v.qubit)]
        assert names == [
            "Age", "Income", "Region", "GenderBias", "Treatment",
            "Insurance", "Hospital", "Doctor", "Outcome", "Satisfaction",
        ]

    def test_control_on_zero_edges(self, healthcare10_entry):
        zero_controlled = {
            (e.parent, e.child) for e in healthcare10_entry.model.edges if e.control_value == 0
        }
        assert zero_controlled == {
            ("Region", "GenderBias"),
            ("GenderBias", "Treatment"),
            ("Age", "Outcome"),
            ("Region", "Outcome"),
        }

    def test_age_first_in_topological_order(self, healthcare10_entry):
        order = topological_order(healthcare10_entry.model)
        assert order[0] == "Age"

    def test_exact_ace(self, healthcare10_entry):
        report = causal_effect(healthcare10_entry.model, "Treatment", "Outcome")
        assert report.effect == pytest.approx(0.486, abs=0.02)


class TestCatalogApi:
    def test_readme_python_blocks_run(self):
        # The README's library calls run against the API as it is.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
        assert blocks
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})

    @pytest.mark.parametrize("entry_id", ["simpson3", "healthcare10"])
    def test_json_round_trip(self, entry_id):
        model = getattr(catalog, entry_id)().model
        assert model.name == entry_id
        assert model_from_dict(model_to_dict(model)) == model

    @pytest.mark.parametrize("entry_id", ["simpson3", "healthcare10"])
    def test_oracle_engine_equivalence(self, entry_id):
        model = getattr(catalog, entry_id)().model
        engine = run_exact(compile_model(model)).values
        oracle = enumerate_joint(model).values
        assert np.max(np.abs(engine - oracle)) < 1e-10

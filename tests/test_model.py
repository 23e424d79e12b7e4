"""Model validation at construction, topological ordering, graph surgery, and the JSON format."""

import dataclasses
import functools
import json
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_model
from qdo import (
    GROUND,
    UNIFORM,
    CausalModel,
    Edge,
    Intervention,
    ModelError,
    Prep,
    Variable,
    apply_do,
    compile_model,
    load_model,
    save_model,
    topological_order,
    validate,
)
from qdo import model as model_module
from qdo.catalog import simpson3
from qdo.model import model_from_dict, model_json_text, model_to_dict


def _tiny(name="tiny"):
    return CausalModel(
        name,
        (Variable("A", 0, UNIFORM), Variable("B", 1, GROUND)),
        (Edge("A", "B", 1, 1.0),),
    )


_AB = (Variable("A", 0, UNIFORM), Variable("B", 1))


class TestValidate:
    """Every rule of ``validate`` is enforced when a ``CausalModel`` is built."""

    def test_catalog_models_are_valid(self, simpson3_entry, healthcare10_entry):
        assert validate(simpson3_entry.model) == []
        assert validate(healthcare10_entry.model) == []

    def test_self_loop(self):
        with pytest.raises(ModelError, match="self-loop") as excinfo:
            CausalModel("bad", (Variable("G", 0),), (Edge("G", "G", 1, 0.5),))
        assert str(excinfo.value) == "invalid model: self-loop on 'G'"

    def test_cycle(self):
        with pytest.raises(ModelError, match="cycle detected") as excinfo:
            CausalModel(
                "bad",
                (Variable("A", 0), Variable("B", 1)),
                (Edge("A", "B", 1, 0.5), Edge("B", "A", 1, 0.5)),
            )
        assert str(excinfo.value) == "invalid model: cycle detected involving: A, B"

    def test_duplicate_names_and_bad_qubits(self):
        with pytest.raises(ModelError, match="duplicate variable names.*; .*permutation"):
            CausalModel("bad", (Variable("A", 0), Variable("A", 2)), ())

    def test_unknown_edge_endpoint(self):
        with pytest.raises(ModelError, match="unknown variable 'Z'"):
            CausalModel("bad", (Variable("A", 0),), (Edge("A", "Z", 1, 0.5),))

    def test_nonpositive_angle(self):
        with pytest.raises(ModelError, match="angle must be finite and > 0"):
            CausalModel("bad", (Variable("A", 0), Variable("B", 1)), (Edge("A", "B", 1, 0.0),))

    def test_boolean_control_value(self):
        # A library-built edge with control_value=True must not reach the
        # engine, which would index the control bit with a bool.
        with pytest.raises(ModelError, match="control_value must be 0 or 1"):
            CausalModel("bad", (Variable("A", 0, UNIFORM), Variable("B", 1)), (Edge("A", "B", True, 1.0),))

    @pytest.mark.parametrize("qubit", [1.0, True, "1", None])
    def test_non_integer_qubit(self, qubit):
        # 1.0 and True sort as a valid permutation; "1" and None do not sort
        # against 0 at all. Each must be refused by name, not crash the check.
        with pytest.raises(ModelError, match=f"variable 'B': qubit index must be an integer, got {qubit!r}"):
            CausalModel("m", (Variable("A", 0, UNIFORM), Variable("B", qubit)), (Edge("A", "B", 1, 1.0),))

    @pytest.mark.parametrize("variable, value, message", [
        pytest.param("B", True, "intervention 'B': value must be 0 or 1, got True", id="True"),
        pytest.param("B", 2, "intervention 'B': value must be 0 or 1, got 2", id="2"),
        pytest.param("B", 1.0, "intervention 'B': value must be 0 or 1, got 1.0", id="1.0"),
        pytest.param("B", np.int64(1), f"intervention 'B': value must be 0 or 1, got {np.int64(1)!r}", id="numpy"),
        pytest.param("B", "1", "intervention 'B': value must be 0 or 1, got '1'", id="str"),
        pytest.param(["B"], 1, "intervention ['B']: variable must be a string", id="variable-list"),
        pytest.param(1, 1, "intervention 1: variable must be a string", id="variable-int"),
        pytest.param(None, 1, "intervention None: variable must be a string", id="variable-none"),
    ])
    def test_intervention_value_not_a_bit(self, variable, value, message):
        # A malformed do() is refused once, when its Intervention is built (its
        # value by ``model.is_bit``), so graph surgery, circuit surgery and
        # runs never receive one: both routes to do() refuse the same values.
        with pytest.raises(ModelError) as err:
            Intervention(variable, value)
        assert str(err.value) == message

    # Wrongly typed fields are violations like any other: building the model
    # raises ModelError, never the AttributeError or TypeError of a check.
    def test_prep_that_is_not_a_prep(self):
        with pytest.raises(ModelError, match="variable 'A': prep must be a Prep, got None"):
            CausalModel("m", (Variable("A", 0, None),), ())

    def test_prep_angle_that_is_not_a_number(self):
        with pytest.raises(ModelError, match="variable 'A': base rotation angle must be a number, got 'x'"):
            CausalModel("m", (Variable("A", 0, Prep("rotation", "x")),), ())

    def test_edge_angle_that_is_not_a_number(self):
        with pytest.raises(ModelError, match="edge 'A'->'B': angle must be a number, got '0.3'"):
            CausalModel("m", (Variable("A", 0, UNIFORM), Variable("B", 1)), (Edge("A", "B", 1, "0.3"),))

    def test_unknown_prep_kind(self):
        with pytest.raises(ModelError, match="variable 'A': unknown prep kind 'excited'"):
            CausalModel("bad", (Variable("A", 0, Prep("excited")),), ())

    @pytest.mark.parametrize("sign", [0, True])
    def test_sign_outside_plus_minus_one(self, sign):
        # A bool sign would be saved as "sign": true, which load_model refuses.
        with pytest.raises(ModelError, match="sign must be \\+1 or -1"):
            CausalModel("bad", (Variable("A", 0, UNIFORM), Variable("B", 1)), (Edge("A", "B", 1, 1.0, sign),))

    def test_duplicate_edge_triple(self):
        with pytest.raises(ModelError, match="duplicate edge"):
            CausalModel(
                "bad",
                (Variable("A", 0), Variable("B", 1)),
                (Edge("A", "B", 1, 0.5), Edge("A", "B", 1, 0.7)),
            )

    def test_intervened_variable_with_incoming_edge(self):
        with pytest.raises(ModelError, match="still has incoming edges"):
            CausalModel(
                "bad",
                (Variable("A", 0), Variable("B", 1)),
                (Edge("A", "B", 1, 0.5),),
                (Intervention("B", 1),),
            )

    def test_double_intervention(self):
        with pytest.raises(ModelError, match="intervened more than once"):
            CausalModel(
                "bad",
                (Variable("A", 0), Variable("B", 1)),
                (),
                (Intervention("B", 1), Intervention("B", 0)),
            )

    @pytest.mark.parametrize("bad", [1.0, np.int64(1), True], ids=["float", "numpy", "bool"])
    @pytest.mark.parametrize("field, rule", [
        ("control_value", "control_value must be 0 or 1"),
        ("sign", "sign must be \\+1 or -1"),
        ("value", "intervention 'B': value must be 0 or 1"),
    ], ids=["control_value", "sign", "value"])
    def test_integer_fields_take_only_int(self, field, rule, bad):
        # The model file's rule (``model_from_dict``): 1.0 would fail to
        # compile or reload, and np.int64(1) to save.
        with pytest.raises(ModelError, match=f"{rule}, got {re.escape(repr(bad))}"):
            if field == "value":  # judged when its Intervention is built
                CausalModel("m", _AB, (), (Intervention("B", bad),))
            else:
                CausalModel("m", _AB, (Edge("A", "B", **{"control_value": 1, "angle": 1.0, "sign": 1, field: bad}),))

    @pytest.mark.parametrize("name", [3, None])
    def test_model_name_must_be_a_string(self, name):
        # The model file's rule: such a model would save, and the file then
        # fail to load.
        with pytest.raises(ModelError) as err:
            CausalModel(name, _AB, ())
        assert str(err.value) == f"invalid model: model name must be a string, got {name!r}"

    @pytest.mark.parametrize("angle, edge_rule, prep_rule", [
        (True, "angle must be a number, got True", "base rotation angle must be a number, got True"),
        (np.float32(0.5), f"angle must be a number, got {np.float32(0.5)!r}",
         f"base rotation angle must be a number, got {np.float32(0.5)!r}"),
        (10**400, "angle must be finite and > 0", "non-finite base rotation angle"),
    ], ids=["bool", "float32", "huge-int"])
    def test_angles_take_only_finite_ints_and_floats(self, angle, edge_rule, prep_rule):
        # True would be saved as true, which load_model refuses; np.float32
        # cannot be written as JSON; 10**400 has no float. Each is a
        # violation, never an OverflowError or TypeError.
        with pytest.raises(ModelError) as err:
            CausalModel("m", _AB, (Edge("A", "B", 1, angle),))
        assert str(err.value) == f"invalid model: edge 'A'->'B': {edge_rule}"
        for prep in (Prep.rotation(angle), Prep("rotation", angle)):
            with pytest.raises(ModelError) as err:
                CausalModel("m", (Variable("A", 0, prep),), ())
            assert str(err.value) == f"invalid model: variable 'A': {prep_rule}"

    @pytest.mark.parametrize("qubits, message", [
        ((10**5000,), "0..0; out of range: 'A'"),
        ((-1, 1, 3), "0..2; out of range: 'A', 'C'"),
        ((0, 0), "0..1, got [0, 0]"),
    ], ids=["past-the-digit-limit", "negative-and-too-large", "in-range-duplicate"])
    def test_qubit_index_out_of_range_is_named_by_variable(self, qubits, message):
        # Never printed: str() of an int past 4300 digits raises ValueError.
        variables = tuple(Variable(name, q) for name, q in zip("ABC", qubits))
        with pytest.raises(ModelError) as err:
            CausalModel("m", variables, ())
        assert str(err.value) == f"invalid model: qubit indices must be a permutation of {message}"

    @pytest.mark.parametrize("variables, edges, interventions, message", [
        ((Variable(["a"], 0),), (), (), "variable ['a']: name must be a string"),
        (_AB, (Edge(["A"], "B", 1, 0.5),), (), "edge ['A']->'B': parent and child must be strings"),
        (_AB, (Edge("A", "B", [1], 0.5),), (), "edge 'A'->'B': control_value must be 0 or 1, got [1]"),
        ((None,), (), (), "variables: expected Variable entries, got None"),
        (_AB, (("A", "B"),), (), "edges: expected Edge entries, got ('A', 'B')"),
        (_AB, (), ({"B": 1},), "interventions: expected Intervention entries, got {'B': 1}"),
    ], ids=["variable-name", "edge-parent", "control-value",
            "variable-entry", "edge-entry", "intervention-entry"])
    def test_wrongly_typed_fields_are_violations(self, variables, edges, interventions, message):
        # validate keys sets and dicts on names and reads each entry's fields:
        # a list name or a None entry is reported, not a TypeError or
        # AttributeError.
        with pytest.raises(ModelError) as err:
            CausalModel("m", variables, edges, interventions)
        assert str(err.value) == f"invalid model: {message}"

    def test_every_violation_reported_at_once(self):
        with pytest.raises(ModelError) as excinfo:
            CausalModel("bad", (Variable("", 0),), (Edge("", "Z", 1, -1.0),))
        assert str(excinfo.value) == (
            "invalid model: variable with empty name; edge ''->'Z' references unknown "
            "variable 'Z'; edge ''->'Z': angle must be finite and > 0"
        )


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.integers(0, 2**32 - 1))
def test_every_valid_model_round_trips_and_compiles(seed):
    model = make_random_model(np.random.default_rng(seed), max_qubits=8)
    assert model_from_dict(json.loads(model_json_text(model))) == model
    compile_model(model)


_ANGLES = st.floats(-4 * math.pi, 4 * math.pi, exclude_min=True, exclude_max=True) | st.integers(-12, 12)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.integers(0, 2**32 - 1), st.lists(_ANGLES, min_size=8, max_size=8))
def test_raw_rotation_preps_survive_a_save_and_load(seed, angles):
    # A rotation prep reduces its angle when built, however it is built, so
    # a model reads back from its file as the model that was saved.
    model = make_random_model(np.random.default_rng(seed), max_qubits=8)
    variables = tuple(dataclasses.replace(v, prep=Prep("rotation", a)) for v, a in zip(model.variables, angles))
    model = dataclasses.replace(model, variables=variables)
    reloaded = model_from_dict(model_to_dict(model))
    assert reloaded == model
    assert model_json_text(reloaded) == model_json_text(model)


class TestTopologicalOrder:
    def test_simpson3_order(self, simpson3_entry):
        assert topological_order(simpson3_entry.model) == ["G", "T", "O"]

    def test_a_model_peels_once(self, monkeypatch):
        # validate's cycle check and the topological order read one peel.
        calls = []
        peel = model_module._peel
        monkeypatch.setattr(model_module, "_peel", lambda m: calls.append(m) or peel(m))
        m = simpson3().model
        assert topological_order(m) == ["G", "T", "O"] and validate(m) == []
        assert calls == [m]

    def test_single_variable(self):
        m = CausalModel("one", (Variable("X", 0),), ())
        assert topological_order(m) == ["X"]

    def test_healthcare10_endpoints(self, healthcare10_entry):
        order = topological_order(healthcare10_entry.model)
        assert order[0] == "Age"
        assert order[-1] == "Satisfaction"
        # Kahn property: every parent precedes every child.
        pos = {name: i for i, name in enumerate(order)}
        for e in healthcare10_entry.model.edges:
            assert pos[e.parent] < pos[e.child]

    def test_tie_break_by_qubit_index(self):
        m = CausalModel(
            "ties",
            (Variable("C", 2), Variable("A", 0), Variable("B", 1)),
            (),
        )
        assert topological_order(m) == ["A", "B", "C"]

    def test_cycle_raises_naming_participants(self):
        with pytest.raises(ModelError, match="cycle.*A.*B"):
            CausalModel(
                "bad",
                (Variable("A", 0), Variable("B", 1)),
                (Edge("A", "B", 1, 0.5), Edge("B", "A", 1, 0.5)),
            )

    def test_cycle_message_excludes_downstream_nodes(self):
        with pytest.raises(ModelError) as excinfo:
            CausalModel(
                "bad",
                (Variable("A", 0), Variable("B", 1), Variable("C", 2)),
                (Edge("A", "B", 1, 0.5), Edge("B", "A", 1, 0.5), Edge("B", "C", 1, 0.5)),
            )
        assert "A" in str(excinfo.value) and "B" in str(excinfo.value)
        assert "C" not in str(excinfo.value)


class TestApplyDo:
    def test_removes_exactly_incoming_edges(self, simpson3_entry):
        m = simpson3_entry.model
        surgered = apply_do(m, Intervention("T", 1))
        removed = set(m.edges) - set(surgered.edges)
        assert removed == {e for e in m.edges if e.child == "T"}
        assert len(removed) == 2
        assert surgered.variable("T").prep == GROUND
        assert surgered.interventions == (Intervention("T", 1),)

    def test_original_unmodified(self, simpson3_entry):
        m = simpson3_entry.model
        before = (m.variables, m.edges, m.interventions)
        apply_do(m, Intervention("T", 0))
        assert (m.variables, m.edges, m.interventions) == before

    def test_no_incoming_edges_same_edge_set(self, simpson3_entry):
        m = simpson3_entry.model
        surgered = apply_do(m, Intervention("G", 1))
        assert surgered.edges == m.edges
        assert surgered.variable("G").prep == GROUND

    def test_healthcare10_treatment_surgery(self, healthcare10_entry):
        m = healthcare10_entry.model
        surgered = apply_do(m, Intervention("Treatment", 0))
        removed = set(m.edges) - set(surgered.edges)
        assert {(e.parent, e.child) for e in removed} == {
            ("Age", "Treatment"),
            ("Income", "Treatment"),
            ("GenderBias", "Treatment"),
        }

    def test_double_intervention_rejected(self, simpson3_entry):
        surgered = apply_do(simpson3_entry.model, Intervention("T", 1))
        assert not any(e.child == "T" for e in surgered.edges)
        with pytest.raises(ModelError, match="variable 'T' intervened more than once"):
            apply_do(surgered, Intervention("T", 0))

    def test_unknown_variable_rejected(self, simpson3_entry):
        with pytest.raises(ModelError, match="intervention on unknown variable 'Z'"):
            apply_do(simpson3_entry.model, Intervention("Z", 1))


class TestPrep:
    def test_rotation_normalizes_into_two_pi(self):
        assert Prep.rotation(0.3).angle == pytest.approx(0.3)
        assert Prep.rotation(2 * math.pi + 0.3).angle == pytest.approx(0.3)
        assert Prep.rotation(-0.3).angle == pytest.approx(2 * math.pi - 0.3)
        assert Prep("rotation", 7.0) == Prep.rotation(7.0)
        # -1e-300 % (2*pi) rounds to 2*pi itself, which would reduce to 0.0 on reload.
        assert Prep("rotation", -1e-300).angle == 0.0

    @pytest.mark.parametrize("prep", [Prep("ground", 5.0), Prep("uniform", 1.0), Prep("ground", False),
                                      Prep("uniform", "x")], ids=["ground", "uniform", "ground-bool", "uniform-str"])
    def test_ground_and_uniform_take_no_angle(self, prep):
        # Their file form has no angle, so one would be lost in a save and load.
        with pytest.raises(ModelError) as err:
            CausalModel("m", (Variable("A", 0, prep),), ())
        assert str(err.value) == f"invalid model: variable 'A': a {prep.kind} prep takes no angle, got {prep.angle!r}"

    def test_nonfinite_rotation_flagged_by_validate(self):
        with pytest.raises(ModelError, match="non-finite"):
            CausalModel("bad", (Variable("A", 0, Prep.rotation(math.nan)),), ())


class TestJsonFormat:
    def test_round_trip_catalog(self, simpson3_entry, healthcare10_entry):
        for entry in (simpson3_entry, healthcare10_entry):
            assert model_from_dict(model_to_dict(entry.model)) == entry.model

    def test_unknown_field_rejected(self):
        data = model_to_dict(_tiny())
        data["extra"] = 1
        with pytest.raises(ModelError, match="unknown field.*extra"):
            model_from_dict(data)

    def test_unknown_variable_field_rejected(self):
        data = model_to_dict(_tiny())
        data["variables"][0]["color"] = "red"
        with pytest.raises(ModelError, match=r"variables\[0\].*color"):
            model_from_dict(data)

    def test_missing_edge_field_rejected(self):
        data = model_to_dict(_tiny())
        del data["edges"][0]["sign"]
        with pytest.raises(ModelError, match=r"edges\[0\].*missing.*sign"):
            model_from_dict(data)

    def test_bad_prep_rejected(self):
        data = model_to_dict(_tiny())
        data["variables"][0]["prep"] = "excited"
        with pytest.raises(ModelError, match=r"variables\[0\].prep"):
            model_from_dict(data)

    def test_boolean_control_value_rejected(self):
        data = model_to_dict(_tiny())
        data["edges"][0]["control_value"] = True
        with pytest.raises(ModelError, match="control_value"):
            model_from_dict(data)

    @pytest.mark.parametrize("keys, value, message", [
        ((), [], "model: expected an object, got list"),
        (("variables", 0), "A", "variables[0]: expected an object"),
        (("edges", 0), 1, "edges[0]: expected an object"),
        (("name",), 3, "invalid model: model name must be a string, got 3"),
        (("variables", 0, "name"), None, "invalid model: variable None: name must be a string; "
                                         "edge 'A'->'B' references unknown variable 'A'"),
        (("edges", 0, "parent"), 0, "invalid model: edge 0->'B': parent and child must be strings"),
        (("edges", 0, "child"), ["B"], "invalid model: edge 'A'->['B']: parent and child must be strings"),
        (("variables",), {}, "model.variables and model.edges: expected arrays"),
        (("edges",), "A->B", "model.variables and model.edges: expected arrays"),
        (("edges", 0, "sign"), 2, "invalid model: edge 'A'->'B': sign must be +1 or -1, got 2"),
        (("edges", 0, "sign"), 1.0, "invalid model: edge 'A'->'B': sign must be +1 or -1, got 1.0"),
        (("edges", 0, "sign"), -1.0, "invalid model: edge 'A'->'B': sign must be +1 or -1, got -1.0"),
        (("edges", 0, "control_value"), 1.0, "invalid model: edge 'A'->'B': control_value must be 0 or 1, got 1.0"),
        (("edges", 0, "control_value"), 0.0, "invalid model: edge 'A'->'B': control_value must be 0 or 1, got 0.0"),
        (("variables", 0, "qubit"), 0.0, "invalid model: variable 'A': qubit index must be an integer, got 0.0"),
        (("edges", 0, "angle"), "0.5", "invalid model: edge 'A'->'B': angle must be a number, got '0.5'"),
        (("edges", 0, "angle"), 10**400, "invalid model: edge 'A'->'B': angle must be finite and > 0"),
        (("variables", 0, "prep"), {"rotation": True},
         "invalid model: variable 'A': base rotation angle must be a number, got True"),
        (("variables", 0, "prep"), {"rotation": "x"},
         "invalid model: variable 'A': base rotation angle must be a number, got 'x'"),
        (("variables", 0, "prep"), {"rotation": 10**400},
         "invalid model: variable 'A': non-finite base rotation angle"),
        (None, None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
        (None, "[" * 100000 + "]" * 100000, "{path}: JSON nested too deeply to parse"),
    ], ids=["model", "variable", "edge", "model-name", "variable-name", "parent", "child",
            "variables", "edges", "sign", "sign-float", "sign-negative-float", "control-value-float",
            "control-value-zero-float", "qubit-float", "angle", "huge-angle", "rotation-bool",
            "rotation-string", "rotation-huge", "unreadable", "deep-nesting"])
    def test_malformed_file_names_the_field(self, tmp_path, keys, value, message):
        # keys: where in the tiny model's dict to put value; None writes value
        # as the file's text, or no file when value is None too.
        path = tmp_path / "model.json"
        if keys is None and value is not None:
            path.write_text(value, encoding="utf-8")
        elif keys is not None:
            root = {"model": model_to_dict(_tiny())}
            *outer, last = ("model", *keys)
            functools.reduce(operator.getitem, outer, root)[last] = value
            path.write_text(json.dumps(root["model"]), encoding="utf-8")
        with pytest.raises(ModelError) as err:
            load_model(path)
        want = message.format(path=path) if keys is None else f"{path}: {message}"
        assert str(err.value) == want

    def test_a_file_lists_every_violation(self, tmp_path):
        # The values of a file are judged by validate, like a model built in
        # Python, so one refusal names them all.
        data = model_to_dict(_tiny())
        data["edges"][0].update(sign=1.0, control_value=2)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ModelError) as err:
            load_model(path)
        assert str(err.value) == (
            f"{path}: invalid model: edge 'A'->'B': control_value must be 0 or 1, got 2; "
            "edge 'A'->'B': sign must be +1 or -1, got 1.0"
        )

    @pytest.mark.parametrize("angle", [2, np.float64(0.5)], ids=["int", "float64"])
    def test_odd_but_valid_angles_round_trip(self, tmp_path, angle):
        # An int angle is written as a JSON integer and read back as a float,
        # which compares equal; np.float64 is a float.
        model = CausalModel(
            "m", (Variable("A", 0, Prep.rotation(angle)), Variable("B", 1)), (Edge("A", "B", 1, angle),)
        )
        save_model(model, tmp_path / "m.json")
        assert load_model(tmp_path / "m.json") == model

    def test_intervened_model_not_serializable(self, simpson3_entry):
        surgered = apply_do(simpson3_entry.model, Intervention("T", 1))
        with pytest.raises(ModelError, match="observational"):
            model_to_dict(surgered)

    def test_load_model_reports_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "variables": [}', encoding="utf-8")
        with pytest.raises(ModelError, match="line 2"):
            load_model(path)

    def test_load_model_rejects_invalid_model(self, tmp_path):
        edge = {"control_value": 1, "angle": 0.5, "sign": 1}
        data = {
            "name": "bad",
            "variables": [{"name": "A", "qubit": 0, "prep": "ground"},
                          {"name": "B", "qubit": 1, "prep": "ground"}],
            "edges": [{"parent": "A", "child": "B", **edge}, {"parent": "B", "child": "A", **edge}],
        }
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ModelError, match="cycle"):
            load_model(path)

    def test_shipped_fixtures_match_catalog(self, simpson3_entry, healthcare10_entry):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent / "models"
        # README, CI and the benchmark run these files, the simpson3 and
        # healthcare10 subcommands the catalog: no file may lack an entry.
        assert sorted(f.name for f in root.glob("*.json")) == ["healthcare10.json", "simpson3.json"]
        for entry in (simpson3_entry, healthcare10_entry):
            path = root / f"{entry.model.name}.json"
            assert load_model(path) == entry.model
            assert path.read_text(encoding="utf-8") == model_json_text(entry.model)

"""Compiler output, circuit checks, circuit surgery, the qubit-to-variable record, and the text export."""

import math

import numpy as np
import pytest

from qdo import (
    UNIFORM,
    CausalModel,
    Edge,
    Intervention,
    ModelError,
    Variable,
    apply_do,
    compile_model,
    format_circuit,
    run_exact,
    surgered_circuit,
)
from qdo.circuit import Circuit, Gate


def _cry(control, control_value, target=1, theta=0.5):
    return Gate("cry", target, theta=theta, control=control, control_value=control_value)


class TestGateChecks:
    """A circuit checks itself when built, so no engine call sees a bad one."""

    @pytest.mark.parametrize("args, message", [
        ((2, (Gate("z", 0),)), "unknown gate kind"),
        ((2, (Gate("x", 2),)), "out of range"),
        ((2, (Gate("x", -1),)), "out of range"),
        ((2, (Gate("x", True),)), "out of range"),
        ((2, (_cry(2, 1),)), "out of range"),
        ((2, (_cry(None, 1),)), "out of range"),
        ((2, (_cry(False, 1),)), "out of range"),
        ((2, (_cry(0, 1, target=2),)), "out of range"),
        ((2, (_cry(1, 1),)), "control equals target"),
        ((2, (_cry(0, None),)), "control_value"),
        ((2, (_cry(0, -1),)), "control_value"),
        ((2, (_cry(0, 2),)), "control_value"),
        ((2, (_cry(0, True),)), "control_value"),
        ((2, (Gate("ry", 0, theta=math.nan),)), "non-finite"),
        ((2, (Gate("ry", 0, theta=math.inf),)), "non-finite"),
        ((2, (_cry(0, 1, theta=math.nan),)), "non-finite"),
        ((2, (_cry(0, 1, theta=-math.inf),)), "non-finite"),
        ((True, ()), "n_qubits"),
        ((-1, ()), "n_qubits"),
        ((1.5, ()), "n_qubits"),
        ((2, (), ("A",)), "exactly once"),
        ((2, (), ("A", "A")), "exactly once"),
        ((2, (), ("A", "B", "C")), "exactly once"),
    ], ids=[
        "unknown-kind", "target-high", "target-negative", "target-bool",
        "control-high", "control-none", "control-bool", "cry-target-high", "control-is-target",
        "control-value-none", "control-value-neg", "control-value-2", "control-value-bool",
        "ry-nan", "ry-inf", "cry-nan", "cry-neg-inf",
        "n-qubits-bool", "n-qubits-negative", "n-qubits-float",
        "variables-short", "variables-repeated", "variables-long",
    ])
    def test_malformed_gate_rejected_at_construction(self, args, message):
        with pytest.raises(ValueError, match=message):
            Circuit(*args)

    @pytest.mark.parametrize("n", [0, np.int64(2)])
    def test_zero_and_numpy_qubit_counts_accepted(self, n):
        assert Circuit(n, ()).n_qubits == n


def _gate_sig(g: Gate):
    return (g.kind, g.target, g.control, g.control_value, round(g.theta, 12))


class TestCompile:
    def test_simpson3_gate_sequence(self, simpson3_entry):
        circ = compile_model(simpson3_entry.model)
        assert circ.n_qubits == 3
        assert [_gate_sig(g) for g in circ.gates] == [
            ("h", 0, None, None, 0.0),
            ("cry", 1, 0, 0, 2.4),
            ("cry", 1, 0, 1, 0.8),
            ("ry", 2, None, None, 0.3),
            ("cry", 2, 0, 1, 1.0),
            ("cry", 2, 1, 1, 0.6),
        ]
        assert circ.variables == ("G", "T", "O")

    def test_ground_variable_compiles_to_nothing(self):
        m = CausalModel("empty", (Variable("X", 0),), ())
        assert compile_model(m).gates == ()

    def test_intervened_to_one_emits_forced_x(self, simpson3_entry):
        circ = compile_model(apply_do(simpson3_entry.model, Intervention("T", 1)))
        assert [_gate_sig(g) for g in circ.gates] == [
            ("h", 0, None, None, 0.0),
            ("x", 1, None, None, 0.0),
            ("ry", 2, None, None, 0.3),
            ("cry", 2, 0, 1, 1.0),
            ("cry", 2, 1, 1, 0.6),
        ]
        assert circ.variables[circ.gates[1].target] == "T"
        assert not any(g.kind == "cry" and g.target == 1 for g in circ.gates)

    def test_intervened_to_zero_emits_nothing(self, simpson3_entry):
        circ = compile_model(apply_do(simpson3_entry.model, Intervention("T", 0)))
        assert circ.variables[1] == "T"
        assert all(g.target != 1 for g in circ.gates)

    def test_negative_sign_lowers_to_negative_angle(self):
        m = CausalModel(
            "neg",
            (Variable("A", 0, prep=UNIFORM), Variable("B", 1)),
            (Edge("A", "B", 1, 1.4, sign=-1),),
        )
        circ = compile_model(m)
        assert circ.gates[-1].theta == pytest.approx(-1.4)

    def test_invalid_model_rejected(self):
        # The compiler trusts its input: an invalid model is refused when built.
        with pytest.raises(ModelError, match="invalid model"):
            CausalModel("bad", (Variable("A", 0),), (Edge("A", "A", 1, 0.5),))

    def test_gate_count_formula(self, simpson3_entry, healthcare10_entry):
        # IR gates = non-ground preps + edges; the X-wrap never appears in the IR.
        for entry in (simpson3_entry, healthcare10_entry):
            m = entry.model
            preps = sum(1 for v in m.variables if v.prep.kind != "ground")
            assert len(compile_model(m).gates) == preps + len(m.edges)

    def test_compilation_deterministic(self, healthcare10_entry):
        a = compile_model(healthcare10_entry.model)
        b = compile_model(healthcare10_entry.model)
        assert a == b
        assert format_circuit(a) == format_circuit(b)

    def test_prep_and_force_tags_exclusive(self, healthcare10_entry):
        # At most one non-CRY gate (the prep or the forced X) per target qubit.
        for iv in (Intervention("Treatment", 0), Intervention("Treatment", 1)):
            circ = compile_model(apply_do(healthcare10_entry.model, iv))
            targets = [g.target for g in circ.gates if g.kind != "cry"]
            assert len(targets) == len(set(targets))

    def test_variables_in_qubit_order(self, healthcare10_entry):
        # healthcare10's names are not in qubit order, so name order would fail.
        m = healthcare10_entry.model
        circ = compile_model(m)
        assert circ.variables != tuple(sorted(circ.variables))
        assert {name: circ.variables.index(name) for name in circ.variables} == m.qubit_map()
        for g in circ.gates:
            if g.kind == "cry":
                child, parent = circ.variables[g.target], circ.variables[g.control]
                assert any(e.parent == parent and e.control_value == g.control_value for e in m.incoming(child))


class TestSurgery:
    def test_commutes_with_model_surgery(self, simpson3_entry):
        m = simpson3_entry.model
        circ = compile_model(m)
        for value in (0, 1):
            iv = Intervention("T", value)
            via_model = run_exact(compile_model(apply_do(m, iv)))
            via_circuit = run_exact(surgered_circuit(circ, iv))
            assert np.max(np.abs(via_model.values - via_circuit.values)) < 1e-12

    def test_removes_link_gates_and_inserts_x(self, simpson3_entry):
        circ = compile_model(simpson3_entry.model)
        cut = surgered_circuit(circ, Intervention("T", 1))
        assert cut.variables == circ.variables and circ.variables[1] == "T"
        on_t = [g for g in cut.gates if g.target == 1]
        assert len(on_t) == 1 and on_t[0].kind == "x"

    def test_value_zero_inserts_no_x(self, healthcare10_entry):
        circ = compile_model(healthcare10_entry.model)
        q = circ.variables.index("Treatment")
        links_in = sum(1 for g in circ.gates if g.kind == "cry" and g.target == q)
        assert links_in == 3
        cut = surgered_circuit(circ, Intervention("Treatment", 0))
        assert len(cut.gates) == len(circ.gates) - links_in - 1  # links + the prep RY
        assert not any(g.target == q for g in cut.gates)

    def test_untouched_variable_surgery_is_identity(self):
        # Ground prep, no incoming links, value 0: nothing to remove or insert.
        m = CausalModel("pair", (Variable("A", 0), Variable("B", 1)), (Edge("A", "B", 1, 0.7),))
        circ = compile_model(m)
        assert surgered_circuit(circ, Intervention("A", 0)) == circ

    def test_replaces_prep_in_place(self, simpson3_entry):
        circ = compile_model(simpson3_entry.model)
        cut = surgered_circuit(circ, Intervention("O", 1))
        # The X lands where O's prep RY was: after the gates of G and T.
        assert (cut.gates[-1].kind, cut.variables[cut.gates[-1].target]) == ("x", "O")
        assert cut.gates[:-1] == circ.gates[:3]

    def test_unknown_variable_rejected(self, simpson3_entry):
        circ = compile_model(simpson3_entry.model)
        with pytest.raises(ValueError, match="'Z' is not one of this circuit's variables"):
            surgered_circuit(circ, Intervention("Z", 1))

    def test_hand_built_circuit_names_no_variable(self):
        circ = Circuit(1, (Gate("h", 0),))
        with pytest.raises(ValueError, match="'A' is not one of this circuit's variables"):
            surgered_circuit(circ, Intervention("A", 1))

    def test_double_force_rejected(self, simpson3_entry):
        circ = compile_model(apply_do(simpson3_entry.model, Intervention("T", 1)))
        with pytest.raises(ValueError, match="already forced"):
            surgered_circuit(circ, Intervention("T", 1))

    def test_input_unmodified(self, simpson3_entry):
        circ = compile_model(simpson3_entry.model)
        gates_before = circ.gates
        surgered_circuit(circ, Intervention("T", 1))
        assert circ.gates == gates_before


class TestGateOrderInvariance:
    def test_same_target_gates_commute_in_distribution(self, simpson3_entry):
        circ = compile_model(simpson3_entry.model)
        base = run_exact(circ).values

        # Swap the two rotations into T (disjoint control branches).
        g = list(circ.gates)
        g[1], g[2] = g[2], g[1]
        swapped = run_exact(Circuit(3, tuple(g))).values
        assert np.max(np.abs(base - swapped)) < 1e-12

        # Move O's prep rotation after all of O's link rotations.
        g = list(circ.gates)
        prep_o = g.pop(3)
        g.append(prep_o)
        moved = run_exact(Circuit(3, tuple(g))).values
        assert np.max(np.abs(base - moved)) < 1e-12

    def test_random_same_target_permutations(self):
        # Permute the gates targeting one variable among their own positions,
        # holding everything else fixed: the distribution must not move.
        from conftest import make_random_model

        rng = np.random.default_rng(2718)
        checked = 0
        for _ in range(25):
            model = make_random_model(rng)
            circ = compile_model(model)
            base = run_exact(circ).values
            for q in range(circ.n_qubits):
                slots = [i for i, g in enumerate(circ.gates) if g.target == q]
                if len(slots) < 2:
                    continue
                gates = list(circ.gates)
                perm = rng.permutation(len(slots))
                originals = [gates[i] for i in slots]
                for slot, k in zip(slots, perm):
                    gates[slot] = originals[k]
                permuted = run_exact(Circuit(circ.n_qubits, tuple(gates))).values
                assert np.max(np.abs(base - permuted)) < 1e-12
                checked += 1
        assert checked >= 20


class TestTextExport:
    def test_plain_export(self, simpson3_entry):
        text = format_circuit(compile_model(simpson3_entry.model))
        assert text == (
            "qubits 3\n"
            "H q0\n"
            "CRY q0=0 q1 2.400000\n"
            "CRY q0=1 q1 0.800000\n"
            "RY q2 0.300000\n"
            "CRY q0=1 q2 1.000000\n"
            "CRY q1=1 q2 0.600000\n"
        )

    def test_expanded_export_wraps_control_on_zero(self, simpson3_entry):
        lines = format_circuit(compile_model(simpson3_entry.model), expanded=True).splitlines()
        i = lines.index("CRY q0=1 q1 2.400000")
        assert lines[i - 1] == "X q0" and lines[i + 1] == "X q0"
        # Control-on-one gates stay single lines.
        assert "CRY q1=1 q2 0.600000" in lines

    def test_forced_x_export(self, simpson3_entry):
        text = format_circuit(compile_model(apply_do(simpson3_entry.model, Intervention("T", 1))))
        assert "X q1" in text.splitlines()

"""Compiler output, gate checks, circuit surgery, provenance tags, and the text export."""

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
from qdo.circuit import Circuit, Gate, Tag


_T = Tag("prep", "A")


def _cry(control, control_value, target=1, theta=0.5):
    return Gate("cry", target, _T, theta=theta, control=control, control_value=control_value)


class TestGateChecks:
    """A circuit checks its gates when built, so no engine call sees a bad one."""

    @pytest.mark.parametrize("gate, message", [
        (Gate("z", 0, _T), "unknown gate kind"),
        (Gate("x", 2, _T), "out of range"),
        (Gate("x", -1, _T), "out of range"),
        (Gate("x", True, _T), "out of range"),
        (_cry(2, 1), "out of range"),
        (_cry(None, 1), "out of range"),
        (_cry(False, 1), "out of range"),
        (_cry(0, 1, target=2), "out of range"),
        (_cry(1, 1), "control equals target"),
        (_cry(0, None), "control_value"),
        (_cry(0, -1), "control_value"),
        (_cry(0, 2), "control_value"),
        (_cry(0, True), "control_value"),
        (Gate("ry", 0, _T, theta=math.nan), "non-finite"),
        (Gate("ry", 0, _T, theta=math.inf), "non-finite"),
        (_cry(0, 1, theta=math.nan), "non-finite"),
        (_cry(0, 1, theta=-math.inf), "non-finite"),
    ], ids=[
        "unknown-kind", "target-high", "target-negative", "target-bool",
        "control-high", "control-none", "control-bool", "cry-target-high", "control-is-target",
        "control-value-none", "control-value-neg", "control-value-2", "control-value-bool",
        "ry-nan", "ry-inf", "cry-nan", "cry-neg-inf",
    ])
    def test_malformed_gate_rejected_at_construction(self, gate, message):
        with pytest.raises(ValueError, match=message):
            Circuit(2, (gate,))


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
        assert [g.tag for g in circ.gates] == [
            Tag("prep", "G"),
            Tag("link", "T", "G"),
            Tag("link", "T", "G"),
            Tag("prep", "O"),
            Tag("link", "O", "G"),
            Tag("link", "O", "T"),
        ]

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
        assert circ.gates[1].tag == Tag("force", "T")
        assert not any(g.tag == Tag("link", "T", "G") for g in circ.gates)

    def test_intervened_to_zero_emits_nothing(self, simpson3_entry):
        circ = compile_model(apply_do(simpson3_entry.model, Intervention("T", 0)))
        assert all(g.tag.variable != "T" for g in circ.gates)

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
        for iv in (Intervention("Treatment", 0), Intervention("Treatment", 1)):
            circ = compile_model(apply_do(healthcare10_entry.model, iv))
            by_var = {}
            for g in circ.gates:
                if g.tag.kind in ("prep", "force"):
                    by_var.setdefault(g.tag.variable, set()).add(g.tag.kind)
            assert all(len(kinds) == 1 for kinds in by_var.values())


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
        assert not any(g.tag.kind == "link" and g.tag.variable == "T" for g in cut.gates)
        forced = [g for g in cut.gates if g.tag == Tag("force", "T")]
        assert len(forced) == 1 and forced[0].kind == "x" and forced[0].target == 1

    def test_value_zero_inserts_no_x(self, healthcare10_entry):
        circ = compile_model(healthcare10_entry.model)
        links_in = sum(1 for g in circ.gates if g.tag.kind == "link" and g.tag.variable == "Treatment")
        assert links_in == 3
        cut = surgered_circuit(circ, Intervention("Treatment", 0))
        assert len(cut.gates) == len(circ.gates) - links_in - 1  # links + the prep RY
        assert not any(g.tag.variable == "Treatment" and g.tag.kind != "link" for g in cut.gates)

    def test_untouched_variable_surgery_is_identity(self):
        # Ground prep, no incoming links, value 0: nothing to remove or insert.
        m = CausalModel("pair", (Variable("A", 0), Variable("B", 1)), (Edge("A", "B", 1, 0.7),))
        circ = compile_model(m)
        assert surgered_circuit(circ, Intervention("A", 0)) == circ

    def test_replaces_prep_in_place(self, simpson3_entry):
        circ = compile_model(simpson3_entry.model)
        cut = surgered_circuit(circ, Intervention("O", 1))
        kinds = [(g.kind, g.tag.kind, g.tag.variable) for g in cut.gates]
        # The X lands where O's prep RY was: after the gates of G and T.
        assert kinds[-1] == ("x", "force", "O")
        assert len(cut.gates) == 4

    def test_unknown_variable_rejected(self, simpson3_entry):
        circ = compile_model(simpson3_entry.model)
        with pytest.raises(ValueError, match="does not appear"):
            surgered_circuit(circ, Intervention("Z", 1))

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

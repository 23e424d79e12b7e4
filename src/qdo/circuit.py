"""Circuit intermediate representation and the model-to-circuit compiler.

Every gate carries a provenance tag naming the model element it came from,
which is what makes circuit surgery a pure tag filter: removing an edge's
gates never requires guessing which rotations belonged to which causal link.

Control-on-zero is a first-class attribute of the CRY gate here; the
three-gate X-wrapped realization is applied by the engine and by the expanded
text export, not in the IR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from .model import CausalModel, Intervention, topological_order


@dataclass(frozen=True)
class Tag:
    """Provenance: "prep"/"force" own a variable, "link" also names the parent."""

    kind: str
    variable: str
    parent: str | None = None


@dataclass(frozen=True)
class Gate:
    kind: str  # "h" | "x" | "ry" | "cry"
    target: int
    tag: Tag
    theta: float = 0.0
    control: int | None = None
    control_value: int | None = None


@dataclass(frozen=True)
class Circuit:
    """Gates over ``n_qubits``, each checked when the circuit is built (see ``_check_gate``)."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            _check_gate(g, self.n_qubits)


def _is_index(i, n: int) -> bool:
    # An int or numpy integer, never a bool; the exact-type test is the fast path.
    return (type(i) is int or isinstance(i, Integral) and not isinstance(i, bool)) and 0 <= i < n


def _check_gate(g: Gate, n: int) -> None:
    if g.kind not in ("h", "x", "ry", "cry"):
        raise ValueError(f"unknown gate kind {g.kind!r}")
    if not _is_index(g.target, n) or g.kind == "cry" and not _is_index(g.control, n):
        raise ValueError(f"qubit index out of range in gate {g!r} (circuit has {n} qubits)")
    if g.kind == "cry":
        if g.control == g.target:
            raise ValueError(f"control equals target in gate {g!r}")
        if not _is_index(g.control_value, 2):
            raise ValueError(f"control_value must be 0 or 1 in gate {g!r}")
    if g.kind in ("ry", "cry") and not math.isfinite(g.theta):
        raise ValueError(f"non-finite rotation angle in gate {g!r}")


def compile_model(model: CausalModel) -> Circuit:
    """Lower a causal model to gates, in topological variable order.

    Per variable: the forced X (intervened to 1) or the prep gate, then one CRY
    per incoming edge ordered by (parent qubit, control value). A negative-sign
    edge becomes a rotation by ``-angle``. Intervening to 0 emits nothing: the
    qubit is already in the ground state.
    """
    qubit = model.qubit_map()
    forced = {iv.variable: iv.value for iv in model.interventions}
    gates: list[Gate] = []
    for name in topological_order(model):
        q = qubit[name]
        if name in forced:
            if forced[name] == 1:
                gates.append(Gate("x", q, Tag("force", name)))
        else:
            prep = model.variable(name).prep
            if prep.kind == "uniform":
                gates.append(Gate("h", q, Tag("prep", name)))
            elif prep.kind == "rotation":
                gates.append(Gate("ry", q, Tag("prep", name), theta=prep.angle))
        incoming = sorted(model.incoming(name), key=lambda e: (qubit[e.parent], e.control_value))
        for e in incoming:
            gates.append(
                Gate(
                    "cry",
                    q,
                    Tag("link", name, parent=e.parent),
                    theta=e.sign * e.angle,
                    control=qubit[e.parent],
                    control_value=e.control_value,
                )
            )
    return Circuit(model.n_qubits, tuple(gates))


def surgered_circuit(circ: Circuit, iv: Intervention) -> Circuit:
    """Circuit-level intervention: drop every gate feeding the variable.

    Removes gates tagged as links into ``iv.variable`` and its prep gate; when
    the forced value is 1 an X gate is placed where the prep was (or at the
    start if there was none). Returns a new circuit; the input is unmodified.
    """
    if iv.value not in (0, 1):
        raise ValueError(f"intervention value must be 0 or 1, got {iv.value!r}")
    var = iv.variable
    target = None
    for g in circ.gates:
        t = g.tag
        if t.variable == var:
            if t.kind == "force":
                raise ValueError(f"variable {var!r} is already forced in this circuit")
            target = g.target
        elif t.kind == "link" and t.parent == var and target is None:
            target = g.control
    if target is None:
        raise ValueError(f"variable {var!r} does not appear in any circuit tag")

    out: list[Gate] = []
    had_prep = False
    for g in circ.gates:
        t = g.tag
        if t.kind == "link" and t.variable == var:
            continue
        if t.kind == "prep" and t.variable == var:
            if iv.value == 1:
                out.append(Gate("x", g.target, Tag("force", var)))
            had_prep = True
            continue
        out.append(g)
    if iv.value == 1 and not had_prep:
        out.insert(0, Gate("x", target, Tag("force", var)))
    return Circuit(circ.n_qubits, tuple(out))


def format_circuit(circ: Circuit, expanded: bool = False) -> str:
    """One gate per line, e.g. ``CRY q0=1 q2 1.000000``.

    With ``expanded`` a control-on-zero CRY is written in its X-wrapped
    three-gate realization.
    """
    lines = [f"qubits {circ.n_qubits}"]
    for g in circ.gates:
        if g.kind == "h":
            lines.append(f"H q{g.target}")
        elif g.kind == "x":
            lines.append(f"X q{g.target}")
        elif g.kind == "ry":
            lines.append(f"RY q{g.target} {g.theta:.6f}")
        elif expanded and g.control_value == 0:
            lines.append(f"X q{g.control}")
            lines.append(f"CRY q{g.control}=1 q{g.target} {g.theta:.6f}")
            lines.append(f"X q{g.control}")
        else:
            lines.append(f"CRY q{g.control}={g.control_value} q{g.target} {g.theta:.6f}")
    return "\n".join(lines) + "\n"

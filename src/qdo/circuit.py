"""Circuit intermediate representation and the model-to-circuit compiler.

A compiled circuit names the variable on each qubit (``Circuit.variables``),
and every gate targets the qubit of the variable whose mechanism it realizes:
the variable's prep (H or RY), the X of its forced value, or one CRY per
incoming edge. So a link's child is ``variables[g.target]`` and its parent
``variables[g.control]``, and circuit surgery on a variable drops exactly the
gates that target its qubit.

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
class Gate:
    kind: str  # "h" | "x" | "ry" | "cry"
    target: int
    theta: float = 0.0
    control: int | None = None
    control_value: int | None = None


@dataclass(frozen=True)
class Circuit:
    """Gates over ``n_qubits``, each checked when the circuit is built (see ``_check_gate``).

    ``variables[q]`` names the variable on qubit q. A compiled circuit names
    every qubit; a hand-built one may leave ``variables`` empty, and then no
    variable of it can be intervened on by circuit surgery.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    variables: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = self.n_qubits
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 0:
            raise ValueError(f"n_qubits must be a non-negative integer, got {n!r}")
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "variables", tuple(self.variables))
        if self.variables and (len(self.variables) != n or len(set(self.variables)) != n):
            raise ValueError(f"variables must name each of the {n} qubits exactly once, got {self.variables!r}")
        for g in self.gates:
            _check_gate(g, n)


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
    qubit is already in the ground state. ``variables`` lists the model's
    variable names in qubit order.
    """
    qubit = model.qubit_map()
    forced = {iv.variable: iv.value for iv in model.interventions}
    gates: list[Gate] = []
    for name in topological_order(model):
        q = qubit[name]
        if name in forced:
            if forced[name] == 1:
                gates.append(Gate("x", q))
        else:
            prep = model.variable(name).prep
            if prep.kind == "uniform":
                gates.append(Gate("h", q))
            elif prep.kind == "rotation":
                gates.append(Gate("ry", q, theta=prep.angle))
        incoming = sorted(model.incoming(name), key=lambda e: (qubit[e.parent], e.control_value))
        for e in incoming:
            gates.append(
                Gate("cry", q, theta=e.sign * e.angle, control=qubit[e.parent], control_value=e.control_value)
            )
    return Circuit(model.n_qubits, tuple(gates), tuple(sorted(qubit, key=qubit.__getitem__)))


def surgered_circuit(circ: Circuit, iv: Intervention) -> Circuit:
    """Circuit-level intervention: drop every gate that targets the variable's qubit.

    The qubit is found by name in ``circ.variables``, so do()s on distinct
    variables chain in any order. When the forced value is 1 an X gate takes
    the place of the qubit's prep (its one non-CRY gate), or goes first if it
    had none. A qubit that already carries an X is refused as already forced.
    Returns a new circuit; the input is unmodified.
    """
    var, value = iv.variable, iv.value
    if isinstance(value, bool) or value not in (0, 1):
        raise ValueError(f"intervention value must be 0 or 1, got {value!r}")
    if var not in circ.variables:
        raise ValueError(f"variable {var!r} is not one of this circuit's variables {circ.variables!r}")
    q = circ.variables.index(var)

    out: list[Gate] = []
    placed = value == 0  # a value-0 do() places no X
    for g in circ.gates:
        if g.target != q:
            out.append(g)
        elif g.kind == "x":
            raise ValueError(f"variable {var!r} is already forced in this circuit")
        elif g.kind != "cry" and not placed:
            out.append(Gate("x", q))
            placed = True
    if not placed:
        out.insert(0, Gate("x", q))
    return Circuit(circ.n_qubits, tuple(out), circ.variables)


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

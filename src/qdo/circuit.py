"""Circuit intermediate representation and the model-to-circuit compiler.

A compiled circuit names the variable on each qubit (``Circuit.variables``),
and every gate targets the qubit of the variable whose mechanism it realizes:
the variable's prep (H or RY), the X of its forced value, or one CRY per
incoming edge. So a link's child is ``variables[g.target]`` and its parent
``variables[g.control]``.

The block contract: the gates of each variable form one contiguous block
(one conditional probability table per qubit, in the reading of Low, Yoder &
Chuang, PRA 89:062315, 2014), and no gate targets a qubit after a CRY has
used it as a control. ``compile_model`` emits this shape and
``surgered_circuit`` keeps it; ``Circuit.blocks`` is the one reader of the
block boundaries, and is None for a (hand-built) circuit that breaks the
shape. Circuit surgery on a variable replaces its block, and the noisy
planner counts a qubit as settled once its block is done.

Control-on-zero is a first-class attribute of the CRY gate here; the
three-gate X-wrapped realization is applied by the engine and by the expanded
text export, not in the IR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

from .model import CausalModel, Intervention, ModelError, _as_float, is_bit, topological_order


# Each gate kind's ``format_circuit`` line; the one list of kinds. A kind
# carries the fields its line prints and no others (``_check_gate``).
_KINDS = {
    "h": "H q{g.target}",
    "x": "X q{g.target}",
    "ry": "RY q{g.target} {g.theta:.6f}",
    "cry": "CRY q{g.control}={g.control_value} q{g.target} {g.theta:.6f}",
}


@dataclass(frozen=True)
class Gate:
    """One gate; each kind carries only its own fields (``_check_gate``).

    Every kind has a ``target``. An H or an X carries nothing else: its
    ``theta`` stays 0.0. An RY carries a finite ``theta``. A CRY also
    carries its ``control`` qubit and the ``control_value`` (0 or 1) the
    rotation waits for; on any other kind both stay None.
    """

    kind: str  # a key of _KINDS
    target: int
    theta: float = 0.0
    control: int | None = None
    control_value: int | None = None


@dataclass(frozen=True)
class Circuit:
    """Gates over ``n_qubits``, each checked when the circuit is built (see ``_check_gate``).

    ``variables[q]`` names the variable on qubit q. A compiled circuit names
    every qubit; a hand-built one may leave ``variables`` empty, and then no
    variable of it can be intervened on by circuit surgery. ``forced`` names
    the variables a do() has fixed, in the order they were fixed: by the
    model (``compile_model``) or by circuit surgery. A do(v=0) leaves no gate
    on v, so only this record tells a second do() on v that v is forced.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    variables: tuple[str, ...] = ()
    forced: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = self.n_qubits
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 0:
            raise ValueError(f"n_qubits must be a non-negative integer, got {n!r}")
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "forced", tuple(self.forced))
        if self.variables and (len(self.variables) != n or len(set(self.variables)) != n):
            raise ValueError(f"variables must name each of the {n} qubits exactly once, got {self.variables!r}")
        if self.forced and (len(set(self.forced)) != len(self.forced) or not set(self.forced) <= set(self.variables)):
            raise ValueError(f"forced must name distinct variables of the circuit, got {self.forced!r}")
        for g in self.gates:
            _check_gate(g, n)

    @cached_property
    def blocks(self) -> dict[int, tuple[int, int]] | None:
        """Each targeted qubit's gates as a slice ``(start, stop)`` of ``gates``, or None.

        None when some qubit's gates are not contiguous, or a gate targets a
        qubit after a CRY has used it as a control (see the module docstring).
        A qubit no gate targets, such as a ground root or a do(v=0), has no
        block. Not a field, so it takes no part in eq, hash or repr.
        """
        starts: dict[int, int] = {}
        controls: set[int] = set()
        t = None
        for i, g in enumerate(self.gates):
            if g.target != t:
                t = g.target
                if t in starts or t in controls:
                    return None
                starts[t] = i
            if g.control is not None:
                controls.add(g.control)
        stops = [*starts.values(), len(self.gates)][1:]
        return {q: (start, stop) for (q, start), stop in zip(starts.items(), stops)}


def _is_index(i, n: int) -> bool:
    # An int or numpy integer, never a bool; the exact-type test is the fast path.
    return (type(i) is int or isinstance(i, Integral) and not isinstance(i, bool)) and 0 <= i < n


def _check_gate(g: Gate, n: int) -> None:
    if not isinstance(g.kind, str) or g.kind not in _KINDS:
        raise ValueError(f"unknown gate kind {g.kind!r}")
    cry = g.kind == "cry"
    if not _is_index(g.target, n) or cry and not _is_index(g.control, n):
        raise ValueError(f"qubit index out of range in gate {g!r} (circuit has {n} qubits)")
    if not cry and (g.control is not None or g.control_value is not None):
        raise ValueError(f"only a CRY takes a control, got {g!r}")
    if cry and g.control == g.target:
        raise ValueError(f"control equals target in gate {g!r}")
    if cry and not _is_index(g.control_value, 2):
        raise ValueError(f"control_value must be 0 or 1 in gate {g!r}")
    if "{g.theta" not in _KINDS[g.kind] and g.theta != 0.0:  # an H or an X
        raise ValueError(f"an H or X takes no angle, got {g!r}")
    theta = _as_float(g.theta)  # a model's angle rule: an int or a float, never a bool
    if theta is None:
        raise ValueError(f"rotation angle must be a number in gate {g!r}")
    if not math.isfinite(theta):
        raise ValueError(f"non-finite rotation angle in gate {g!r}")


def compile_model(model: CausalModel) -> Circuit:
    """Lower a causal model to gates, in topological variable order.

    Per variable: the forced X (intervened to 1) or the prep gate, then one CRY
    per incoming edge ordered by (parent qubit, control value). A negative-sign
    edge becomes a rotation by ``-angle``. Intervening to 0 emits nothing: the
    qubit is already in the ground state. ``variables`` lists the model's
    variable names in qubit order, and ``forced`` its intervened variables in
    the order of ``model.interventions``.
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
    return Circuit(model.n_qubits, tuple(gates), tuple(sorted(qubit, key=qubit.__getitem__)), tuple(forced))


def surgered_circuit(circ: Circuit, iv: Intervention) -> Circuit:
    """Circuit-level intervention: replace the variable's block (``Circuit.blocks``).

    The qubit is found by name in ``circ.variables``, so do()s on distinct
    variables chain in any order. The block of every gate that targets the
    qubit is cut out; when the forced value is 1 an X gate takes its place,
    or goes first if the qubit has no block. For a targeted variable that is
    where ``compile_model(apply_do(...))`` puts the X when the do() keeps the
    compile order. The result keeps the block contract. A circuit without
    blocks (only a hand-built one) is refused with ``ValueError``. The
    variable joins ``circ.forced``; one already there, at either value, is
    refused as already forced. The value must pass ``model.is_bit``, the rule
    graph surgery (``apply_do``) applies, so 1.0, ``np.int64(1)`` and
    ``True`` are refused by both. Returns a new circuit; the input is
    unmodified.
    """
    var, value = iv.variable, iv.value
    if not is_bit(value):
        raise ValueError(f"intervention value must be 0 or 1, got {value!r}")
    if var not in circ.variables:
        raise ModelError(f"variable {var!r} is not one of this circuit's variables {circ.variables!r}")
    if var in circ.forced:
        raise ValueError(f"variable {var!r} is already forced in this circuit")
    if circ.blocks is None:
        raise ValueError("circuit surgery needs each qubit's gates in one block (Circuit.blocks), and this circuit"
                         " has none")
    q = circ.variables.index(var)
    start, stop = circ.blocks.get(q, (0, 0))
    x = (Gate("x", q),) if value == 1 else ()
    return Circuit(circ.n_qubits, circ.gates[:start] + x + circ.gates[stop:], circ.variables, (*circ.forced, var))


def format_circuit(circ: Circuit, expanded: bool = False) -> str:
    """One gate per line, e.g. ``CRY q0=1 q2 1.000000``.

    With ``expanded`` a control-on-zero CRY is written in its X-wrapped
    three-gate realization.
    """
    lines = [f"qubits {circ.n_qubits}"]
    for g in circ.gates:
        if expanded and g.control_value == 0:
            lines += [f"X q{g.control}", f"CRY q{g.control}=1 q{g.target} {g.theta:.6f}", f"X q{g.control}"]
        else:
            lines.append(_KINDS[g.kind].format(g=g))
    return "\n".join(lines) + "\n"

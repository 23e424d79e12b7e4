"""Structural causal models over binary variables with rotation-angle mechanisms.

A model is a DAG whose nodes are binary variables mapped one-to-one onto
qubits. Each variable carries a preparation (ground state, uniform, or a base
Y-rotation) and each edge carries a controlled-rotation angle. Graph surgery
(``apply_do``) removes an intervened variable's incoming edges and pins its
preparation, leaving the forcing of the value to the circuit compiler. Runs
intervene only by circuit surgery and refuse a graph-surgered model (they
take their do()s as ``run_experiment``'s ``do``); graph surgery is the check
route, for the enumeration oracle and the tests that compare both surgeries.

``CausalModel`` raises ``ModelError`` with every violation ``validate`` finds
when it is built, so a model that exists is valid; that includes each result
of ``apply_do``. A model indexes and peels itself once, on first use, so
name lookups, incoming edges and the topological order cost no scan of it.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

TWO_PI = 2.0 * math.pi


class ModelError(ValueError):
    """A model or model file cannot be used as requested."""


def read_json(path: str | Path):
    """The value of the UTF-8 JSON file at ``path``; the one JSON file reader.

    Raises only ``ModelError``, and every message names ``path``: the file
    cannot be read, is not UTF-8, is not JSON (the message gives the line and
    column), holds an integer literal too long to convert, or nests too deeply
    to parse.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ModelError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer past the digit limit
        raise ModelError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ModelError(f"{path}: JSON nested too deeply to parse") from None


@dataclass(frozen=True)
class Prep:
    """Initial-state preparation for one variable.

    kind is "ground" (state 0, no gate), "uniform" (Hadamard), or "rotation"
    (Y-rotation by ``angle`` radians, giving P(1) = sin^2(angle/2)).
    """

    kind: str
    angle: float = 0.0

    @staticmethod
    def rotation(angle: float) -> "Prep":
        """A rotation prep, a finite int or float angle reduced mod 2*pi.

        Any other angle (a bool, a non-finite or non-number value) is kept as
        given, for ``validate`` to refuse.
        """
        real = _as_float(angle)
        if real is not None and math.isfinite(real):
            angle = angle % TWO_PI
        return Prep("rotation", angle)


def is_bit(x) -> bool:
    """The one 0-or-1 rule: an int, never a bool, float or numpy integer."""
    return type(x) is int and x in (0, 1)


def _as_float(x) -> float | None:
    """``x`` as a float if it is an int or a float, never a bool; else None.

    An int past the float range reads as inf, which every angle check refuses.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        return float(x)
    except OverflowError:
        return math.inf


GROUND = Prep("ground")
UNIFORM = Prep("uniform")


@dataclass(frozen=True)
class Variable:
    name: str
    qubit: int
    prep: Prep = GROUND


@dataclass(frozen=True)
class Edge:
    """Causal link parent -> child, active when the parent is in ``control_value``.

    ``sign`` = -1 lowers to a rotation by ``-angle`` (a link that suppresses
    rather than promotes the child).
    """

    parent: str
    child: str
    control_value: int
    angle: float
    sign: int = 1


@dataclass(frozen=True)
class Intervention:
    variable: str
    value: int


class _Index(NamedTuple):
    """What a model's accessors read, built once per model."""

    variable: dict[str, Variable]
    qubit: dict[str, int]
    incoming: dict[str, tuple[Edge, ...]]  # per child, in model edge order


@dataclass(frozen=True)
class CausalModel:
    name: str
    variables: tuple[Variable, ...]
    edges: tuple[Edge, ...]
    interventions: tuple[Intervention, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "interventions", tuple(self.interventions))
        violations = validate(self)
        if violations:
            raise ModelError("invalid model: " + "; ".join(violations))

    @cached_property
    def _index(self) -> _Index:
        # Not a field, so it takes no part in eq, hash or repr; a model that is
        # only built (and perhaps saved) never pays for it.
        incoming: dict[str, list[Edge]] = {v.name: [] for v in self.variables}
        for e in self.edges:
            incoming[e.child].append(e)
        return _Index(
            {v.name: v for v in self.variables},
            {v.name: v.qubit for v in self.variables},
            {name: tuple(edges) for name, edges in incoming.items()},
        )

    @cached_property
    def _peeled(self) -> tuple[list[str], list[str]]:  # validate and topological_order share one peel
        return _peel(self)

    @property
    def n_qubits(self) -> int:
        return len(self.variables)

    def variable(self, name: str) -> Variable:
        try:
            return self._index.variable[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ModelError(f"unknown variable {_show(name)} in model {self.name!r}") from None

    def qubit_map(self) -> dict[str, int]:
        """Name -> qubit, a fresh dict the caller may change."""
        return dict(self._index.qubit)

    def incoming(self, name: str) -> tuple[Edge, ...]:
        """The edges into ``name`` in model order; empty for a name the model lacks."""
        return self._index.incoming.get(name, ())


def validate(model: CausalModel) -> list[str]:
    """Return every invariant violation as a human-readable string.

    An empty list means the model is valid. Violations are data, not errors:
    this never raises (values print through ``_show``). ``CausalModel`` runs it
    on every model it builds and raises all of them at once. It is the one
    judge of field values, for a model built in Python and for one read from a
    file (``model_from_dict`` checks only the file's shape), so every valid
    model can be saved and read back: names are strings, ``control_value``,
    ``sign`` and an intervention's value are ints (``is_bit`` for the 0-or-1
    fields), and angles are ints or floats, never bools, finite as floats.
    """
    out: list[str] = [
        f"{field}: expected {kind.__name__} entries, got {_show(x)}"
        for field, kind in (("variables", Variable), ("edges", Edge), ("interventions", Intervention))
        for x in getattr(model, field)
        if not isinstance(x, kind)
    ]
    if out:  # every check below reads the entries' fields
        return out
    if not isinstance(model.name, str):
        out.append(f"model name must be a string, got {_show(model.name)}")
    names = [v.name for v in model.variables]
    # Names and edge endpoints are set and dict keys below, so the checks that
    # key on them run only on strings; the peel needs every one to be a string.
    keyed = True
    integral = True  # sorting and the peel's heap need comparable qubit indices
    for v in model.variables:
        if not isinstance(v.name, str):
            out.append(f"variable {_show(v.name)}: name must be a string")
            keyed = False
        elif not v.name:
            out.append("variable with empty name")
        if isinstance(v.qubit, bool) or not isinstance(v.qubit, int):
            out.append(f"variable {_show(v.name)}: qubit index must be an integer, got {_show(v.qubit)}")
            integral = False
        if not isinstance(v.prep, Prep):
            out.append(f"variable {_show(v.name)}: prep must be a Prep, got {_show(v.prep)}")
        elif v.prep.kind not in ("ground", "uniform", "rotation"):
            out.append(f"variable {_show(v.name)}: unknown prep kind {_show(v.prep.kind)}")
        elif v.prep.kind == "rotation":
            angle = _as_float(v.prep.angle)
            if angle is None:
                out.append(f"variable {_show(v.name)}: base rotation angle must be a number, got {_show(v.prep.angle)}")
            elif not math.isfinite(angle):
                out.append(f"variable {_show(v.name)}: non-finite base rotation angle")
    known = {n for n in names if isinstance(n, str)}
    if keyed and len(known) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        out.append(f"duplicate variable names: {', '.join(dupes)}")
    if integral:  # an index out of range is named by its variable, never printed
        last = len(model.variables) - 1
        outside = ", ".join(_show(v.name) for v in model.variables if not 0 <= v.qubit <= last)
        qubits = sorted(v.qubit for v in model.variables)
        if outside:
            out.append(f"qubit indices must be a permutation of 0..{last}; out of range: {outside}")
        elif qubits != list(range(last + 1)):
            out.append(f"qubit indices must be a permutation of 0..{last}, got {qubits}")

    def edge(e: Edge) -> str:  # formatted only for an edge at fault
        return f"edge {_show(e.parent)}->{_show(e.child)}"

    # control_value, sign and an intervention's value are ints (no bool, float
    # or numpy integer), and angles ints or floats: the JSON types of a model
    # file, so every valid model can be saved and read back.
    seen_triples: set[tuple[str, str, int]] = set()
    for e in model.edges:
        ends = isinstance(e.parent, str) and isinstance(e.child, str)
        if not ends:
            out.append(f"{edge(e)}: parent and child must be strings")
            keyed = False
        elif e.parent == e.child:
            out.append(f"self-loop on {_show(e.parent)}")
            continue
        else:
            for end in (e.parent, e.child):
                if end not in known:
                    out.append(f"{edge(e)} references unknown variable {_show(end)}")
        angle = _as_float(e.angle)
        if angle is None:
            out.append(f"{edge(e)}: angle must be a number, got {_show(e.angle)}")
        elif not (math.isfinite(angle) and angle > 0):
            out.append(f"{edge(e)}: angle must be finite and > 0")
        bit = is_bit(e.control_value)
        if not bit:
            out.append(f"{edge(e)}: control_value must be 0 or 1, got {_show(e.control_value)}")
        if type(e.sign) is not int or e.sign not in (1, -1):
            out.append(f"{edge(e)}: sign must be +1 or -1, got {_show(e.sign)}")
        if ends and bit:
            triple = (e.parent, e.child, e.control_value)
            if triple in seen_triples:
                out.append(f"duplicate {edge(e)} (control={e.control_value})")
            seen_triples.add(triple)

    cyclic = model._peeled[1] if integral and keyed else []
    if cyclic:
        out.append(f"cycle detected involving: {', '.join(cyclic)}")

    intervened: set[str] = set()
    for iv in model.interventions:
        if not isinstance(iv.variable, str):
            out.append(f"intervention {_show(iv.variable)}: variable must be a string")
            continue
        if iv.variable not in known:
            out.append(f"intervention on unknown variable {_show(iv.variable)}")
            continue
        if not is_bit(iv.value):
            out.append(f"intervention {_show(iv.variable)}: value must be 0 or 1, got {_show(iv.value)}")
        if iv.variable in intervened:
            out.append(f"variable {_show(iv.variable)} intervened more than once")
        intervened.add(iv.variable)
        if any(e.child == iv.variable for e in model.edges):
            out.append(f"intervened variable {_show(iv.variable)} still has incoming edges")
    return out


def _show(x) -> str:
    """``repr(x)``, or a stand-in if an int in it is past the str digit limit."""
    try:
        return repr(x)
    except ValueError:
        return f"<{type(x).__name__} too long to print>"


def _kahn(nodes: set[str], succ: dict[str, list[str]], key: dict[str, int]) -> list[str]:
    """Kahn's peel of ``nodes`` along ``succ``, ties broken by ascending ``key``.

    Returns the nodes that can be peeled, each after its predecessors within
    ``nodes``; the nodes on a cycle and those it feeds are left out.
    """
    indeg = dict.fromkeys(nodes, 0)
    for n in nodes:
        for c in succ[n]:
            if c in indeg:
                indeg[c] += 1
    heap = [(key[n], n) for n, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        _, n = heapq.heappop(heap)
        order.append(n)
        for c in succ[n]:
            if c in indeg:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(heap, (key[c], c))
    return order


def _peel(model: CausalModel) -> tuple[list[str], list[str]]:
    """(topological order, sorted names of the nodes on a cycle).

    Self-loops and edges naming unknown variables are ignored. Peeling what
    the forward pass leaves from the sink end drops the nodes downstream of a
    cycle, keeping those on one (or between two).
    """
    qubit = {v.name: v.qubit for v in model.variables}
    children: dict[str, list[str]] = {n: [] for n in qubit}
    parents: dict[str, list[str]] = {n: [] for n in qubit}
    for e in model.edges:
        if e.parent in qubit and e.child in qubit and e.parent != e.child:
            children[e.parent].append(e.child)
            parents[e.child].append(e.parent)
    order = _kahn(set(qubit), children, qubit)
    rest = set(qubit) - set(order)
    return order, sorted(rest - set(_kahn(rest, parents, qubit)))


def topological_order(model: CausalModel) -> list[str]:
    """Variable names with every parent before every child.

    Ties are broken by ascending qubit index, so the result is deterministic.
    """
    return list(model._peeled[0])


def apply_do(model: CausalModel, iv: Intervention) -> CausalModel:
    """Graph surgery: sever every edge into ``iv.variable`` and pin its prep.

    Returns a new model with ``iv`` recorded; the input is unmodified. The
    forced value itself is realized by the compiler (an X gate when value is 1).
    The new model checks itself, so an unknown variable, a value other than 0
    or 1, or a variable already intervened on raises ``ModelError``.
    """
    variables = tuple(replace(v, prep=GROUND) if v.name == iv.variable else v for v in model.variables)
    edges = tuple(e for e in model.edges if e.child != iv.variable)
    return replace(model, variables=variables, edges=edges, interventions=(*model.interventions, iv))


# --- JSON model file format --------------------------------------------------
#
# { "name": str,
#   "variables": [ {"name": str, "qubit": int,
#                   "prep": "ground" | "uniform" | {"rotation": float}} ],
#   "edges": [ {"parent": str, "child": str, "control_value": 0|1,
#               "angle": float, "sign": 1|-1} ] }
#
# Angles are radians. Unknown fields are rejected. This reader checks only
# that shape; ``validate`` judges the values, as for a model built in Python.


def _require_keys(obj, keys: set[str], where: str) -> None:
    # Every field is required: unknown fields are reported first, then missing ones.
    if not isinstance(obj, dict):
        raise ModelError(f"{where}: expected an object")
    unknown = set(obj) - keys
    if unknown:
        raise ModelError(f"{where}: unknown field(s) {', '.join(sorted(unknown))}")
    missing = keys - set(obj)
    if missing:
        raise ModelError(f"{where}: missing field(s) {', '.join(sorted(missing))}")


def _angle_from_json(value):
    # A JSON integer angle becomes a float; any other value is kept as read.
    real = _as_float(value)
    return value if real is None else real


def _prep_from_json(value, where: str) -> Prep:
    if value == "ground":
        return GROUND
    if value == "uniform":
        return UNIFORM
    if isinstance(value, dict):
        _require_keys(value, {"rotation"}, where)
        return Prep.rotation(_angle_from_json(value["rotation"]))
    raise ModelError(f'{where}: expected "ground", "uniform" or {{"rotation": angle}}, got {value!r}')


def model_from_dict(data: dict) -> CausalModel:
    """Build a model from the JSON model format.

    Checks only the file's shape, naming the field path of the first fault:
    objects and arrays where the format has them, every field present and no
    unknown one, and the three prep forms. A JSON integer angle is read as a
    float. Every other value goes to ``CausalModel`` as read, so ``validate``
    judges it by the rules of a model built in Python and ``ModelError``
    lists every violation at once.
    """
    if not isinstance(data, dict):
        raise ModelError(f"model: expected an object, got {type(data).__name__}")
    _require_keys(data, {"name", "variables", "edges"}, "model")
    if not isinstance(data["variables"], list) or not isinstance(data["edges"], list):
        raise ModelError("model.variables and model.edges: expected arrays")

    variables = []
    for i, v in enumerate(data["variables"]):
        where = f"variables[{i}]"
        _require_keys(v, {"name", "qubit", "prep"}, where)
        variables.append(Variable(v["name"], v["qubit"], _prep_from_json(v["prep"], f"{where}.prep")))

    edges = []
    for i, e in enumerate(data["edges"]):
        _require_keys(e, {"parent", "child", "control_value", "angle", "sign"}, f"edges[{i}]")
        edges.append(Edge(e["parent"], e["child"], e["control_value"], _angle_from_json(e["angle"]), e["sign"]))
    return CausalModel(data["name"], tuple(variables), tuple(edges))


def model_to_dict(model: CausalModel) -> dict:
    if model.interventions:
        raise ModelError("the model file format holds observational models only")
    return {
        "name": model.name,
        "variables": [
            {
                "name": v.name,
                "qubit": v.qubit,
                "prep": v.prep.kind if v.prep.kind != "rotation" else {"rotation": v.prep.angle},
            }
            for v in model.variables
        ],
        "edges": [
            {
                "parent": e.parent,
                "child": e.child,
                "control_value": e.control_value,
                "angle": e.angle,
                "sign": e.sign,
            }
            for e in model.edges
        ],
    }


def model_json_text(model: CausalModel) -> str:
    return json.dumps(model_to_dict(model), indent=2) + "\n"


def load_model(path: str | Path) -> CausalModel:
    """Parse a model file, read by ``read_json``.

    Raises only ``ModelError``, and every message names ``path``.
    """
    data = read_json(path)
    try:
        return model_from_dict(data)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from exc


def save_model(model: CausalModel, path: str | Path) -> None:
    Path(path).write_text(model_json_text(model), encoding="utf-8")

"""Classical enumeration of the joint distribution a model implies.

This is the anti-bug cross-check for the whole pipeline: it never touches the
circuit layer or the statevector engine. It relies on the closed form for
composed conditioned Y-rotations on a ground-state qubit: across the branches
of a parent assignment the active rotation angles add, so

    P(v = 1 | parents) = sin^2(theta_eff / 2),
    theta_eff = base angle + sum of sign * angle over active incoming edges.

A Hadamard prep is not a Y-rotation, so the sum rule holds for a uniform-prep
variable only when nothing else rotates it; models with a uniform-prep
variable that has incoming edges are rejected (the engine still simulates
them fine, they are just outside what this oracle can certify).

The joint is built as a dense product of broadcast factors, one per variable
(see ``enumerate_joint``), so its cost is O(n * 2^n) numpy work with no
per-assignment Python code.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import Distribution, check_state_size
from .model import CausalModel, ModelError, topological_order


class UnsupportedModelError(ModelError):
    """Model is outside the class the enumeration oracle can handle."""


def conditional_table(model: CausalModel, name: str) -> dict[tuple[int, ...], float]:
    """P(name = 1 | parent assignment) for every assignment of its parents.

    Keys are bit tuples ordered by ascending parent qubit index; a parentless
    variable yields a single entry keyed by the empty tuple.
    """
    var = model.variable(name)
    for iv in model.interventions:
        if iv.variable == name:
            return {(): float(iv.value)}

    incoming = model.incoming(name)
    if var.prep.kind == "uniform":
        if incoming:
            raise UnsupportedModelError(
                f"oracle-unsupported prep: variable {name!r} has a uniform (H) prep "
                "and incoming edges; the rotation-sum rule does not apply"
            )
        return {(): 0.5}

    parents = _parents(model, name)
    base = var.prep.angle if var.prep.kind == "rotation" else 0.0
    table: dict[tuple[int, ...], float] = {}
    for bits in _assignments(len(parents)):
        given = dict(zip(parents, bits))
        theta = base + sum(e.sign * e.angle for e in incoming if given[e.parent] == e.control_value)
        table[bits] = math.sin(theta / 2.0) ** 2
    return table


def _parents(model: CausalModel, name: str) -> list[str]:
    """Distinct parents of ``name`` in ascending qubit order (the key order of its table)."""
    qubit = model.qubit_map()
    return sorted({e.parent for e in model.incoming(name)}, key=lambda p: qubit[p])


def _assignments(n: int):
    for i in range(1 << n):
        yield tuple((i >> k) & 1 for k in range(n))


def _factor(model: CausalModel, name: str) -> np.ndarray:
    """P(name | parents) as an n-axis array, broadcastable against the joint.

    Axis j holds the bit of qubit n-1-j (the layout of ``engine.marginal``);
    the factor has size 2 on the axes of ``name`` and its parents and size 1
    on every other axis. An intervened variable's table is {(): value}, so its
    factor is one-hot on its own axis.
    """
    n = model.n_qubits
    qubit = model.qubit_map()
    table = conditional_table(model, name)
    parents = _parents(model, name)  # empty for an intervened variable of a valid model
    p1 = np.empty((2,) * len(parents))
    for bits, p in table.items():
        p1[bits] = p
    factor = np.stack([1.0 - p1, p1])  # axes: name, then parents by ascending qubit
    axes = [n - 1 - qubit[v] for v in [name, *parents]]
    shape = [1] * n
    for a in axes:
        shape[a] = 2
    return factor.transpose(np.argsort(axes)).reshape(shape)


def enumerate_joint(model: CausalModel) -> Distribution:
    """Exact joint distribution over all 2^n assignments, as a broadcast product.

    The joint factorizes over the DAG: each assignment's probability is the
    product over variables of P(value | parent assignment), with intervened
    variables contributing probability one on their forced value. Starting
    from an all-ones array of 2^n float64 entries, the factor of every
    variable (see ``_factor``) is multiplied in place in topological order.

    Ordering contract: every entry is the product of the same float64 factors,
    taken from ``conditional_table``, multiplied left to right in
    ``topological_order``, so the result is bit-for-bit reproducible and does
    not depend on how the product is vectorized. Every factor is finite and
    non-negative, so an assignment made impossible by one factor stays exactly
    0.0. Raises ``ValueError`` (via ``engine.check_state_size``) before
    allocating when the joint would not fit the state budget.
    """
    n = model.n_qubits
    check_state_size(n)
    probs = np.ones((2,) * n)
    for name in topological_order(model):
        probs *= _factor(model, name)
    return Distribution(n, probs.reshape(-1))

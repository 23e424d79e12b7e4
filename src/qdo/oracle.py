"""Classical enumeration of the joint distribution a model implies.

This is the anti-bug cross-check for the whole pipeline: it never touches the
circuit layer or the statevector engine. It relies on the closed form for
composed conditioned Y-rotations on a ground-state qubit: across the branches
of a parent assignment the active rotation angles add, so

    P(v = 1 | parents) = sin^2(theta_eff / 2),
    theta_eff = base angle + sum of sign * angle over active incoming edges.

theta_eff is a plain left-to-right float64 sum: 0.0, then each incoming
edge's term in model edge order, then the base angle. It never goes through
Python's ``sum()``, which is compensated from Python 3.12 on, so the tables
and the joint have the same bits on every Python version.

The rule covers every prep, because each one acts on |0> and is a Y-rotation
there: a ground prep is RY(0), and H|0> = RY(pi/2)|0>. So a uniform-prep
variable has P(v = 1 | parents) = sin^2((pi/2 + theta_eff) / 2) =
(1 + sin theta_eff) / 2, with theta_eff summed over its active edges alone.
That form gives exactly 0.5 when no edge is active.

The joint is built as a dense product of broadcast factors, one per variable
(see ``enumerate_joint``), so its cost is O(n * 2^n) numpy work with no
per-assignment Python code. Each factor's angles are themselves summed by
broadcasting, straight in the joint's layout (``_p1``), and
``conditional_table`` is a dict view of the same array.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import Distribution, check_state_size
from .model import CausalModel, topological_order


def conditional_table(model: CausalModel, name: str) -> dict[tuple[int, ...], float]:
    """P(name = 1 | parent assignment) for every assignment of its parents.

    A dict view of the array ``_factor`` is built from, so both hold the same
    floats. Keys are bit tuples ordered by ascending parent qubit index; a
    parentless variable yields a single entry keyed by the empty tuple.
    """
    # The parents' axes are the size-2 ones, in descending qubit order.
    p1 = _p1(model, name).squeeze().T
    return {bits: float(p) for bits, p in np.ndenumerate(p1)}


def _p1(model: CausalModel, name: str) -> np.ndarray:
    """P(name = 1 | parents) as an n-axis array, broadcastable against the joint.

    Axis j holds the bit of qubit n-1-j (the layout of ``engine.marginal``);
    the array has size 2 on the axes of ``name``'s parents and size 1 on every
    other axis. theta starts at 0.0 and adds, per incoming edge in model
    order, ``sign * angle`` where the parent holds the edge's control value
    and 0.0 where it does not, then the base angle (0.0 unless a rotation);
    each entry is then ``math.sin(theta / 2) ** 2``, or ``(1 + math.sin(theta)) / 2``
    for a uniform prep. An intervened variable's array is its value.
    """
    n = model.n_qubits
    var = model.variable(name)
    for iv in model.interventions:
        if iv.variable == name:
            return np.full((1,) * n, float(iv.value))

    theta = np.zeros((1,) * n)
    for e in model.incoming(name):
        axis = n - 1 - model.variable(e.parent).qubit
        step = e.sign * e.angle
        pair = np.array((0.0, step) if e.control_value else (step, 0.0))
        theta = theta + pair.reshape((1,) * axis + (2,) + (1,) * (n - 1 - axis))
    theta = theta + (var.prep.angle if var.prep.kind == "rotation" else 0.0)
    if var.prep.kind == "uniform":
        p1 = [(1.0 + math.sin(t)) / 2.0 for t in theta.ravel().tolist()]
    else:
        p1 = [math.sin(t / 2.0) ** 2 for t in theta.ravel().tolist()]
    return np.array(p1).reshape(theta.shape)


def _factor(model: CausalModel, name: str) -> np.ndarray:
    """P(name | parents) in the layout of ``_p1``, with size 2 on the axis of ``name`` too.

    An intervened variable's factor is one-hot on its own axis.
    """
    p1 = _p1(model, name)
    return np.concatenate((1.0 - p1, p1), axis=model.n_qubits - 1 - model.variable(name).qubit)


def enumerate_joint(model: CausalModel) -> Distribution:
    """Exact joint distribution over all 2^n assignments, as a broadcast product.

    The joint factorizes over the DAG: each assignment's probability is the
    product over variables of P(value | parent assignment), with intervened
    variables contributing probability one on their forced value. Starting
    from an all-ones array of 2^n float64 entries, the factor of every
    variable (see ``_factor``) is multiplied in place in topological order.

    Ordering contract: every entry is the product of the same float64 factors,
    the entries of ``conditional_table``, multiplied left to right in
    ``topological_order``. Each factor's theta is a left-to-right float64 sum
    in model edge order (see ``_p1``), not Python's ``sum()``. So the result is
    bit-for-bit reproducible, does not depend on how the product is vectorized
    and does not depend on the Python version. Every factor is finite and
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

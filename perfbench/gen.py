"""Seeded random causal models for the benchmark workloads.

Two classes:

* ``oracle`` -- no Hadamard prep with parents, so the enumeration oracle can
  certify every distribution (exact-validate);
* ``general`` -- Hadamard preps may have parents too; only the statevector
  engine runs these (exact-wide).

Every model has the same shape of query: ``Z`` is a root whose marginal is
strictly inside (0, 1), ``T`` has ``Z`` as its only parent and a rotation
that stays inside (0.2, 2.8) radians for both values of ``Z``, and ``O`` is a
child of ``T``. So every conditional the workloads take (on ``T``, on ``Z``
and on the cells of both) has mass, and adjusting for ``Z = pa(T)`` must equal
``do(T)`` exactly. The number of edges and of each prep kind depends on ``n``
only, so the gate count of a model is a function of ``n``; the seed changes
only the structure and the angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qdo.model import GROUND, UNIFORM, CausalModel, Edge, Prep, Variable


@dataclass(frozen=True)
class Case:
    model: CausalModel
    treatment: str
    outcome: str
    stratifier: str


def random_model(rng: np.random.Generator, n: int, cls: str, name: str) -> Case:
    if cls not in ("oracle", "general"):
        raise ValueError(f"unknown model class {cls!r}")
    if n < 6:
        raise ValueError("a query model needs at least 6 variables")
    names = [f"v{i}" for i in range(n)]
    qubits = rng.permutation(n)
    z, t = names[0], names[1]
    o_idx = int(rng.integers(n // 2, n))
    o = names[o_idx]

    # Preps of the n - 2 free variables: fixed counts per kind, shuffled. The
    # oracle class has no ground preps: the oracle stops early on assignments
    # a ground variable makes impossible, a seed-dependent share, and its
    # work per model would then vary with the structure instead of with n.
    free = n - 2
    if cls == "oracle":
        kinds = ["rotation"] * free
    else:
        third = free // 3
        kinds = ["uniform"] * third + ["rotation"] * third + ["ground"] * (free - 2 * third)
    rng.shuffle(kinds)
    preps = {
        z: UNIFORM if rng.random() < 0.5 else Prep.rotation(float(rng.uniform(0.5, 2.6))),
        t: Prep.rotation(float(rng.uniform(0.3, 1.2))),
    }
    for name_i, kind in zip(names[2:], kinds):
        if kind == "uniform":
            preps[name_i] = UNIFORM
        elif kind == "rotation":
            preps[name_i] = Prep.rotation(float(rng.uniform(0.05, math.pi)))
        else:
            preps[name_i] = GROUND
    variables = tuple(Variable(v, int(q), preps[v]) for v, q in zip(names, qubits))

    edges = [
        Edge(z, t, int(rng.integers(0, 2)), float(rng.uniform(0.2, 1.4))),
        Edge(t, o, 1, float(rng.uniform(0.4, 1.6))),
    ]
    taken = {(0, 1), (1, o_idx)}
    # Candidate parent -> child pairs along the index order; nothing enters T,
    # so pa(T) = {Z}.
    pairs = [(i, j) for j in range(2, n) for i in range(j) if (i, j) not in taken]
    for k in rng.choice(len(pairs), size=2 * n - len(edges), replace=False):
        i, j = pairs[int(k)]
        sign = 1 if rng.random() < 0.7 else -1
        edges.append(
            Edge(names[i], names[j], int(rng.integers(0, 2)), float(rng.uniform(0.05, math.pi)), sign)
        )
    model = CausalModel(name, variables, tuple(edges))
    return Case(model, t, o, z)

"""Shared fixtures and the random-model generator used by the property tests."""

import numpy as np
import pytest

from qdo import CausalModel, Edge, Intervention, Prep, Variable
from qdo.catalog import healthcare10, simpson3
from qdo.circuit import Circuit, Gate


@pytest.fixture(scope="session")
def simpson3_entry():
    return simpson3()


@pytest.fixture(scope="session")
def healthcare10_entry():
    return healthcare10()


def make_random_model(rng: np.random.Generator, max_qubits: int = 6, n: int | None = None) -> CausalModel:
    """A random valid model.

    Ground or base-rotation preps only (no Hadamards), angles in (0.05, pi),
    random control values and signs, edges directed along a random variable
    order so the graph is acyclic by construction. Occasionally both control
    values of the same parent/child pair carry an edge. ``n`` fixes the
    variable count; otherwise it is drawn from 2..max_qubits.
    """
    if n is None:
        n = int(rng.integers(2, max_qubits + 1))
    qubits = rng.permutation(n)
    variables = []
    for i in range(n):
        if rng.random() < 0.4:
            prep = Prep.rotation(float(rng.uniform(0.05, np.pi)))
        else:
            prep = Prep("ground")
        variables.append(Variable(f"v{i}", int(qubits[i]), prep))

    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= 0.45:
                continue
            control_value = int(rng.integers(0, 2))
            sign = 1 if rng.random() < 0.7 else -1
            edges.append(
                Edge(f"v{i}", f"v{j}", control_value, float(rng.uniform(0.05, np.pi)), sign)
            )
            if rng.random() < 0.15:
                edges.append(
                    Edge(f"v{i}", f"v{j}", 1 - control_value, float(rng.uniform(0.05, np.pi)), 1)
                )
    if not edges and all(v.prep.kind == "ground" for v in variables):
        variables[0] = Variable(variables[0].name, variables[0].qubit,
                                Prep.rotation(float(rng.uniform(0.05, np.pi))))
    return CausalModel(f"random{n}", tuple(variables), tuple(edges))


def chain_model(n: int) -> CausalModel:
    """v0 -> v1 -> ... -> v{n-1}, one rotation prep at the root; n qubits."""
    variables = [Variable("v0", 0, Prep.rotation(0.7))]
    variables += [Variable(f"v{i}", i) for i in range(1, n)]
    edges = [Edge(f"v{i - 1}", f"v{i}", 1, 0.9) for i in range(1, n)]
    return CausalModel(f"chain{n}", tuple(variables), tuple(edges))


def random_intervention(rng: np.random.Generator, model: CausalModel) -> Intervention:
    """do() on a uniformly drawn variable of ``model``, to a random value; any variable qualifies."""
    names = sorted(v.name for v in model.variables)
    name = names[int(rng.integers(0, len(names)))]
    return Intervention(name, int(rng.integers(0, 2)))


@pytest.fixture(scope="session")
def random_models():
    """100 random models, each paired with a random intervention."""
    rng = np.random.default_rng(20240811)
    out = []
    for _ in range(100):
        model = make_random_model(rng)
        out.append((model, random_intervention(rng, model)))
    return out


def unblocked_circuits() -> dict[str, Circuit]:
    """Two hand-built 3-qubit circuits that break the block contract (``Circuit.blocks`` is None).

    "interleaved": the gates of q0 and of q2 are not contiguous.
    "control-retargeted": the blocks are contiguous, but q0 is targeted after
    a CRY has used it as a control.
    """
    return {
        "interleaved": Circuit(3, (
            Gate("ry", 0, theta=0.7), Gate("ry", 1, theta=1.2), Gate("cry", 2, theta=0.9, control=1, control_value=1),
            Gate("ry", 0, theta=0.4), Gate("cry", 2, theta=1.3, control=0, control_value=0),
        ), ("A", "B", "C")),
        "control-retargeted": Circuit(3, (
            Gate("ry", 1, theta=1.1), Gate("cry", 1, theta=0.8, control=0, control_value=1),
            Gate("ry", 0, theta=0.6), Gate("cry", 0, theta=1.4, control=1, control_value=0),
            Gate("cry", 2, theta=1.0, control=1, control_value=1),
        ), ("A", "B", "C")),
    }

"""Property tests on random DAGs of up to 8 qubits.

Three independent routes must agree on every generated model, with and
without one do():
    (a) the oracle's broadcast product equals a per-assignment product of
        P(v | pa(v)), each summed here from the model's edges, byte for byte
    (b) the statevector engine equals the oracle within 1e-10
    (c) back-door adjustment over pa(T) equals ``causal_effect`` within 1e-12

Interventions on 1-3 distinct variables must not depend on the order they
are applied in: graph surgery gives the same bytes in every order, matches
the oracle, and matches chained circuit surgery in every order.

Every model, and every do-model built from it, answers ``variable``,
``incoming``, ``qubit_map`` and ``topological_order`` from its index exactly
as a linear scan of its fields would.

Runs are derandomized, so every tier-1 run checks the same examples.

The estimators' cell reader ``analysis.cells`` must also sum the same floats
in the same order as a boolean mask over the 2^n indices, so every estimate
matches that reference to the last bit.
"""

import math
import re
from dataclasses import replace
from functools import reduce
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdo import (
    GROUND,
    UNIFORM,
    CausalModel,
    Edge,
    Intervention,
    ModelError,
    Prep,
    Variable,
    adjusted_effect,
    apply_do,
    causal_effect,
    compile_model,
    enumerate_joint,
    run_exact,
    surgered_circuit,
    topological_order,
)
from qdo.analysis import cells
from qdo.catalog import healthcare10, simpson3

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)

ANGLE = st.floats(0.05, math.pi)
# Both control values of one parent/child pair may carry an edge.
CONTROLS = st.sampled_from([(0,), (1,), (0, 1)])


@st.composite
def oracle_models(draw, max_qubits: int = 8) -> CausalModel:
    """Edges run along v0, v1, ... (acyclic); any variable may be uniform."""
    n = draw(st.integers(2, max_qubits))
    qubits = draw(st.permutations(range(n)))
    variables, edges = [], []
    for j in range(n):
        parents = sorted(draw(st.sets(st.integers(0, j - 1), max_size=3))) if j else []
        for i in parents:
            for cv in draw(CONTROLS):
                edges.append(Edge(f"v{i}", f"v{j}", cv, draw(ANGLE), draw(st.sampled_from((1, -1)))))
        prep = draw(st.one_of(st.just(GROUND), ANGLE.map(Prep.rotation), st.just(UNIFORM)))
        variables.append(Variable(f"v{j}", qubits[j], prep))
    return CausalModel(f"prop{n}", tuple(variables), tuple(edges))


@st.composite
def models_with_optional_do(draw) -> CausalModel:
    model = draw(oracle_models())
    if draw(st.booleans()):
        name = draw(st.sampled_from([v.name for v in model.variables]))
        model = apply_do(model, Intervention(name, draw(st.integers(0, 1))))
    return model


@st.composite
def backdoor_cases(draw) -> tuple[CausalModel, str, str]:
    """A model, a treatment T and an outcome O after T in the edge order.

    T gets a rotation prep in [0.3, 1.3] and at most three +1 edges of angle
    at most 0.5, so its effective angle stays in [0.3, 2.8] and P(T=1 | pa(T))
    in [0.02, 0.98] in every cell: both treatment arms have mass wherever
    pa(T) does.
    """
    model = draw(oracle_models())
    n = model.n_qubits
    t = draw(st.integers(0, n - 2))
    treatment = f"v{t}"
    parents = sorted(draw(st.sets(st.integers(0, t - 1), max_size=3))) if t else []
    t_edges = tuple(
        Edge(f"v{i}", treatment, draw(st.integers(0, 1)), draw(st.floats(0.05, 0.5)))
        for i in parents
    )
    variables = tuple(
        Variable(v.name, v.qubit, Prep.rotation(draw(st.floats(0.3, 1.3)))) if v.name == treatment else v
        for v in model.variables
    )
    edges = tuple(e for e in model.edges if e.child != treatment) + t_edges
    outcome = f"v{draw(st.integers(t + 1, n - 1))}"
    return CausalModel(model.name, variables, edges), treatment, outcome


@st.composite
def stacked_interventions(draw) -> tuple[CausalModel, list[Intervention]]:
    """A model and do() on 1-3 distinct variables with random values."""
    model = draw(oracle_models())
    names = draw(st.permutations([v.name for v in model.variables]))
    k = draw(st.integers(1, min(3, len(names))))
    return model, [Intervention(name, draw(st.integers(0, 1))) for name in names[:k]]


def _reference_p1(model: CausalModel, name: str, bits: dict[str, int]) -> float:
    """P(name = 1 | the parents' ``bits``), summing theta left to right in edge order."""
    for iv in model.interventions:
        if iv.variable == name:
            return float(iv.value)
    var = next(v for v in model.variables if v.name == name)
    t = 0.0
    for e in model.edges:
        if e.child == name and bits[e.parent] == e.control_value:
            t += e.sign * e.angle
    if var.prep.kind == "uniform":
        return (1.0 + math.sin(t)) / 2.0
    return math.sin((t + (var.prep.angle if var.prep.kind == "rotation" else 0.0)) / 2.0) ** 2


def _reference_joint(model: CausalModel) -> np.ndarray:
    """Per-assignment product of ``_reference_p1``, in topological order."""
    order = topological_order(model)
    out = np.empty(1 << model.n_qubits)
    for idx in range(out.size):
        bits = {v.name: (idx >> v.qubit) & 1 for v in model.variables}
        p = 1.0
        for v in order:
            p1 = _reference_p1(model, v, bits)
            p *= p1 if bits[v] else 1.0 - p1
        out[idx] = p
    return out


# A uniform child of a uniform root, on both control values, one edge suppressing.
UNIFORM_CHILD = CausalModel(
    "uniform-child",
    (Variable("A", 1, UNIFORM), Variable("B", 2, Prep.rotation(0.7)), Variable("C", 0, UNIFORM)),
    (Edge("A", "C", 1, 0.9), Edge("B", "C", 0, 1.3, sign=-1), Edge("B", "C", 1, 0.4), Edge("A", "B", 0, 1.1)),
)


@PROPERTY
@given(models_with_optional_do())
# healthcare10 has sums of three and more terms, where rounding order shows.
@example(simpson3().model)
@example(healthcare10().model)
@example(UNIFORM_CHILD)
def test_oracle_equals_per_assignment_product(model):
    assert enumerate_joint(model).values.tobytes() == _reference_joint(model).tobytes()


@PROPERTY
@given(models_with_optional_do())
@example(UNIFORM_CHILD)
def test_engine_equals_oracle(model):
    engine = run_exact(compile_model(model)).values
    assert float(np.max(np.abs(engine - enumerate_joint(model).values))) < 1e-10


@PROPERTY
@given(backdoor_cases())
def test_backdoor_over_treatment_parents_equals_do(case):
    model, treatment, outcome = case
    parents = sorted({e.parent for e in model.incoming(treatment)})
    dist = run_exact(compile_model(model))
    effect, _ = adjusted_effect(dist, model.qubit_map(), treatment, outcome, parents)
    assert abs(effect - causal_effect(model, treatment, outcome).effect) < 1e-12


@PROPERTY
@given(stacked_interventions())
def test_stacked_interventions_commute(case):
    model, ivs = case
    circ = compile_model(model)
    first = None
    for order in permutations(ivs):
        graph = run_exact(compile_model(reduce(apply_do, order, model))).values
        if first is None:
            first = graph
            oracle = enumerate_joint(reduce(apply_do, order, model)).values
            assert float(np.max(np.abs(graph - oracle))) < 1e-10
        assert graph.tobytes() == first.tobytes()
        surgered = reduce(surgered_circuit, order, circ)
        assert float(np.max(np.abs(run_exact(surgered).values - graph))) < 1e-12


def test_circuit_surgery_after_the_only_tagged_gate_is_gone():
    # A is ground, so its only gate is the A -> B link, which targets B.
    # do(B=1) first deletes that link, and do(A=1) must still find A's qubit.
    model = CausalModel("ab", (Variable("A", 0), Variable("B", 1, Prep.rotation(0.4))),
                        (Edge("A", "B", 1, 0.9),))
    circ = compile_model(model)
    for order in ([Intervention("A", 1), Intervention("B", 1)],
                  [Intervention("B", 1), Intervention("A", 1)]):
        graph = run_exact(compile_model(reduce(apply_do, order, model))).values
        surgered = run_exact(reduce(surgered_circuit, order, circ)).values
        assert float(np.max(np.abs(surgered - graph))) < 1e-12


def _scan_order(model: CausalModel) -> list[str]:
    """Topological order by linear scans: next is the lowest qubit whose parents are all placed."""
    placed: list[str] = []
    left = sorted(model.variables, key=lambda v: v.qubit)
    while left:
        v = next(v for v in left if all(e.parent in placed for e in model.edges if e.child == v.name))
        placed.append(v.name)
        left.remove(v)
    return placed


@PROPERTY
@given(stacked_interventions())
def test_model_index_equals_linear_scans(case):
    model, ivs = case
    for m in (model, *(reduce(apply_do, ivs[: k + 1], model) for k in range(len(ivs)))):
        scan_qubits = {v.name: v.qubit for v in m.variables}
        for v in m.variables:
            assert m.variable(v.name) == next(u for u in m.variables if u.name == v.name)
            assert m.incoming(v.name) == tuple(e for e in m.edges if e.child == v.name)
        assert m.incoming("nope") == ()
        assert m.qubit_map() == scan_qubits
        assert topological_order(m) == _scan_order(m)
        unknown = f"unknown variable 'nope' in model {m.name!r}"
        with pytest.raises(ModelError, match=f"^{re.escape(unknown)}$"):
            m.variable("nope")

        # The caller owns what qubit_map returns.
        handed = m.qubit_map()
        handed.clear()
        handed["nope"] = 0
        assert m.qubit_map() == scan_qubits

        # The index takes no part in equality, hashing or repr.
        twin = CausalModel(m.name, m.variables, m.edges, m.interventions)
        assert twin == m and hash(twin) == hash(m) and replace(m) == m
        assert repr(m) == (
            f"CausalModel(name={m.name!r}, variables={m.variables!r}, "
            f"edges={m.edges!r}, interventions={m.interventions!r})"
        )


def _event_mask(values: np.ndarray, qubits: dict, event) -> np.ndarray:
    """Boolean mask of the indices where every (name, bit) of ``event`` holds."""
    idx = np.arange(values.size)
    mask = np.ones(values.size, dtype=bool)
    for name, bit in event:
        mask &= ((idx >> qubits[name]) & 1) == bit
    return mask


def test_single_bit_cells_sum_like_masks():
    # Summing the strided view itself, without the contiguous copy, changes
    # the last bit of this distribution at qubits 2, 3, 4 and 11.
    n = 16
    values = np.random.default_rng(0).random(1 << n)
    values /= values.sum()
    qubits = {f"q{q}": q for q in range(n)}
    for name in qubits:
        for bit in (0, 1):
            event = ((name, bit),)
            assert cells(values, qubits, event).sum() == values[_event_mask(values, qubits, event)].sum()


@st.composite
def events(draw) -> tuple[np.ndarray, dict, list]:
    """Float probabilities or int64 counts, and an event that may name a variable twice."""
    n = draw(st.integers(1, 12))
    qubits = {f"v{j}": q for j, q in enumerate(draw(st.permutations(range(n))))}
    event = draw(st.lists(st.tuples(st.sampled_from(sorted(qubits)), st.integers(0, 1)), max_size=2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 1000, 1 << n) if draw(st.booleans()) else rng.random(1 << n)
    return values, qubits, event


@PROPERTY
@given(events())
def test_cells_equal_masked_entries(case):
    values, qubits, event = case
    got, want = cells(values, qubits, event), values[_event_mask(values, qubits, event)]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got.sum() == want.sum()

"""Property tests on random oracle-supported DAGs of up to 8 qubits.

Three independent routes must agree on every generated model, with and
without one do():
    (a) the oracle's broadcast product equals a per-assignment product of
        ``conditional_table`` entries, byte for byte
    (b) the statevector engine equals the oracle within 1e-10
    (c) back-door adjustment over pa(T) equals ``causal_effect`` within 1e-12

Stacked interventions on 2-3 variables must not depend on the order they are
applied in: graph surgery gives the same bytes in every order, matches the
oracle, and matches chained circuit surgery wherever circuit surgery can place
the interventions.

Runs are derandomized, so every tier-1 run checks the same examples.

The estimators' cell reader ``analysis.cells`` must also sum the same floats
in the same order as a boolean mask over the 2^n indices, so every estimate
matches that reference to the last bit.
"""

import math
from functools import reduce
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdo import (
    GROUND,
    UNIFORM,
    CausalModel,
    Edge,
    Intervention,
    Prep,
    Variable,
    adjusted_effect,
    apply_do,
    causal_effect,
    compile_model,
    conditional_table,
    enumerate_joint,
    run_exact,
    surgered_circuit,
    topological_order,
)
from qdo.analysis import cells

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)

ANGLE = st.floats(0.05, math.pi)
# Both control values of one parent/child pair may carry an edge.
CONTROLS = st.sampled_from([(0,), (1,), (0, 1)])


@st.composite
def oracle_models(draw, max_qubits: int = 8) -> CausalModel:
    """Edges run along v0, v1, ... (acyclic); only parentless variables may be uniform."""
    n = draw(st.integers(2, max_qubits))
    qubits = draw(st.permutations(range(n)))
    variables, edges = [], []
    for j in range(n):
        parents = sorted(draw(st.sets(st.integers(0, j - 1), max_size=3))) if j else []
        for i in parents:
            for cv in draw(CONTROLS):
                edges.append(Edge(f"v{i}", f"v{j}", cv, draw(ANGLE), draw(st.sampled_from((1, -1)))))
        uniform = [] if parents else [st.just(UNIFORM)]
        prep = draw(st.one_of(st.just(GROUND), ANGLE.map(Prep.rotation), *uniform))
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
    """A model and do() on 2-3 distinct variables with random values."""
    model = draw(oracle_models())
    names = draw(st.permutations([v.name for v in model.variables]))
    k = draw(st.integers(2, min(3, len(names))))
    return model, [Intervention(name, draw(st.integers(0, 1))) for name in names[:k]]


def _reference_joint(model: CausalModel) -> np.ndarray:
    """Per-assignment product of the conditional-table entries, in topological order."""
    qubit = model.qubit_map()
    order = topological_order(model)
    tables = {v: conditional_table(model, v) for v in order}
    parents = {v: sorted({e.parent for e in model.incoming(v)}, key=qubit.get) for v in order}
    out = np.empty(1 << model.n_qubits)
    for idx in range(out.size):
        p = 1.0
        for v in order:
            p1 = tables[v][tuple((idx >> qubit[u]) & 1 for u in parents[v])]
            p *= p1 if (idx >> qubit[v]) & 1 else 1.0 - p1
        out[idx] = p
    return out


@PROPERTY
@given(models_with_optional_do())
def test_oracle_equals_per_assignment_product(model):
    assert enumerate_joint(model).values.tobytes() == _reference_joint(model).tobytes()


@PROPERTY
@given(models_with_optional_do())
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
        try:
            surgered = reduce(surgered_circuit, order, circ)
        except ValueError as exc:
            # An earlier surgery may delete the only gates that located a
            # later variable's qubit (see the xfail below).
            assert "does not appear in any circuit tag" in str(exc)
            continue
        assert float(np.max(np.abs(run_exact(surgered).values - graph))) < 1e-12


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="circuit surgery finds a qubit only through the gates tagged with its variable")
def test_circuit_surgery_after_the_only_tagged_gate_is_gone():
    # A is ground, so its one tagged gate is the A -> B link. do(A=1) then
    # do(B=1) works; do(B=1) first deletes that link, and do(A=1) then
    # cannot find A's qubit.
    model = CausalModel("ab", (Variable("A", 0), Variable("B", 1, Prep.rotation(0.4))),
                        (Edge("A", "B", 1, 0.9),))
    circ = compile_model(model)
    for order in ([Intervention("A", 1), Intervention("B", 1)],
                  [Intervention("B", 1), Intervention("A", 1)]):
        graph = run_exact(compile_model(reduce(apply_do, order, model))).values
        surgered = run_exact(reduce(surgered_circuit, order, circ)).values
        assert float(np.max(np.abs(surgered - graph))) < 1e-12


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

"""The real-amplitude kernel against a complex128 per-gate reference.

The engine stores float64 amplitudes. H, X, RY and CRY are real, and Pauli Y
is i times a real matrix, so every trajectory row is i^k times a real vector
and only |amplitude|^2 is observable. The claim pinned here is stronger than
closeness: |amplitude|^2 from ``statevector`` and from the Pauli-row kernel
equals, bit for bit, that of a plain complex128 kernel applying the same
per-element operations (a real scalar times a complex number has no cross
terms, and hypot(x, 0) == |x|).

Circuits are random, up to 8 qubits, with every gate kind, control-on-zero
CRY and X/Y/Z insertions on chosen trajectory rows. Runs are derandomized.

The engine runs each gate on the first-touch register, the 2^k entries of the
k qubits touched so far, and returns to qubit order at the end; its bytes must
equal those of the full-width loop that runs every gate on all 2^n entries.
A gate that places its target updates it in two passes, on the promise that
the target's upper half is still zero; a spy checks the promise in exact runs
and in noisy batches. Pair updates over short contiguous runs sweep one run
offset at a time, so the first-touch circuits reach widths of 2^12.

The noisy sampler keeps one state per distinct Pauli history, not one per
shot; its counts must equal, array for array, those of a plain loop that
evolves every shot as its own row with the same kernels and the same draws.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdo import Intervention, NoiseSpec, compile_model, run_exact, run_sampled, statevector
from qdo import engine
from qdo.circuit import Circuit, Gate, surgered_circuit
from qdo.engine import (
    _apply_1q,
    _apply_cry,
    _apply_gate,
    _apply_pauli_rows,
    _plan,
    _ry_matrix,
    trajectory_batch,
)
from conftest import chain_model

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_FIXED = {
    "h": np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=np.complex128),
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
}
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)
ANGLE = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


def _touched_qubits(gate: Gate) -> tuple[int, ...]:
    """The qubits a gate touches, as the engine orders them: a CRY's control, then its target."""
    return (gate.control, gate.target) if gate.kind == "cry" else (gate.target,)


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _ref_apply(psi: np.ndarray, mat: np.ndarray, target: int, control=None, control_value=1) -> None:
    """psi <- mat on ``target`` (where ``control`` has ``control_value``), by index pairs."""
    idx = np.arange(psi.size)
    sel = ((idx >> target) & 1) == 0
    if control is not None:
        sel &= ((idx >> control) & 1) == control_value
    lower = idx[sel]
    upper = lower | (1 << target)
    a0, a1 = psi[lower].copy(), psi[upper].copy()
    psi[lower] = mat[0, 0] * a0 + mat[0, 1] * a1
    psi[upper] = mat[1, 0] * a0 + mat[1, 1] * a1


def _ref_gate(psi: np.ndarray, gate: Gate) -> None:
    if gate.kind in _FIXED:
        _ref_apply(psi, _FIXED[gate.kind], gate.target)
    elif gate.kind == "ry":
        _ref_apply(psi, _rotation(gate.theta), gate.target)
    else:
        _ref_apply(psi, _rotation(gate.theta), gate.target, gate.control, gate.control_value)


@st.composite
def gates(draw, n: int) -> Gate:
    kinds = ["h", "x", "ry"] + (["cry"] if n > 1 else [])
    kind = draw(st.sampled_from(kinds))
    target = draw(st.integers(0, n - 1))
    if kind in _FIXED:
        return Gate(kind, target)
    if kind == "ry":
        return Gate("ry", target, theta=draw(ANGLE))
    control = draw(st.sampled_from([q for q in range(n) if q != target]))
    return Gate("cry", target, theta=draw(ANGLE), control=control, control_value=draw(st.integers(0, 1)))


@st.composite
def circuits(draw) -> Circuit:
    n = draw(st.integers(1, 8))
    return Circuit(n, tuple(draw(st.lists(gates(n), min_size=1, max_size=30))))


@st.composite
def noisy_programs(draw):
    """(n, rows, steps): each step is a gate on every row or a Pauli on some rows."""
    n = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 4))
    pauli = st.tuples(
        st.integers(0, n - 1),
        st.integers(0, 2),
        st.sets(st.integers(0, rows - 1), min_size=1).map(sorted),
    )
    steps = draw(st.lists(st.one_of(gates(n), pauli), min_size=1, max_size=40))
    return n, rows, steps


@PROPERTY
@given(circuits())
def test_statevector_probabilities_equal_complex_reference(circ):
    psi = np.zeros(1 << circ.n_qubits, dtype=np.complex128)
    psi[0] = 1.0
    for gate in circ.gates:
        _ref_gate(psi, gate)
    amps = statevector(circ)
    assert amps.dtype == np.float64
    assert np.array_equal(np.abs(amps) ** 2, np.abs(psi) ** 2)


@PROPERTY
@given(noisy_programs())
def test_pauli_row_kernel_equals_complex_reference(program):
    n, rows, steps = program
    states = np.zeros((rows, 1 << n))
    states[:, 0] = 1.0
    ref = np.zeros((rows, 1 << n), dtype=np.complex128)
    ref[:, 0] = 1.0
    for step in steps:
        if isinstance(step, Gate):
            _apply_gate(states, step, _touched_qubits(step), False)
            for psi in ref:
                _ref_gate(psi, step)
        else:
            qubit, pauli, hit = step
            rows = np.array(hit)
            _apply_pauli_rows(states, rows, qubit, pauli, rows)
            for r in hit:
                _ref_apply(ref[r], _PAULI[pauli], qubit)
    assert np.array_equal(np.square(states), np.abs(ref) ** 2)


def _full_width_statevector(circ: Circuit) -> np.ndarray:
    """Every gate on all 2^n entries, at the qubits' own indices."""
    states = np.zeros((1, 1 << circ.n_qubits))
    states[0, 0] = 1.0
    for gate in circ.gates:
        _apply_gate(states, gate, _touched_qubits(gate), False)
    return states[0]


def _assert_equals_full_width(circ: Circuit) -> None:
    ref = _full_width_statevector(circ)
    assert np.array_equal(statevector(circ), ref)
    assert run_exact(circ).values.tobytes() == np.square(ref).tobytes()


def _cry(control: int, control_value: int, target: int, theta: float) -> Gate:
    return Gate("cry", target, theta=theta, control=control, control_value=control_value)


@pytest.mark.parametrize(
    "circ",
    [
        # q1 and q3 are never touched.
        Circuit(4, (Gate("h", 2), _cry(2, 1, 0, 1.1), Gate("ry", 0, theta=-0.4))),
        # q2 is first touched as the control of a CRY: a ground parent.
        Circuit(3, (Gate("ry", 0, theta=0.8), _cry(2, 0, 1, 1.3), _cry(1, 1, 0, -2.1))),
        Circuit(3, (Gate("ry", 0, theta=0.8), _cry(2, 1, 1, 1.3), _cry(1, 1, 0, -2.1))),
        Circuit(3, ()),
    ],
    ids=["untouched-qubits", "ground-parent-on-0", "ground-parent-on-1", "no-gates"],
)
def test_first_touch_edge_cases_equal_full_width(circ):
    _assert_equals_full_width(circ)


def test_surgery_x_at_the_start_equals_full_width():
    # v1 has no prep gate, so do(v1 = 1) puts its X first and q1 is touched first.
    circ = surgered_circuit(compile_model(chain_model(4)), Intervention("v1", 1))
    assert (circ.gates[0].kind, circ.gates[0].target) == ("x", 1)
    _assert_equals_full_width(circ)


def _relabelled(gate: Gate, label) -> Gate:
    control = None if gate.control is None else label[gate.control]
    return Gate(gate.kind, label[gate.target], gate.theta, control, gate.control_value)


@PROPERTY
@given(circuits(), st.data())
def test_shuffled_qubits_equal_full_width(circ, data):
    label = data.draw(st.permutations(range(circ.n_qubits)))
    _assert_equals_full_width(Circuit(circ.n_qubits, tuple(_relabelled(g, label) for g in circ.gates)))


@st.composite
def first_touch_circuits(draw) -> Circuit:
    """Circuits whose qubits are first reached by a CRY, an X, an H or an RY.

    Built in register order, then relabelled by a random permutation: qubit k
    of the build is the k-th the circuit touches. A CRY may place its target
    (a ground-prep child), its control (a ground parent) or both. Every CRY
    control sits at register position 0-3, so wide circuits have pair updates
    whose contiguous runs are 1-8 entries long.
    """
    n = draw(st.one_of(st.integers(2, 8), st.integers(10, 12)))
    out = []

    def cry(control, target):
        return _cry(control, draw(st.integers(0, 1)), target, draw(ANGLE))

    def one_qubit(target):
        kind = draw(st.sampled_from(["x", "h", "ry"]))
        return Gate(kind, target, theta=draw(ANGLE)) if kind == "ry" else Gate(kind, target)

    def on_touched(k):
        # The newest qubit, a low one or any: the widest pair updates pair a
        # high target with a control or target at position 1 or 2.
        target = draw(st.sampled_from([k - 1, min(k - 1, draw(st.integers(1, 2))), draw(st.integers(0, k - 1))]))
        controls = [q for q in range(min(k, 4)) if q != target]
        if controls and draw(st.integers(0, 2)):
            return cry(draw(st.sampled_from(controls)), target)
        return one_qubit(target)

    k = 0
    while k < n:
        # The last qubit is placed by a CRY, as a wide model places a child.
        how = "cry" if k == n - 1 else draw(st.sampled_from(["cry", "parent", "both", "x", "h", "ry"]))
        if k and how == "cry":
            out.append(cry(draw(st.integers(0, min(k - 1, 3))), k))
        elif 0 < k <= 3 and how == "parent":
            out.append(cry(k, draw(st.integers(0, k - 1))))
        elif k <= 3 and k + 1 < n and how == "both":
            out.append(cry(k, k + 1))
            k += 1
        elif how in ("x", "h", "ry"):
            out.append(Gate(how, k, theta=draw(ANGLE)) if how == "ry" else Gate(how, k))
        else:
            out.append(one_qubit(k))
        k += 1
        out += [on_touched(k) for _ in range(draw(st.integers(0, 2)))]
    if n > 3:
        # Runs of 2 and 4 entries at the full width.
        out += [cry(1, n - 1), one_qubit(1), cry(2, n - 1), one_qubit(2)]
    out += [on_touched(n) for _ in range(draw(st.integers(0, 4)))]
    label = draw(st.permutations(range(n)))
    return Circuit(n, tuple(_relabelled(g, label) for g in out))


@PROPERTY
@given(first_touch_circuits())
def test_first_touch_paths_equal_references(circ):
    _assert_equals_full_width(circ)
    psi = np.zeros(1 << circ.n_qubits, dtype=np.complex128)
    psi[0] = 1.0
    for gate in circ.gates:
        _ref_gate(psi, gate)
    assert np.array_equal(np.abs(statevector(circ)) ** 2, np.abs(psi) ** 2)


@PROPERTY
@given(first_touch_circuits(), st.integers(0, 2**64 - 1))
def test_a_placed_target_finds_its_upper_half_zero(circ, seed):
    checked = []
    apply_gate = engine._apply_gate

    def spy(states, gate, pos, fresh):
        if fresh:
            upper = states.reshape(states.shape[0], -1, 2, 1 << pos[-1])[:, :, 1, :]
            checked.append((states.shape[0], not upper.any()))
        apply_gate(states, gate, pos, fresh)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_apply_gate", spy)
        run_exact(circ)
        run_sampled(circ, 16, seed, NoiseSpec(0.5))
    assert all(zero for _, zero in checked)
    # Every qubit the circuit touches is placed once per run, and the noisy
    # run forks before most placements.
    assert len(checked) == 2 * sum(fresh for *_, fresh in _plan(circ)[0])
    if circ.n_qubits > 2:
        assert max(rows for rows, _ in checked) > 1


@pytest.mark.parametrize(
    "apply",
    [
        lambda s: _apply_1q(s, 1, _ry_matrix(0.9), False),
        lambda s: _apply_cry(s, 2, 0, 0, 0.7, False),
        lambda s: _apply_cry(s, 0, 1, 2, -1.3, False),
        lambda s: _apply_1q(s, 2, _ry_matrix(0.9), False),
        lambda s: _apply_cry(s, 1, 1, 10, 0.7, False),
        lambda s: _apply_cry(s, 2, 0, 10, 0.7, True),
    ],
    ids=["1q", "cry-control-high", "cry-control-low", "1q-short-runs", "cry-short-runs", "cry-fresh"],
)
def test_kernel_writes_through_a_strided_view(apply):
    # The noisy sampler runs gates on buf[:live, :width]: a reshape that
    # copied such a view would drop the update without an error. At width
    # 2^11 the runs of 2 and 4 entries are swept offset by offset.
    buf = np.random.default_rng(0).standard_normal((5, 4096))
    buf[:, 1024:2048] = 0.0  # position 10's upper half, for the fresh gate
    before = buf.copy()
    want = buf[:3, :2048].copy()
    apply(want)
    apply(buf[:3, :2048])
    assert np.array_equal(buf[:3, :2048], want) and not np.array_equal(want, before[:3, :2048])
    assert np.array_equal(buf[:, 2048:], before[:, 2048:]) and np.array_equal(buf[3:], before[3:])


def _one_row_per_shot(circ: Circuit, shots: int, seed: int, p_depol: float) -> np.ndarray:
    """Noisy counts with every shot evolved as its own row of the batch."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    max_batch = trajectory_batch(circ.n_qubits)
    dim = 1 << circ.n_qubits
    counts = np.zeros(dim, dtype=np.int64)
    done = 0
    while done < shots:
        batch = min(max_batch, shots - done)
        states = np.zeros((batch, dim))
        states[:, 0] = 1.0
        for gate in circ.gates:
            _apply_gate(states, gate, _touched_qubits(gate), False)
            for q in _touched_qubits(gate):
                hit = np.nonzero(rng.random(batch) < p_depol)[0]
                if hit.size == 0:
                    continue
                paulis = rng.integers(0, 3, size=hit.size)
                for p in (0, 1, 2):
                    rows = hit[paulis == p]
                    if rows.size:
                        _apply_pauli_rows(states, rows, q, p, rows)
        probs = np.square(states)
        probs /= probs.sum(axis=1, keepdims=True)
        np.cumsum(probs, axis=1, out=probs)
        u = rng.random((batch, 1))
        counts += np.bincount(np.minimum((probs < u).sum(axis=1), dim - 1), minlength=dim)
        done += batch
    return counts


@PROPERTY
@given(circuits(), st.integers(1, 40), st.integers(1, 200), st.integers(0, 2**64 - 1))
def test_shared_histories_count_like_one_row_per_shot(circ, batch_rows, shots, seed):
    # The budget holds batch_rows states, so most runs span several batches.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "MAX_STATE_BYTES", batch_rows * (8 << circ.n_qubits))
        for p in (0.003, 0.05, 0.4, 1.0):
            got = run_sampled(circ, shots, seed, NoiseSpec(p)).values
            assert np.array_equal(got, _one_row_per_shot(circ, shots, seed, p)), p

"""The real-amplitude kernel against a complex128 per-gate reference.

The engine stores float64 amplitudes. H, X, RY and CRY are real, and Pauli Y
is i times a real matrix, so every trajectory row is i^k times a real vector
and only |amplitude|^2 is observable. The claim pinned here is stronger than
closeness: |amplitude|^2 from ``statevector`` and from the noisy sampler's
fork equals, bit for bit, that of a plain complex128 kernel applying the same
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
offset at a time, so the first-touch circuits reach widths of 2^12. A general
pair update over more than ``_TILE`` entries per half runs tile by tile;
with tiles of a few entries every general update of these circuits does, and
the bytes must not move.

An exact run keeps basis qubits (qubits no H, RY or CRY targets) out of the
register and writes the register into the slice of the output that their
values select. Random circuits flip basis qubits before, between and after
the CRYs they control, use them as ground controls, and may hold no other
qubit; stacked circuit surgeries on random models make do()'d basis qubits.
Each must equal the full-width loop bit for bit. A noisy batch runs every
gate but leaves a qubit no gate touches out of its register too.

The noisy sampler keeps one state per distinct Pauli history, not one per
shot; its counts must equal, array for array, those of a plain loop that
evolves every shot as its own row with the same kernels and the same draws.
A stack of trials must count as one-seed runs do, with the uninitialized
batch buffer filled with NaN so that no entry is read before it is written.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdo import (
    CausalModel,
    Intervention,
    NoiseSpec,
    compile_model,
    healthcare10,
    run_exact,
    run_sampled,
    simpson3,
    statevector,
)
from qdo import engine
from qdo.circuit import Circuit, Gate, surgered_circuit
from qdo.engine import (
    _apply_1q,
    _apply_cry,
    _apply_gate,
    _fork,
    _plan,
    _ry_matrix,
    trajectory_batch,
)
from conftest import chain_model, make_random_model

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


def _full_width_step(gate: Gate) -> tuple[tuple[int, ...], object, int | None]:
    """(positions, matrix, control value) that make ``_apply_gate`` run ``gate`` at the qubits' own indices.

    The positions are the qubits the gate touches, as the engine orders them:
    a CRY's control, then its target.
    """
    if gate.kind in _FIXED:
        return (gate.target,), _FIXED[gate.kind].real.tolist(), None
    if gate.kind == "ry":
        return (gate.target,), _ry_matrix(gate.theta), None
    return (gate.control, gate.target), _ry_matrix(gate.theta), gate.control_value


def _register(circ: Circuit, fold: bool) -> list[int]:
    """The qubits in ``_plan``'s register, in qubit order: those its output index leaves open."""
    _, _, k, index = _plan(circ, fold=fold)
    register = [q for q in range(circ.n_qubits) if index[circ.n_qubits - 1 - q] == slice(None)]
    assert len(register) == k
    return register


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
    """(n, rows, steps): each step is a gate on every row or Paulis on some rows.

    A Pauli step is (qubit, {row: Pauli}): 0 = X, 1 = Y, 2 = Z.
    """
    n = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 4))
    pauli = st.tuples(
        st.integers(0, n - 1),
        st.dictionaries(st.integers(0, rows - 1), st.integers(0, 2), min_size=1),
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
def test_fork_equals_complex_reference(program):
    # One slot per row: every hit frees its row's slot, and the fork hands the
    # freed slots to the keys in key order, so rows move between slots.
    n, rows, steps = program
    states = np.zeros((rows, 1 << n))
    states[:, 0] = 1.0
    owner = np.arange(rows)
    held = np.ones(rows, dtype=np.intp)
    ref = np.zeros((rows, 1 << n), dtype=np.complex128)
    ref[:, 0] = 1.0
    for step in steps:
        if isinstance(step, Gate):
            _apply_gate(states, *_full_width_step(step), False)
            for psi in ref:
                _ref_gate(psi, step)
        else:
            qubit, paulis = step
            hit = np.array(sorted(paulis))
            assert _fork(states, owner, held, rows, hit, np.array([paulis[r] for r in hit]), qubit) == rows
            assert np.array_equal(held, np.ones(rows))
            for r in hit:
                _ref_apply(ref[r], _PAULI[paulis[r]], qubit)
    assert sorted(owner) == list(range(rows))
    assert np.array_equal(np.square(states[owner]), np.abs(ref) ** 2)


def _full_width_statevector(circ: Circuit) -> np.ndarray:
    """Every gate on all 2^n entries, at the qubits' own indices."""
    states = np.zeros((1, 1 << circ.n_qubits))
    states[0, 0] = 1.0
    for gate in circ.gates:
        _apply_gate(states, *_full_width_step(gate), False)
    return states[0]


def _assert_equals_full_width(circ: Circuit) -> None:
    ref = _full_width_statevector(circ)
    assert np.array_equal(statevector(circ), ref)
    assert run_exact(circ).values.tobytes() == np.square(ref).tobytes()


def _assert_equals_references(circ: Circuit) -> None:
    _assert_equals_full_width(circ)
    psi = np.zeros(1 << circ.n_qubits, dtype=np.complex128)
    psi[0] = 1.0
    for gate in circ.gates:
        _ref_gate(psi, gate)
    assert np.array_equal(np.abs(statevector(circ)) ** 2, np.abs(psi) ** 2)


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
    # Without the edge v0 -> v1 no gate targets v1, so do(v1 = 1) puts its X
    # first and q1 is touched first.
    chain = chain_model(4)
    model = CausalModel(chain.name, chain.variables, chain.edges[1:])
    circ = surgered_circuit(compile_model(model), Intervention("v1", 1))
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
    _assert_equals_references(circ)


@settings(PROPERTY, max_examples=20)
@given(first_touch_circuits(), st.sampled_from([32, 512]), st.integers(0, 2**64 - 1))
def test_tiled_pair_updates_equal_whole_ones(circ, tile, seed):
    def run():
        return statevector(circ).tobytes(), run_sampled(circ, 64, seed, NoiseSpec(0.3)).values.tobytes()

    whole = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_TILE", tile)
        assert run() == whole


@st.composite
def basis_circuits(draw) -> Circuit:
    """Circuits with basis qubits: qubits that no H, RY or CRY targets.

    The basis qubits (possibly all of them) take X gates and control CRYs
    with either control value, and a basis qubit that has controlled a CRY
    may be flipped again and control more. Some never take an X, so they
    control as ground qubits. The other qubits take any gate, controlled by
    any qubit.
    """
    n = draw(st.one_of(st.integers(1, 8), st.integers(10, 12)))
    basis = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    others = [q for q in range(n) if q not in basis]

    def cry_from(control):
        target = draw(st.sampled_from(others))
        return _cry(control, draw(st.integers(0, 1)), target, draw(ANGLE))

    def step():
        b = draw(st.sampled_from(basis))
        how = draw(st.sampled_from(["x", "flip"] + (["cry", "other", "other"] if others else [])))
        if how == "x":
            return [Gate("x", b)]
        if how == "flip":
            # Control, flip, control again: the value changes mid-circuit.
            return [Gate("x", b), *([cry_from(b), Gate("x", b), cry_from(b)] if others else [])]
        if how == "cry":
            return [cry_from(b)]
        target = draw(st.sampled_from(others))
        kind = draw(st.sampled_from(["h", "x", "ry", "cry"]))
        if kind == "cry":
            control = draw(st.sampled_from([q for q in range(n) if q != target]))
            return [_cry(control, draw(st.integers(0, 1)), target, draw(ANGLE))]
        return [Gate(kind, target, theta=draw(ANGLE)) if kind == "ry" else Gate(kind, target)]

    out = [g for _ in range(draw(st.integers(0, 12))) for g in step()]
    return Circuit(n, tuple(out))


@PROPERTY
@given(basis_circuits())
def test_basis_qubits_equal_references(circ):
    assert len(_register(circ, fold=True)) < circ.n_qubits
    _assert_equals_references(circ)


@pytest.mark.parametrize(
    "circ, register",
    [
        # q0 controls on 1 after one X, then on 1 again after a second X.
        (Circuit(3, (Gate("x", 0), _cry(0, 1, 1, 1.1), Gate("x", 0), _cry(0, 1, 2, 0.6), Gate("h", 2))), [1, 2]),
        # The same flips, controls on 0: the first CRY folds away and leaves
        # q1 untouched, a basis qubit at 0; the second runs as an RY.
        (Circuit(3, (Gate("x", 0), _cry(0, 0, 1, 1.1), Gate("x", 0), _cry(0, 0, 2, 0.6), Gate("h", 2))), [2]),
        # A ground control on both values, the matched CRY placing its target.
        (Circuit(3, (_cry(2, 0, 1, 1.3), _cry(2, 1, 0, -0.7), Gate("ry", 0, theta=0.8))), [0, 1]),
        # Two basis qubits around the register, q3 at 1 and q0 at 0.
        (Circuit(4, (Gate("ry", 1, theta=0.4), Gate("x", 3), _cry(3, 1, 1, 2.2), _cry(0, 0, 1, -0.9),
                     _cry(1, 1, 2, 0.5))), [1, 2]),
        # Every qubit is a basis qubit: the register is one entry.
        (Circuit(3, (Gate("x", 2), Gate("x", 0), Gate("x", 2), Gate("x", 2))), []),
        (Circuit(2, (Gate("x", 0), _cry(0, 0, 1, 1.0))), []),
    ],
    ids=["flip-on-1", "flip-on-0", "ground-control", "two-basis-qubits", "all-x", "all-folded"],
)
def test_basis_qubit_cases_equal_references(circ, register):
    assert _register(circ, fold=True) == register and len(register) < circ.n_qubits
    _assert_equals_references(circ)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.data())
def test_stacked_surgeries_equal_references(seed, data):
    # Each do()'d variable is a basis qubit: an X at 1 or no gate at 0.
    model = make_random_model(np.random.default_rng(seed), max_qubits=8)
    names = data.draw(st.permutations([v.name for v in model.variables]))
    circ = compile_model(model)
    for name in names[:data.draw(st.integers(1, min(3, len(names))))]:
        circ = surgered_circuit(circ, Intervention(name, data.draw(st.integers(0, 1))))
        _assert_equals_references(circ)
        assert len(_register(circ, fold=True)) < circ.n_qubits


@PROPERTY
@given(first_touch_circuits(), st.integers(0, 2**64 - 1))
def test_a_placed_target_finds_its_upper_half_zero(circ, seed):
    checked = []
    apply_gate = engine._apply_gate

    def spy(states, pos, mat, control_value, fresh):
        if fresh:
            upper = states.reshape(states.shape[0], -1, 2, 1 << pos[-1])[:, :, 1, :]
            checked.append((states.shape[0], not upper.any()))
        apply_gate(states, pos, mat, control_value, fresh)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_apply_gate", spy)
        run_exact(circ)
        exact = len(checked)
        run_sampled(circ, 16, seed, NoiseSpec(0.5))
    assert all(zero for _, zero in checked)
    # Every register qubit is placed once per run: the exact run places the
    # qubits of its folded plan, the noisy run every qubit the circuit
    # touches, and it forks before most placements.
    assert exact == sum(fresh for *_, fresh in _plan(circ, fold=True)[0])
    assert len(checked) - exact == sum(fresh for *_, fresh in _plan(circ, fold=False)[0])
    if circ.n_qubits > 2:
        assert max(rows for rows, _ in checked) > 1


@pytest.mark.parametrize(
    "apply",
    [
        lambda s: _apply_1q(s, 1, _ry_matrix(0.9), False),
        lambda s: _apply_cry(s, 2, 0, 0, _ry_matrix(0.7), False),
        lambda s: _apply_cry(s, 0, 1, 2, _ry_matrix(-1.3), False),
        lambda s: _apply_1q(s, 2, _ry_matrix(0.9), False),
        lambda s: _apply_cry(s, 1, 1, 10, _ry_matrix(0.7), False),
        lambda s: _apply_cry(s, 2, 0, 10, _ry_matrix(0.7), True),
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


def _real_paulis(states: np.ndarray, rows: np.ndarray, qubit: int, paulis: np.ndarray) -> None:
    """states[rows[i]] <- Pauli paulis[i] on ``qubit``: X, Y without its global phase i, or Z."""
    m = states.reshape(states.shape[0], -1, 2, 1 << qubit)
    a0, a1 = m[rows, :, 0], m[rows, :, 1]
    y, z = (paulis[:, None, None] == k for k in (1, 2))
    m[rows, :, 0] = np.where(z, a0, np.where(y, -a1, a1))
    m[rows, :, 1] = np.where(z, -a1, a0)


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
            pos, mat, control_value = _full_width_step(gate)
            _apply_gate(states, pos, mat, control_value, False)
            for q in pos:
                hit = np.nonzero(rng.random(batch) < p_depol)[0]
                if hit.size == 0:
                    continue
                _real_paulis(states, hit, q, rng.integers(0, 3, size=hit.size))
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


def _nan_filled(empty):
    """np.empty whose float arrays hold NaN, so an entry read before it is written shows."""

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    return poisoned


@settings(PROPERTY, max_examples=30)
@given(circuits(), st.integers(1, 5), st.integers(1, 40), st.integers(1, 120), st.integers(0, 2**64 - 6))
def test_stacked_trials_count_like_one_seed_runs(circ, trials, batch_rows, shots, seed):
    # The budget holds batch_rows states, so shots cross batch boundaries;
    # the count stack is held to the same budget. The buffer is never
    # initialized: with NaN in it, an entry read before it is written or
    # zeroed spoils the counts. The first trial is also checked against every
    # shot evolved as its own row.
    seeds = [seed + t for t in range(min(trials, batch_rows))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "MAX_STATE_BYTES", batch_rows * (8 << circ.n_qubits))
        mp.setattr(engine.np, "empty", _nan_filled(np.empty))
        for p in (0.02, 0.3, 1.0):
            stack = engine.noisy_counts(circ, shots, seeds, NoiseSpec(p))
            assert stack.shape == (len(seeds), 1 << circ.n_qubits) and stack.dtype == np.int64
            for row, s in zip(stack, seeds):
                assert np.array_equal(row, run_sampled(circ, shots, s, NoiseSpec(p)).values), p
            assert np.array_equal(stack[0], _one_row_per_shot(circ, shots, seed, p)), p


@pytest.mark.parametrize(
    "circ",
    [
        # do(O=0) leaves no gate on O, the top qubit: the register is q0 q1
        # in qubit order, one qubit short of the output.
        surgered_circuit(compile_model(simpson3().model), Intervention("O", 0)),
        surgered_circuit(compile_model(healthcare10().model), Intervention("Satisfaction", 0)),
        # q0 is never touched and the register holds q2 below q1.
        Circuit(3, (Gate("h", 2), _cry(2, 1, 1, 0.9), Gate("ry", 2, theta=-0.5))),
        Circuit(2, ()),
    ],
    ids=["simpson3-do-O0", "healthcare10-do-Satisfaction0", "untouched-q0-shuffled", "no-gates"],
)
def test_noisy_batch_leaves_an_untouched_qubit_out_of_its_register(circ):
    # The reference evolves every shot at the full width; the batch runs on
    # the touched qubits alone and writes its squares into the output's slice.
    n = circ.n_qubits
    assert len(_register(circ, fold=False)) < n
    widths = []
    apply_gate = engine._apply_gate

    def spy(states, pos, mat, control_value, fresh):
        widths.append(states.shape[1])
        apply_gate(states, pos, mat, control_value, fresh)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_apply_gate", spy)
        for p in (0.05, 0.5, 1.0):
            got = run_sampled(circ, 300, 9, NoiseSpec(p)).values
            assert np.array_equal(got, _one_row_per_shot(circ, 300, 9, p)), p
    assert len(widths) == 3 * len(circ.gates)
    assert all(width <= 1 << (n - 1) for width in widths)

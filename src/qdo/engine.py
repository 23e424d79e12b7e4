"""Exact statevector execution, seeded shot sampling, and stochastic Pauli noise.

Amplitudes are little-endian: qubit 0 is the least significant bit of the
basis-state index. RY follows the convention RY(t)|0> = cos(t/2)|0> +
sin(t/2)|1>, so a rotation by t flips the target with probability sin^2(t/2).

A control-on-zero CRY is executed as the equivalent unitary of its X-wrapped
realization (rotate exactly the branch where the control bit equals 0).

The noisy path is a quantum-trajectory unraveling, not a density matrix: each
shot evolves its own pure state and, after every IR gate, each touched qubit
is hit by a uniformly random Pauli (X, Y or Z) with probability ``p_depol``.
Shots are evolved in fixed-size batches; results are deterministic for a fixed
(circuit, shots, seed, noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=np.complex128)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)

# Batch size for noisy trajectories; bounds peak memory at ~34 MB for 10 qubits.
_TRAJECTORY_BATCH = 2048

# Largest single state array (statevector, trajectory batch or oracle joint)
# qdo will allocate; a bigger request fails fast instead of exhausting memory.
MAX_STATE_BYTES = 2 << 30


@dataclass(frozen=True)
class NoiseSpec:
    """Per-gate, per-touched-qubit depolarizing probability plus a noise-stream seed."""

    p_depol: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p_depol) and 0.0 <= self.p_depol <= 1.0):
            raise ValueError(f"p_depol must be in [0, 1], got {self.p_depol!r}")


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probabilities (exact) or counts (sampled) over all 2^n bitstrings.

    ``values`` is dense, indexed little-endian; ``shots`` is None for the
    exact kind and the total shot count for the sampled kind.
    """

    n_qubits: int
    values: np.ndarray
    shots: int | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.shape != (1 << self.n_qubits,):
            raise ValueError(f"expected {1 << self.n_qubits} entries, got shape {v.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def kind(self) -> str:
        return "exact" if self.shots is None else "sampled"

    def probabilities(self) -> np.ndarray:
        if self.shots is None:
            return self.values
        return self.values / self.shots


def _ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _apply_1q(states: np.ndarray, qubit: int, mat: np.ndarray) -> None:
    # states: (batch, 2^n), contiguous; axis split isolates the target bit.
    m = states.reshape(states.shape[0], -1, 2, 1 << qubit)
    a0 = m[:, :, 0, :].copy()
    a1 = m[:, :, 1, :]
    m[:, :, 0, :] = mat[0, 0] * a0 + mat[0, 1] * a1
    m[:, :, 1, :] = mat[1, 0] * a0 + mat[1, 1] * a1


def _apply_cry(states: np.ndarray, control: int, control_value: int, target: int, theta: float) -> None:
    dim = states.shape[1]
    idx = np.arange(dim)
    lower = np.nonzero(
        (((idx >> control) & 1) == control_value) & (((idx >> target) & 1) == 0)
    )[0]
    upper = lower | (1 << target)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    a0 = states[:, lower].copy()
    a1 = states[:, upper]
    states[:, lower] = c * a0 - s * a1
    states[:, upper] = s * a0 + c * a1


def _apply_pauli_rows(states: np.ndarray, rows: np.ndarray, qubit: int, pauli: int) -> None:
    # pauli: 0 = X, 1 = Y, 2 = Z, applied only to the selected trajectory rows.
    sub = states[rows]
    m = sub.reshape(sub.shape[0], -1, 2, 1 << qubit)
    if pauli == 0:
        a0 = m[:, :, 0, :].copy()
        m[:, :, 0, :] = m[:, :, 1, :]
        m[:, :, 1, :] = a0
    elif pauli == 1:
        a0 = m[:, :, 0, :].copy()
        m[:, :, 0, :] = -1j * m[:, :, 1, :]
        m[:, :, 1, :] = 1j * a0
    else:
        m[:, :, 1, :] *= -1.0
    states[rows] = sub


def _touched_qubits(gate: Gate) -> tuple[int, ...]:
    if gate.kind == "cry":
        return (gate.control, gate.target)
    return (gate.target,)


def _check_circuit(circ: Circuit) -> None:
    n = circ.n_qubits
    for g in circ.gates:
        qubits = _touched_qubits(g)
        if any(q is None or not (0 <= q < n) for q in qubits):
            raise ValueError(f"qubit index out of range in gate {g!r} (circuit has {n} qubits)")
        if g.kind == "cry" and g.control == g.target:
            raise ValueError(f"control equals target in gate {g!r}")
        if g.kind in ("ry", "cry") and not math.isfinite(g.theta):
            raise ValueError(f"non-finite rotation angle in gate {g!r}")


def _apply_gate(states: np.ndarray, gate: Gate) -> None:
    if gate.kind == "h":
        _apply_1q(states, gate.target, _H)
    elif gate.kind == "x":
        _apply_1q(states, gate.target, _X)
    elif gate.kind == "ry":
        _apply_1q(states, gate.target, _ry_matrix(gate.theta))
    elif gate.kind == "cry":
        _apply_cry(states, gate.control, gate.control_value, gate.target, gate.theta)
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")


def check_state_size(n_qubits: int, rows: int = 1, itemsize: int = 16) -> None:
    """Raise ValueError if ``rows`` states of 2^n entries exceed ``MAX_STATE_BYTES``.

    Call before allocating: the request is sized arithmetically, never tried.
    """
    nbytes = (rows * itemsize) << n_qubits
    if nbytes > MAX_STATE_BYTES:
        what = f"{n_qubits}-qubit state" if rows == 1 else f"batch of {rows} {n_qubits}-qubit states"
        raise ValueError(
            f"{what} needs {nbytes} bytes, over the {MAX_STATE_BYTES}-byte per-array budget"
        )


def statevector(circ: Circuit) -> np.ndarray:
    """Final amplitudes of the circuit applied to the all-zeros state."""
    _check_circuit(circ)
    check_state_size(circ.n_qubits)
    states = np.zeros((1, 1 << circ.n_qubits), dtype=np.complex128)
    states[0, 0] = 1.0
    for gate in circ.gates:
        _apply_gate(states, gate)
    return states[0]


def run_exact(circ: Circuit) -> Distribution:
    """Exact output distribution: |amplitude|^2 per bitstring."""
    amps = statevector(circ)
    return Distribution(circ.n_qubits, np.abs(amps) ** 2)


_MASK64 = (1 << 64) - 1


def _seed_sequence(seed: int | np.random.SeedSequence, noise_seed: int | None = None) -> np.random.SeedSequence:
    # Stream derivation: sampling and noise share one generator whose entropy
    # combines the run seed with the noise seed (when a noisy run is requested).
    if isinstance(seed, np.random.SeedSequence):
        if noise_seed is None:
            return seed
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=(*seed.spawn_key, int(noise_seed) & 0xFFFFFFFF)
        )
    entropy = [int(seed) & _MASK64]
    if noise_seed is not None:
        entropy.append(int(noise_seed) & _MASK64)
    return np.random.SeedSequence(entropy)


def run_sampled(
    circ: Circuit,
    shots: int,
    seed: int | np.random.SeedSequence,
    noise: NoiseSpec | None = None,
) -> Distribution:
    """Draw ``shots`` full-register measurements with a seeded generator.

    Without noise (or with p_depol = 0) the exact distribution is computed once
    and shots are drawn i.i.d. from it. With noise, every shot evolves its own
    trajectory with stochastic Pauli injection and is then measured once.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    dim = 1 << circ.n_qubits

    if noise is None or noise.p_depol == 0.0:
        probs = run_exact(circ).values
        rng = np.random.default_rng(_seed_sequence(seed))
        counts = rng.multinomial(shots, probs / probs.sum())
        return Distribution(circ.n_qubits, counts.astype(np.int64), shots=shots)

    _check_circuit(circ)
    check_state_size(circ.n_qubits, rows=min(_TRAJECTORY_BATCH, shots))  # the largest batch
    rng = np.random.default_rng(_seed_sequence(seed, noise.seed))
    counts = np.zeros(dim, dtype=np.int64)
    done = 0
    while done < shots:
        batch = min(_TRAJECTORY_BATCH, shots - done)
        states = np.zeros((batch, dim), dtype=np.complex128)
        states[:, 0] = 1.0
        for gate in circ.gates:
            _apply_gate(states, gate)
            for q in _touched_qubits(gate):
                hit = np.nonzero(rng.random(batch) < noise.p_depol)[0]
                if hit.size == 0:
                    continue
                paulis = rng.integers(0, 3, size=hit.size)
                for p in (0, 1, 2):
                    rows = hit[paulis == p]
                    if rows.size:
                        _apply_pauli_rows(states, rows, q, p)
        probs = np.abs(states) ** 2
        probs /= probs.sum(axis=1, keepdims=True)
        u = rng.random((batch, 1))
        outcomes = np.minimum((probs.cumsum(axis=1) < u).sum(axis=1), dim - 1)
        counts += np.bincount(outcomes, minlength=dim)
        done += batch
    return Distribution(circ.n_qubits, counts, shots=shots)


def marginal(dist: Distribution, qubits) -> Distribution:
    """Sum out every qubit not in ``qubits``; preserves exact/sampled kind.

    The result is indexed little-endian over the kept qubits in ascending
    order of their original index.
    """
    kept = sorted(qubits)
    if not kept:
        raise ValueError("marginal requires a non-empty qubit subset")
    if len(kept) != len(set(kept)):
        raise ValueError(f"duplicate qubit indices in {list(qubits)!r}")
    if kept[0] < 0 or kept[-1] >= dist.n_qubits:
        raise ValueError(f"qubit index out of range in {list(qubits)!r} (n={dist.n_qubits})")

    n = dist.n_qubits
    arr = dist.values.reshape([2] * n)  # axis j holds the bit of qubit n-1-j
    drop = tuple(n - 1 - q for q in range(n) if q not in kept)
    if drop:
        arr = arr.sum(axis=drop)
    return Distribution(len(kept), arr.reshape(-1), shots=dist.shots)

"""Exact statevector execution, seeded shot sampling, and stochastic Pauli noise.

Amplitudes are little-endian: qubit 0 is the least significant bit of the
basis-state index. RY follows the convention RY(t)|0> = cos(t/2)|0> +
sin(t/2)|1>, so a rotation by t flips the target with probability sin^2(t/2).

A control-on-zero CRY is executed as the equivalent unitary of its X-wrapped
realization (rotate exactly the branch where the control bit equals 0).

Gates run on the first-touch register, not on all 2^n entries. Each qubit
takes the next position when a kept step first touches it (a CRY's control,
then its target). A qubit no gate has touched yet is still |0>, so before a
step that brings the count of touched qubits to k the state lives in the
first 2^k entries of this order, and the step runs on those 2^k entries
alone. One planner (``_plan``) walks the gates once for the exact and the
noisy loops. No output byte moves: a gate's pair partner differs only in a
touched bit, so every entry inside the register gets the float operations a
full-width pass gives it, and every entry outside is zero on both paths (up
to its sign).

A qubit no kept step touches is out of the register on both paths: it is
still in a basis state, and the read-out writes the register into the slice
of a zeroed 2^n output that the basis values select. An exact run also folds
its basis qubits (``fold=True``). A basis qubit is one no H, RY or CRY
targets: a do()'d variable (an X at 1, no gate at 0) or a ground root. It
stays in a basis state, so its value is tracked instead: an X on it flips the
value and is dropped, and a CRY it controls becomes an RY step on the target
with the same angle when the value is the CRY's control value, and is
dropped when it is not. So a do() or ground-root qubit costs no register
width. No output byte moves: the full-width state is zero outside that
slice, and inside it each entry gets the same products as before (a kept
CRY's RY applies the same ``_ry_matrix`` to the same pairs). What the fold
leaves out only copied entries (an X multiplies by 1.0 and 0.0) or added
zeros, so at most the sign of a zero entry differs, ±0 before and +0 now,
and squaring removes it. The noisy path runs every gate (``fold=False``):
noise hits each touched qubit after each gate, so folding would change the
draws and every noisy count. A qubit no gate touches draws no noise, so
leaving it out of a noisy batch changes no draw.

A gate that places its target (first touches it) puts it on the top bit of
its width, whose half has never been written and is zero, so the update is
a1 = m10*a0 then a0 *= m00: two passes and no temporary, where a general gate
takes six passes and two temporaries. A general gate whose halves exceed
``_TILE`` entries runs tile by tile, so each temporary holds at most one
tile (256 KiB), not half a state, and every entry gets the same float
operations. Leaving out the zero terms
changes no float but the sign of a zero, so the amplitudes ``statevector``
returns may differ from a full-width pass only in the sign of a zero entry,
and squaring removes it. A pair update whose halves run in contiguous pieces
of 2-4 entries (a low control or target under a high one) sweeps one offset
of the piece at a time, as long strided slices; the floats are the same.

At the end the state returns from register order to qubit order
(``_read_out``). When the register holds every qubit and the first-touch
order is already 0..n-1 (both catalog circuits) nothing moves: the register
is squared in place. Otherwise its squares (or, for ``statevector``, its
amplitudes) are written through the transpose into the slice of a zeroed
(rows, 2^n) array: one more state-sized array for an exact run, and one per
live slot for a noisy batch. With a qubit out of the register the register
is at most half a state, so an exact run peaks at 1.5 states, not 2.

The noisy path is a quantum-trajectory unraveling, not a density matrix: each
shot follows its own pure state and, after every IR gate, each touched qubit
is hit by a uniformly random Pauli (X, Y or Z) with probability ``p_depol``.
Each seed's shots run in batches of up to ``trajectory_batch(n)`` rows
(``_TRAJECTORY_BATCH``, fewer when a full batch would exceed
``MAX_STATE_BYTES``); results are deterministic for a fixed (circuit, shots,
seed, noise). Shots that share a Pauli history share one state: a batch
starts with one slot, the all-zeros state, and a hit only forks a new slot
per distinct (old slot, Pauli), so the work scales with the distinct
histories, not with the shots. The fork keeps each slot's row count, so it
finds the slots a hit emptied without a pass over every row. A fork reads
the state of every new slot before it writes any, so a slot whose shots were
all hit is refilled by whichever new slot comes first; a shot's outcome
depends on its slot's contents and its own draws, never on the slot's index.
A batch draws, per step and touched qubit, ``random(rows)`` and then
``integers`` for the hit rows, and at the end one ``u`` per row. Each trial
of a stack (``noisy_counts``) runs its own batches from its own generator,
so its counts do not depend on the other trials; the plan is made once per
stack.

The batch buffer is allocated uninitialized and only its live slots are
touched: before a step that widens the register the live slots' new entries
are zeroed, the half a placed target (or a newly placed control) relies on
being zero, and a forked slot is written over the whole width. A batch is
measured in place: its slots are squared, normalized and cumulated in the
same array, and each shot's outcome is a binary search of its slot, so peak
memory stays about one batch, and the pages it touches follow the live
slots.

A touched qubit is settled after a gate when its block (``Circuit.blocks``)
is done, or when it has none: no later gate targets it, though a CRY may
still use it as a control. A circuit without blocks (only a hand-built one)
settles nothing, which changes no count, by the argument below, and only
shares fewer slots. On a settled qubit a Z hit forks nothing and
a Y hit forks under the same key as an X hit; the draws are the same as for
any other qubit, so the generator's stream does not change. Z can be left
out: a later gate that does not target q updates pairs inside one half of q
(a CRY controlled by q too), and a later Pauli commutes with Z_q up to a
global sign, so both entries of a pair carry Z_q's sign or neither does, and
IEEE negation passes exactly through * and +. Y is X times Z_q up to phase.
So each slot equals every shot it stands for up to the sign of some entries:
it has equal squares, and the normalization, the cumsum and the binary
search see the same floats, so the counts equal those of one row per shot.

A seed must be an int in [0, 2^64) (``check_seed``), and a shot count an int
in [1, 2^63) (``check_shots``), the range of the int64 counts. A noisy run draws
noise and measurements from one generator keyed by the seed and the constant
noise key 0: entropy ``[seed, 0]``, or a trailing spawn-key entry 0 on a
SeedSequence.

Amplitudes are real (float64). H, X, RY and CRY are real matrices, and Pauli
Y = i * [[0, -1], [1, 0]], so every trajectory row is i^k times a real vector;
the engine stores that real vector and applies Y as (a0, a1) -> (-a1, a0).
The global phase i^k does not change |amplitude|^2. Each real operation is the
one a complex128 kernel would do on the nonzero part of each amplitude (a real
scalar times a complex number has no cross terms), so the probabilities are
bit-identical to those of a complex kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import Circuit
from .model import _as_float, _is_index, _show

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_H = ((_SQRT1_2, _SQRT1_2), (_SQRT1_2, -_SQRT1_2))
_X = ((0.0, 1.0), (1.0, 0.0))

# Rows per noisy batch: 2048 (16 MB at 10 qubits) for every n <= 17; wider
# states run in smaller batches so one batch stays within MAX_STATE_BYTES.
_TRAJECTORY_BATCH = 2048

# Bytes per state entry: a float64 amplitude (or an oracle probability).
_ENTRY_BYTES = 8

# Entries per half in one tile of a general pair update: each of its two
# temporaries holds at most this many (256 KiB), whatever the state's width.
_TILE = 1 << 15

# Largest single state array (statevector, trajectory batch or oracle joint)
# qdo will allocate; a bigger request fails fast instead of exhausting memory.
MAX_STATE_BYTES = 2 << 30


@dataclass(frozen=True)
class NoiseSpec:
    """Per-gate, per-touched-qubit depolarizing probability.

    As for a model's angles (``model._as_float``), ``p_depol`` is an int or a
    float in [0, 1]; a bool, a string or a numpy float32 is refused.
    """

    p_depol: float

    def __post_init__(self) -> None:
        p = _as_float(self.p_depol)
        if p is None or not (math.isfinite(p) and 0.0 <= p <= 1.0):
            raise ValueError(f"p_depol must be in [0, 1], got {_show(self.p_depol)}")


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


def _ry_matrix(theta: float) -> tuple[tuple[float, float], tuple[float, float]]:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return ((c, -s), (s, c))


# A pair update whose halves have innermost contiguous runs of 2 to
# _SHORT_RUN entries, in rows of at least _LONG_SLICE such runs, sweeps one
# run offset at a time: numpy's inner loop over a run of 2-4 entries costs
# several times as much per entry as one over a long strided slice, and below
# _LONG_SLICE the extra calls cost more than they save.
_SHORT_RUN = 4
_LONG_SLICE = 256

_ALL = slice(None)


def _pair_update(a0: np.ndarray, a1: np.ndarray, mat, fresh: bool) -> None:
    # (a0, a1) <- mat @ (a0, a1), entry by entry. With ``fresh`` a1 is all
    # zero, so m10*a0 and m00*a0 are the same floats as the full sums, but for
    # the sign of a zero.
    run = a0.shape[-1]
    if 1 < run <= _SHORT_RUN and a0.shape[-2] >= _LONG_SLICE:
        for j in range(run):
            _pair_update(a0[..., j], a1[..., j], mat, fresh)
        return
    (m00, m01), (m10, m11) = mat
    if fresh:
        np.multiply(a0, m10, out=a1)
        a0 *= m00
        return
    if a0.size > _TILE:  # slices of the first axis longer than 1, at most _TILE entries each
        axis = next(i for i, d in enumerate(a0.shape) if d > 1)
        step = max(1, _TILE // (a0.size // a0.shape[axis]))
        for start in range(0, a0.shape[axis], step):
            tile = (*(_ALL,) * axis, slice(start, start + step))
            _pair_update(a0[tile], a1[tile], mat, False)
        return
    b0 = m10 * a0
    a0 *= m00
    a0 += m01 * a1  # m00*a0 + m01*a1
    a1 *= m11
    a1 += b0  # m10*a0 + m11*a1


def _apply_1q(states: np.ndarray, qubit: int, mat, fresh: bool) -> None:
    # states: (rows, width), each row contiguous, e.g. buf[:live, :width].
    # Splitting the last axis isolates the target bit and stays a view of buf.
    m = states.reshape(states.shape[0], -1, 2, 1 << qubit)
    _pair_update(m[:, :, 0, :], m[:, :, 1, :], mat, fresh)


def _apply_cry(states: np.ndarray, control: int, control_value: int, target: int, mat, fresh: bool) -> None:
    # mat on the slice where the control bit equals control_value. Axes 2 and
    # 4 of the split hold the higher and the lower of the two bits.
    hi, lo = max(control, target), min(control, target)
    m = states.reshape(states.shape[0], -1, 2, (1 << hi) >> (lo + 1), 2, 1 << lo)
    if control == hi:
        a0, a1 = m[:, :, control_value, :, 0, :], m[:, :, control_value, :, 1, :]
    else:
        a0, a1 = m[:, :, 0, :, control_value, :], m[:, :, 1, :, control_value, :]
    _pair_update(a0, a1, mat, fresh)


def _fork(
    buf: np.ndarray, owner: np.ndarray, held: np.ndarray, live: int, hit: np.ndarray, paulis: np.ndarray, qubit: int,
) -> int:
    # Move each hit row to a slot holding its old slot's state times its Pauli
    # (0 = X, 1 = Y up to its global phase i, 2 = Z); hit rows with the same
    # key (Pauli, old slot) share one slot. held[s] counts the rows of slot s.
    # Every key's state is read before any slot is written, so a slot that
    # lost every row can take any key: the freed slots take the first keys,
    # the rest go onto the end, and buf[:live] stays dense. Returns the new
    # live count.
    old = owner[hit]
    key = paulis * live + old
    per_key = np.bincount(key, minlength=3 * live)
    keys = per_key.nonzero()[0]  # sorted, as np.unique(key) would give: X, then Y, then Z
    held[:live] -= np.bincount(old, minlength=live)
    freed = (held[:live] == 0).nonzero()[0]  # a freed slot had rows, so keys.size >= freed.size
    grown = live + keys.size - freed.size
    dest = np.concatenate((freed, np.arange(live, grown))) if freed.size else np.arange(live, grown)
    y, z = keys.searchsorted((live, 2 * live))
    slots = keys % live
    held[dest] = per_key[keys]
    per_key[keys] = dest  # now a table from key to slot
    owner[hit] = per_key[key]
    pairs = buf.reshape(len(buf), -1, 2, 1 << qubit)
    flipped = pairs[slots[:z], :, ::-1]  # X: (a0, a1) -> (a1, a0)
    if y < z:
        flipped[y:, :, 0] *= -1.0  # Y: (a0, a1) -> (-a1, a0)
    if z < keys.size:
        kept = pairs[slots[z:]]
        kept[:, :, 1] *= -1.0  # Z: (a0, a1) -> (a0, -a1)
        pairs[dest[z:]] = kept
    pairs[dest[:z]] = flipped
    return grown


def _apply_gate(states: np.ndarray, pos: tuple[int, ...], mat, control_value: int | None, fresh: bool) -> None:
    # pos: the register positions of the step's qubits (a CRY's control, then
    # its target); control_value: None for a one-qubit step; fresh: the target
    # half where its bit is 1 is all zero (see _plan).
    if control_value is None:
        _apply_1q(states, pos[0], mat, fresh)
    else:
        _apply_cry(states, pos[0], control_value, pos[1], mat, fresh)


def _plan(circ: Circuit, *, fold: bool) -> tuple[list[tuple], tuple[int, ...] | None, int, tuple]:
    # One walk over the gates (module docstring). Returns the steps, each
    # (positions, 2x2 matrix, control value or None, 2^(qubits touched
    # through it), which of its positions are settled after it, whether it
    # places its target); the transpose axes that return a (rows, 2, ..., 2)
    # view of register-order states to qubit order, or None when the two
    # orders agree; the register's qubit count k; and the index of a (2,)*n
    # view of the output that selects the register's slice (':' for a
    # register qubit, else the qubit's basis value, highest qubit first).
    # With ``fold`` the basis qubits are tracked by value: an X on one flips
    # it, and a CRY it controls becomes an RY step when the value matches and
    # is dropped when it does not.
    # A step that places its target puts it on the top bit of its width, and
    # no entry past the previous width has been written, so that half is
    # zero.
    n = circ.n_qubits
    gates = circ.gates
    value: dict[int, int] = {}
    if fold:
        rotated = {g.target for g in gates if g.kind != "x"}
        value = {q: 0 for q in range(n) if q not in rotated}
    # A qubit is settled after gate i when its block (``Circuit.blocks``)
    # stops at or before i + 1, or it has no block. A circuit without blocks
    # settles nothing, and so does an exact plan: its loop reads no flags.
    blocks = None if fold else circ.blocks
    stop = dict.fromkeys(range(n), len(gates) + 1) if blocks is None else {q: b[1] for q, b in blocks.items()}
    position: dict[int, int] = {}
    steps = []
    for i, g in enumerate(gates):
        t = g.target
        if t in value:  # an X: basis qubits are targeted by nothing else
            value[t] ^= 1
            continue
        c = g.control
        if c in value:  # a basis control: an RY on t, or nothing
            if value[c] != g.control_value:
                continue
            c = None
        mat = _H if g.kind == "h" else _X if g.kind == "x" else _ry_matrix(g.theta)
        if c is not None and c not in position:
            position[c] = len(position)
        fresh = t not in position
        if fresh:
            position[t] = len(position)
        if c is None:
            steps.append(((position[t],), mat, None, 1 << len(position), (stop[t] <= i + 1,), fresh))
        else:
            steps.append(((position[c], position[t]), mat, g.control_value, 1 << len(position),
                          (stop.get(c, 0) <= i + 1, stop[t] <= i + 1), fresh))
    index = tuple(_ALL if q in position else value.get(q, 0) for q in range(n - 1, -1, -1))
    qubits = sorted(position)
    k = len(qubits)
    if all(position[q] == i for i, q in enumerate(qubits)):
        return steps, None, k, index
    # Axis 1 + j holds the bit of qubits[k-1-j] in qubit order, of position
    # k-1-j in register order.
    return steps, (0, *(k - position[qubits[k - 1 - j]] for j in range(k))), k, index


def _read_out(states: np.ndarray, axes: tuple[int, ...] | None, index: tuple, n: int, square: bool) -> np.ndarray:
    # states: (rows, 2^k) in register order. Returns them, or their squares,
    # as (rows, 2^n) in qubit order: states itself, squared in place, when the
    # register already is the output in qubit order; else a zeroed array with
    # the register written through ``axes`` into the slice ``index`` selects.
    rows, width = states.shape
    if axes is None and width == 1 << n:
        return np.square(states, out=states) if square else states
    view = states.reshape(rows, *(2,) * (width.bit_length() - 1))
    if axes is not None:
        view = view.transpose(axes)
    out = np.zeros((rows, 1 << n))
    dest = out.reshape(rows, *(2,) * n)[(_ALL, *index)]
    if square:
        np.square(view, out=dest)
    else:
        dest[...] = view
    return out


def check_state_size(n_qubits: int, rows: int = 1) -> None:
    """Raise ValueError if ``rows`` states of 2^n entries exceed ``MAX_STATE_BYTES``.

    Call before allocating: the request is sized arithmetically, never tried.
    """
    nbytes = (rows * _ENTRY_BYTES) << n_qubits
    if nbytes > MAX_STATE_BYTES:
        what = f"{n_qubits}-qubit state" if rows == 1 else f"batch of {rows} {n_qubits}-qubit states"
        raise ValueError(
            f"{what} needs {nbytes} bytes, over the {MAX_STATE_BYTES}-byte per-array budget"
        )


def trajectory_batch(n_qubits: int) -> int:
    """Rows per noisy batch: ``_TRAJECTORY_BATCH``, or as many as fit the budget.

    Raises ValueError, before anything is allocated, when not even one row fits.
    """
    check_state_size(n_qubits)
    return min(_TRAJECTORY_BATCH, MAX_STATE_BYTES // (_ENTRY_BYTES << n_qubits))


def _final_state(circ: Circuit, square: bool) -> np.ndarray:
    # The 2^n final amplitudes, or their squares, in qubit order, as an array
    # no caller holds: the folded steps run on the register, then _read_out.
    check_state_size(circ.n_qubits)
    steps, axes, k, index = _plan(circ, fold=True)
    buf = np.zeros((1, 1 << k))
    buf[0, 0] = 1.0
    for pos, mat, control_value, width, _, fresh in steps:
        _apply_gate(buf[:, :width], pos, mat, control_value, fresh)
    return _read_out(buf, axes, index, circ.n_qubits, square)[0]


def _adopt_exact(n_qubits: int, probs: np.ndarray) -> Distribution:
    # An exact Distribution over probs itself, an array no caller holds: the
    # constructor's defensive copy would be one more state-sized pass.
    probs.setflags(write=False)
    dist = object.__new__(Distribution)
    object.__setattr__(dist, "n_qubits", n_qubits)
    object.__setattr__(dist, "values", probs)
    object.__setattr__(dist, "shots", None)
    return dist


def statevector(circ: Circuit) -> np.ndarray:
    """Final amplitudes (float64) of the circuit applied to the all-zeros state."""
    return _final_state(circ, square=False)


def run_exact(circ: Circuit) -> Distribution:
    """Exact output distribution: |amplitude|^2 per bitstring."""
    return _adopt_exact(circ.n_qubits, _final_state(circ, square=True))


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is an int (not a bool, float or numpy integer) in [0, 2^64)."""
    if type(seed) is not int or not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {_show(seed)}")


def check_shots(shots: int) -> None:
    """Raise ValueError unless ``shots`` is an int in [1, 2^63), the range of numpy's int64 counts."""
    if type(shots) is not int or not 1 <= shots < 1 << 63:
        raise ValueError(f"shots must be in [1, 2**63), got {_show(shots)}")


def check_noise(noise) -> None:
    """Raise ValueError unless ``noise`` is None or a ``NoiseSpec`` (a bare probability is refused)."""
    if noise is not None and not isinstance(noise, NoiseSpec):
        raise ValueError(f"noise must be None or a NoiseSpec, got {_show(noise)}")


def _seed_sequence(seed: int | np.random.SeedSequence, noisy: bool = False) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, 0)) if noisy else seed
    check_seed(seed)
    return np.random.SeedSequence([seed, 0] if noisy else [seed])


def draw_counts(
    dist: Distribution, shots: int, seeds: Sequence[int | np.random.SeedSequence]
) -> np.ndarray:
    """Draw ``shots`` i.i.d. full-register measurements from an exact distribution per seed.

    Returns a (len(seeds), 2^n) int64 stack whose row i is one multinomial on
    the generator seeded by ``seeds[i]``; the probabilities are normalized
    once for all rows. A sampled run computes ``run_exact`` once per circuit
    and draws every trial's row from it.
    """
    if dist.shots is not None:
        raise ValueError("shots can only be drawn from an exact distribution, got a sampled one")
    check_shots(shots)
    check_state_size(dist.n_qubits, len(seeds))
    probs = dist.values
    pvals = probs / probs.sum()
    counts = np.empty((len(seeds), probs.size), dtype=np.int64)
    for row, seed in zip(counts, seeds):
        row[:] = np.random.default_rng(_seed_sequence(seed)).multinomial(shots, pvals)
    return counts


def run_sampled(
    circ: Circuit,
    shots: int,
    seed: int | np.random.SeedSequence,
    noise: NoiseSpec | None = None,
) -> Distribution:
    """Draw ``shots`` full-register measurements with a seeded generator.

    The result is the one-seed row of a count stack. Without noise (or with
    p_depol = 0) it is ``draw_counts`` over the exact distribution, computed
    once, with shots drawn i.i.d. from it. With noise it is ``noisy_counts``:
    every shot follows its own trajectory with stochastic Pauli injection and
    is then measured once; shots with the same Pauli history share one state.
    A bad seed, shot count or noise is refused before the circuit runs.
    """
    check_shots(shots)
    check_noise(noise)
    if noise is None or not noise.p_depol > 0.0:
        seeds = (_seed_sequence(seed),)  # checks the seed before run_exact
        counts = draw_counts(run_exact(circ), shots, seeds)
    else:
        counts = noisy_counts(circ, shots, (seed,), noise)
    return Distribution(circ.n_qubits, counts[0], shots=shots)


def noisy_counts(
    circ: Circuit, shots: int, seeds: Sequence[int | np.random.SeedSequence], noise: NoiseSpec
) -> np.ndarray:
    """Noisy counts of ``shots`` trajectories per seed, as a (len(seeds), 2^n) int64 stack.

    Row i equals ``run_sampled(circ, shots, seeds[i], noise).values``: seed
    i's shots run in batches of up to ``trajectory_batch(n)`` rows, each drawn
    from that seed's generator alone. The circuit is planned once for all
    batches.
    """
    check_noise(noise)
    if noise is None or not noise.p_depol > 0.0:
        raise ValueError("noisy_counts needs p_depol > 0; draw noiseless counts with draw_counts")
    check_shots(shots)
    rngs = [np.random.default_rng(_seed_sequence(seed, noisy=True)) for seed in seeds]
    n = circ.n_qubits
    max_batch = trajectory_batch(n)
    check_state_size(n, len(rngs))
    plan = _plan(circ, fold=False)
    counts = np.zeros((len(rngs), 1 << n), dtype=np.int64)
    for row, rng in zip(counts, rngs):
        for done in range(0, shots, max_batch):
            row += _trajectory_counts(plan, min(max_batch, shots - done), noise.p_depol, rng)
    return counts


def _trajectory_counts(plan: tuple, rows: int, p_depol: float, rng: np.random.Generator) -> np.ndarray:
    # One noisy batch of ``rows`` shots drawn from ``rng``, over the steps of
    # _plan(circ, fold=False). owner[r] is the slot of row r and held[s] the
    # number of rows slot s holds. buf is uninitialized: every entry of
    # buf[:live, :filled] is zeroed or written by a fork before it is read.
    # Returns the (2^n,) counts.
    steps, axes, k, index = plan
    n = len(index)
    dim = 1 << n
    buf = np.empty((rows, 1 << k))
    buf[0, 0] = 1.0
    owner = np.zeros(rows, dtype=np.intp)
    held = np.zeros(rows, dtype=np.intp)
    held[0] = rows
    live = filled = 1
    for pos, mat, control_value, width, settled, fresh in steps:
        if width > filled:
            buf[:live, filled:width] = 0.0
            filled = width
        _apply_gate(buf[:live, :width], pos, mat, control_value, fresh)
        for q, quiet in zip(pos, settled):
            # With no row hit, ``integers`` of size 0 leaves the stream where it was.
            hit = (rng.random(rows) < p_depol).nonzero()[0]
            paulis = rng.integers(0, 3, size=hit.size)
            if quiet:
                # Z on a settled qubit changes no square, and Y is X times Z,
                # so its kept hits fork as X (0).
                hit = hit[paulis != 2]
                paulis = np.zeros_like(hit)
            if hit.size:
                live = _fork(buf[:, :width], owner, held, live, hit, paulis, q)
    cum = _read_out(buf[:live], axes, index, n, True)
    cum /= cum.sum(axis=1, keepdims=True)
    np.cumsum(cum, axis=1, out=cum)
    u = rng.random(rows)
    # A row's outcome is the number of its slot's cumulative probabilities
    # below u, capped at dim - 1 (the cumsum never decreases): a binary search
    # on flat indices, one bit per step, that gathers one entry per row.
    flat = cum.reshape(-1)
    start = owner * dim
    idx = start.copy()
    step = dim >> 1
    while step:
        idx += step * (flat[idx + (step - 1)] < u)
        step >>= 1
    return np.bincount(idx - start, minlength=dim)


def marginal(dist: Distribution, qubits) -> Distribution:
    """Sum out every qubit not in ``qubits``; preserves exact/sampled kind.

    ``qubits`` are distinct indices into the distribution's qubits
    (``model._is_index``), in any order. The result is indexed little-endian
    over the kept qubits in ascending order of their original index.
    """
    given = list(qubits)  # an iterator can be read only once
    if not given:
        raise ValueError("marginal requires a non-empty qubit subset")
    n = dist.n_qubits
    for q in given:
        if not _is_index(q, n):
            raise ValueError(f"qubit indices must be integers in [0, {n}), got {_show(q)} in {_show(given)}")
    kept = sorted(given)
    if len(kept) != len(set(kept)):
        raise ValueError(f"duplicate qubit indices in {given!r}")

    arr = dist.values.reshape([2] * n)  # axis j holds the bit of qubit n-1-j
    drop = tuple(n - 1 - q for q in range(n) if q not in kept)
    if drop:
        arr = arr.sum(axis=drop)
    return Distribution(len(kept), arr.reshape(-1), shots=dist.shots)

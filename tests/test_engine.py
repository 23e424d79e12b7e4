"""Statevector semantics, sampling determinism, noise, and marginals.

Core claims:
    - RY(t)|0> puts the target in |1> with probability sin^2(t/2)
    - amplitudes are little-endian (qubit 0 = least significant index bit)
    - every gate application preserves the norm; self-inverse pairs restore
    - sampling is reproducible for a fixed seed, and p_depol = 0 is exactly
      the noiseless path
    - 15000-shot frequencies stay within a 4-sigma guard of the exact values
    - depolarizing noise attenuates the causal effect estimate on average
    - a noisy batch forks one slot per distinct Pauli history, and once a
      qubit's block is done, a Z hit on it forks nothing and a Y hit shares
      the slot of an X hit; each slot's row count stays equal to the rows it
      owns. A hand-built circuit without blocks settles nothing and counts as
      it did when the planner settled its qubits gate by gate
    - a general gate's temporaries hold at most one tile each, not half a state
"""

import hashlib
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qdo import (
    Intervention,
    NoiseSpec,
    Prep,
    RunConfig,
    causal_effect,
    compile_model,
    marginal,
    run_exact,
    run_sampled,
    statevector,
)
from qdo.circuit import Circuit, Gate, surgered_circuit
from qdo import engine
from qdo.engine import MAX_STATE_BYTES, check_shots, check_state_size, draw_counts, trajectory_batch
from conftest import chain_model, make_random_model, unblocked_circuits


def _h(q):
    return Gate("h", q)


def _x(q):
    return Gate("x", q)


def _ry(q, theta):
    return Gate("ry", q, theta=theta)


def _cry(control, control_value, target, theta):
    return Gate("cry", target, theta=theta, control=control, control_value=control_value)


class TestExactGates:
    def test_hadamard_uniform(self):
        dist = run_exact(Circuit(1, (_h(0),)))
        assert dist.values == pytest.approx([0.5, 0.5])

    def test_ry_rotation_probability(self):
        dist = run_exact(Circuit(1, (_ry(0, 2.4),)))
        assert dist.values[1] == pytest.approx(math.sin(1.2) ** 2, abs=1e-12)
        # treatment rate for the favored group in the 3-qubit model, ~87%
        assert dist.values[1] == pytest.approx(0.8687, abs=5e-4)

    def test_cry_inactive_control_is_identity(self):
        dist = run_exact(Circuit(2, (_cry(0, 1, 1, 2.0),)))
        assert dist.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_cry_control_on_zero_fires_on_ground(self):
        dist = run_exact(Circuit(2, (_cry(0, 0, 1, 2.0),)))
        assert marginal(dist, [1]).values[1] == pytest.approx(math.sin(1.0) ** 2, abs=1e-12)

    def test_little_endian_indexing(self):
        dist = run_exact(Circuit(2, (_x(0),)))
        assert dist.values[1] == pytest.approx(1.0)
        dist = run_exact(Circuit(2, (_x(1),)))
        assert dist.values[2] == pytest.approx(1.0)

    def test_control_on_zero_equals_explicit_x_wrap(self):
        # The engine realizes control-on-zero as the X-wrapped unitary; check
        # against the literal three-gate sequence on a superposed control.
        for prep_angle in (0.7, 2.1):
            direct = statevector(Circuit(2, (_ry(0, prep_angle), _cry(0, 0, 1, 1.3))))
            wrapped = statevector(
                Circuit(2, (_ry(0, prep_angle), _x(0), _cry(0, 1, 1, 1.3), _x(0)))
            )
            assert np.max(np.abs(direct - wrapped)) < 1e-12

    def test_qubit_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            run_exact(Circuit(1, (_x(1),)))


class TestUnitarity:
    @pytest.mark.parametrize("gates", [
        (_ry(0, 1.3), _ry(0, -1.3)),
        (_x(0), _x(0)),
        (_h(0), _h(0)),
    ])
    def test_self_inverse_pairs_restore_ground(self, gates):
        state = statevector(Circuit(1, gates))
        assert abs(state[0] - 1.0) < 1e-10
        assert abs(state[1]) < 1e-10

    def test_norm_preserved_after_every_gate(self, healthcare10_entry):
        circ = compile_model(healthcare10_entry.model)
        for k in range(1, len(circ.gates) + 1):
            state = statevector(Circuit(circ.n_qubits, circ.gates[:k]))
            assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-10


class TestSampling:
    def test_reproducible_counts(self, simpson3_entry):
        circ = compile_model(simpson3_entry.model)
        a = run_sampled(circ, 15000, seed=42)
        b = run_sampled(circ, 15000, seed=42)
        assert np.array_equal(a.values, b.values)
        assert a.values.sum() == 15000 and a.shots == 15000

    def test_few_shots_reproducible(self):
        circ = Circuit(1, (_h(0),))
        a = run_sampled(circ, 4, seed=5)
        b = run_sampled(circ, 4, seed=5)
        assert np.array_equal(a.values, b.values)
        assert a.values.sum() == 4

    def test_zero_noise_matches_noiseless_path(self, simpson3_entry):
        circ = compile_model(simpson3_entry.model)
        plain = run_sampled(circ, 2000, seed=9)
        degenerate = run_sampled(circ, 2000, seed=9, noise=NoiseSpec(0.0))
        assert np.array_equal(plain.values, degenerate.values)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            run_sampled(Circuit(1, (_h(0),)), 0, seed=1)

    @pytest.mark.parametrize("shots", [0, -3, 1 << 63, 1 << 70])
    @pytest.mark.parametrize("call", [
        lambda c, n: run_sampled(c, n, 1),
        lambda c, n: run_sampled(c, n, 1, NoiseSpec(0.1)),
        lambda c, n: draw_counts(run_exact(c), n, (1, 2)),
    ], ids=["noiseless", "noisy", "draw_counts"])
    def test_shots_outside_int64_rejected(self, simpson3_entry, call, shots):
        # Counts are int64, and numpy's multinomial overflows past them.
        with pytest.raises(ValueError, match=re.escape(f"shots must be in [1, 2**63), got {shots}")):
            call(compile_model(simpson3_entry.model), shots)

    def test_largest_shot_count_accepted(self, simpson3_entry):
        # 2^63 - 1 shots pass on every path. A noiseless draw is one
        # multinomial per row. A noisy run of that many shots is accepted too
        # and evolves them one batch at a time: it costs time, not memory, so
        # it is never run here.
        check_shots((1 << 63) - 1)
        counts = draw_counts(run_exact(compile_model(simpson3_entry.model)), (1 << 63) - 1, (1, 2))
        assert counts.sum(axis=1).tolist() == [(1 << 63) - 1] * 2

    @pytest.mark.parametrize("shape", [(3,), (8,), (1, 4)])
    def test_values_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"expected 4 entries, got shape {shape}")):
            engine.Distribution(2, np.zeros(shape))

    def test_draw_from_exact_equals_run_sampled(self, simpson3_entry):
        circ = compile_model(simpson3_entry.model)
        exact = run_exact(circ)
        for seed in (9, np.random.SeedSequence(9).spawn(2)[1]):
            drawn = run_sampled(circ, 2000, seed)
            assert drawn.shots == 2000
            assert np.array_equal(draw_counts(exact, 2000, (seed,))[0], drawn.values)
        with pytest.raises(ValueError, match="exact distribution"):
            draw_counts(drawn, 10, (1,))
        with pytest.raises(ValueError, match="shots"):
            draw_counts(exact, 0, (1,))

    def test_treatment_marginal_within_three_sigma(self, simpson3_entry):
        circ = compile_model(simpson3_entry.model)
        exact_p = (math.sin(1.2) ** 2 + math.sin(0.4) ** 2) / 2  # P(T=1) by total probability
        dist = run_sampled(circ, 15000, seed=1234)
        p_hat = marginal(dist, [1]).values[1] / 15000
        sigma = math.sqrt(exact_p * (1 - exact_p) / 15000)
        assert abs(p_hat - exact_p) < 3 * sigma

    def test_all_frequencies_within_four_sigma(self, simpson3_entry):
        circ = compile_model(simpson3_entry.model)
        exact = run_exact(circ).values
        freqs = run_sampled(circ, 15000, seed=77).probabilities()
        guard = 4 * np.sqrt(exact * (1 - exact) / 15000)
        assert np.all(np.abs(freqs - exact) <= guard + 1e-12)


class TestSeedRange:
    """Every int seed entering the engine lies in [0, 2^64); none wraps onto another."""

    @pytest.mark.parametrize("call, seed", [
        (lambda c, s: run_sampled(c, 100, s), -1),
        (lambda c, s: run_sampled(c, 100, s, NoiseSpec(0.1)), 1 << 64),
        (lambda c, s: draw_counts(run_exact(c), 100, (s,)), -5),
    ], ids=["noiseless", "noisy", "draw_counts"])
    def test_seed_outside_64_bits_rejected(self, simpson3_entry, call, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**64), got {seed}")):
            call(compile_model(simpson3_entry.model), seed)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_refused_before_the_circuit_runs(self, monkeypatch, healthcare10_entry, seed):
        # A noiseless run checks the seed before its exact run, a noisy run
        # before it plans the circuit.
        circ = compile_model(healthcare10_entry.model)
        calls = []

        def spy(name):
            real = getattr(engine, name)
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for name in ("run_exact", "_plan"):
            monkeypatch.setattr(engine, name, spy(name))
        for noise in (None, NoiseSpec(0.1)):
            with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**64), got {seed}")):
                run_sampled(circ, 10, seed, noise)
        assert calls == []

    @pytest.mark.parametrize("noise", [None, NoiseSpec(0.1)], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    def test_seed_range_edges_accepted(self, simpson3_entry, seed, noise):
        circ = compile_model(simpson3_entry.model)
        assert run_sampled(circ, 100, seed, noise).values.sum() == 100
        assert draw_counts(run_exact(circ), 100, (seed,)).sum() == 100


class TestNoise:
    def test_noisy_run_reproducible(self, simpson3_entry):
        circ = compile_model(simpson3_entry.model)
        a = run_sampled(circ, 3000, seed=11, noise=NoiseSpec(0.02))
        b = run_sampled(circ, 3000, seed=11, noise=NoiseSpec(0.02))
        assert np.array_equal(a.values, b.values)

    def test_noisy_counts_refuses_zero_noise(self, simpson3_entry):
        with pytest.raises(ValueError, match=re.escape("noisy_counts needs p_depol > 0")):
            engine.noisy_counts(compile_model(simpson3_entry.model), 10, (1,), NoiseSpec(0.0))

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError, match="p_depol"):
            NoiseSpec(1.5)

    # The type rule of a model's angles: True would run at p = 1 and write
    # "noise": true, and a float32 would run but not serialize to JSON.
    @pytest.mark.parametrize("p", [True, np.float32(0.02), "0.1"], ids=["bool", "float32", "str"])
    def test_probability_must_be_an_int_or_float(self, p):
        with pytest.raises(ValueError, match=f"^p_depol must be in \\[0, 1\\], got {re.escape(repr(p))}$"):
            NoiseSpec(p)

    # A bare probability is not a NoiseSpec: it used to fail later with an
    # AttributeError on .p_depol.
    @pytest.mark.parametrize("noise", [0.02, "0.1", True], ids=["float", "str", "bool"])
    @pytest.mark.parametrize("entry", ["run_sampled", "noisy_counts"])
    def test_noise_that_is_not_a_noise_spec_is_refused(self, simpson3_entry, entry, noise):
        circ = compile_model(simpson3_entry.model)
        with pytest.raises(ValueError, match=f"^noise must be None or a NoiseSpec, got {re.escape(repr(noise))}$"):
            if entry == "run_sampled":
                run_sampled(circ, 10, 1, noise)
            else:
                engine.noisy_counts(circ, 10, (1,), noise)

    def test_noisy_counts_refuses_no_noise(self, simpson3_entry):
        with pytest.raises(ValueError, match=re.escape("noisy_counts needs p_depol > 0")):
            engine.noisy_counts(compile_model(simpson3_entry.model), 10, (1,), None)

    def test_ace_attenuates_with_noise(self, simpson3_entry):
        # |ACE| should be non-increasing in expectation as depolarization grows.
        means = []
        for p in (0.0, 0.01, 0.05):
            noise = NoiseSpec(p) if p > 0 else None
            vals = [
                abs(
                    causal_effect(
                        simpson3_entry.model, "T", "O",
                        RunConfig(backend="sampled", shots=4096, trials=1, seed=seed, noise=noise),
                    ).effect
                )
                for seed in range(10)
            ]
            means.append(np.mean(vals))
        assert means[0] >= means[1] >= means[2]


class TestMarginal:
    def test_outcome_marginal_matches_total_probability(self, simpson3_entry):
        # Independent check: P(O=1) assembled from the closed-form conditionals.
        s2 = lambda x: math.sin(x / 2) ** 2
        p_t1 = {0: s2(2.4), 1: s2(0.8)}
        p_o = {(g, t): s2(0.3 + 1.0 * g + 0.6 * t) for g in (0, 1) for t in (0, 1)}
        expected = sum(
            0.5 * (p_t1[g] if t else 1 - p_t1[g]) * p_o[(g, t)] for g in (0, 1) for t in (0, 1)
        )
        dist = run_exact(compile_model(simpson3_entry.model))
        assert marginal(dist, [2]).values[1] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.2891, abs=5e-4)

    def test_marginal_over_all_qubits_is_identity(self, simpson3_entry):
        dist = run_exact(compile_model(simpson3_entry.model))
        kept = marginal(dist, [0, 1, 2])
        assert np.allclose(kept.values, dist.values)

    def test_uniform_two_qubit_marginal(self):
        dist = run_exact(Circuit(2, (_h(0), _h(1))))
        assert marginal(dist, [0]).values == pytest.approx([0.5, 0.5])

    def test_marginal_preserves_sampled_kind(self, simpson3_entry):
        dist = run_sampled(compile_model(simpson3_entry.model), 500, seed=3)
        m = marginal(dist, [1])
        assert m.shots == 500 and m.values.sum() == 500

    def test_bit_order_of_kept_qubits(self):
        # Keep qubits {0, 2} of |101>: kept bits are (q0=1, q2=1) -> index 3.
        dist = run_exact(Circuit(3, (_x(0), _x(2))))
        m = marginal(dist, [0, 2])
        assert m.values[3] == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [[], [0, 0], [5]])
    def test_bad_subsets_rejected(self, bad, simpson3_entry):
        dist = run_exact(compile_model(simpson3_entry.model))
        with pytest.raises(ValueError):
            marginal(dist, bad)

    def test_errors_name_the_indices_of_an_iterator(self, simpson3_entry):
        dist = run_exact(compile_model(simpson3_entry.model))
        with pytest.raises(ValueError, match=re.escape("integers in [0, 3), got 5 in [0, 5]")):
            marginal(dist, (q for q in (0, 5)))
        with pytest.raises(ValueError, match=re.escape("duplicate qubit indices in [1, 1]")):
            marginal(dist, iter([1, 1]))

    @pytest.mark.parametrize(
        "bad", [True, np.True_, 1.0, np.float64(1.0), "1", None],
        ids=["bool", "numpy-bool", "float", "numpy-float", "str", "none"],
    )
    def test_non_integer_indices_rejected(self, bad, simpson3_entry):
        dist = run_exact(compile_model(simpson3_entry.model))
        with pytest.raises(ValueError, match="qubit indices must be integers"):
            marginal(dist, [0, bad])

    def test_numpy_integer_indices_accepted(self, simpson3_entry):
        dist = run_exact(compile_model(simpson3_entry.model))
        for kept in (np.array([0, 2]), [np.int32(0), np.uint8(2)], range(0, 3, 2)):
            assert np.array_equal(marginal(dist, kept).values, marginal(dist, [0, 2]).values)


class TestStateBudget:
    # 48 qubits: even without the guard, numpy refuses the allocation at once
    # instead of filling memory.
    def test_budget_is_checked_arithmetically(self):
        check_state_size(28)  # 2 GiB of float64: exactly at the budget
        with pytest.raises(ValueError, match=r"29-qubit state needs 4294967296 bytes"):
            check_state_size(29)
        with pytest.raises(ValueError, match=r"batch of 2048 18-qubit states"):
            check_state_size(18, rows=2048)
        assert MAX_STATE_BYTES == 2 << 30

    def test_run_exact_refuses_before_allocating(self):
        circ = compile_model(chain_model(48))
        with pytest.raises(ValueError, match=rf"48-qubit state needs {8 << 48} bytes"):
            run_exact(circ)

    def test_noisy_batch_refuses_before_allocating(self):
        circ = compile_model(chain_model(48))
        with pytest.raises(ValueError, match=rf"48-qubit state needs {8 << 48} bytes"):
            run_sampled(circ, 2, 0, NoiseSpec(0.1))

    def test_draw_counts_refuses_before_allocating(self, monkeypatch, simpson3_entry):
        exact = run_exact(compile_model(simpson3_entry.model))
        monkeypatch.setattr(engine, "MAX_STATE_BYTES", 4 * (8 << 3))
        assert draw_counts(exact, 10, range(4)).shape == (4, 8)
        with pytest.raises(ValueError, match=r"batch of 5 3-qubit states needs 320 bytes"):
            draw_counts(exact, 10, range(5))

    def test_noisy_batch_shrinks_to_fit_the_budget(self):
        sizes = {n: trajectory_batch(n) for n in (3, 10, 17, 18, 20, 28)}
        assert sizes == {3: 2048, 10: 2048, 17: 2048, 18: 1024, 20: 256, 28: 1}
        for n, rows in sizes.items():
            check_state_size(n, rows=rows)
        with pytest.raises(ValueError, match=rf"29-qubit state needs {8 << 29} bytes"):
            trajectory_batch(29)

    def test_small_budget_splits_a_noisy_run(self, monkeypatch, healthcare10_entry):
        circ = compile_model(healthcare10_entry.model)
        noise = NoiseSpec(0.05)
        one_batch = run_sampled(circ, 100, 4, noise)
        monkeypatch.setattr(engine, "MAX_STATE_BYTES", 100 * (8 << circ.n_qubits))
        batches = []
        trajectory_counts = engine._trajectory_counts

        def spy(circ, rows, p_depol, rng):
            batches.append(rows)
            return trajectory_counts(circ, rows, p_depol, rng)

        monkeypatch.setattr(engine, "_trajectory_counts", spy)
        dist = run_sampled(circ, 1050, 4, noise)
        assert dist.shots == 1050 and dist.values.sum() == 1050
        assert batches == [100] * 10 + [50]
        # A run that fits in one batch under either budget draws the same shots.
        batches.clear()
        assert np.array_equal(run_sampled(circ, 100, 4, noise).values, one_batch.values)
        assert batches == [100]


@pytest.fixture
def gate_shapes(monkeypatch):
    """(rows, width) of every state array the engine applies a gate to."""
    shapes = []
    apply_gate = engine._apply_gate

    def spy(states, pos, mat, control_value, fresh):
        shapes.append(states.shape)
        apply_gate(states, pos, mat, control_value, fresh)

    monkeypatch.setattr(engine, "_apply_gate", spy)
    return shapes


@pytest.fixture
def forks(monkeypatch):
    """(position, hit rows, Paulis, owners before, owners after, rows held) of every _fork call.

    After every fork each slot's held count equals the rows it owns.
    """
    calls = []
    fork = engine._fork

    def spy(buf, owner, held, live, hit, paulis, qubit):
        before = owner.copy()
        live = fork(buf, owner, held, live, hit, paulis, qubit)
        assert np.array_equal(held, np.bincount(owner, minlength=held.size))
        calls.append((qubit, hit.copy(), paulis.copy(), before, owner.copy(), held.copy()))
        return live

    monkeypatch.setattr(engine, "_fork", spy)
    return calls


class _ScriptedRng:
    """Hits every row after every gate, with the Paulis ``kinds`` repeated over the hit rows."""

    def __init__(self, kinds):
        self.kinds = np.array(kinds)

    def random(self, size):
        return np.zeros(size)

    def integers(self, low, high, size):
        return np.resize(self.kinds, size)


def _hit_positions(circ):
    """(register position, settled) of each touched qubit after each gate, in draw order.

    A qubit is settled after gate i when no later gate targets it; positions
    are taken in first-touch order (control, then target).
    """
    position, out = {}, []
    for i, g in enumerate(circ.gates):
        touched = (g.control, g.target) if g.kind == "cry" else (g.target,)
        for q in touched:
            position.setdefault(q, len(position))
        out += [(position[q], all(later.target != q for later in circ.gates[i + 1:])) for q in touched]
    return out


@pytest.fixture(params=["simpson3", "healthcare10-reversed"])
def noisy_circuit(request, simpson3_entry, healthcare10_entry):
    if request.param == "simpson3":
        return compile_model(simpson3_entry.model)
    return compile_model(_reversed_qubits(healthcare10_entry.model))


class TestSharedHistories:
    """Shots with the same Pauli history share one state slot in a noisy batch."""

    def test_unhit_shots_share_one_state(self, gate_shapes, healthcare10_entry):
        circ = compile_model(healthcare10_entry.model)
        assert run_sampled(circ, 1024, 2, NoiseSpec(1e-12)).values.sum() == 1024
        assert [rows for rows, _ in gate_shapes] == [1] * len(circ.gates)

    def test_live_slots_never_exceed_the_batch(self, monkeypatch, gate_shapes, healthcare10_entry):
        circ = compile_model(healthcare10_entry.model)
        monkeypatch.setattr(engine, "MAX_STATE_BYTES", 40 * (8 << circ.n_qubits))
        for p in (0.05, 0.4, 1.0):
            gate_shapes.clear()
            assert run_sampled(circ, 90, 2, NoiseSpec(p)).values.sum() == 90
            gate_rows = [rows for rows, _ in gate_shapes]
            assert gate_rows[0] == 1 and max(gate_rows) <= 40
        # At p = 1 every shot is hit on every touched qubit after every gate.
        # Before the last gate that makes 3^16 * 2^27 histories that get
        # slots: any Pauli forks one of the 16 unsettled hits, while on the 27
        # settled ones Z forks nothing and X and Y share a slot. So the last
        # gate of each batch of 40, 40 and 10 shots sees one slot per shot.
        last = [len(circ.gates) * i - 1 for i in (1, 2, 3)]
        assert [gate_rows[i] for i in last] == [40, 40, 10]

    # Once a qubit's block is done (no later gate targets it), a Z hit on it
    # forks nothing and a Y hit forks as X. simpson3 has a prep target with later incoming CRYs (O)
    # and a CRY target that the next CRY targets again (T); the reversed
    # healthcare10 map puts register positions out of qubit order.

    def test_z_hits_on_a_settled_qubit_fork_nothing(self, forks, noisy_circuit):
        hits = _hit_positions(noisy_circuit)
        counts = engine._trajectory_counts(engine._plan(noisy_circuit, fold=False), 6, 1.0, _ScriptedRng([2]))
        assert counts.sum() == 6
        assert [pos for pos, *_ in forks] == [pos for pos, settled in hits if not settled]
        assert 0 < len(forks) < len(hits)

    def test_x_and_y_hits_from_one_slot_share_a_slot(self, forks, noisy_circuit):
        rows = np.arange(9)
        engine._trajectory_counts(engine._plan(noisy_circuit, fold=False), rows.size, 1.0, _ScriptedRng([0, 1, 2]))
        hits = _hit_positions(noisy_circuit)
        assert [pos for pos, *_ in forks] == [pos for pos, _ in hits]
        settled = [call for call, (_, quiet) in zip(forks, hits) if quiet]
        assert settled
        for _, hit, paulis, before, after, _ in settled:
            assert np.array_equal(hit, rows[rows % 3 != 2]) and not paulis.any()
            for slot in np.unique(before[hit]):
                assert np.unique(after[hit[before[hit] == slot]]).size == 1

    def test_unsettled_positions_fork_every_pauli(self, forks, noisy_circuit):
        rows = np.arange(9)
        engine._trajectory_counts(engine._plan(noisy_circuit, fold=False), rows.size, 1.0, _ScriptedRng([0, 1, 2]))
        unsettled = [call for call, (_, quiet) in zip(forks, _hit_positions(noisy_circuit)) if not quiet]
        assert unsettled
        for _, hit, paulis, before, after, _ in unsettled:
            assert np.array_equal(hit, rows) and np.array_equal(paulis, rows % 3)
            for slot in np.unique(before):
                mine = before == slot
                assert np.unique(after[mine]).size == np.unique(paulis[mine]).size


# sha256 of noisy_counts(circ, 512, (0, 1, 2), NoiseSpec(p)).tobytes() for
# conftest's circuits without blocks, recorded while the noisy planner still
# settled a qubit after the last gate that targeted it.
UNBLOCKED_DIGESTS = {
    ("interleaved", 0.05): "4cd163bbd8ed4489dcdaee7dfd8926f1d07507e0b5279a51da668d2b716fe006",
    ("interleaved", 1.0): "862171c3252907eb7dff78886db999b013e8c8fdaa17877512ff30803f95cfbd",
    ("control-retargeted", 0.05): "0c53f977f4d1b76f48ccb65460d0ae34d42f0160e132a6e6e2a6d9a68a3d6cc3",
    ("control-retargeted", 1.0): "5290df45ab1fb4b5b6121cbcfc50f926692867a815bf546b268912e0cea27937",
}


@pytest.mark.parametrize(("name", "p"), list(UNBLOCKED_DIGESTS))
def test_circuit_without_blocks_settles_nothing_and_keeps_its_counts(name, p):
    circ = unblocked_circuits()[name]
    assert not any(any(settled) for *_, settled, _ in engine._plan(circ, fold=False)[0])
    counts = engine.noisy_counts(circ, 512, (0, 1, 2), NoiseSpec(p))
    assert hashlib.sha256(counts.tobytes()).hexdigest() == UNBLOCKED_DIGESTS[name, p]


def _reversed_qubits(model):
    n = model.n_qubits
    return replace(model, variables=tuple(replace(v, qubit=n - 1 - v.qubit) for v in model.variables))


class TestFirstTouchRegister:
    """Each gate runs on the 2^k entries of the k qubits touched through it, not on all 2^n."""

    @staticmethod
    def touched_widths(circ):
        seen, widths = set(), []
        for g in circ.gates:
            seen.update(q for q in (g.control, g.target) if q is not None)
            widths.append(1 << len(seen))
        return widths

    def test_width_follows_the_touched_qubits(self, gate_shapes, healthcare10_entry):
        circ = compile_model(healthcare10_entry.model)
        run_exact(circ)
        widths = [width for _, width in gate_shapes]
        assert widths == self.touched_widths(circ)
        assert widths[0] == 2 and widths[-1] == 1 << circ.n_qubits

    def test_reversed_qubit_map_gives_the_same_widths(self, gate_shapes, healthcare10_entry):
        model = healthcare10_entry.model
        run_exact(compile_model(model))
        forward = list(gate_shapes)
        gate_shapes.clear()
        run_exact(compile_model(_reversed_qubits(model)))
        assert gate_shapes == forward

    def test_noisy_batch_uses_the_same_widths(self, gate_shapes, healthcare10_entry):
        circ = compile_model(healthcare10_entry.model)
        assert run_sampled(circ, 1024, 2, NoiseSpec(1e-12)).values.sum() == 1024
        assert gate_shapes == [(1, width) for width in self.touched_widths(circ)]

    def test_noisy_batch_keeps_an_intervened_qubit_in_the_register(self, forks, simpson3_entry):
        # The exact path keeps do(T=1)'s qubit out of its register; a noisy
        # batch keeps it in, so T draws noise and forks as every touched
        # qubit does, at the position the unfolded plan gives it.
        circ = surgered_circuit(compile_model(simpson3_entry.model), Intervention("T", 1))
        n, t = circ.n_qubits, circ.variables.index("T")
        assert engine._plan(circ, fold=True)[3][n - 1 - t] == 1  # T's slice of the output, not a register qubit
        steps, _, k, _ = engine._plan(circ, fold=False)
        assert len(steps) == len(circ.gates) and k == n
        t_pos = next(pos[-1] for gate, (pos, *_) in zip(circ.gates, steps) if gate.target == t)
        assert run_sampled(circ, 256, 5, NoiseSpec(1.0)).values.sum() == 256
        positions = [pos for pos, *_ in forks]
        assert positions == [pos for pos, _ in _hit_positions(circ)]
        assert t_pos in positions


def _traced_peak(run, circ) -> int:
    tracemalloc.start()
    try:
        run(circ)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestExactMemory:
    """An exact run holds at most the register and its result, one state each.

    A circuit with a basis qubit runs a register of at most half a state, so
    it peaks at one and a half.

    The un-permuting square reads the register through a transposed view,
    which numpy may stage through one 64 KiB iterator buffer; 16 KiB more
    covers the plan and the other small objects of a run.
    """

    STATE = 8 << 18
    SMALL = 16 * 1024

    def test_shuffled_qubit_map_peaks_at_two_states(self):
        circ = compile_model(make_random_model(np.random.default_rng(3), n=18))
        assert engine._plan(circ, fold=True)[1] is not None
        for run in (run_exact, statevector):
            assert _traced_peak(run, circ) <= 2 * self.STATE + 64 * 1024 + self.SMALL, run.__name__

    def test_intervened_qubit_peaks_at_one_and_a_half_states(self):
        # do(v1) on an 18-qubit chain with a rotation prep on every variable
        # and a shuffled qubit map: v1 is a basis qubit at either value, so
        # the register holds the other 17 qubits, half a state, and the
        # result is written into the slice of a zeroed state that v1 selects.
        model = chain_model(18)
        qubits = np.random.default_rng(5).permutation(18)
        model = replace(model, variables=tuple(
            replace(v, qubit=int(qubits[i]), prep=Prep.rotation(0.3 + 0.1 * i)) for i, v in enumerate(model.variables)))
        for value in (1, 0):
            circ = surgered_circuit(compile_model(model), Intervention("v1", value))
            _, axes, k, _ = engine._plan(circ, fold=True)
            assert k == 17 and axes is not None
            for run in (run_exact, statevector):
                peak = _traced_peak(run, circ)
                assert peak <= self.STATE + self.STATE // 2 + 64 * 1024 + self.SMALL, (value, run.__name__)

    def test_a_general_gate_adds_at_most_one_tile_per_temporary(self):
        # The Hs place every qubit of an in-order 20-qubit circuit (8 MiB),
        # so the last gate updates the whole state. Each of its two
        # temporaries holds one tile, and numpy may stage a strided tile
        # through one 64 KiB iterator buffer per operand.
        n = 20
        state, tile = 8 << n, 8 * engine._TILE
        for last in (_ry(n - 1, 0.3), _ry(9, 0.7), _cry(17, 0, 3, 0.4), _cry(3, 1, 17, -1.1)):
            peak = _traced_peak(statevector, Circuit(n, (*(_h(q) for q in range(n)), last)))
            assert peak <= 1.1 * state and peak <= state + 2 * tile + 2 * 64 * 1024 + self.SMALL, last

    def test_identity_first_touch_order_peaks_at_one_state(self):
        # Every gate of the chain places its target, so no gate allocates a
        # temporary, and run_exact squares the register in place.
        circ = compile_model(chain_model(18))
        assert engine._plan(circ, fold=True)[1] is None
        for run in (run_exact, statevector):
            assert _traced_peak(run, circ) <= self.STATE + self.SMALL, run.__name__

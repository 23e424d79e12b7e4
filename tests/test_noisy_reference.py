"""Noisy counts against the exact depolarizing channel: a G-test per case.

``engine.noisy_counts`` samples Pauli trajectories; the benchmark's reference
recorder (``perfbench/record_refs.py``) evolves the density matrix of the same
channel exactly, without the sampler. Each case draws 20000 shots at seed 11
and compares them with that distribution by a G-test: cells expected to hold
fewer than 5 shots are pooled into one, and with df = cells - 1 the statistic
G = 2 sum O ln(O / E) is held to |z| < 6 for z = (G - df) / sqrt(2 df), its
normal approximation. The cases are simpson3's observational and do(T=1)
circuits (circuit surgery) and eight random models of 2-8 qubits, each at
p = 0.003, 0.05, 0.4 and 1.0; healthcare10's observational circuit at p =
0.05 only (its density matrix has 4^10 entries and takes seconds); and the two
circuits that break the block contract (``conftest.unblocked_circuits``, on
which nothing counts as settled) at p = 0.05 and 1.0.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from qdo import engine
from qdo.catalog import healthcare10, simpson3
from qdo.circuit import compile_model, surgered_circuit
from qdo.engine import NoiseSpec
from qdo.model import Intervention
from conftest import make_random_model, unblocked_circuits

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from record_refs import noisy_distribution  # noqa: E402  (perfbench/ is not a package)

SHOTS = 20000
SEED = 11
Z_MAX = 6.0


def _circuits() -> dict:
    base = compile_model(simpson3().model)
    out = {"simpson3": base, "simpson3-do(T=1)": surgered_circuit(base, Intervention("T", 1))}
    rng = np.random.default_rng(7)
    for n in (None,) * 6 + (7, 8):
        model = make_random_model(rng, n=n)
        out[f"{model.name}-{len(out)}"] = compile_model(model)
    out["healthcare10"] = compile_model(healthcare10().model)
    return {**out, **unblocked_circuits()}


CIRCUITS = _circuits()
# The p values of the circuits not checked at all four (module docstring).
FEWER_P = {"healthcare10": (0.05,), "interleaved": (0.05, 1.0), "control-retargeted": (0.05, 1.0)}
CASES = [(name, p) for name in CIRCUITS for p in FEWER_P.get(name, (0.003, 0.05, 0.4, 1.0))]


def g_test_z(observed: np.ndarray, expected: np.ndarray) -> float:
    """z of the G-test of ``observed`` counts against ``expected`` ones, small cells pooled."""
    small = expected < 5
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if not small.any():
        obs, exp = obs[:-1], exp[:-1]
    df = obs.size - 1
    assert df >= 1, "a G-test needs at least two cells"
    seen = obs > 0
    g = 2.0 * float(np.sum(obs[seen] * np.log(obs[seen] / exp[seen])))
    return (g - df) / math.sqrt(2 * df)


@pytest.mark.parametrize("name, p", CASES, ids=[f"{name}-{p}" for name, p in CASES])
def test_noisy_counts_match_the_exact_channel(name, p):
    circ = CIRCUITS[name]
    counts = engine.noisy_counts(circ, SHOTS, (SEED,), NoiseSpec(p))[0]
    expected = SHOTS * noisy_distribution(circ, p)
    z = g_test_z(counts, expected)
    assert abs(z) < Z_MAX, f"{name} at p={p}: G-test z = {z:.2f}"


def test_the_g_test_tells_a_wrong_distribution_apart():
    # A check that cannot fail shows nothing: the right counts pass, and the
    # same counts against the noiseless law of a noisy run do not.
    circ = CIRCUITS["simpson3"]
    counts = engine.noisy_counts(circ, SHOTS, (SEED,), NoiseSpec(0.4))[0]
    assert abs(g_test_z(counts, SHOTS * noisy_distribution(circ, 0.4))) < Z_MAX
    assert abs(g_test_z(counts, SHOTS * noisy_distribution(circ, 0.0))) > Z_MAX

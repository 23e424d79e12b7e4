"""Regenerate refs.json, the references the benchmark checks outputs against.

    python3 perfbench/record_refs.py

Run it only at a commit whose outputs are the accepted reference: it records

* ``digests``: SHA-256 of every output (stdout and written files) of the
  catalog-cli and noisy-trajectories commands at the default workload seed;
* ``exact-wide``: the observational and causal effects of every pooled
  exact-wide model at the default workload seed;
* ``bands``: the value each sampled estimate should have and its standard
  error. Noiseless values come from the enumeration oracle; noisy values come
  from an exact density-matrix simulation of the depolarizing channel, written
  here and independent of the trajectory sampler. These do not depend on the
  seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from qdo import catalog, circuit, model, oracle  # noqa: E402
from qdo.model import Intervention  # noqa: E402

import workloads  # noqa: E402

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _conjugate(rho: np.ndarray, n: int, qubits: list, u: np.ndarray) -> np.ndarray:
    """u rho u^dagger, with rho as a tensor of 2n axes and u acting on ``qubits``."""
    k = len(qubits)
    u = u.reshape((2,) * (2 * k))
    for axes, mat in (([n - 1 - q for q in qubits], u), ([2 * n - 1 - q for q in qubits], u.conj())):
        rho = np.tensordot(mat, rho, axes=(list(range(k, 2 * k)), axes))
        rho = np.moveaxis(rho, list(range(k)), axes)
    return rho


def noisy_distribution(circ, p: float) -> np.ndarray:
    """Exact outcome distribution under per-gate, per-touched-qubit depolarizing noise."""
    n = circ.n_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    rho = rho.reshape((2,) * (2 * n))
    for g in circ.gates:
        if g.kind == "cry":
            u = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)  # (control, target) out, in
            u[g.control_value, :, g.control_value, :] = _ry(g.theta)
            touched = [g.control, g.target]
            rho = _conjugate(rho, n, touched, u.reshape(4, 4))
        else:
            mat = {"h": np.array([[1, 1], [1, -1]]) / math.sqrt(2), "x": _PAULIS[0]}.get(g.kind)
            touched = [g.target]
            rho = _conjugate(rho, n, touched, _ry(g.theta) if g.kind == "ry" else mat)
        for q in touched:
            mixed = (1 - p) * rho
            for pauli in _PAULIS:
                mixed = mixed + (p / 3) * _conjugate(rho, n, [q], pauli)
            rho = mixed
    return np.real(np.diagonal(rho.reshape(1 << n, 1 << n))).copy()


def _mass_and_p1(values: np.ndarray, qmap: dict, outcome: str, cond: dict) -> tuple[float, float]:
    idx = np.arange(values.size)
    mask = np.ones(values.size, dtype=bool)
    for name, bit in cond.items():
        mask &= ((idx >> qmap[name]) & 1) == bit
    mass = float(values[mask].sum())
    hit = float(values[mask & (((idx >> qmap[outcome]) & 1) == 1)].sum())
    return mass, hit / mass


def _difference(values, qmap, t: str, o: str, shots: int, extra: dict) -> tuple[float, float]:
    """P(o=1 | t=1, extra) - P(o=1 | t=0, extra) and its per-trial variance."""
    m1, p1 = _mass_and_p1(values, qmap, o, {t: 1, **extra})
    m0, p0 = _mass_and_p1(values, qmap, o, {t: 0, **extra})
    return p1 - p0, p1 * (1 - p1) / (shots * m1) + p0 * (1 - p0) / (shots * m0)


def group_bands(dists: dict, qmap: dict, t: str, o: str, groups: list, shots: int, trials: int) -> dict:
    """Expected value and standard error of each group's trial mean."""
    obs = dists["obs"]
    out = {}
    for g in groups:
        if g[0] == "observational":
            mean, var = _difference(obs, qmap, t, o, shots, {})
        elif g[0] == "subgroup":
            mean, var = _difference(obs, qmap, t, o, shots, {g[2]: g[3]})
        elif g[0] == "stratified":
            z = g[2]
            w1, _ = _mass_and_p1(obs, qmap, o, {z: 1})
            cells = [_difference(obs, qmap, t, o, shots, {z: v}) for v in (0, 1)]
            w = (1 - w1, w1)
            mean = sum(wi * d for wi, (d, _) in zip(w, cells))
            var = sum(wi * wi * v for wi, (_, v) in zip(w, cells))
            var += (cells[1][0] - cells[0][0]) ** 2 * w1 * (1 - w1) / shots
        else:
            q1, q0 = (float(_mass_and_p1(dists[k], qmap, o, {})[1]) for k in ("do1", "do0"))
            mean, var = q1 - q0, (q1 * (1 - q1) + q0 * (1 - q0)) / shots
        out[g[1]] = [float(mean), math.sqrt(var / trials)]
    return out


def _dists(m, t: str, noise: float | None) -> dict:
    models = {"obs": m, "do1": model.apply_do(m, Intervention(t, 1)), "do0": model.apply_do(m, Intervention(t, 0))}
    if noise is None:
        return {k: oracle.enumerate_joint(v).values for k, v in models.items()}
    return {k: noisy_distribution(circuit.compile_model(v), noise) for k, v in models.items()}


def bands() -> dict:
    s3, h10 = catalog.simpson3().model, catalog.healthcare10().model
    s3_groups = [("subgroup", "Observational, G=0", "G", 0), ("subgroup", "Observational, G=1", "G", 1),
                 ("observational", "Observational, Overall"), ("causal", "Causal, Overall (do)")]
    effect_groups = [("observational", "Observational, Overall"), ("stratified", "Stratified by G", "G"),
                     ("causal", "Causal, Overall (do)")]

    def h10_groups(strata):
        return ([("observational", "Observational, Overall")]
                + [("stratified", f"Stratified by {z}", z) for z in strata]
                + [("causal", "Causal Intervention (do)")])

    s3_exact, h10_exact = _dists(s3, "T", None), _dists(h10, "Treatment", None)
    s3_noisy, h10_noisy = _dists(s3, "T", 0.02), _dists(h10, "Treatment", 0.02)
    q3, q10 = s3.qubit_map(), h10.qubit_map()
    forced = oracle.enumerate_joint(model.apply_do(s3, Intervention("G", 1))).values
    p_one = {name: _mass_and_p1(forced, q3, name, {})[1] for name in sorted(q3)}
    return {
        "s3-sampled": group_bands(s3_exact, q3, "T", "O", s3_groups, 15000, 30),
        "h10-sampled": group_bands(h10_exact, q10, "Treatment", "Outcome", h10_groups(["Age", "Region"]), 15000, 10),
        "run-effect-sampled": group_bands(s3_exact, q3, "T", "O", effect_groups, 15000, 10),
        "run-do-exact": p_one,
        "run-do-sampled": {k: [p, math.sqrt(p * (1 - p) / 15000)] for k, p in p_one.items()},
        "s3-noisy": group_bands(s3_noisy, q3, "T", "O", s3_groups, 1024, 3),
        "h10-noisy-128": group_bands(h10_noisy, q10, "Treatment", "Outcome", h10_groups(["Age"]), 128, 1),
        "h10-noisy-1024": group_bands(h10_noisy, q10, "Treatment", "Outcome", h10_groups(["Age"]), 1024, 1),
    }


def digests(cls, workdir: Path) -> dict:
    wl = cls(ROOT, workdir, workloads.DEFAULT_SEED, {})
    out = {}
    for kind, cmd in wl.commands.items():
        rc, stdout, stderr = workloads.run_cli(cmd.argv)
        if rc != 0:
            raise SystemExit(f"{kind} failed: {stderr}")
        out[kind] = {name: hashlib.sha256(data).hexdigest()
                     for name, data in wl.blobs(kind, stdout).items()}
    return out


def wide_effects(workdir: Path) -> list:
    wl = workloads.ExactWide(ROOT, workdir, workloads.DEFAULT_SEED, {})
    rows = []
    for row in wl.pool:
        rows.append({})
        for kind, case in row.items():
            res = workloads.wide_run(case)()
            rows[-1][kind] = [res["observational"], res["causal"]]
    return rows


def main() -> None:
    workdir = ROOT / ".perfbench" / "record"
    try:
        refs = {
            "default_seed": workloads.DEFAULT_SEED,
            "bands": bands(),
            "digests": {cls.name: digests(cls, workdir)
                        for cls in (workloads.CatalogCli, workloads.NoisyTrajectories)},
            "exact-wide": wide_effects(workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH_DIR / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

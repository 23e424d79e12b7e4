"""Acceptance suite: one test per release criterion, each printing a PASS line.

Criteria (reference values are the published effect sizes for the two
benchmark systems; derived values come from independent closed forms):

  1. 3-qubit exact effects:   (+0.166, +0.296, -0.061, +0.232) within 5e-3, < 1 s
  2. 3-qubit sampled:         30 trials x 15000 shots; means inside own CIs of
                              the exact values; CI half-widths <= 0.01; signs match; < 10 s
  3. sign reversal:           subgroup effects > 0, overall < 0, causal > 0 (exact, no tolerance)
  4. 10-qubit exact effects:  (+0.377, +0.497, +0.406, +0.486) within 0.02 and
                              bias column (-0.109, +0.011, -0.080, 0.000) within 0.02, < 5 s
  5. oracle equivalence:      engine vs enumeration < 1e-10, catalog + surgeries
                              + 100 random models with random surgeries, < 30 s
  6. surgery commutation:     model-level and circuit-level surgery agree to 1e-12
  7. root intervention:       do(G=g) equals conditioning on G=g to 1e-10
  8. noise signature:         1024 shots x 3 trials x 20 seed sets: causal stays
                              positive in >= 95% of seed sets; observational CI
                              covers 0 strictly more often than without noise, < 2 min
  9. determinism:             identical CLI invocations give byte-identical JSON and SVG
"""

import time

import numpy as np
import pytest

from qdo import (
    Intervention,
    NoiseSpec,
    apply_do,
    compile_model,
    enumerate_joint,
    run_exact,
    surgered_circuit,
)
from qdo.experiments import RunConfig, healthcare10_groups, run_experiment, simpson3_groups

PAPER_3Q = {
    "Observational, G=0": +0.166,
    "Observational, G=1": +0.296,
    "Observational, Overall": -0.061,
    "Causal, Overall (do)": +0.232,
}
PAPER_10Q = {
    "Observational, Overall": +0.377,
    "Stratified by Age": +0.497,
    "Stratified by Region": +0.406,
    "Causal Intervention (do)": +0.486,
}
PAPER_10Q_BIAS = {
    "Observational, Overall": -0.109,
    "Stratified by Age": +0.011,
    "Stratified by Region": -0.080,
    "Causal Intervention (do)": 0.000,
}


def _ok(message):
    print(f"PASS: {message}")


def test_criterion_1_exact_3q_effects(simpson3_entry):
    start = time.perf_counter()
    report = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), RunConfig())
    elapsed = time.perf_counter() - start
    for g in report.groups:
        assert g.effect == pytest.approx(PAPER_3Q[g.label], abs=5e-3), g.label
    assert elapsed < 1.0
    _ok(f"criterion 1: 3q exact effects match reference within 5e-3 ({elapsed:.3f}s)")


def test_criterion_2_sampled_3q(simpson3_entry):
    start = time.perf_counter()
    exact = {
        g.label: g.effect
        for g in run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), RunConfig()).groups
    }
    cfg = RunConfig(backend="sampled", shots=15000, trials=30)  # the default seed
    report = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg)
    elapsed = time.perf_counter() - start
    for g in report.groups:
        low, high = g.ci
        assert low <= exact[g.label] <= high, f"{g.label}: exact outside CI"
        assert (high - low) / 2 <= 0.01, f"{g.label}: CI too wide"
        assert np.sign(g.effect) == np.sign(PAPER_3Q[g.label]), f"{g.label}: sign flip"
    assert elapsed < 10.0
    _ok(f"criterion 2: 30x15000-shot means in own CIs, half-widths <= 0.01 ({elapsed:.2f}s)")


def test_criterion_3_sign_reversal(simpson3_entry):
    report = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), RunConfig())
    g0, g1, overall, causal = (g.effect for g in report.groups)
    assert g0 > 0
    assert g1 > 0
    assert overall < 0
    assert causal > 0
    _ok("criterion 3: subgroup effects positive, aggregate negative, causal positive")


def test_criterion_4_exact_10q_effects(healthcare10_entry):
    start = time.perf_counter()
    report = run_experiment(
        healthcare10_entry.model, "Treatment", "Outcome", healthcare10_groups(), RunConfig()
    )
    elapsed = time.perf_counter() - start
    causal = report.group("Causal Intervention (do)").effect
    for g in report.groups:
        assert g.effect == pytest.approx(PAPER_10Q[g.label], abs=0.02), g.label
        assert g.effect - causal == pytest.approx(PAPER_10Q_BIAS[g.label], abs=0.02), g.label
    assert elapsed < 5.0
    _ok(f"criterion 4: 10q exact effects and bias match reference within 0.02 ({elapsed:.2f}s)")


def test_criterion_5_oracle_engine_equivalence(simpson3_entry, healthcare10_entry, random_models):
    start = time.perf_counter()
    worst = 0.0
    checked = 0

    def check(model):
        nonlocal worst, checked
        dev = float(np.max(np.abs(run_exact(compile_model(model)).values - enumerate_joint(model).values)))
        worst = max(worst, dev)
        checked += 1
        assert dev < 1e-10

    for entry in (simpson3_entry, healthcare10_entry):
        check(entry.model)
        for value in (0, 1):
            check(apply_do(entry.model, Intervention(entry.roles.treatment, value)))
    assert len(random_models) >= 100
    for model, iv in random_models:
        check(model)
        check(apply_do(model, iv))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(
        f"criterion 5: engine/oracle max deviation {worst:.2e} over {checked} models ({elapsed:.2f}s)"
    )


def test_criterion_6_surgery_commutation(simpson3_entry, healthcare10_entry, random_models):
    worst = 0.0
    cases = [
        (entry.model, Intervention(entry.roles.treatment, value))
        for entry in (simpson3_entry, healthcare10_entry)
        for value in (0, 1)
    ]
    cases += list(random_models)
    for model, iv in cases:
        via_model = run_exact(compile_model(apply_do(model, iv))).values
        via_circuit = run_exact(surgered_circuit(compile_model(model), iv)).values
        dev = float(np.max(np.abs(via_model - via_circuit)))
        worst = max(worst, dev)
        assert dev < 1e-12
    _ok(f"criterion 6: graph surgery and circuit surgery agree to {worst:.2e} ({len(cases)} cases)")


def test_criterion_7_root_intervention_equals_conditioning(simpson3_entry):
    model = simpson3_entry.model
    qmap = model.qubit_map()
    obs = run_exact(compile_model(model)).values
    idx = np.arange(obs.size)

    def mass(values, **bits):
        mask = np.ones(values.size, dtype=bool)
        for name, b in bits.items():
            mask &= ((idx >> qmap[name]) & 1) == b
        return float(values[mask].sum())

    for g in (0, 1):
        forced = run_exact(compile_model(apply_do(model, Intervention("G", g)))).values
        p_g = mass(obs, G=g)
        for t in (0, 1):
            for o in (0, 1):
                lhs = mass(forced, T=t, O=o)
                rhs = mass(obs, G=g, T=t, O=o) / p_g
                assert abs(lhs - rhs) < 1e-10, (g, t, o)
    _ok("criterion 7: P(T,O | do(G=g)) equals P(T,O | G=g) for both g")


def test_criterion_8_noise_signature(simpson3_entry):
    start = time.perf_counter()
    seed_sets = range(20)
    results = {}
    for p in (0.0, 0.01, 0.02):
        causal_positive = 0
        obs_ci_covers_zero = 0
        for seed in seed_sets:
            cfg = RunConfig(
                backend="sampled", shots=1024, trials=3, seed=seed,
                noise=NoiseSpec(p) if p > 0 else None,
            )
            report = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg)
            if report.group("Causal, Overall (do)").effect > 0:
                causal_positive += 1
            obs = report.group("Observational, Overall")
            if obs.ci[0] <= 0.0 <= obs.ci[1]:
                obs_ci_covers_zero += 1
        results[p] = (causal_positive, obs_ci_covers_zero)
    elapsed = time.perf_counter() - start
    n = len(seed_sets)
    for p in (0.01, 0.02):
        causal_positive, covers = results[p]
        assert causal_positive / n >= 0.95, f"p={p}: causal sign unstable"
        assert covers > results[0.0][1], f"p={p}: CI-covers-zero fraction not elevated"
    assert elapsed < 120.0
    _ok(
        "criterion 8: causal effect positive in "
        f"{results[0.01][0]}/{n} and {results[0.02][0]}/{n} noisy seed sets; "
        f"observational CI covers zero in {results[0.0][1]}/{results[0.01][1]}/{results[0.02][1]} "
        f"of seed sets at p=0/0.01/0.02 ({elapsed:.1f}s)"
    )


def test_criterion_9_cli_byte_determinism(tmp_path):
    import subprocess
    import sys

    outputs = []
    for tag in ("first", "second"):
        json_path = tmp_path / f"{tag}.json"
        svg_path = tmp_path / f"{tag}.svg"
        proc = subprocess.run(
            [sys.executable, "-m", "qdo.cli", "simpson3", "--backend", "sampled",
             "--shots", "2000", "--trials", "5", "--seed", "31",
             "--json", str(json_path), "--svg", str(svg_path)],
            capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((json_path.read_bytes(), svg_path.read_bytes()))
    assert outputs[0][0] == outputs[1][0], "JSON reports differ between runs"
    assert outputs[0][1] == outputs[1][1], "SVG charts differ between runs"
    _ok("criterion 9: repeated CLI invocations are byte-identical (JSON and SVG)")

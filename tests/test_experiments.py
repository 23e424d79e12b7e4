"""Experiment orchestration: configs, trial aggregation, and serialization."""

import json

import numpy as np
import pytest

from qdo import NoiseSpec, experiments
from qdo.experiments import (
    Report,
    RunConfig,
    healthcare10_groups,
    report_csv_text,
    report_json_text,
    report_to_dict,
    run_experiment,
    simpson3_groups,
)

EXACT_3Q = {
    "Observational, G=0": 0.16686326042747077,
    "Observational, G=1": 0.2953941977440454,
    "Observational, Overall": -0.06074324222761024,
    "Causal, Overall (do)": 0.23112872908575804,
}


class TestRunConfig:
    def test_noise_requires_sampled(self):
        with pytest.raises(ValueError, match="sampled"):
            RunConfig(backend="exact", noise=NoiseSpec(0.01))

    def test_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            RunConfig(backend="qpu")

    @pytest.mark.parametrize(
        "kw",
        [
            {"trials": 0},
            {"backend": "sampled", "shots": 0},
            {"backend": "sampled", "seed": -1},
            {"backend": "sampled", "seed": 1 << 64},
        ],
    )
    def test_bad_counts(self, kw):
        with pytest.raises(ValueError):
            RunConfig(**kw)

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    def test_seed_range_edges_accepted(self, seed):
        assert RunConfig(backend="sampled", seed=seed).seed == seed


class TestExactRun:
    def test_simpson3_point_estimates(self, simpson3_entry):
        report = run_experiment(
            simpson3_entry.model, "T", "O", simpson3_groups(), RunConfig()
        )
        assert [g.label for g in report.groups] == list(EXACT_3Q)
        for g in report.groups:
            assert g.effect == pytest.approx(EXACT_3Q[g.label], abs=1e-10)
            assert g.ci is None and g.per_trial == ()

    def test_healthcare10_includes_strata(self, healthcare10_entry):
        report = run_experiment(
            healthcare10_entry.model, "Treatment", "Outcome", healthcare10_groups(), RunConfig()
        )
        by_age = report.group("Stratified by Age")
        assert by_age.strata is not None and len(by_age.strata) == 2
        assert sum(s.weight for s in by_age.strata) == pytest.approx(1.0, abs=1e-10)


class TestSampledRun:
    def test_deterministic_for_fixed_seed(self, simpson3_entry):
        cfg = RunConfig(backend="sampled", shots=2000, trials=4, seed=99)
        a = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg)
        b = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg)
        assert report_json_text(a) == report_json_text(b)

    def test_seed_changes_results(self, simpson3_entry):
        base = RunConfig(backend="sampled", shots=2000, trials=4, seed=99)
        other = RunConfig(backend="sampled", shots=2000, trials=4, seed=100)
        a = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), base)
        b = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), other)
        assert report_json_text(a) != report_json_text(b)

    def test_trial_statistics_shape(self, simpson3_entry):
        cfg = RunConfig(backend="sampled", shots=5000, trials=6, seed=11)
        report = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg)
        for g in report.groups:
            assert g.n_trials == 6 and len(g.per_trial) == 6
            assert g.shots_per_trial == 5000
            assert g.ci_low <= g.effect <= g.ci_high
            assert g.ci_high - g.effect == pytest.approx(1.96 * g.std_err, abs=1e-12)

    @pytest.mark.parametrize("noise", [None, NoiseSpec(0.0)])
    def test_noiseless_trials_share_one_exact_run_per_circuit(self, simpson3_entry, monkeypatch, noise):
        calls = []
        run_exact = experiments.run_exact
        monkeypatch.setattr(experiments, "run_exact", lambda c: calls.append(c) or run_exact(c))
        cfg = RunConfig(backend="sampled", shots=500, trials=6, seed=3, noise=noise)
        report = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg)
        assert len(calls) == 3  # observational, do=1, do=0
        assert all(len(g.per_trial) == 6 for g in report.groups)

    def test_noisy_run_deterministic(self, simpson3_entry):
        cfg = RunConfig(backend="sampled", shots=1024, trials=3, seed=4, noise=NoiseSpec(0.02))
        a = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg)
        b = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg)
        assert report_json_text(a) == report_json_text(b)

    def test_healthcare10_sampled_means_cover_exact(self, healthcare10_entry):
        from qdo.experiments import DEFAULT_SEED

        exact = {
            g.label: g.effect
            for g in run_experiment(
                healthcare10_entry.model, "Treatment", "Outcome", healthcare10_groups(), RunConfig()
            ).groups
        }
        cfg = RunConfig(backend="sampled", shots=15000, trials=10, seed=DEFAULT_SEED)
        report = run_experiment(
            healthcare10_entry.model, "Treatment", "Outcome", healthcare10_groups(), cfg
        )
        for g in report.groups:
            assert g.ci_low <= exact[g.label] <= g.ci_high, g.label

    def test_sampled_strata_are_trial_means(self, healthcare10_entry):
        cfg = RunConfig(backend="sampled", shots=4000, trials=5, seed=8)
        report = run_experiment(
            healthcare10_entry.model, "Treatment", "Outcome", healthcare10_groups(("Age",)), cfg
        )
        strata = report.group("Stratified by Age").strata
        assert [s.value for s in strata] == [0, 1]
        assert sum(s.weight for s in strata) == pytest.approx(1.0, abs=1e-10)
        # Means must lie inside the per-trial spread, not equal any single trial.
        assert all(abs(s.effect) < 1.0 for s in strata)


class TestSerialization:
    def test_json_schema_exact(self, simpson3_entry):
        report = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), RunConfig())
        data = report_to_dict(report)
        assert data["model"] == "simpson3" and data["backend"] == "exact"
        assert "shots" not in data and "trials" not in data
        for g in data["groups"]:
            assert set(g) <= {"label", "effect", "ci", "per_trial", "strata"}
            assert "ci" not in g

    def test_json_schema_sampled(self, simpson3_entry):
        cfg = RunConfig(backend="sampled", shots=1500, trials=3, seed=2, noise=NoiseSpec(0.01))
        report = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg)
        data = report_to_dict(report)
        assert (data["shots"], data["trials"], data["seed"], data["noise"]) == (1500, 3, 2, 0.01)
        for g in data["groups"]:
            assert len(g["ci"]) == 2 and len(g["per_trial"]) == 3
        json.loads(report_json_text(report))  # well-formed

    def test_csv_columns(self, simpson3_entry):
        cfg = RunConfig(backend="sampled", shots=1500, trials=3, seed=2)
        report = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg)
        lines = report_csv_text(report).splitlines()
        assert lines[0] == "label,effect,ci_low,ci_high,n_trials"
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.count(",") >= 4 and line.endswith(",3")

    def test_csv_exact_leaves_ci_empty(self, simpson3_entry):
        report = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), RunConfig())
        for line in report_csv_text(report).splitlines()[1:]:
            assert line.endswith(",,,")

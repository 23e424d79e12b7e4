"""Experiment orchestration: configs, trial aggregation, and serialization."""

import csv
import io
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import chain_model, make_random_model

from qdo import CausalModel, Edge, NoiseSpec, Prep, Variable, cli, engine, experiments
from qdo import model as model_module
from qdo.analysis import (
    EffectReport,
    Query,
    StratumEffect,
    UndefinedConditionalError,
    adjusted_effect,
    aggregate_trials,
    cond_prob,
)
from qdo.circuit import compile_model, surgered_circuit
from qdo.engine import run_exact, run_sampled
from qdo.experiments import (
    DO0,
    DO1,
    OBS,
    Group,
    Report,
    RunConfig,
    causal_group,
    healthcare10_groups,
    observational_group,
    report_csv_text,
    report_json_text,
    report_to_dict,
    run_experiment,
    simpson3_groups,
    stratified_group,
    subgroup,
    trial_streams,
)
from qdo.model import Intervention, ModelError, apply_do, save_model

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

    # A knob is an int, never a bool, float or numpy integer (the type rule of
    # model.is_bit): 1.5 shots would draw one, and np.int64 shots would run
    # but not serialize to JSON.
    @pytest.mark.parametrize(
        "kw",
        [
            {"trials": 0},
            {"backend": "sampled", "shots": 0},
            {"backend": "sampled", "shots": 1 << 63},
            {"backend": "sampled", "seed": -1},
            {"backend": "sampled", "seed": 1 << 64},
            {"backend": "sampled", "shots": 1.5},
            {"backend": "sampled", "shots": np.int64(100)},
            {"backend": "sampled", "trials": 2.5},
            {"backend": "sampled", "trials": True},
            {"backend": "sampled", "seed": 1.5},
            {"backend": "sampled", "seed": True},
            {"backend": "sampled", "noise": 0.02},
            {"backend": "sampled", "noise": "0.1"},
            {"backend": "sampled", "noise": True},
            # An exact run draws no shots, but its knobs obey the same rules.
            {"shots": 0},
            {"shots": np.int64(100)},
            {"seed": -5},
            {"seed": True},
        ],
    )
    def test_bad_counts(self, kw):
        (knob, value), = (item for item in kw.items() if item[0] != "backend")
        with pytest.raises(ValueError, match=f"^{knob} must be .*, got {re.escape(repr(value))}$"):
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

    def test_unknown_group_label_raises_key_error(self, simpson3_entry):
        report = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), RunConfig())
        with pytest.raises(KeyError, match="no group labeled 'Causal'"):
            report.group("Causal")

    def test_healthcare10_includes_strata(self, healthcare10_entry):
        report = run_experiment(
            healthcare10_entry.model, "Treatment", "Outcome", healthcare10_groups(), RunConfig()
        )
        by_age = report.group("Stratified by Age")
        assert by_age.strata is not None and len(by_age.strata) == 2
        assert sum(s.weight for s in by_age.strata) == pytest.approx(1.0, abs=1e-10)


class TestTrialStreams:
    """Trial i's stream k is the spawn tree's (i, k) leaf, as README's Determinism says."""

    @pytest.mark.parametrize("trials", [1, 30])
    @pytest.mark.parametrize("seed", [0, 1729, (1 << 64) - 1])
    def test_equal_to_the_spawn_tree(self, seed, trials):
        tree = [child.spawn(3) for child in np.random.SeedSequence(seed).spawn(trials)]
        for k in (OBS, DO1, DO0):
            for i, got in enumerate(trial_streams(seed, 0, trials, k)):
                want = tree[i][k]
                assert got.entropy == want.entropy and got.spawn_key == want.spawn_key == (i, k)
                assert np.array_equal(got.generate_state(8), want.generate_state(8))
            # A later range starts at its own first trial: no tree is built.
            part = trial_streams(seed, trials // 2, trials, k)
            assert [ss.spawn_key for ss in part] == [tree[i][k].spawn_key for i in range(trials // 2, trials)]
            assert all(np.array_equal(a.generate_state(8), tree[trials // 2 + j][k].generate_state(8))
                       for j, a in enumerate(part))

    @pytest.mark.parametrize("noise", [None, NoiseSpec(0.05)], ids=["noiseless", "noisy"])
    def test_a_run_builds_each_chunks_streams_alone(self, simpson3_entry, monkeypatch, noise):
        # 128 bytes hold 2 count rows of 3 qubits, so 7 trials run as 4
        # chunks; every streams call covers one chunk, and the report bytes
        # equal those of the run in one chunk.
        cfg = RunConfig(backend="sampled", shots=200, trials=7, seed=13, noise=noise)
        one_chunk = report_json_text(run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg))
        calls = []

        def spy(seed, start, stop, stream):
            calls.append((start, stop, stream))
            return trial_streams(seed, start, stop, stream)

        monkeypatch.setattr(experiments, "trial_streams", spy)
        monkeypatch.setattr(experiments, "_CHUNK_BYTES", 128)
        chunked = report_json_text(run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg))
        assert chunked == one_chunk
        assert calls == [(start, min(start + 2, 7), k) for start in range(0, 7, 2) for k in (OBS, DO1, DO0)]


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
        assert report.config.shots == 5000
        for g in report.groups:
            assert len(g.per_trial) == 6
            low, high = g.ci
            assert low <= g.effect <= high
            std_err = float(np.std(g.per_trial, ddof=1)) / math.sqrt(6)
            assert high - g.effect == pytest.approx(1.96 * std_err, abs=1e-12)

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
        exact = {
            g.label: g.effect
            for g in run_experiment(
                healthcare10_entry.model, "Treatment", "Outcome", healthcare10_groups(), RunConfig()
            ).groups
        }
        cfg = RunConfig(backend="sampled", shots=15000, trials=10)  # the default seed
        report = run_experiment(
            healthcare10_entry.model, "Treatment", "Outcome", healthcare10_groups(), cfg
        )
        for g in report.groups:
            assert g.ci[0] <= exact[g.label] <= g.ci[1], g.label

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
        assert "shots" not in data and "trials" not in data and "interventions" not in data
        for g in data["groups"]:
            assert set(g) <= {"label", "effect", "ci", "per_trial", "strata"}
            assert "ci" not in g

    def test_report_keeps_the_runs_do_and_lists_it_after_the_header(self, healthcare10_entry):
        do = [Intervention("Age", 1), Intervention("Region", 0)]
        cfg = RunConfig(backend="sampled", shots=200, trials=2, seed=4)
        report = run_experiment(healthcare10_entry.model, "Treatment", "Outcome", [causal_group()], cfg, do)
        assert report.do == tuple(do)
        data = report_to_dict(report)
        assert list(data) == ["model", "backend", "shots", "trials", "seed", "interventions", "groups"]
        assert data["interventions"] == [{"variable": "Age", "value": 1}, {"variable": "Region", "value": 0}]
        bare = run_experiment(healthcare10_entry.model, "Treatment", "Outcome", [causal_group()], cfg)
        assert bare.do == () and "interventions" not in report_to_dict(bare)

    def test_json_schema_sampled(self, simpson3_entry):
        cfg = RunConfig(backend="sampled", shots=1500, trials=3, seed=2, noise=NoiseSpec(0.01))
        report = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg)
        data = report_to_dict(report)
        assert (data["shots"], data["trials"], data["seed"], data["noise"]) == (1500, 3, 2, 0.01)
        for g in data["groups"]:
            assert len(g["ci"]) == 2 and len(g["per_trial"]) == 3
        json.loads(report_json_text(report))  # well-formed

    @pytest.mark.parametrize("cfg", [RunConfig(), RunConfig("sampled", trials=3)], ids=["exact", "sampled"])
    def test_saved_rows_read_back_as_built(self, simpson3_entry, healthcare10_entry, cfg):
        # ``qdo chart`` builds each saved row through EffectReport, the rows' one judge.
        # healthcare10's (Treatment=0, Region=1) cell has mass 0.0012, so its
        # sampled report takes the default 15000 shots, not a few hundred.
        for entry, groups in ((simpson3_entry, simpson3_groups()), (healthcare10_entry, healthcare10_groups())):
            report = run_experiment(entry.model, entry.roles.treatment, entry.roles.outcome, groups, cfg)
            saved = json.loads(json.dumps(report_to_dict(report)))["groups"]
            back = [EffectReport(g["label"], g["effect"], ci=g.get("ci")) for g in saved]
            assert [(g.label, g.effect, g.ci) for g in back] == [(g.label, g.effect, g.ci) for g in report.groups]
            assert all((g.ci is not None) == (cfg.backend == "sampled") for g in back)

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

    @pytest.mark.parametrize("cfg, n_trials", [
        (RunConfig(backend="sampled", shots=500, trials=1, seed=2), "1"),
        (RunConfig(backend="sampled", shots=500, trials=2, seed=2, noise=NoiseSpec(0.01)), "2"),
        (RunConfig(), ""),
    ], ids=["one-trial", "noisy", "exact"])
    def test_csv_n_trials_column(self, simpson3_entry, cfg, n_trials):
        # The column counts a sampled row's trials, a lone trial (no CI) too;
        # an exact row has none.
        report = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg)
        rows = list(csv.DictReader(io.StringIO(report_csv_text(report))))
        assert len(rows) == 4
        assert [row["n_trials"] for row in rows] == [n_trials] * 4


# --- the stacked estimator against a per-trial reference loop -----------------


def _reference_mean_strata(trials):
    sums = {}
    for strata in trials:
        for st in strata:
            acc = sums.setdefault(st.value, [0.0, 0.0, 0.0])
            acc[0] += st.weight
            acc[1] += st.effect
            acc[2] += 1.0
    return tuple(StratumEffect(v, w / k, e / k) for v, (w, e, k) in sorted(sums.items()))


def reference_run(model, treatment, outcome, groups, cfg):
    """One Distribution per trial and circuit, estimated one trial at a time.

    Trial streams come from the spawn tree the seed contract names, and each
    trial is estimated by the 1-D ``cond_prob`` and ``adjusted_effect``; the
    first error in (trial, group, cell) order propagates. Returns
    (label, effect, per_trial, ci, strata) per group.
    """
    circuits = {OBS: compile_model(model)}
    for k, value in ((DO1, 1), (DO0, 0)):
        circuits[k] = surgered_circuit(circuits[OBS], Intervention(treatment, value))
    qubits = model.qubit_map()
    sampled = cfg.backend == "sampled"
    trial_streams = (
        [ss.spawn(3) for ss in np.random.SeedSequence(cfg.seed).spawn(cfg.trials)] if sampled else [None]
    )
    results = [[] for _ in groups]
    for streams in trial_streams:
        if not sampled:
            dists = {k: run_exact(c) for k, c in circuits.items()}
        else:
            dists = {k: run_sampled(c, cfg.shots, streams[k], cfg.noise) for k, c in circuits.items()}
        for i, g in enumerate(groups):
            if g.do:
                out1 = Query((outcome, 1))
                effect = cond_prob(dists[DO1], qubits, out1) - cond_prob(dists[DO0], qubits, out1)
                results[i].append((effect, None))
            else:
                effect, strata = adjusted_effect(dists[OBS], qubits, treatment, outcome, g.adjust, g.given)
                results[i].append((effect, strata if g.adjust else None))
    out = []
    for g, res in zip(groups, results):
        strata = [st for _, st in res if st is not None]
        if not sampled:
            out.append((g.label, res[0][0], (), None, strata[0] if strata else None))
            continue
        row = aggregate_trials(g.label, tuple(e for e, _ in res))
        out.append((g.label, row.effect, row.per_trial, row.ci, _reference_mean_strata(strata) if strata else None))
    return out


def _outcome(run, *args):
    try:
        report = run(*args)
    except UndefinedConditionalError as exc:
        return ("error", str(exc))
    if isinstance(report, Report):
        return [(g.label, g.effect, g.per_trial, g.ci, g.strata) for g in report.groups]
    return report


def _random_case(seed):
    rng = np.random.default_rng(seed)
    model = make_random_model(rng, n=int(rng.integers(3, 7)))
    treatment, outcome, stratifier = (v.name for v in rng.permutation(model.variables)[:3])
    groups = [
        observational_group(),
        subgroup(stratifier, 0),
        subgroup(stratifier, 1),
        stratified_group(stratifier),
        causal_group(),
    ]
    return model, treatment, outcome, groups


_CONFIGS = {
    "exact": RunConfig(),
    "sampled": RunConfig(backend="sampled", shots=300, trials=12, seed=21),
    "noisy": RunConfig(backend="sampled", shots=300, trials=4, seed=22, noise=NoiseSpec(0.02)),
}


@pytest.fixture(params=[None, 0, 128, 384], ids=["one-chunk", "1-row", "128-byte", "384-byte"])
def chunking(request, monkeypatch):
    """Trials estimated in one chunk, one per chunk, or in chunks of a few rows.

    A 3-qubit count row is 64 bytes, so 128 bytes is 2 rows of it and 384
    bytes 6 rows of 3 qubits, 3 of 4 and 1 of 5 or more.
    """
    if request.param is not None:
        monkeypatch.setattr(experiments, "_CHUNK_BYTES", request.param)


@pytest.mark.usefixtures("chunking")
class TestStackedTrials:
    """Every number of a run is bit-identical to the per-trial reference loop."""

    @pytest.mark.parametrize("config", list(_CONFIGS))
    def test_catalog_models(self, simpson3_entry, healthcare10_entry, config):
        cases = [
            (simpson3_entry.model, "T", "O", simpson3_groups()),
            (healthcare10_entry.model, "Treatment", "Outcome", healthcare10_groups()),
        ]
        cfg = _CONFIGS[config]
        if config == "sampled":
            cfg = replace(cfg, shots=4000)  # every healthcare10 (Treatment, Region) cell gets shots
        for case in cases:
            want = _outcome(reference_run, *case, cfg)
            assert want[0] != "error"
            assert _outcome(run_experiment, *case, cfg) == want

    @pytest.mark.parametrize("config", list(_CONFIGS))
    @pytest.mark.parametrize("seed", range(12))
    def test_random_models(self, config, seed):
        case = _random_case(seed)
        want = _outcome(reference_run, *case, _CONFIGS[config])
        assert _outcome(run_experiment, *case, _CONFIGS[config]) == want


# T=1 in about 6% of shots: with 30 shots per trial, seed 18 leaves trials 0
# and 1 whole, empties the (T=1, Z=1) arm in trial 2, the (T=1, Z=0) arm in
# trial 3 and every T=1 shot in trials 4 and 5. The first failing trial wins
# over group order (Observational fails only from trial 4) and cell order.
RARE = CausalModel(
    "rare",
    (Variable("Z", 0, Prep.rotation(1.6)), Variable("T", 1, Prep.rotation(0.5)),
     Variable("O", 2, Prep.rotation(0.8))),
    (Edge("Z", "O", 1, 0.9), Edge("T", "O", 1, 0.7)),
)
RARE_GROUPS = [observational_group(), stratified_group("Z"), causal_group()]
RARE_ERROR = "undefined stratum cell (Z=1): undefined conditional: condition [T=1, Z=1] has zero mass"


@pytest.mark.usefixtures("chunking")
class TestFirstFailingTrial:
    def test_error_of_the_first_failing_trial(self):
        cfg = RunConfig(backend="sampled", shots=30, trials=6, seed=18)
        assert _outcome(reference_run, RARE, "T", "O", RARE_GROUPS, cfg) == ("error", RARE_ERROR)
        with pytest.raises(UndefinedConditionalError) as excinfo:
            run_experiment(RARE, "T", "O", RARE_GROUPS, cfg)
        assert str(excinfo.value) == RARE_ERROR
        assert excinfo.value.trial == 2

    def test_earlier_trials_alone_succeed(self):
        cfg = RunConfig(backend="sampled", shots=30, trials=2, seed=18)
        report = run_experiment(RARE, "T", "O", RARE_GROUPS, cfg)
        assert all(len(g.per_trial) == 2 for g in report.groups)

    def test_cli_exits_3(self, tmp_path, capsys):
        path = tmp_path / "rare.json"
        save_model(RARE, path)
        argv = ["run", str(path), "--treatment", "T", "--outcome", "O", "--stratify", "Z", "--effect",
                "--backend", "sampled", "--shots", "30", "--trials", "6", "--seed", "18"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == f"qdo: error: {RARE_ERROR}\n"


def t_coverage(k: int, z: float = 1.96, steps: int = 2000) -> float:
    """P(|t| <= z) for Student's t with k - 1 degrees of freedom (Simpson's rule)."""
    nu = k - 1
    c = math.exp(math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2)) / math.sqrt(nu * math.pi)
    h = 2 * z / steps
    f = [c * (1 + t * t / nu) ** (-(nu + 1) / 2) for t in (-z + i * h for i in range(steps + 1))]
    return h / 3 * (f[0] + f[-1] + 4 * sum(f[1:-1:2]) + 2 * sum(f[2:-1:2]))


class TestCoverage:
    """The "95% CI" is mean +/- 1.96 standard errors over K trials.

    Its coverage is P(|t_{K-1}| <= 1.96), not 0.95: 0.9184 at K = 10 and
    0.9403 at K = 30. Over fixed seeds, the share of simpson3 intervals that
    cover the exact effect must lie within 4 binomial SDs of it, per group.
    """

    SEEDS = 200

    def test_expected_coverage(self):
        assert t_coverage(10) == pytest.approx(0.9184, abs=5e-5)
        assert t_coverage(30) == pytest.approx(0.9403, abs=5e-5)

    @pytest.mark.parametrize("trials", [10, 30])
    def test_share_of_covering_intervals(self, simpson3_entry, trials):
        model, groups = simpson3_entry.model, simpson3_groups()
        exact = {g.label: g.effect for g in run_experiment(model, "T", "O", groups, RunConfig()).groups}
        covered = dict.fromkeys(exact, 0)
        for seed in range(self.SEEDS):
            cfg = RunConfig(backend="sampled", shots=2000, trials=trials, seed=seed)
            for g in run_experiment(model, "T", "O", groups, cfg).groups:
                covered[g.label] += g.ci[0] <= exact[g.label] <= g.ci[1]
        p = t_coverage(trials)
        band = 4 * math.sqrt(p * (1 - p) / self.SEEDS)
        for label, hits in covered.items():
            assert abs(hits / self.SEEDS - p) <= band, (label, hits / self.SEEDS, p)


# Z=1 in about 10% of shots: with 20 shots per trial, seed 15 leaves trial 0
# without a Z=1 shot and gives the other three both arms of both strata.
SPARSE = CausalModel(
    "sparse",
    (Variable("Z", 0, Prep.rotation(0.64)), Variable("T", 1, Prep.rotation(1.6)),
     Variable("O", 2, Prep.rotation(0.8))),
    (Edge("Z", "O", 1, 0.9), Edge("T", "O", 1, 0.7), Edge("Z", "T", 1, 0.3)),
)


@pytest.mark.usefixtures("chunking")
def test_stratum_a_trial_lacks_is_skipped_not_zero():
    cfg = RunConfig(backend="sampled", shots=20, trials=4, seed=15)
    groups = [stratified_group("Z")]
    want = _outcome(reference_run, SPARSE, "T", "O", groups, cfg)
    assert _outcome(run_experiment, SPARSE, "T", "O", groups, cfg) == want
    z0, z1 = want[0][4]
    # Z=0 averages four trials and Z=1 three, so the mean weights do not add to 1.
    assert z0.weight + z1.weight != pytest.approx(1.0)


class TestTrialChunks:
    def test_peak_memory_does_not_grow_with_trials(self):
        # A 16-qubit count row is 512 KiB: a (40, 2^16) stack per circuit
        # would add 3 x 20 MiB over the run with 8 trials.
        model = chain_model(16)
        groups = [observational_group(), subgroup("v2", 0), causal_group()]
        peaks = []
        for trials in (8, 40):
            cfg = RunConfig(backend="sampled", shots=200, trials=trials, seed=3)
            tracemalloc.start()
            try:
                run_experiment(model, "v0", "v1", groups, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 256 * 1024

    def test_noiseless_sampled_peak_does_not_grow_with_trials(self, healthcare10_entry):
        # A 10-qubit count row is 8 KiB, so a chunk is 128 trials and one 1 MiB
        # stack per circuit; 1280 trials run as ten chunks, where one stack
        # for all of them would hold 10 MiB per circuit. A one-trial run first
        # makes the allocations that happen once per process.
        model = healthcare10_entry.model
        groups = healthcare10_groups(("Age",))
        run_experiment(model, "Treatment", "Outcome", groups, RunConfig(backend="sampled", trials=1, seed=3))
        peaks = {}
        for trials in (128, 1280):
            cfg = RunConfig(backend="sampled", shots=15000, trials=trials, seed=3)
            tracemalloc.start()
            try:
                run_experiment(model, "Treatment", "Outcome", groups, cfg)
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1280] <= 1.1 * peaks[128]

    def test_a_chunk_holds_at_least_one_row(self, simpson3_entry, monkeypatch):
        monkeypatch.setattr(experiments, "_CHUNK_BYTES", 1)
        cfg = RunConfig(backend="sampled", shots=500, trials=3, seed=5)
        report = run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg)
        assert all(len(g.per_trial) == 3 for g in report.groups)


class TestNoisyBatches:
    """Each trial of a noisy run runs its own trajectory batches, none over ``trajectory_batch(n)`` rows."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """The rows of every trajectory batch; each gets one generator and at most the bound."""
        sizes = []
        trajectory_counts = engine._trajectory_counts

        def spy(plan, rows, p_depol, rng):
            assert isinstance(rng, np.random.Generator)
            assert rows <= engine.trajectory_batch(len(plan[3]))
            sizes.append(rows)
            return trajectory_counts(plan, rows, p_depol, rng)

        monkeypatch.setattr(engine, "_trajectory_counts", spy)
        return sizes

    @pytest.mark.parametrize("shots, trials, rows, per_circuit", [
        (1024, 8, None, [1024] * 8),
        (2500, 3, None, [2048, 452] * 3),
        (700, 4, None, [700] * 4),
        (250, 5, 100, [100, 100, 50] * 5),
        (90, 3, 100, [90] * 3),
    ], ids=["1024x8", "2500x3", "700x4", "250x5-small-budget", "90x3-small-budget"])
    def test_each_trial_runs_its_own_batches(self, batches, monkeypatch, simpson3_entry, shots, trials, rows,
                                             per_circuit):
        # No two trials share a batch: each trial's full batches, then its
        # tail, in trial order.
        if rows is not None:
            monkeypatch.setattr(engine, "MAX_STATE_BYTES", rows * (8 << simpson3_entry.model.n_qubits))
        cfg = RunConfig(backend="sampled", shots=shots, trials=trials, seed=4, noise=NoiseSpec(0.1))
        run_experiment(simpson3_entry.model, "T", "O", simpson3_groups(), cfg)
        assert batches == per_circuit * 3

    def test_trials_peak_like_one_trial(self, healthcare10_entry):
        # Three 1024-shot trials run one batch at a time, so they peak like
        # one trial; the live slots, and with them the gate temporaries,
        # differ from trial to trial. A first run makes the allocations that
        # happen once per process.
        model = healthcare10_entry.model
        groups = healthcare10_groups(("Age",))
        runs = {t: RunConfig(backend="sampled", shots=1024, trials=t, seed=3, noise=NoiseSpec(0.02)) for t in (3, 1)}
        run_experiment(model, "Treatment", "Outcome", groups, runs[1])
        peaks = {}
        for trials, cfg in runs.items():
            tracemalloc.start()
            try:
                run_experiment(model, "Treatment", "Outcome", groups, cfg)
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3] <= 1.05 * peaks[1]


class TestRoles:
    """Roles that make an effect meaningless are refused before anything is compiled."""

    @pytest.mark.parametrize("outcome, groups, message", [
        ("T", [observational_group(), causal_group()], "outcome 'T' is also the treatment"),
        ("O", [stratified_group("T")], "group 'Stratified by T' stratifies on the treatment 'T'"),
        ("O", [causal_group(), stratified_group("O")], "group 'Stratified by O' stratifies on the outcome 'O'"),
        ("O", [subgroup("T", 1)], "group 'Observational, T=1' stratifies on the treatment 'T'"),
        ("O", [subgroup("O", 0)], "group 'Observational, O=0' stratifies on the outcome 'O'"),
        # A report with no row has no table: format_report_table would fail on it.
        ("O", [], "a run needs at least one group"),
        # Two rows with one label: Report.group would find the first only.
        ("O", [stratified_group("G"), stratified_group("G")], "two groups are labeled 'Stratified by G'"),
        ("O", [causal_group(), causal_group()], "two groups are labeled 'Causal, Overall (do)'"),
        # A do row is the overall effect: it would ignore its cell or adjustment set.
        ("O", [Group("y", given=(("G", 1),), do=True)],
         "do group 'y' sets adjust or given: a do row is the overall effect"),
        ("O", [Group("y", adjust=("G",), do=True)], "do group 'y' sets adjust or given: a do row is the overall effect"),
        ("O", [subgroup("G", 2)], "group 'Observational, G=2': variable 'G': value must be 0 or 1, got 2"),
        ("O", [subgroup("G", True)], "group 'Observational, G=True': variable 'G': value must be 0 or 1, got True"),
        ("Nope", [observational_group()], "unknown variable 'Nope' in model 'simpson3'"),
        ("O", [stratified_group("Nope")], "unknown variable 'Nope' in model 'simpson3'"),
        ("O", [subgroup("Nope", 1)], "unknown variable 'Nope' in model 'simpson3'"),
    ], ids=["outcome-is-treatment", "adjust-treatment", "adjust-outcome", "given-treatment", "given-outcome",
            "no-groups", "same-label", "same-do-label", "do-given", "do-adjust", "given-2", "given-bool",
            "unknown-outcome", "unknown-adjust", "unknown-given"])
    @pytest.mark.parametrize("backend", ["exact", "sampled"])
    def test_refused_before_compiling(self, simpson3_entry, monkeypatch, outcome, groups, message, backend):
        compiled = []
        monkeypatch.setattr(experiments, "compile_model", compiled.append)
        with pytest.raises(ValueError) as info:
            run_experiment(simpson3_entry.model, "T", outcome, groups, RunConfig(backend=backend, trials=3))
        assert str(info.value) == message and compiled == []


class TestCircuitSurgery:
    """A run compiles its model once and takes its do-circuits by circuit surgery."""

    @pytest.mark.parametrize("groups, keys", [
        (simpson3_groups(), (OBS, DO1, DO0)),
        ([causal_group()], (DO1, DO0)),
        ([observational_group()], (OBS,)),
    ], ids=["both", "do-only", "observational-only"])
    @pytest.mark.parametrize("config", ["exact", "sampled", "noisy"])
    def test_one_compile_and_no_do_model(self, simpson3_entry, monkeypatch, groups, keys, config):
        compiled, built = [], []

        def compile_spy(model):
            compiled.append(model)
            return compile_model(model)

        def apply_do_spy(*args):
            raise AssertionError("a run called apply_do")

        def validate_spy(model):  # every CausalModel built runs validate
            built.append(model)
            return []

        monkeypatch.setattr(experiments, "compile_model", compile_spy)
        monkeypatch.setattr(experiments, "apply_do", apply_do_spy, raising=False)
        monkeypatch.setattr(model_module, "apply_do", apply_do_spy)
        monkeypatch.setattr(model_module, "validate", validate_spy)
        report = run_experiment(simpson3_entry.model, "T", "O", groups, _CONFIGS[config])
        assert compiled == [simpson3_entry.model] and built == []
        base = compile_model(simpson3_entry.model)
        circuits = {OBS: base, DO1: surgered_circuit(base, Intervention("T", 1)),
                    DO0: surgered_circuit(base, Intervention("T", 0))}
        assert report.circuits == tuple(circuits[k] for k in keys)

    @pytest.mark.parametrize("groups", [simpson3_groups(), [causal_group()]], ids=["run", "causal-only"])
    def test_graph_surgered_model_refused(self, simpson3_entry, groups):
        # A run intervenes by circuit surgery alone: its do()s come as do=.
        forced = apply_do(simpson3_entry.model, Intervention("G", 1))
        refusal = "^model 'simpson3' is already intervened on: run its observational model with do=$"
        with pytest.raises(ModelError, match=refusal):
            run_experiment(forced, "T", "O", groups, RunConfig())

    def test_do_on_the_treatment_refused(self, simpson3_entry):
        with pytest.raises(ModelError, match="^treatment 'T' is already intervened on$"):
            run_experiment(simpson3_entry.model, "T", "O", [causal_group()], RunConfig(), do=[Intervention("T", 1)])

    def test_unknown_treatment_is_a_model_error(self, simpson3_entry, monkeypatch):
        # The model refuses it before anything is compiled, as graph surgery did, with ModelError.
        compiled = []
        monkeypatch.setattr(experiments, "compile_model", compiled.append)
        with pytest.raises(ModelError, match="^unknown variable 'Z' in model 'simpson3'$"):
            run_experiment(simpson3_entry.model, "Z", "O", [causal_group()], RunConfig())
        assert compiled == []

    # A do() is built in the test: a bad value is refused by its Intervention,
    # so the run never receives it.
    @pytest.mark.parametrize("iv, message", [
        (("Z", 1), "unknown variable 'Z' in model 'simpson3'"),
        (("G", 2), "intervention 'G': value must be 0 or 1, got 2"),
        (("G", True), "intervention 'G': value must be 0 or 1, got True"),
        (("G", 1.0), "intervention 'G': value must be 0 or 1, got 1.0"),
    ], ids=["unknown-variable", "value-2", "value-bool", "value-float"])
    def test_bad_do_refused_before_compiling(self, simpson3_entry, monkeypatch, iv, message):
        compiled = []
        monkeypatch.setattr(experiments, "compile_model", compiled.append)
        with pytest.raises(ModelError) as info:
            run_experiment(simpson3_entry.model, "T", "O", [causal_group()], RunConfig(), do=[Intervention(*iv)])
        assert str(info.value) == message and compiled == []

    def test_do_may_be_an_iterator(self, simpson3_entry):
        args = (simpson3_entry.model, "T", "O", [causal_group()], RunConfig())
        do = [Intervention("G", 1)]
        assert run_experiment(*args, do=iter(do)) == run_experiment(*args, do=do)

    @pytest.mark.parametrize("seed", range(40))
    def test_do_circuits_are_surgered_observational_circuits(self, seed):
        model, treatment, outcome, _ = _random_case(seed)
        report = run_experiment(model, treatment, outcome, [causal_group()], RunConfig())
        base = compile_model(model)
        assert report.circuits == tuple(surgered_circuit(base, Intervention(treatment, v)) for v in (1, 0))

    def test_random_cases_include_do_models_that_reorder_the_compile(self):
        # Some do()s make graph surgery re-peel the compile order, so that even
        # its gates other than the X come in another order than the run's: the
        # property above is no restatement of graph surgery.
        reordered = 0
        for seed in range(40):
            model, treatment, _, _ = _random_case(seed)
            iv = Intervention(treatment, 1)
            run, graph = surgered_circuit(compile_model(model), iv), compile_model(apply_do(model, iv))
            reordered += [g for g in run.gates if g.kind != "x"] != [g for g in graph.gates if g.kind != "x"]
        assert reordered > 0

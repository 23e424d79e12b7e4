"""CLI behavior: subcommands, exit codes, file outputs, env seed fallback."""

import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdo import (
    Intervention,
    RunConfig,
    apply_do,
    causal_effect,
    compile_model,
    enumerate_joint,
    format_circuit,
    run_experiment,
    save_model,
    simpson3,
    surgered_circuit,
)
from qdo.cli import main
from qdo.experiments import causal_group
from conftest import chain_model, make_random_model, random_intervention

MODELS = Path(__file__).resolve().parent.parent / "models"


def run_cli(*args) -> int:
    return main(list(args))


class TestSimpson3Command:
    def test_exact_table(self, capsys):
        assert run_cli("simpson3", "--backend", "exact") == 0
        out = capsys.readouterr().out
        assert "Observational, Overall" in out and "Causal, Overall (do)" in out
        assert "-0.061" in out and "+0.231" in out

    def test_exact_json_values(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert run_cli("simpson3", "--backend", "exact", "--json", str(path)) == 0
        data = json.loads(path.read_text())
        effects = {g["label"]: g["effect"] for g in data["groups"]}
        assert effects["Observational, G=0"] == pytest.approx(0.166, abs=5e-3)
        assert effects["Observational, G=1"] == pytest.approx(0.296, abs=5e-3)
        assert effects["Observational, Overall"] == pytest.approx(-0.061, abs=5e-3)
        assert effects["Causal, Overall (do)"] == pytest.approx(0.232, abs=5e-3)

    def test_causal_effect_under_the_cli_config_is_the_causal_row(self, tmp_path, capsys):
        # The library and the CLI share RunConfig's defaults: 15000 shots and
        # seed 1729, with simpson3's 30 trials.
        assert list(inspect.signature(causal_effect).parameters) == ["model", "treatment", "outcome", "cfg"]
        path = tmp_path / "report.json"
        assert run_cli("simpson3", "--backend", "sampled", "--json", str(path)) == 0
        row = next(g for g in json.loads(path.read_text())["groups"] if g["label"] == "Causal, Overall (do)")
        report = causal_effect(simpson3().model, "T", "O", RunConfig("sampled", trials=30))
        assert list(report.per_trial) == row["per_trial"]

    def test_sampled_cis_exclude_zero(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = run_cli(
            "simpson3", "--backend", "sampled", "--shots", "15000",
            "--trials", "30", "--seed", "7", "--json", str(path),
        )
        assert code == 0
        data = json.loads(path.read_text())
        signs = []
        for g in data["groups"]:
            lo, hi = g["ci"]
            assert lo > 0 or hi < 0  # all four CIs exclude zero at these settings
            signs.append(g["effect"] > 0)
        assert signs == [True, True, False, True]

    def test_noisy_run_keeps_causal_positive(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = run_cli(
            "simpson3", "--backend", "sampled", "--noise", "0.02", "--shots", "1024",
            "--trials", "3", "--seed", "0", "--json", str(path),
        )
        assert code == 0
        data = json.loads(path.read_text())
        effects = {g["label"]: g["effect"] for g in data["groups"]}
        assert effects["Causal, Overall (do)"] > 0


class TestHealthcare10Command:
    def test_exact_bias_column(self, capsys):
        assert run_cli("healthcare10", "--backend", "exact") == 0
        out = capsys.readouterr().out
        assert "Bias" in out
        assert "Causal Intervention (do)" in out
        assert "+0.000" in out  # causal bias is exactly zero

    def test_custom_stratifier_runs(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = run_cli(
            "healthcare10", "--backend", "exact", "--stratify", "Insurance", "--json", str(path)
        )
        assert code == 0
        data = json.loads(path.read_text())
        labels = [g["label"] for g in data["groups"]]
        assert "Stratified by Insurance" in labels
        strat = next(g for g in data["groups"] if g["label"] == "Stratified by Insurance")
        assert len(strat["strata"]) == 2

    def test_stratify_by_treatment_exits_2(self, capsys):
        assert run_cli("healthcare10", "--stratify", "Treatment") == 2
        err = capsys.readouterr().err
        assert err == "qdo: error: group 'Stratified by Treatment' stratifies on the treatment 'Treatment'\n"


def _do_case(seed):
    """A model of 6-12 qubits, a do() on one variable, and a treatment and outcome among the others."""
    rng = np.random.default_rng(seed)
    model = make_random_model(rng, n=int(rng.integers(6, 13)))
    iv = random_intervention(rng, model)
    treatment, outcome = rng.permutation([v.name for v in model.variables if v.name != iv.variable])[:2]
    return model, iv, str(treatment), str(outcome)


class TestRunCommand:
    def test_fixture_matches_builtin_experiment(self, tmp_path, capsys):
        ours = tmp_path / "run.json"
        builtin = tmp_path / "builtin.json"
        assert run_cli(
            "run", str(MODELS / "simpson3.json"), "--treatment", "T", "--outcome", "O",
            "--stratify", "G", "--effect", "--json", str(ours),
        ) == 0
        assert run_cli("simpson3", "--backend", "exact", "--json", str(builtin)) == 0
        run_effects = {g["label"]: g for g in json.loads(ours.read_text())["groups"]}
        builtin_effects = {g["label"]: g["effect"] for g in json.loads(builtin.read_text())["groups"]}
        strata = {s["value"]: s["effect"] for s in run_effects["Stratified by G"]["strata"]}
        assert strata[0] == pytest.approx(builtin_effects["Observational, G=0"], abs=1e-12)
        assert strata[1] == pytest.approx(builtin_effects["Observational, G=1"], abs=1e-12)
        assert run_effects["Observational, Overall"]["effect"] == pytest.approx(
            builtin_effects["Observational, Overall"], abs=1e-12
        )
        assert run_effects["Causal, Overall (do)"]["effect"] == pytest.approx(
            builtin_effects["Causal, Overall (do)"], abs=1e-12
        )

    def test_do_on_root_equals_conditioning(self, capsys):
        assert run_cli("run", str(MODELS / "simpson3.json"), "--do", "G=1") == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("P(T=1)"))
        assert float(line.split("=")[-1]) == pytest.approx(math.sin(0.4) ** 2, abs=1e-6)

    def test_plain_run_prints_observational_marginals(self, tmp_path, capsys):
        payload = tmp_path / "dist.json"
        assert run_cli("run", str(MODELS / "simpson3.json"), "--json", str(payload)) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("P(T=1)"))
        expected_t = (math.sin(1.2) ** 2 + math.sin(0.4) ** 2) / 2
        assert float(line.split("=")[-1]) == pytest.approx(expected_t, abs=1e-6)
        data = json.loads(payload.read_text())
        assert data["interventions"] == []
        assert len(data["probabilities"]) == 8
        assert sum(data["probabilities"]) == pytest.approx(1.0, abs=1e-10)

    def test_malformed_json_exits_2_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        report = tmp_path / "report.json"
        code = run_cli("run", str(bad), "--effect", "--treatment", "T",
                       "--outcome", "O", "--json", str(report))
        assert code == 2
        assert not report.exists()
        assert "error" in capsys.readouterr().err

    def test_do_bad_syntax_exits_2(self, capsys):
        assert run_cli("run", str(MODELS / "simpson3.json"), "--do", "G=2") == 2

    @pytest.mark.parametrize("specs, message", [
        (["Z=1"], "variable 'Z' is not one of this circuit's variables ('G', 'T', 'O')"),
        (["G=1", "G=0"], "variable 'G' is already forced in this circuit"),
    ], ids=["unknown-variable", "forced-twice"])
    def test_do_on_invalid_target_exits_2(self, capsys, specs, message):
        # Circuit surgery refuses these do()s, in both modes of ``qdo run``.
        argv = ["run", str(MODELS / "simpson3.json")]
        for spec in specs:
            argv += ["--do", spec]
        for mode in ([], ["--effect", "--treatment", "T", "--outcome", "O"]):
            assert run_cli(*argv, *mode) == 2
            assert capsys.readouterr().err == f"qdo: error: {message}\n"

    @pytest.mark.parametrize("seed", range(40))
    def test_do_is_circuit_surgery_on_the_model_file(self, tmp_path, capsys, seed):
        # Both modes cut the compiled model file: the printed circuit, the
        # report's circuits and, through the oracle, the graph-surgery law.
        model, iv, treatment, outcome = _do_case(seed)
        path, payload = tmp_path / "m.json", tmp_path / "dist.json"
        save_model(model, path)
        do = f"{iv.variable}={iv.value}"
        assert run_cli("run", str(path), "--do", do, "--print-circuit", "--json", str(payload)) == 0
        cut = surgered_circuit(compile_model(model), iv)
        assert capsys.readouterr().out.partition("model: ")[0] == format_circuit(cut) + "\n"
        probs = np.array(json.loads(payload.read_text())["probabilities"])
        assert np.max(np.abs(probs - enumerate_joint(apply_do(model, iv)).values)) < 1e-12
        report = run_experiment(model, treatment, outcome, [causal_group()], RunConfig(), do=[iv])
        assert report.circuits == tuple(surgered_circuit(cut, Intervention(treatment, v)) for v in (1, 0))

    @pytest.mark.parametrize("backend", [
        ("--backend", "exact"),
        ("--backend", "sampled", "--shots", "300", "--trials", "2", "--seed", "5", "--noise", "0.02"),
    ], ids=["exact", "noisy"])
    def test_effect_report_lists_its_do_after_the_header(self, tmp_path, capsys, backend):
        # The report says which do() produced it, where distribution mode's
        # payload does, and stays a chart input.
        report, svg = tmp_path / "report.json", tmp_path / "chart.svg"
        assert run_cli("run", str(MODELS / "healthcare10.json"), "--do", "Age=1", "--do", "Region=0",
                       "--effect", "--treatment", "Treatment", "--outcome", "Outcome", *backend,
                       "--json", str(report)) == 0
        data = json.loads(report.read_text())
        header = ["model", "backend"] + (["shots", "trials", "seed", "noise"] if "sampled" in backend else [])
        assert list(data) == [*header, "interventions", "groups"]
        assert data["interventions"] == [{"variable": "Age", "value": 1}, {"variable": "Region", "value": 0}]
        assert run_cli("chart", str(report), "--svg", str(svg)) == 0
        assert svg.read_text().count("<rect") == 3

    def test_effect_report_without_do_lists_no_interventions(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run_cli("run", str(MODELS / "simpson3.json"), "--effect", "--treatment", "T",
                       "--outcome", "O", "--json", str(report)) == 0
        assert list(json.loads(report.read_text())) == ["model", "backend", "groups"]

    def test_do_cases_include_do_models_that_reorder_the_compile(self):
        # Graph surgery re-peels the compile order of some do-models, so that
        # even its gates other than the X come in another order: the cases
        # above tell the two surgeries apart.
        reordered = 0
        for seed in range(40):
            model, iv, _, _ = _do_case(seed)
            cut, graph = surgered_circuit(compile_model(model), iv), compile_model(apply_do(model, iv))
            reordered += [g for g in cut.gates if g.kind != "x"] != [g for g in graph.gates if g.kind != "x"]
        assert reordered > 0

    @pytest.mark.parametrize("flag", ["--csv", "--svg", "--stratify", "--treatment", "--outcome"])
    def test_report_files_require_effect(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        assert run_cli("run", str(MODELS / "simpson3.json"), flag, str(out)) == 2
        assert "--effect" in capsys.readouterr().err
        assert not out.exists()

    def test_effect_requires_roles(self, capsys):
        assert run_cli("run", str(MODELS / "simpson3.json"), "--effect") == 2

    def test_zero_mass_conditional_exits_3(self, tmp_path, capsys):
        model = {
            "name": "stuck",
            "variables": [
                {"name": "T", "qubit": 0, "prep": "ground"},
                {"name": "O", "qubit": 1, "prep": {"rotation": 0.4}},
            ],
            "edges": [],
        }
        path = tmp_path / "stuck.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        code = run_cli("run", str(path), "--treatment", "T", "--outcome", "O", "--effect")
        assert code == 3
        assert "zero mass" in capsys.readouterr().err

    @pytest.mark.parametrize("roles, message", [
        (["--outcome", "T"], "outcome 'T' is also the treatment"),
        (["--outcome", "O", "--stratify", "T"], "group 'Stratified by T' stratifies on the treatment 'T'"),
        (["--outcome", "O", "--stratify", "O"], "group 'Stratified by O' stratifies on the outcome 'O'"),
    ], ids=["outcome-is-treatment", "stratify-by-treatment", "stratify-by-outcome"])
    def test_meaningless_roles_exit_2(self, tmp_path, capsys, roles, message):
        out = tmp_path / "report.json"
        code = run_cli("run", str(MODELS / "simpson3.json"), "--treatment", "T", *roles, "--effect",
                       "--json", str(out))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"qdo: error: {message}\n" and captured.out == ""
        assert not out.exists()

    def test_noise_with_exact_backend_exits_2(self, capsys):
        assert run_cli("simpson3", "--backend", "exact", "--noise", "0.01") == 2

    def test_print_circuit(self, capsys):
        assert run_cli("run", str(MODELS / "simpson3.json"), "--print-circuit") == 0
        out = capsys.readouterr().out
        assert "qubits 3" in out and "CRY q0=0 q1 2.400000" in out

    def test_print_circuit_expanded(self, capsys):
        assert run_cli("run", str(MODELS / "simpson3.json"), "--print-circuit", "--expanded") == 0
        out = capsys.readouterr().out
        assert "X q0\nCRY q0=1 q1 2.400000\nX q0" in out

    @pytest.mark.parametrize("expanded", [False, True])
    def test_print_circuit_on_an_effect_command(self, capsys, expanded):
        # The observational, do(T=1) and do(T=0) circuits, then the usual table.
        assert run_cli("simpson3", "--backend", "exact") == 0
        table = capsys.readouterr().out
        flags = ("--print-circuit",) + (("--expanded",) if expanded else ())
        assert run_cli("simpson3", "--backend", "exact", *flags) == 0
        out = capsys.readouterr().out
        model = simpson3().model
        circuits = [compile_model(model)] + [compile_model(apply_do(model, Intervention("T", v))) for v in (1, 0)]
        assert out == "".join(format_circuit(c, expanded=expanded) + "\n" for c in circuits) + table
        assert ("X q0\nCRY q0=1 q1 2.400000\nX q0" in out) == expanded


class TestValidateCommand:
    @pytest.mark.parametrize("fixture", ["simpson3.json", "healthcare10.json"])
    def test_catalog_fixtures_pass(self, fixture, capsys):
        assert run_cli("validate", str(MODELS / fixture)) == 0
        out = capsys.readouterr().out
        assert "max |P_engine - P_oracle|" in out

    def test_uniform_with_parents_validates(self, tmp_path, capsys):
        model = {
            "name": "hplus",
            "variables": [
                {"name": "A", "qubit": 0, "prep": "ground"},
                {"name": "B", "qubit": 1, "prep": "uniform"},
            ],
            "edges": [
                {"parent": "A", "child": "B", "control_value": 1, "angle": 0.5, "sign": 1}
            ],
        }
        path = tmp_path / "hplus.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        assert run_cli("validate", str(path)) == 0
        assert capsys.readouterr().out.endswith("\nok\n")

    @pytest.mark.parametrize("edit", [
        lambda m: m["variables"][0].update(qubit=-1),  # shape error
        lambda m: m["edges"][0].update(color="red"),  # shape error
        lambda m: m["edges"][0].update(parent="O", child="G"),  # cycle G -> T -> O -> G
    ], ids=["negative-qubit", "unknown-field", "cycle"])
    def test_model_errors_name_the_file(self, tmp_path, capsys, edit):
        model = json.loads((MODELS / "simpson3.json").read_text(encoding="utf-8"))
        edit(model)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        assert run_cli("validate", str(path)) == 2
        assert capsys.readouterr().err.startswith(f"qdo: error: {path}: ")

    def test_wide_model_passes(self, tmp_path, capsys):
        path = tmp_path / "wide18.json"
        save_model(make_random_model(np.random.default_rng(18), n=18), path)
        assert run_cli("validate", str(path)) == 0
        assert capsys.readouterr().out.endswith("ok\n")

    def test_state_over_budget_exits_2(self, tmp_path, capsys):
        path = tmp_path / "chain48.json"
        save_model(chain_model(48), path)
        assert run_cli("validate", str(path)) == 2
        assert "48-qubit state needs" in capsys.readouterr().err

    def test_equivalence_failure_exits_1(self, monkeypatch, capsys):
        import qdo.cli as cli_mod
        from qdo.engine import Distribution

        def broken_oracle(model):
            values = np.zeros(1 << model.n_qubits)
            values[0] = 1.0
            return Distribution(model.n_qubits, values)

        monkeypatch.setattr(cli_mod, "enumerate_joint", broken_oracle)
        assert run_cli("validate", str(MODELS / "simpson3.json")) == 1
        out = capsys.readouterr().out
        assert "FAILED at bitstring" in out


class TestChartCommand:
    def test_chart_from_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        svg = tmp_path / "chart.svg"
        assert run_cli("simpson3", "--backend", "exact", "--json", str(report)) == 0
        assert run_cli("chart", str(report), "--svg", str(svg), "--reference", "0.231") == 0
        text = svg.read_text()
        assert text.count("<rect") == 5 and "stroke-dasharray" in text

    def test_missing_report_exits_2(self, tmp_path, capsys):
        assert run_cli("chart", str(tmp_path / "none.json"), "--svg", str(tmp_path / "x.svg")) == 2
        cases = [
            ("no_groups", {"model": "x"}),
            ("not_object", [1, 2]),
            ("no_effect", {"groups": [{"label": "a"}]}),
            ("not_list", {"groups": 5}),
            ("nan_effect", {"groups": [{"label": "a", "effect": math.nan}, {"label": "b", "effect": 0.2}]}),
            ("inf_effect", {"groups": [{"label": "a", "effect": math.inf}]}),
            ("inf_ci", {"groups": [{"label": "a", "effect": 0.1, "ci": [0.0, -math.inf]}]}),
            ("int_label", {"groups": [{"label": 5, "effect": 0.1}]}),
            ("null_label", {"groups": [{"label": None, "effect": 0.1}]}),
            ("list_label", {"groups": [{"label": ["a"], "effect": 0.1}]}),
            ("bool_effect", {"groups": [{"label": "a", "effect": True}]}),
            ("string_effect", {"groups": [{"label": "a", "effect": "0.5"}]}),
            ("huge_effect", {"groups": [{"label": "a", "effect": 10**400}]}),
            ("three_ci", {"groups": [{"label": "a", "effect": 0.1, "ci": [0.0, 0.2, 0.9]}]}),
            ("int_ci", {"groups": [{"label": "a", "effect": 0.1, "ci": 0}]}),
            ("dict_ci", {"groups": [{"label": "a", "effect": 0.1, "ci": {}}]}),
        ]
        for name, payload in cases:
            report = tmp_path / f"{name}.json"
            report.write_text(json.dumps(payload), encoding="utf-8")  # NaN/Infinity literals
            capsys.readouterr()
            assert run_cli("chart", str(report), "--svg", str(tmp_path / "x.svg")) == 2
            assert capsys.readouterr().err.startswith(f"qdo: error: {report}: "), name
        # json.loads raises RecursionError on deep nesting; exit 1 would
        # report an engine/oracle mismatch.
        report = tmp_path / "deep.json"
        report.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        assert run_cli("chart", str(report), "--svg", str(tmp_path / "x.svg")) == 2
        assert capsys.readouterr().err == f"qdo: error: {report}: JSON nested too deeply to parse\n"
        assert not (tmp_path / "x.svg").exists()

    def test_non_finite_reference_exits_2(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run_cli("simpson3", "--backend", "exact", "--json", str(report)) == 0
        for value in ("nan", "inf"):
            assert run_cli("chart", str(report), "--svg", str(tmp_path / "x.svg"), "--reference", value) == 2
        assert "--reference must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("effects, reference", [
        ([1e308, -1e308], []),
        ([-1e308], ["--reference", "1e308"]),
    ], ids=["effects", "reference"])
    def test_span_past_the_float_range_exits_2(self, tmp_path, capsys, effects, reference):
        report = tmp_path / "report.json"
        groups = [{"label": f"g{i}", "effect": e} for i, e in enumerate(effects)]
        report.write_text(json.dumps({"groups": groups}), encoding="utf-8")
        assert run_cli("chart", str(report), "--svg", str(tmp_path / "x.svg"), *reference) == 2
        assert capsys.readouterr().err == "qdo: error: values from -1e+308 to 1e+308 span too wide to chart\n"
        assert not (tmp_path / "x.svg").exists()


class TestSeedHandling:
    @pytest.mark.parametrize("env", ["55", "pi"])
    def test_set_env_seed_leaves_output_unchanged(self, tmp_path, capsys, monkeypatch, env):
        # --seed is the one seed input: a QDO_SEED in the environment is not read.
        argv = ["simpson3", "--backend", "sampled", "--shots", "500", "--trials", "2"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*argv, "--json", str(a)) == 0
        without = capsys.readouterr().out
        monkeypatch.setenv("QDO_SEED", env)
        assert run_cli(*argv, "--json", str(b)) == 0
        assert capsys.readouterr().out == without
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["run", "simpson3"])
    @pytest.mark.parametrize("seed", ["-5", str(1 << 64)])
    def test_seed_outside_64_bits_exits_2(self, capsys, command, seed):
        argv = [command, *([str(MODELS / "simpson3.json")] if command == "run" else [])]
        assert run_cli(*argv, "--backend", "sampled", "--shots", "10", "--trials", "2", "--seed", seed) == 2
        assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "simpson3", "healthcare10"])
    @pytest.mark.parametrize("shots", ["0", str(1 << 63)])
    def test_shots_outside_int64_exits_2(self, capsys, command, shots):
        # run without --effect is distribution mode. numpy cannot draw 2^63
        # shots, and exit 1 would report an engine/oracle mismatch.
        argv = [command, *([str(MODELS / "simpson3.json")] if command == "run" else [])]
        assert run_cli(*argv, "--backend", "sampled", "--shots", shots, "--trials", "2") == 2
        assert capsys.readouterr().err == f"qdo: error: shots must be in [1, 2**63), got {shots}\n"


class TestParserReuse:
    """Consecutive ``main`` calls in one process share one parser and no state."""

    def test_main_builds_no_parser(self, monkeypatch, capsys):
        import qdo.cli as cli_mod

        def build_parser():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli_mod, "build_parser", build_parser)
        assert run_cli("simpson3", "--backend", "exact") == 0
        assert run_cli("validate", str(MODELS / "simpson3.json")) == 0

    def test_stratify_does_not_carry_over(self, capsys):
        assert run_cli("healthcare10", "--stratify", "Insurance") == 0
        assert "Stratified by Insurance" in capsys.readouterr().out
        assert run_cli("healthcare10") == 0
        out = capsys.readouterr().out
        assert "Stratified by Age" in out and "Stratified by Region" in out
        assert "Insurance" not in out

    def test_trials_default_is_per_command(self, tmp_path, capsys):
        run = ["run", str(MODELS / "simpson3.json"), "--treatment", "T", "--outcome", "O", "--effect"]
        sampled = ["--backend", "sampled", "--shots", "2000", "--seed", "1"]
        trials = []
        for i, argv in enumerate((run, ["simpson3"], run)):
            path = tmp_path / f"{i}.json"
            assert run_cli(*argv, *sampled, "--json", str(path)) == 0
            trials.append(json.loads(path.read_text())["trials"])
        assert trials == [10, 30, 10]

    def test_do_does_not_carry_over(self, capsys):
        assert run_cli("run", str(MODELS / "simpson3.json"), "--do", "G=1") == 0
        assert "do: G=1\n" in capsys.readouterr().out
        assert run_cli("run", str(MODELS / "simpson3.json")) == 0
        assert "do:" not in capsys.readouterr().out


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qdo.cli", "simpson3", "--backend", "exact"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "Causal, Overall (do)" in proc.stdout

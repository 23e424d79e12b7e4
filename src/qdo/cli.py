"""Command-line experiment harness.

Subcommands: ``simpson3`` and ``healthcare10`` run the built-in experiments,
``run`` applies the same pipeline to a user model file, ``validate`` checks a
model file and cross-checks the engine against the enumeration oracle, and
``chart`` renders saved JSON reports as an SVG. The parser is built once, at
import, and names each subcommand's handler; ``_run_effects`` runs, prints and
writes every effect table (``simpson3``, ``healthcare10``, ``run --effect``).

``run --do`` intervenes by circuit surgery in both of its modes: the model
file is compiled as it is and each ``--do`` cuts that circuit, in order
(``run_experiment``'s ``do``, or the same chain of ``surgered_circuit`` in
distribution mode). No command runs a graph-surgered model.

Exit codes: 0 success, 1 engine/oracle equivalence failure, 2 invalid
configuration or model, 3 conditioning on a zero-mass event.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import reduce
from pathlib import Path

import numpy as np

from . import catalog
from .analysis import EffectReport, UndefinedConditionalError, cells
from .chart import render_chart
from .circuit import compile_model, format_circuit, surgered_circuit
from .engine import NoiseSpec, run_exact, run_sampled
from .experiments import (
    Group,
    RunConfig,
    causal_group,
    format_report_table,
    healthcare10_groups,
    observational_group,
    report_csv_text,
    report_json_text,
    run_experiment,
    run_header,
    simpson3_groups,
    stratified_group,
)
from .model import CausalModel, Intervention, ModelError, _as_float, load_model, read_json
from .oracle import enumerate_joint

EQUIVALENCE_TOLERANCE = 1e-10

EXIT_OK = 0
EXIT_EQUIVALENCE = 1
EXIT_USER_ERROR = 2
EXIT_UNDEFINED_CONDITIONAL = 3


def _add_backend_flags(p: argparse.ArgumentParser, default_trials: int) -> None:
    p.add_argument("--backend", choices=("exact", "sampled"), default=RunConfig.backend)
    p.add_argument("--shots", type=int, default=RunConfig.shots, help="shots per circuit per trial")
    p.add_argument("--trials", type=int, default=default_trials, help="independent trials")
    p.add_argument("--seed", type=int, default=RunConfig.seed, help="run seed (default: %(default)s)")
    p.add_argument("--noise", type=float, default=None, metavar="P",
                   help="per-gate per-qubit depolarizing probability (sampled only)")
    p.add_argument("--json", dest="json_path", metavar="PATH", help="write the JSON report")
    p.add_argument("--csv", dest="csv_path", metavar="PATH", help="write the CSV report")
    p.add_argument("--svg", dest="svg_path", metavar="PATH", help="write the bar chart")
    p.add_argument("--print-circuit", action="store_true", help="print compiled circuits")
    p.add_argument("--expanded", action="store_true",
                   help="expand control-on-zero gates in circuit output")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qdo",
        description="Causal models as quantum circuits: interventions by circuit surgery.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s3 = sub.add_parser("simpson3", help="run the 3-qubit sign-reversal experiment")
    _add_backend_flags(s3, default_trials=30)
    s3.set_defaults(handler=_cmd_simpson3)

    h10 = sub.add_parser("healthcare10", help="run the 10-qubit confounding-bias experiment")
    _add_backend_flags(h10, default_trials=10)
    h10.add_argument("--stratify", action="append", default=None, metavar="VAR",
                     help="stratifier (repeatable; default: Age and Region)")
    h10.set_defaults(handler=_cmd_healthcare10)

    run = sub.add_parser("run", help="run the analysis pipeline on a model file")
    run.add_argument("model_path", metavar="MODEL.json")
    _add_backend_flags(run, default_trials=10)
    run.add_argument("--treatment", metavar="VAR")
    run.add_argument("--outcome", metavar="VAR")
    run.add_argument("--stratify", action="append", default=None, metavar="VAR")
    run.add_argument("--do", action="append", default=None, metavar="VAR=BIT",
                     help="intervene before analysis (repeatable)")
    run.add_argument("--effect", action="store_true",
                     help="report effect sizes (requires --treatment and --outcome)")
    run.set_defaults(handler=_cmd_run)

    val = sub.add_parser("validate", help="validate a model file and cross-check the engine")
    val.add_argument("model_path", metavar="MODEL.json")
    val.set_defaults(handler=_cmd_validate)

    ch = sub.add_parser("chart", help="render saved JSON reports as an SVG bar chart")
    ch.add_argument("reports", nargs="+", metavar="REPORT.json")
    ch.add_argument("--svg", dest="svg_path", required=True, metavar="PATH")
    ch.add_argument("--reference", type=float, default=None,
                    help="draw a dashed horizontal line at this effect value")
    ch.add_argument("--title", default="")
    ch.set_defaults(handler=_cmd_chart)

    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        backend=args.backend,
        shots=args.shots,
        trials=args.trials,
        seed=args.seed,
        noise=None if args.noise is None else NoiseSpec(args.noise),
    )


def _run_effects(args: argparse.Namespace, cfg: RunConfig, model: CausalModel, treatment: str,
                 outcome: str, groups: list[Group], title: str, bias: bool = False,
                 do: list[Intervention] | tuple[()] = ()) -> int:
    """Run ``groups`` under ``do`` and print and write the report, for every effect command.

    With ``bias``, the table's bias column and the chart's reference line
    measure against the do group.
    """
    report = run_experiment(model, treatment, outcome, groups, cfg, do)
    causal = next(g.label for g in groups if g.do) if bias else None
    if args.print_circuit:
        for circ in report.circuits:
            sys.stdout.write(format_circuit(circ, expanded=args.expanded) + "\n")
    sys.stdout.write(format_report_table(report, bias_against=causal))
    if args.json_path:
        Path(args.json_path).write_text(report_json_text(report), encoding="utf-8")
    if args.csv_path:
        Path(args.csv_path).write_text(report_csv_text(report), encoding="utf-8")
    if args.svg_path:
        reference = report.group(causal).effect if bias else None
        svg = render_chart(report.groups, title=title, reference=reference)
        Path(args.svg_path).write_text(svg, encoding="utf-8")
    return EXIT_OK


def _cmd_simpson3(args: argparse.Namespace) -> int:
    entry = catalog.simpson3()
    roles = entry.roles
    return _run_effects(args, _config_from_args(args), entry.model, roles.treatment, roles.outcome,
                        simpson3_groups(roles.stratifiers[0]), "3-qubit treatment effects")


def _cmd_healthcare10(args: argparse.Namespace) -> int:
    entry = catalog.healthcare10()
    roles = entry.roles
    groups = healthcare10_groups(args.stratify or roles.stratifiers)
    return _run_effects(args, _config_from_args(args), entry.model, roles.treatment, roles.outcome,
                        groups, "10-qubit treatment effects", bias=True)


def _parse_do(specs: list[str] | None, model: CausalModel) -> list[Intervention]:
    # Names are checked against the model here, so both modes of ``qdo run``
    # refuse an unknown one, before compiling, as ``run_experiment`` does.
    out = []
    for spec in specs or []:
        name, sep, bit = spec.partition("=")
        if not sep or bit not in ("0", "1") or not name:
            raise ModelError(f"--do expects VAR=0 or VAR=1, got {spec!r}")
        model.variable(name)
        out.append(Intervention(name, int(bit)))
    return out


def _cmd_run(args: argparse.Namespace) -> int:
    if not args.effect and (args.csv_path or args.svg_path or args.stratify or args.treatment or args.outcome):
        raise ModelError(
            "--csv, --svg, --stratify, --treatment and --outcome need --effect: "
            "distribution mode writes only --json"
        )
    cfg = _config_from_args(args)
    model = load_model(args.model_path)
    do = _parse_do(args.do, model)

    if args.effect:
        if not args.treatment or not args.outcome:
            raise ModelError("--effect requires --treatment and --outcome")
        groups = [observational_group(), *map(stratified_group, args.stratify or ()), causal_group()]
        return _run_effects(args, cfg, model, args.treatment, args.outcome, groups,
                            f"effects: {model.name}", do=do)

    # Distribution mode: report the (possibly post-intervention) distribution.
    circ = reduce(surgered_circuit, do, compile_model(model))
    if args.print_circuit:
        sys.stdout.write(format_circuit(circ, expanded=args.expanded) + "\n")
    if cfg.backend == "exact":
        dist = run_exact(circ)
    else:
        dist = run_sampled(circ, cfg.shots, cfg.seed, cfg.noise)
    probs = dist.probabilities()
    qubits = model.qubit_map()
    p_one = {name: float(cells(probs, qubits, ((name, 1),)).sum()) for name in sorted(qubits)}
    sys.stdout.write(f"model: {model.name}\n")
    for iv in do:
        sys.stdout.write(f"do: {iv.variable}={iv.value}\n")
    for name, p in p_one.items():
        sys.stdout.write(f"P({name}=1) = {p:.6f}\n")
    if args.json_path:
        payload = run_header(model.name, cfg, do, trials=False)
        payload["p_one"] = p_one
        payload["probabilities"] = [float(p) for p in probs]
        Path(args.json_path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    model = load_model(args.model_path)
    expected = enumerate_joint(model)
    actual = run_exact(compile_model(model))
    deviation = np.abs(actual.values - expected.values)
    worst = int(np.argmax(deviation))
    max_dev = float(deviation[worst])
    sys.stdout.write(f"max |P_engine - P_oracle| = {max_dev:.3e}\n")
    if max_dev >= EQUIVALENCE_TOLERANCE:
        bits = format(worst, f"0{model.n_qubits}b")
        sys.stdout.write(
            f"equivalence FAILED at bitstring {bits} "
            f"(engine {actual.values[worst]:.12f}, oracle {expected.values[worst]:.12f})\n"
        )
        return EXIT_EQUIVALENCE
    sys.stdout.write("ok\n")
    return EXIT_OK


def _cmd_chart(args: argparse.Namespace) -> int:
    if args.reference is not None and not math.isfinite(args.reference):
        raise ModelError(f"--reference must be finite, got {args.reference!r}")
    groups = []
    for path in args.reports:
        data = read_json(path)
        if not isinstance(data, dict) or "groups" not in data:
            raise ModelError(f"{path}: not a report file (missing 'groups')")
        if not isinstance(data["groups"], list):
            raise ModelError(f"{path}: 'groups' must be a list")
        for i, g in enumerate(data["groups"]):
            try:
                label, effect, ci = g["label"], g["effect"], g.get("ci")
                if not isinstance(label, str):
                    raise TypeError(f"label must be a string, got {label!r}")
                if ci is not None and not (isinstance(ci, list) and len(ci) == 2):
                    raise TypeError(f"ci must be a list of two numbers, got {ci!r}")
                numbers = (effect, *(ci or ()))
                reals = tuple(map(_as_float, numbers))  # an int past the float range reads as inf
                if None in reals:
                    raise TypeError(f"effect and ci bounds must be numbers, got {numbers[reals.index(None)]!r}")
                if not all(map(math.isfinite, reals)):
                    raise ValueError("effect and ci bounds must be finite")
                groups.append(EffectReport(label, reals[0], ci=reals[1:] or None))
            except KeyError as exc:
                raise ModelError(f"{path}: groups[{i}]: missing field {exc}") from None
            except (AttributeError, TypeError, ValueError) as exc:
                raise ModelError(f"{path}: groups[{i}]: malformed group: {exc}") from None
    svg = render_chart(groups, title=args.title, reference=args.reference)
    Path(args.svg_path).write_text(svg, encoding="utf-8")
    return EXIT_OK


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except UndefinedConditionalError as exc:
        print(f"qdo: error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED_CONDITIONAL
    except (ValueError, OSError) as exc:  # ModelError is a ValueError
        print(f"qdo: error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Experiment orchestration: trials, group estimates, and report serialization.

A run evaluates a list of analysis groups against one model. The exact
backend produces point estimates; the sampled backend runs K independent
trials and aggregates per-trial estimates into 95% confidence intervals.

Seed derivation (documented contract): the run seed feeds a SeedSequence
whose spawned children, one per trial, each spawn three streams in the fixed
order (observational, do=1, do=0). Identical configurations therefore yield
identical reports, and trials could be executed in parallel without changing
any number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .analysis import (
    EffectReport,
    Query,
    StratumEffect,
    adjusted_effect,
    aggregate_trials,
    cond_prob,
)
from .circuit import Circuit, compile_model
from .engine import Distribution, NoiseSpec, check_seed, draw_shots, run_exact, run_sampled
from .model import CausalModel, Intervention, ModelError, apply_do

DEFAULT_SEED = 1729

# Each trial's streams, in spawn order; also the keys of a run's circuits.
OBS, DO1, DO0 = 0, 1, 2


@dataclass(frozen=True)
class RunConfig:
    backend: str = "exact"
    shots: int = 15000
    trials: int = 1
    seed: int = DEFAULT_SEED
    noise: NoiseSpec | None = None

    def __post_init__(self) -> None:
        if self.backend not in ("exact", "sampled"):
            raise ValueError(f"backend must be 'exact' or 'sampled', got {self.backend!r}")
        if self.backend == "sampled" and self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.backend == "sampled":
            check_seed(self.seed)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.noise is not None and self.backend != "sampled":
            raise ValueError("noise requires the sampled backend")


@dataclass(frozen=True)
class Group:
    """One row of a report: what to estimate and under which label.

    A do-group is the interventional effect P(outcome=1 | do(treatment=1)) -
    P(outcome=1 | do(treatment=0)); any other group is the back-door
    adjustment over ``adjust`` within the ``given`` cell (see
    ``analysis.adjusted_effect``).
    """

    label: str
    adjust: tuple[str, ...] = ()
    given: tuple[tuple[str, int], ...] = ()
    do: bool = False


def observational_group() -> Group:
    return Group("Observational, Overall")


def subgroup(stratifier: str, stratum: int) -> Group:
    return Group(f"Observational, {stratifier}={stratum}", given=((stratifier, stratum),))


def stratified_group(stratifier: str) -> Group:
    return Group(f"Stratified by {stratifier}", adjust=(stratifier,))


def causal_group(label: str = "Causal, Overall (do)") -> Group:
    return Group(label, do=True)


@dataclass(frozen=True)
class Report:
    model: str
    config: RunConfig
    groups: tuple[EffectReport, ...]
    circuits: tuple[Circuit, ...] = field(default=(), repr=False)

    def group(self, label: str) -> EffectReport:
        for g in self.groups:
            if g.label == label:
                return g
        raise KeyError(f"no group labeled {label!r}")


def _estimate(
    group: Group,
    dists: dict[int, Distribution],
    qubits: dict[str, int],
    treatment: str,
    outcome: str,
) -> tuple[float, tuple[StratumEffect, ...] | None]:
    if group.do:
        out1 = Query((outcome, 1))
        return cond_prob(dists[DO1], qubits, out1) - cond_prob(dists[DO0], qubits, out1), None
    effect, strata = adjusted_effect(dists[OBS], qubits, treatment, outcome, group.adjust, group.given)
    return effect, strata if group.adjust else None


def run_experiment(
    model: CausalModel,
    treatment: str,
    outcome: str,
    groups: Sequence[Group],
    cfg: RunConfig,
) -> Report:
    """Evaluate ``groups`` on one model under the configured backend.

    Only the circuits the groups need are compiled and run. The exact backend
    makes one pass with ``run_exact`` and reports point estimates; the sampled
    backend makes one pass per trial and reports trial statistics. A noiseless
    sampled run computes each circuit's exact distribution once and draws
    every trial from it; a noisy run evolves fresh trajectories per trial.
    """
    if model.is_intervened(treatment):
        raise ModelError(f"treatment {treatment!r} is already intervened on")
    qubits = model.qubit_map()
    circuits: dict[int, Circuit] = {}
    if not all(g.do for g in groups):
        circuits[OBS] = compile_model(model)
    if any(g.do for g in groups):
        circuits[DO1] = compile_model(apply_do(model, Intervention(treatment, 1)))
        circuits[DO0] = compile_model(apply_do(model, Intervention(treatment, 0)))

    sampled = cfg.backend == "sampled"
    noisy = cfg.noise is not None and cfg.noise.p_depol > 0.0
    exact = {} if noisy else {k: run_exact(c) for k, c in circuits.items()}
    trial_streams = (
        [ss.spawn(3) for ss in np.random.SeedSequence(cfg.seed).spawn(cfg.trials)]
        if sampled else [None]
    )
    per_group: list[list[tuple[float, tuple[StratumEffect, ...] | None]]] = [[] for _ in groups]
    for streams in trial_streams:
        if not sampled:
            dists = exact
        elif noisy:
            dists = {k: run_sampled(c, cfg.shots, streams[k], cfg.noise) for k, c in circuits.items()}
        else:
            dists = {k: draw_shots(d, cfg.shots, streams[k]) for k, d in exact.items()}
        for i, g in enumerate(groups):
            per_group[i].append(_estimate(g, dists, qubits, treatment, outcome))

    reports = []
    for g, results in zip(groups, per_group):
        if not sampled:
            effect, strata = results[0]
            reports.append(EffectReport(g.label, effect, strata=strata))
            continue
        per_trial = tuple(effect for effect, _ in results)
        stats = aggregate_trials(per_trial)
        reports.append(
            EffectReport(
                g.label,
                stats.mean,
                per_trial=per_trial,
                std_err=stats.std_err,
                ci_low=stats.ci_low,
                ci_high=stats.ci_high,
                n_trials=cfg.trials,
                shots_per_trial=cfg.shots,
                strata=_mean_strata([strata for _, strata in results if strata is not None]),
            )
        )
    return Report(model.name, cfg, tuple(reports), tuple(circuits.values()))


def causal_effect(
    model: CausalModel,
    treatment: str,
    outcome: str,
    *,
    backend: str = "exact",
    shots: int = 15000,
    trials: int = 1,
    seed: int = 0,
    noise: NoiseSpec | None = None,
) -> EffectReport:
    """ACE = P(outcome=1 | do(treatment=1)) - P(outcome=1 | do(treatment=0)).

    A run of the single causal group: sampled trials draw from the (do=1,
    do=0) streams of the seed contract above.
    """
    cfg = RunConfig(backend=backend, shots=shots, trials=trials, seed=seed, noise=noise)
    return run_experiment(model, treatment, outcome, [causal_group()], cfg).groups[0]


def _mean_strata(trials: list[tuple[StratumEffect, ...]]) -> tuple[StratumEffect, ...] | None:
    """Per-stratum mean weight and effect across trials."""
    if not trials:
        return None
    sums: dict[int, list[float]] = {}
    for strata in trials:
        for s in strata:
            acc = sums.setdefault(s.value, [0.0, 0.0, 0.0])
            acc[0] += s.weight
            acc[1] += s.effect
            acc[2] += 1.0
    return tuple(
        StratumEffect(value, w / k, e / k) for value, (w, e, k) in sorted(sums.items())
    )


def simpson3_groups(stratifier: str = "G") -> list[Group]:
    return [
        subgroup(stratifier, 0),
        subgroup(stratifier, 1),
        observational_group(),
        causal_group(),
    ]


def healthcare10_groups(stratifiers: Sequence[str] = ("Age", "Region")) -> list[Group]:
    groups = [observational_group()]
    groups += [stratified_group(s) for s in stratifiers]
    groups.append(causal_group("Causal Intervention (do)"))
    return groups


# --- serialization -----------------------------------------------------------


def report_to_dict(report: Report) -> dict:
    cfg = report.config
    out: dict = {"model": report.model, "backend": cfg.backend}
    if cfg.backend == "sampled":
        out["shots"] = cfg.shots
        out["trials"] = cfg.trials
        out["seed"] = cfg.seed
        if cfg.noise is not None:
            out["noise"] = cfg.noise.p_depol
    out["groups"] = []
    for g in report.groups:
        entry: dict = {"label": g.label, "effect": g.effect}
        if g.ci is not None:
            entry["ci"] = [g.ci_low, g.ci_high]
        if g.per_trial:
            entry["per_trial"] = list(g.per_trial)
        if g.strata is not None:
            entry["strata"] = [
                {"value": s.value, "weight": s.weight, "effect": s.effect} for s in g.strata
            ]
        out["groups"].append(entry)
    return out


def report_json_text(report: Report) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def report_csv_text(report: Report) -> str:
    lines = ["label,effect,ci_low,ci_high,n_trials"]
    for g in report.groups:
        ci_low = "" if g.ci_low is None else repr(g.ci_low)
        ci_high = "" if g.ci_high is None else repr(g.ci_high)
        n = "" if g.n_trials is None else str(g.n_trials)
        label = g.label.replace('"', '""')
        lines.append(f'"{label}",{g.effect!r},{ci_low},{ci_high},{n}')
    return "\n".join(lines) + "\n"


def format_report_table(report: Report, bias_against: str | None = None) -> str:
    """Fixed-width table; ``bias_against`` adds a bias column relative to that group."""
    ref = report.group(bias_against).effect if bias_against is not None else None
    rows = []
    for g in report.groups:
        ci = f"[{g.ci_low:+.3f}, {g.ci_high:+.3f}]" if g.ci is not None else "-"
        row = [g.label, f"{g.effect:+.3f}", ci]
        if ref is not None:
            row.append(f"{g.effect - ref:+.3f}")
        rows.append(row)
    headers = ["Analysis Group", "Effect Size (dP)", "95% CI"]
    if ref is not None:
        headers.append("Bias")
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)))
    return "\n".join(lines) + "\n"

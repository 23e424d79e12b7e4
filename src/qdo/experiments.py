"""Experiment orchestration: trials, group estimates, and report serialization.

A run evaluates a list of analysis groups against one model. The exact
backend produces point estimates; the sampled backend runs K independent
trials and aggregates per-trial estimates into 95% confidence intervals
(mean +/- 1.96 standard errors). A run intervenes only by circuit surgery: it
compiles the observational model once, cuts the run's own do()s (``do=``) from
that circuit in order, and cuts each do-row's do(T=x) from the result. A
do(v=1) puts an X in place of v's block, or first if v has none. A
graph-surgered model is refused: graph surgery (``model.apply_do``) is the
check route, not a run route.

Trials are stacked, not looped: each circuit's trials fill a (trials, 2^n)
array, one row per trial (noiseless rows are drawn from one exact run,
noisy rows come from one ``noisy_counts`` call, each trial's from its own
trajectory batches), and every group is estimated once
over the stack by ``analysis``' estimators. A stack holds at most
``_CHUNK_BYTES`` of counts (at least one row); more trials run as several
chunks in trial order, so a run's memory does not grow with its trial
count. The exact backend is the one-row stack of its probabilities. A run
that hits an empty conditioning event raises the error of its first failing
trial, then group, then cell, and draws no chunk after that trial's.

Seed derivation (documented contract): trial i draws circuit k's shots
(k = 0, 1, 2 for observational, do=1, do=0) from
``SeedSequence(seed, spawn_key=(i, k))``, which is the k-th of three
children spawned by the i-th of the children spawned from
``SeedSequence(seed)``. Identical configurations therefore yield identical
reports, and each trial's numbers do not depend on the other trials.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from .analysis import (
    EffectReport,
    Query,
    StratumRows,
    UndefinedConditionalError,
    adjusted_effect,
    aggregate_trials,
    cond_prob,
)
from .circuit import Circuit, compile_model, surgered_circuit
from .engine import NoiseSpec, check_noise, check_seed, check_shots, draw_counts, noisy_counts, run_exact
from .model import CausalModel, Intervention, ModelError, _show, is_bit

# A sampled run estimates its trials in chunks whose per-circuit (chunk, 2^n)
# int64 count stack holds at most _CHUNK_BYTES (or one row, if a row is
# larger), so its memory does not grow with the number of trials.
_CHUNK_BYTES = 1 << 20
_COUNT_BYTES = np.dtype(np.int64).itemsize

# The keys of a run's circuits; also each trial's stream index (spawn order).
OBS, DO1, DO0 = 0, 1, 2


@dataclass(frozen=True)
class RunConfig:
    """A run's knobs, each with its one default; the CLI's ``--backend``,
    ``--shots`` and ``--seed`` take theirs from here.

    A sampled run's shots and seed are ints in range (``check_shots``,
    ``check_seed``) and trials is an int >= 1; as for a bit
    (``model.is_bit``), a bool, float or numpy integer is refused. ``noise``
    is None or a ``NoiseSpec`` (``check_noise``), never a bare probability.
    """

    backend: str = "exact"
    shots: int = 15000
    trials: int = 1
    seed: int = 1729
    noise: NoiseSpec | None = None

    def __post_init__(self) -> None:
        if self.backend not in ("exact", "sampled"):
            raise ValueError(f"backend must be 'exact' or 'sampled', got {self.backend!r}")
        if self.backend == "sampled":
            check_shots(self.shots)
            check_seed(self.seed)
        if type(self.trials) is not int or self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {_show(self.trials)}")
        check_noise(self.noise)
        if self.noise is not None and self.backend != "sampled":
            raise ValueError("noise requires the sampled backend")


@dataclass(frozen=True)
class Group:
    """One row of a report: what to estimate and under which label.

    A do-group is the interventional effect P(outcome=1 | do(treatment=1)) -
    P(outcome=1 | do(treatment=0)); any other group is the back-door
    adjustment over ``adjust`` within the ``given`` cell (see
    ``analysis.adjusted_effect``). A do-group sets neither, and the groups
    of one run have distinct labels (``run_experiment`` refuses the rest).
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
    """A run's rows, with what ``report_to_dict`` needs to say how they were made.

    ``do`` is the run's own do()s (``run_experiment``'s ``do``), which
    ``run_header`` writes as the report's ``interventions``.
    """

    model: str
    config: RunConfig
    groups: tuple[EffectReport, ...]
    do: tuple[Intervention, ...] = ()
    circuits: tuple[Circuit, ...] = field(default=(), repr=False)

    def group(self, label: str) -> EffectReport:
        for g in self.groups:
            if g.label == label:
                return g
        raise KeyError(f"no group labeled {label!r}")


def trial_streams(seed: int, start: int, stop: int, stream: int) -> list[np.random.SeedSequence]:
    """Stream ``stream`` (OBS, DO1 or DO0) of trials start..stop-1 under the seed contract.

    Trial i's is ``SeedSequence(seed, spawn_key=(i, stream))``: the same
    sequence as spawning at least i + 1 children of ``SeedSequence(seed)``
    and three of the i-th, without building that tree, so a chunk of trials
    needs no stream of any other trial.
    """
    return [np.random.SeedSequence(seed, spawn_key=(i, stream)) for i in range(start, stop)]


def run_experiment(
    model: CausalModel,
    treatment: str,
    outcome: str,
    groups: Sequence[Group],
    cfg: RunConfig,
    do: Sequence[Intervention] = (),
) -> Report:
    """Evaluate ``groups`` on one model under the configured backend.

    The model is compiled once and ``do`` is applied to that circuit by
    ``surgered_circuit``, one intervention after another; the result is the
    run's observational circuit. The do groups read its two circuit surgeries
    (the X of do(treatment=1) takes the place of the treatment's block).
    Only the circuits the groups need are run. The
    exact backend makes one pass with ``run_exact`` and reports point
    estimates; the sampled backend stacks the trials' counts per circuit, chunk
    by chunk, and reports each group's row as ``aggregate_trials`` builds it
    from the per-trial estimates. A noiseless sampled run computes
    each circuit's exact distribution once and draws every trial from it; a
    noisy run takes a chunk's trials from one ``noisy_counts`` call, each
    trial from its own stream.

    Raises, before anything is compiled: ModelError when the treatment, the
    outcome, a name a group adjusts for or conditions on or a ``do`` name is
    not a variable of the model; ValueError when there is no group, two
    groups share a label, a do group sets ``adjust`` or ``given``, a
    ``given`` or ``do`` value is not a bit (``model.is_bit``), the outcome is
    the treatment or a group adjusts for or conditions on either of them.
    Raises ModelError when the model has interventions (pass them as ``do``)
    or ``do`` forces the treatment.
    """
    if not groups:
        raise ValueError("a run needs at least one group")
    model.variable(treatment)
    model.variable(outcome)
    if outcome == treatment:
        raise ValueError(f"outcome {outcome!r} is also the treatment")
    labels = set()
    for g in groups:
        if g.label in labels:
            raise ValueError(f"two groups are labeled {g.label!r}")
        labels.add(g.label)
        if g.do and (g.adjust or g.given):
            raise ValueError(f"do group {g.label!r} sets adjust or given: a do row is the overall effect")
        for name in (*g.adjust, *(name for name, _ in g.given)):
            model.variable(name)
            if name in (treatment, outcome):
                role = "treatment" if name == treatment else "outcome"
                raise ValueError(f"group {g.label!r} stratifies on the {role} {name!r}")
        for name, value in g.given:
            if not is_bit(value):
                raise ValueError(f"group {g.label!r}: variable {name!r}: value must be 0 or 1, got {_show(value)}")
    do = tuple(do)  # read three times: checked, cut and reported
    for iv in do:
        model.variable(iv.variable)
        if not is_bit(iv.value):
            raise ValueError(f"intervention value must be 0 or 1, got {_show(iv.value)}")
    if model.interventions:
        raise ModelError(f"model {model.name!r} is already intervened on: run its observational model with do=")
    base = reduce(surgered_circuit, do, compile_model(model))
    if treatment in base.forced:
        raise ModelError(f"treatment {treatment!r} is already intervened on")
    qubits = model.qubit_map()
    circuits: dict[int, Circuit] = {} if all(g.do for g in groups) else {OBS: base}
    if any(g.do for g in groups):
        circuits[DO1] = surgered_circuit(base, Intervention(treatment, 1))
        circuits[DO0] = surgered_circuit(base, Intervention(treatment, 0))

    sampled = cfg.backend == "sampled"
    noisy = cfg.noise is not None and cfg.noise.p_depol > 0.0
    exact = {} if noisy else {k: run_exact(c) for k, c in circuits.items()}
    # Every circuit of a model has the same width, so one chunk size serves all.
    chunk = max(1, _CHUNK_BYTES // (_COUNT_BYTES << model.n_qubits))
    chunks = []
    for start in range(0, cfg.trials if sampled else 1, chunk):
        stop = min(start + chunk, cfg.trials)
        stacks = {}
        for k, circ in circuits.items():
            if not sampled:
                stacks[k] = exact[k].values[None]
            elif noisy:
                stacks[k] = noisy_counts(circ, cfg.shots, trial_streams(cfg.seed, start, stop, k), cfg.noise)
            else:
                stacks[k] = draw_counts(exact[k], cfg.shots, trial_streams(cfg.seed, start, stop, k))
        try:
            chunks.append(_estimate(stacks, qubits, treatment, outcome, groups))
        except UndefinedConditionalError as exc:
            # Earlier chunks had no failure, so this chunk's first is the run's first.
            exc.trial += start
            raise
    estimates = [_join(parts) for parts in zip(*chunks)]

    reports = []
    for g, (effect, strata) in zip(groups, estimates):
        means = None if strata is None else strata.means()
        if sampled:
            reports.append(aggregate_trials(g.label, effect.tolist(), means))
        else:
            reports.append(EffectReport(g.label, float(effect[0]), strata=means))
    return Report(model.name, cfg, tuple(reports), do, tuple(circuits.values()))


def causal_effect(
    model: CausalModel, treatment: str, outcome: str, cfg: RunConfig = RunConfig()
) -> EffectReport:
    """ACE = P(outcome=1 | do(treatment=1)) - P(outcome=1 | do(treatment=0)).

    A run of the single causal group: sampled trials draw from the (do=1,
    do=0) streams of the seed contract above, so under the CLI's config this
    is the causal row of its run. A model with interventions is refused, as
    by ``run_experiment``.
    """
    return run_experiment(model, treatment, outcome, [causal_group()], cfg).groups[0]


def _estimate(
    stacks: dict[int, np.ndarray],
    qubits: dict[str, int],
    treatment: str,
    outcome: str,
    groups: Sequence[Group],
) -> list[tuple[np.ndarray, StratumRows | None]]:
    """Each group's per-row effect (and strata, for an adjustment) over one chunk of trials.

    Raises the error of the chunk's first failing row, then group, then cell;
    its ``trial`` counts from the chunk's first row.
    """
    estimates = []
    failures = []
    out1 = Query((outcome, 1))
    for i, g in enumerate(groups):
        try:
            if g.do:
                # Never empty: the condition of P(outcome=1) is the whole row.
                effect = cond_prob(stacks[DO1], qubits, out1) - cond_prob(stacks[DO0], qubits, out1)
                estimates.append((effect, None))
            else:
                effect, strata = adjusted_effect(
                    stacks[OBS], qubits, treatment, outcome, g.adjust, g.given
                )
                estimates.append((effect, strata if g.adjust else None))
        except UndefinedConditionalError as exc:
            failures.append((exc.trial, i, exc))
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]
    return estimates


def _join(
    parts: Sequence[tuple[np.ndarray, StratumRows | None]],
) -> tuple[np.ndarray, StratumRows | None]:
    """One group's chunk estimates as one estimate over all trials, in trial order."""
    effect = np.concatenate([e for e, _ in parts])
    if parts[0][1] is None:
        return effect, None
    weight = np.concatenate([s.weight for _, s in parts])
    return effect, StratumRows(weight, np.concatenate([s.effect for _, s in parts]))


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


def run_header(model_name: str, cfg: RunConfig, do: Sequence[Intervention] | None = None, trials: bool = True) -> dict:
    """The head of every JSON payload a run writes, in key order; the one writer of these keys.

    ``model`` and ``backend``, then for a sampled run ``shots``, ``trials``,
    ``seed`` and ``noise`` (if set), then ``interventions`` (one
    ``{"variable", "value"}`` object per do(), in order) unless ``do`` is
    None. ``trials=False`` leaves ``trials`` out, as ``qdo run``'s
    distribution mode does: its one run has no trials. That mode passes its
    ``--do`` list even when it is empty; ``report_to_dict`` passes a report's
    do() only when it has one.
    """
    out: dict = {"model": model_name, "backend": cfg.backend}
    if cfg.backend == "sampled":
        out["shots"] = cfg.shots
        if trials:
            out["trials"] = cfg.trials
        out["seed"] = cfg.seed
        if cfg.noise is not None:
            out["noise"] = cfg.noise.p_depol
    if do is not None:
        out["interventions"] = [asdict(iv) for iv in do]
    return out


def report_to_dict(report: Report) -> dict:
    out = run_header(report.model, report.config, report.do or None)
    out["groups"] = []
    for g in report.groups:
        entry: dict = {"label": g.label, "effect": g.effect}
        if g.ci is not None:
            entry["ci"] = list(g.ci)
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
        ci = ",".join(map(repr, g.ci)) if g.ci is not None else ","
        n = str(len(g.per_trial)) if g.per_trial else ""
        label = g.label.replace('"', '""')
        lines.append(f'"{label}",{g.effect!r},{ci},{n}')
    return "\n".join(lines) + "\n"


def format_report_table(report: Report, bias_against: str | None = None) -> str:
    """Fixed-width table; ``bias_against`` adds a bias column relative to that group."""
    ref = report.group(bias_against).effect if bias_against is not None else None
    rows = []
    for g in report.groups:
        ci = "[{:+.3f}, {:+.3f}]".format(*g.ci) if g.ci is not None else "-"
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

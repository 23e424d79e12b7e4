"""Statistical quantities over distributions: conditionals, effects, CIs.

Conditioning reads an event's cells off a strided view of a full-register
distribution, exact or sampled (raw counts) alike. A conditioning event with
zero mass raises ``UndefinedConditionalError`` rather than silently producing
0/0: asking about an impossible event is a caller bug worth surfacing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .engine import Distribution
from .model import ModelError

# Normal-approximation 95% interval: mean +/- 1.96 standard errors.
Z_95 = 1.96


class UndefinedConditionalError(ValueError):
    """Conditioning event has zero probability mass / zero counts."""


@dataclass(frozen=True)
class Query:
    """P(outcome | condition) over named binary variables."""

    outcome: tuple[str, int]
    condition: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class StratumEffect:
    value: int
    weight: float
    effect: float


@dataclass(frozen=True)
class TrialStats:
    mean: float
    std_err: float | None
    ci_low: float | None
    ci_high: float | None
    n_trials: int


@dataclass(frozen=True)
class EffectReport:
    """One analysis group: an effect size with optional trial statistics."""

    label: str
    effect: float
    per_trial: tuple[float, ...] = ()
    std_err: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    n_trials: int | None = None
    shots_per_trial: int | None = None
    strata: tuple[StratumEffect, ...] | None = None

    @property
    def mean(self) -> float:
        return self.effect

    @property
    def ci(self) -> tuple[float, float] | None:
        if self.ci_low is None or self.ci_high is None:
            return None
        return (self.ci_low, self.ci_high)


def cells(values: np.ndarray, qubits: Mapping[str, int], event) -> np.ndarray:
    """The entries of a 2^n distribution where every ``(name, bit)`` of ``event`` holds.

    The event indexes axis n-1-q of ``values.reshape((2,) * n)`` for qubit q;
    ``ravel()`` makes the view contiguous in index order, so its sum adds the
    same floats in the same order as a boolean mask over ``values`` would.
    """
    n = values.size.bit_length() - 1
    index: list = [slice(None)] * n
    for name, bit in event:
        if name not in qubits:
            raise ModelError(f"unknown variable {name!r} in query")
        if bit not in (0, 1):
            raise ValueError(f"variable {name!r}: value must be 0 or 1, got {bit!r}")
        if not 0 <= qubits[name] < n:
            raise ValueError(f"variable {name!r}: qubit {qubits[name]} outside a {n}-qubit distribution")
        axis = n - 1 - qubits[name]
        # An axis asked for both bits keeps no cell.
        index[axis] = int(bit) if index[axis] in (slice(None), bit) else slice(0)
    return values.reshape((2,) * n)[tuple(index)].ravel()


def cond_prob(dist: Distribution, qubits: Mapping[str, int], query: Query) -> float:
    """P(outcome | condition); for sampled distributions, a ratio of counts."""
    cond_mass = float(cells(dist.values, qubits, query.condition).sum())
    if cond_mass <= 0.0:
        cond = ", ".join(f"{n}={b}" for n, b in query.condition) or "(empty)"
        raise UndefinedConditionalError(f"undefined conditional: condition [{cond}] has zero mass")
    return float(cells(dist.values, qubits, (*query.condition, query.outcome)).sum()) / cond_mass


def adjusted_effect(
    dist: Distribution,
    qubits: Mapping[str, int],
    treatment: str,
    outcome: str,
    adjust: Sequence[str] = (),
    given: Sequence[tuple[str, int]] = (),
) -> tuple[float, tuple[StratumEffect, ...]]:
    """Back-door adjustment of the treatment effect over the cells of ``adjust``.

    Returns the sum over cells z of P(z | given) * [P(outcome=1 | treatment=1,
    z, given) - P(outcome=1 | treatment=0, z, given)], with the per-cell
    breakdown. With no ``adjust`` set this is the observational effect within
    ``given``; adjusting for a set that blocks every back-door path gives the
    causal effect (Pearl, Causality, 2009, section 3.3). A cell's ``value``
    reads the ``adjust`` bits with the first variable most significant. Cells
    with zero mass are skipped; a nonempty cell with an empty treatment arm
    is an error.
    """
    given = tuple(given)
    base_mass = float(cells(dist.values, qubits, given).sum())
    strata = []
    for value, bits in enumerate(itertools.product((0, 1), repeat=len(adjust))):
        cell = tuple(zip(adjust, bits))
        mass = float(cells(dist.values, qubits, given + cell).sum())
        if adjust and mass <= 0.0:
            continue
        try:
            p1 = cond_prob(dist, qubits, Query((outcome, 1), ((treatment, 1),) + cell + given))
            p0 = cond_prob(dist, qubits, Query((outcome, 1), ((treatment, 0),) + cell + given))
        except UndefinedConditionalError as exc:
            if not adjust:
                raise
            where = ", ".join(f"{n}={b}" for n, b in cell)
            raise UndefinedConditionalError(f"undefined stratum cell ({where}): {exc}") from exc
        strata.append(StratumEffect(value, mass / base_mass, p1 - p0))
    if not strata:
        raise UndefinedConditionalError(f"adjustment set {', '.join(adjust)} has no mass in any cell")
    return sum(s.weight * s.effect for s in strata), tuple(strata)


def observational_effect(
    dist: Distribution, qubits: Mapping[str, int], treatment: str, outcome: str
) -> float:
    """P(outcome=1 | treatment=1) - P(outcome=1 | treatment=0)."""
    return adjusted_effect(dist, qubits, treatment, outcome)[0]


def stratified_effect(
    dist: Distribution, qubits: Mapping[str, int], treatment: str, outcome: str, stratifier: str
) -> tuple[float, tuple[StratumEffect, ...]]:
    """Within-stratum effects and their prevalence-weighted (back-door) aggregate."""
    return adjusted_effect(dist, qubits, treatment, outcome, (stratifier,))


def aggregate_trials(estimates: Sequence[float]) -> TrialStats:
    """Mean, standard error and 95% CI across independent trial estimates.

    The standard error uses the K-1 sample standard deviation; a single trial
    yields a mean with no interval.
    """
    if len(estimates) == 0:
        raise ValueError("aggregate_trials requires at least one estimate")
    k = len(estimates)
    mean = float(np.mean(estimates))
    if k < 2:
        return TrialStats(mean, None, None, None, k)
    std_err = float(np.std(estimates, ddof=1)) / math.sqrt(k)
    half = Z_95 * std_err
    return TrialStats(mean, std_err, mean - half, mean + half, k)

"""Statistical quantities over distributions: conditionals, effects, CIs.

Conditioning reads an event's cells off a strided view of a full-register
distribution, exact or sampled (raw counts) alike. The estimators also take a
(trials, 2^n) stack with one distribution per row and return one estimate per
row, so K trials are estimated in one pass; a Distribution is the one-row
case. A conditioning event with zero mass raises ``UndefinedConditionalError``
rather than silently producing 0/0: asking about an impossible event is a
caller bug worth surfacing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence, overload

import numpy as np

from .engine import Distribution
from .model import ModelError, _is_index, _show, is_bit

# Normal-approximation 95% interval: mean +/- 1.96 standard errors.
Z_95 = 1.96


class UndefinedConditionalError(ValueError):
    """Conditioning event has zero probability mass / zero counts.

    ``trial`` is the row of a (trials, 2^n) stack that failed first; it is 0
    for a Distribution.
    """

    def __init__(self, message: str, trial: int = 0) -> None:
        super().__init__(message)
        self.trial = trial


@dataclass(frozen=True)
class Query:
    """P(outcome | condition) over named binary variables."""

    outcome: tuple[str, int]
    condition: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class StratumEffect:
    """One nonempty cell of an adjustment on one distribution: P(z | given) and its effect."""

    value: int
    weight: float
    effect: float


@dataclass(frozen=True)
class StratumRows:
    """Every cell of an adjustment on a (trials, 2^n) stack (``adjusted_effect``).

    ``weight`` and ``effect`` have shape (trials, 2^len(adjust)): entry [i, z]
    is cell z's ``StratumEffect`` field in row i, NaN where row i skips the cell.
    """

    weight: np.ndarray
    effect: np.ndarray

    def means(self) -> tuple[StratumEffect, ...]:
        """Each cell's mean weight and effect over the rows that have it.

        A cell no row has is left out. The sums add in row order from 0.0, as
        a running total does (np.sum's pairwise blocks could move the last
        bit), so one row gives its own cells back.
        """
        out = []
        for value, (weights, effects) in enumerate(zip(self.weight.T.tolist(), self.effect.T.tolist())):
            present = [(w, e) for w, e in zip(weights, effects) if not math.isnan(w)]
            if present:
                weight = effect = 0.0
                for w, e in present:
                    weight += w
                    effect += e
                out.append(StratumEffect(value, weight / len(present), effect / len(present)))
        return tuple(out)


@dataclass(frozen=True)
class EffectReport:
    """One report row: an analysis group's effect size, with trial statistics if sampled.

    A sampled row (``aggregate_trials``) holds the K per-trial estimates, with
    ``effect`` their mean and, for K >= 2, the 95% CI as (low, high); an exact
    row has no trials and no CI.
    """

    label: str
    effect: float
    per_trial: tuple[float, ...] = ()
    ci: tuple[float, float] | None = None
    strata: tuple[StratumEffect, ...] | None = None


def cells(values: np.ndarray, qubits: Mapping[str, int], event) -> np.ndarray:
    """The entries of a 2^n distribution where every ``(name, bit)`` of ``event`` holds.

    ``values`` is one distribution of shape (2^n,) or a stack of shape
    (trials, 2^n), one distribution per row; the result keeps the leading
    axis. The event indexes axis n-1-q of a row's ``reshape((2,) * n)`` for
    qubit q; the final reshape makes each row contiguous in index order, so
    its sum adds the same floats in the same order as a boolean mask over that
    row would. A name missing from ``qubits`` raises ``ModelError``; a bit
    that fails ``model.is_bit``, or a qubit that fails ``model._is_index``
    for the n qubits, raises ``ValueError``.
    """
    lead = values.shape[:-1]
    n = values.shape[-1].bit_length() - 1
    index: list = [slice(None)] * n
    for name, bit in event:
        try:
            qubit = qubits[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ModelError(f"unknown variable {_show(name)} in query") from None
        if not is_bit(bit):
            raise ValueError(f"variable {_show(name)}: value must be 0 or 1, got {_show(bit)}")
        if not _is_index(qubit, n):
            raise ValueError(f"variable {_show(name)}: qubit {_show(qubit)} outside a {n}-qubit distribution")
        axis = n - 1 - qubit
        # An axis asked for both bits keeps no cell.
        index[axis] = bit if index[axis] in (slice(None), bit) else slice(0)
    return values.reshape(lead + (2,) * n)[(..., *index)].reshape(*lead, -1)


def _rows(dist: Distribution | np.ndarray) -> np.ndarray:
    # A Distribution is the one-row stack of its values.
    return dist.values[None] if isinstance(dist, Distribution) else dist


def _mass(values: np.ndarray, qubits: Mapping[str, int], event) -> np.ndarray:
    return cells(values, qubits, event).sum(axis=-1)


def _zero_mass(condition) -> str:
    cond = ", ".join(f"{n}={b}" for n, b in condition) or "(empty)"
    return f"undefined conditional: condition [{cond}] has zero mass"


def cond_prob(
    dist: Distribution | np.ndarray, qubits: Mapping[str, int], query: Query
) -> float | np.ndarray:
    """P(outcome | condition); for sampled distributions, a ratio of counts.

    A Distribution gives a float. A (trials, 2^n) stack of probability or
    count rows gives an array with one ratio per row, each computed as the
    Distribution of that row would be; if any row's condition has zero mass,
    the error's ``trial`` is the first such row.
    """
    values = _rows(dist)
    cond_mass = _mass(values, qubits, query.condition)
    empty = cond_mass <= 0
    if np.count_nonzero(empty):
        raise UndefinedConditionalError(_zero_mass(query.condition), trial=int(empty.argmax()))
    p = _mass(values, qubits, (*query.condition, query.outcome)) / cond_mass
    return float(p[0]) if isinstance(dist, Distribution) else p


@overload
def adjusted_effect(
    dist: Distribution,
    qubits: Mapping[str, int],
    treatment: str,
    outcome: str,
    adjust: Sequence[str] = (),
    given: Sequence[tuple[str, int]] = (),
) -> tuple[float, tuple[StratumEffect, ...]]: ...


@overload
def adjusted_effect(
    dist: np.ndarray,
    qubits: Mapping[str, int],
    treatment: str,
    outcome: str,
    adjust: Sequence[str] = (),
    given: Sequence[tuple[str, int]] = (),
) -> tuple[np.ndarray, StratumRows]: ...


def adjusted_effect(dist, qubits, treatment, outcome, adjust=(), given=()):
    """Back-door adjustment of the treatment effect over the cells of ``adjust``.

    Returns the sum over cells z of P(z | given) * [P(outcome=1 | treatment=1,
    z, given) - P(outcome=1 | treatment=0, z, given)], with the per-cell
    breakdown. With no ``adjust`` set this is the observational effect within
    ``given``; adjusting for a set that blocks every back-door path gives the
    causal effect (Pearl, Causality, 2009, section 3.3). A cell's ``value``
    reads the ``adjust`` bits with the first variable most significant. A
    ``given`` condition with zero mass is an error that names it. Cells with
    zero mass are skipped; a nonempty cell with an empty treatment arm is an
    error.

    A (trials, 2^n) stack gives one effect per row and the ``StratumRows``
    of every cell. A Distribution gives a float and the ``StratumEffect`` of
    each nonempty cell: the ``StratumRows.means()`` of its one row. Each row
    gets the float operations its own Distribution would, and a failing stack
    raises the error of its first failing row, whose ``trial`` names that
    row.
    """
    values = _rows(dist)
    given = tuple(given)
    base_mass = _mass(values, qubits, given)
    rows = base_mass.shape[0]
    total = np.zeros(rows)
    seen = np.zeros(rows, dtype=bool)
    weights = np.full((rows, 1 << len(adjust)), np.nan)
    effects = np.full_like(weights, np.nan)
    # (row mask, error) in the order each row's checks run; a row's first entry is its error.
    no_mass = base_mass <= 0
    failed: list[tuple[np.ndarray, str]] = [(no_mass, _zero_mass(given))] if np.count_nonzero(no_mass) else []
    with np.errstate(divide="ignore", invalid="ignore"):  # rows that fail or skip a cell
        for value, bits in enumerate(itertools.product((0, 1), repeat=len(adjust))):
            cell = tuple(zip(adjust, bits))
            mass = _mass(values, qubits, given + cell) if adjust else base_mass
            live = mass > 0 if adjust else np.ones(rows, dtype=bool)
            if not np.count_nonzero(live):
                continue
            arms = []
            for arm in (1, 0):
                condition = ((treatment, arm),) + cell + given
                cond_mass = _mass(values, qubits, condition)
                empty = live & (cond_mass <= 0)
                if np.count_nonzero(empty):
                    reason = _zero_mass(condition)
                    if adjust:
                        where = ", ".join(f"{n}={b}" for n, b in cell)
                        reason = f"undefined stratum cell ({where}): {reason}"
                    failed.append((empty, reason))
                arms.append(_mass(values, qubits, (*condition, (outcome, 1))) / cond_mass)
            weight = mass / base_mass
            effect = arms[0] - arms[1]
            np.add(total, weight * effect, out=total, where=live)
            seen |= live
            np.copyto(weights[:, value], weight, where=live)
            np.copyto(effects[:, value], effect, where=live)
    if np.count_nonzero(~seen):
        failed.append((~seen, f"adjustment set {', '.join(adjust)} has no mass in any cell"))
    if failed:
        first = min(int(mask.argmax()) for mask, _ in failed)
        raise UndefinedConditionalError(next(err for mask, err in failed if mask[first]), trial=first)
    strata = StratumRows(weights, effects)
    if not isinstance(dist, Distribution):
        return total, strata
    return float(total[0]), strata.means()


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


def aggregate_trials(
    label: str, per_trial: Sequence[float], strata: tuple[StratumEffect, ...] | None = None
) -> EffectReport:
    """The report row of K independent trial estimates: their mean and 95% CI.

    The CI is mean +/- 1.96 standard errors, from the K-1 sample standard
    deviation; a single trial yields a mean with no interval.
    """
    per_trial = tuple(per_trial)
    k = len(per_trial)
    if k == 0:
        raise ValueError("aggregate_trials requires at least one estimate")
    mean = float(np.mean(per_trial))
    if k < 2:
        return EffectReport(label, mean, per_trial, strata=strata)
    std_err = float(np.std(per_trial, ddof=1)) / math.sqrt(k)
    half = Z_95 * std_err
    return EffectReport(label, mean, per_trial, (mean - half, mean + half), strata)

"""Built-in benchmark models with their gate parameters.

Two models ship with the package: a minimal 3-qubit confounded
treatment/outcome system whose aggregated observational effect reverses sign
against its subgroup effects, and a 10-qubit multi-level healthcare network
where stratifying on any single covariate corrects only part of the
confounding bias.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import GROUND, UNIFORM, CausalModel, Edge, Prep, Variable


@dataclass(frozen=True)
class Roles:
    treatment: str
    outcome: str
    stratifiers: tuple[str, ...]


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    model: CausalModel
    roles: Roles


def simpson3() -> CatalogEntry:
    """3-qubit model: G confounds both the treatment T and the outcome O.

    G is uniform; T is rotated by 2.4 when G=0 and by 0.8 when G=1, giving
    treatment rates of ~87% and ~15%; O has base angle 0.3 plus 1.0 from G and
    0.6 from T.
    """
    model = CausalModel(
        name="simpson3",
        variables=(
            Variable("G", 0, UNIFORM),
            Variable("T", 1, GROUND),
            Variable("O", 2, Prep.rotation(0.3)),
        ),
        edges=(
            Edge("G", "T", 0, 2.4),
            Edge("G", "T", 1, 0.8),
            Edge("G", "O", 1, 1.0),
            Edge("T", "O", 1, 0.6),
        ),
    )
    return CatalogEntry("simpson3", model, Roles("T", "O", ("G",)))


def healthcare10() -> CatalogEntry:
    """10-qubit healthcare network: demographics -> treatment -> care cascade.

    Qubit order follows the parameter listing (Age first, Satisfaction last).
    The bias link GenderBias -> Treatment suppresses treatment for the high
    bias group; it is realized as a rotation by 1.4 conditioned on the
    low-bias state, which is the realization that reproduces the reference
    effect sizes (a -1.4 rotation conditioned on high bias does not).
    """
    model = CausalModel(
        name="healthcare10",
        variables=(
            Variable("Age", 0, Prep.rotation(1.0)),
            Variable("Income", 1, GROUND),
            Variable("Region", 2, GROUND),
            Variable("GenderBias", 3, GROUND),
            Variable("Treatment", 4, Prep.rotation(0.2)),
            Variable("Insurance", 5, Prep.rotation(0.3)),
            Variable("Hospital", 6, Prep.rotation(0.4)),
            Variable("Doctor", 7, Prep.rotation(0.5)),
            Variable("Outcome", 8, Prep.rotation(0.1)),
            Variable("Satisfaction", 9, Prep.rotation(0.3)),
        ),
        edges=(
            Edge("Age", "Income", 1, 0.8),
            Edge("Income", "Region", 1, 1.2),
            Edge("Region", "GenderBias", 0, 1.0),
            Edge("Age", "Treatment", 1, 1.2),
            Edge("Income", "Treatment", 1, 1.0),
            Edge("GenderBias", "Treatment", 0, 1.4),
            Edge("Treatment", "Insurance", 1, 0.8),
            Edge("Age", "Insurance", 1, 0.4),
            Edge("Insurance", "Hospital", 1, 0.6),
            Edge("Region", "Hospital", 1, 0.5),
            Edge("Hospital", "Doctor", 1, 0.4),
            Edge("GenderBias", "Doctor", 1, 0.3),
            Edge("Age", "Outcome", 0, 0.8),
            Edge("Region", "Outcome", 0, 0.6),
            Edge("Treatment", "Outcome", 1, 1.2),
            Edge("Doctor", "Outcome", 1, 0.5),
            Edge("Hospital", "Outcome", 1, 0.4),
            Edge("Outcome", "Satisfaction", 1, 0.8),
            Edge("Doctor", "Satisfaction", 1, 0.3),
        ),
    )
    return CatalogEntry("healthcare10", model, Roles("Treatment", "Outcome", ("Age", "Region")))


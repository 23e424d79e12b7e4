"""Causal DAGs compiled to quantum circuits, with interventions by circuit surgery."""

from .analysis import (
    EffectReport,
    Query,
    StratumEffect,
    UndefinedConditionalError,
    adjusted_effect,
    aggregate_trials,
    cond_prob,
    observational_effect,
    stratified_effect,
)
from .catalog import CatalogEntry, healthcare10, simpson3
from .circuit import Circuit, Gate, compile_model, format_circuit, surgered_circuit
from .engine import Distribution, NoiseSpec, marginal, run_exact, run_sampled, statevector
from .experiments import Report, RunConfig, causal_effect, run_experiment
from .model import (
    GROUND,
    UNIFORM,
    CausalModel,
    Edge,
    Intervention,
    ModelError,
    Prep,
    Variable,
    apply_do,
    load_model,
    save_model,
    topological_order,
    validate,
)
from .oracle import conditional_table, enumerate_joint

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CausalModel",
    "Circuit",
    "Distribution",
    "Edge",
    "EffectReport",
    "Gate",
    "GROUND",
    "Intervention",
    "ModelError",
    "NoiseSpec",
    "Prep",
    "Query",
    "Report",
    "RunConfig",
    "StratumEffect",
    "UNIFORM",
    "UndefinedConditionalError",
    "Variable",
    "adjusted_effect",
    "aggregate_trials",
    "apply_do",
    "causal_effect",
    "compile_model",
    "cond_prob",
    "conditional_table",
    "enumerate_joint",
    "format_circuit",
    "healthcare10",
    "load_model",
    "marginal",
    "observational_effect",
    "run_exact",
    "run_experiment",
    "run_sampled",
    "save_model",
    "simpson3",
    "statevector",
    "stratified_effect",
    "surgered_circuit",
    "topological_order",
    "validate",
]

"""QAOA simulation: fixed schedules, dense statevectors, lightcone engines."""
from .lightcone import (
    LightconeTask,
    SupportTooLarge,
    edge_correlation,
    lightcone_expectation,
    lightcone_support,
)
from .params import (
    PHASE_SCALE,
    QaoaParams,
    UnknownParams,
    tree_params,
)
from .statevector import (
    DegenerateBaseline,
    EnergySummary,
    Statevector,
    color_change_vector,
    delta_c_metric,
    expectation,
    p_alpha,
    pair_energy_vector,
    sample,
    simulate_state,
    z_expectations,
)

__all__ = [
    "DegenerateBaseline",
    "EnergySummary",
    "LightconeTask",
    "PHASE_SCALE",
    "QaoaParams",
    "Statevector",
    "SupportTooLarge",
    "UnknownParams",
    "color_change_vector",
    "delta_c_metric",
    "edge_correlation",
    "expectation",
    "lightcone_expectation",
    "lightcone_support",
    "p_alpha",
    "pair_energy_vector",
    "sample",
    "simulate_state",
    "tree_params",
    "z_expectations",
]

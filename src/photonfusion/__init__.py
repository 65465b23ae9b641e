"""Exact simulation of multi-pair photon fusion interferometry.

The simulator (experiment, and numpy behind it) is imported on first use
of one of its names, so reading and analyzing recorded histograms does
not pay for loading it.
"""

from .analysis import (
    ObservableResult,
    PopulationSummary,
    WitnessReport,
    fidelity_witness,
    m_k_expectation,
    poisson_propagate,
    populations,
    witness_from_histograms,
)
from .config import ConfigError, ExperimentConfig, load_config, save_config
from .records import (
    CoincidenceHistogram,
    DetectionPattern,
    MeasurementSetting,
    histogram_from_lines,
    histogram_to_lines,
    hv_setting,
    k_setting,
    setting_from_label,
)
from .topology import (
    FusionTopology,
    chain_topology,
    enumerate_error_terms,
    graph_state_edges,
    n_fold_rate,
    star_topology,
)

__all__ = [
    "Apparatus",
    "CoincidenceHistogram",
    "ConfigError",
    "DetectionPattern",
    "ExperimentConfig",
    "FusionTopology",
    "MeasurementSetting",
    "ObservableResult",
    "PopulationSummary",
    "WitnessReport",
    "absolute_outcome_distribution",
    "assemble_apparatus",
    "build_apparatus",
    "calibrate_overlaps",
    "chain_topology",
    "emission_pattern_probability",
    "enumerate_error_terms",
    "fidelity_witness",
    "fusion_visibility",
    "graph_state_edges",
    "histogram_from_lines",
    "histogram_to_lines",
    "hv_setting",
    "k_setting",
    "load_config",
    "m_k_expectation",
    "monte_carlo_counts",
    "n_fold_rate",
    "outcome_distribution",
    "poisson_propagate",
    "populations",
    "save_config",
    "setting_from_label",
    "star_topology",
    "synthesizer_visibility",
    "witness_from_histograms",
]

# the names of __all__ not imported above are the engine's, served from
# experiment on first access (PEP 562)
_ENGINE = frozenset(__all__) - globals().keys()


def __getattr__(name):
    if name in _ENGINE:
        from . import experiment

        return getattr(experiment, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _ENGINE)

import dataclasses

import photonfusion
from photonfusion import elements, fock

WORKFLOW_API = (
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
)


def test_fock_keeps_no_test_only_algebra():
    # tensor products and mode relabeling are reference constructions
    # (tests/oracles.py); the simulator joins sources through compiled images
    assert not hasattr(fock, "tensor_product")
    assert not hasattr(fock, "map_modes")
    # so are the state algebra and the multinomial engine: the library
    # reads its optics one photon at a time
    for name in ("norm_sq", "norm", "inner", "normalized", "scaled", "plus", "__add__",
                 "__mul__", "__rmul__", "photon_number_sectors"):
        assert not hasattr(fock.AmplitudeState, name), name
    assert not hasattr(fock, "NORM_TOL") and not hasattr(fock, "_pruned")
    assert "__contains__" not in vars(fock.ModeRegistry)
    assert not hasattr(elements.LinearElement, "_expansion")
    assert [f.name for f in dataclasses.fields(elements.LinearElement)] == [
        "name", "mode_indices", "matrix"
    ]
    assert not hasattr(elements, "_compositions")


def test_package_exports_exactly_the_workflow_api():
    assert sorted(photonfusion.__all__) == sorted(WORKFLOW_API)
    assert len(WORKFLOW_API) == 36
    for name in photonfusion.__all__:
        assert getattr(photonfusion, name) is not None

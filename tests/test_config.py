"""Config schema: defaults, validation, and file round-trips."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonfusion.config import (
    ConfigError,
    SETTING_LABELS,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)


# ---- Defaults ----


def test_default_config_matches_reported_run():
    cfg = default_config()
    assert cfg.sources.pair_probability == 0.058
    assert cfg.sources.synthesizer_overlap == 0.94
    assert cfg.sources.fusion_overlap == 0.76
    assert cfg.sources.truncation_pairs == 4
    assert cfg.sources.count == 4
    assert cfg.topology.shape == "star"
    assert cfg.detection.efficiency == 0.265
    assert cfg.detection.repetition_rate_hz == 76.0e6
    assert cfg.run.settings == SETTING_LABELS
    assert cfg.run.duration_hours["HV"] == 40.0
    assert cfg.run.duration_hours["k0"] == 25.0
    assert cfg.run.duration_hours["k5"] == 15.0
    assert cfg.run.seed == 1
    assert cfg.output.formats == ("csv", "json")


def test_setting_labels_cover_hv_and_eight_angles():
    assert SETTING_LABELS[0] == "HV"
    assert list(SETTING_LABELS[1:]) == [f"k{k}" for k in range(8)]


# ---- Dict round-trip ----


def test_to_dict_from_dict_round_trip():
    cfg = default_config()
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_custom_topology_round_trip():
    data = config_to_dict(default_config())
    data["sources"]["count"] = 2
    data["topology"] = {
        "shape": "custom",
        "sources": [[1, 2], [4, 3]],
        "fusion_edges": [[1, 4]],
    }
    cfg = config_from_dict(data)
    assert cfg.topology.sources == ((1, 2), (4, 3))
    assert cfg.topology.fusion_edges == ((1, 4),)
    assert config_from_dict(config_to_dict(cfg)) == cfg


# ---- Validation ----


def test_unknown_top_level_key_rejected():
    data = config_to_dict(default_config())
    data["detectors"] = {}
    with pytest.raises(ConfigError, match="detectors"):
        config_from_dict(data)


def test_unknown_nested_key_rejected():
    data = config_to_dict(default_config())
    data["sources"]["brightness"] = 1.0
    with pytest.raises(ConfigError, match="sources.brightness"):
        config_from_dict(data)


def test_all_problems_collected_in_one_error():
    data = config_to_dict(default_config())
    data["sources"]["pair_probability"] = 1.5
    data["detection"]["efficiency"] = -0.1
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert len(err.value.problems) == 2
    joined = str(err.value)
    assert "pair_probability" in joined and "efficiency" in joined


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("sources", "pair_probability", "high"),
        ("sources", "pair_probability", True),
        ("sources", "pair_probability", 2.0),
        ("sources", "synthesizer_overlap", -0.5),
        ("sources", "fusion_overlap", 1.01),
        ("sources", "truncation_pairs", 0),
        ("sources", "truncation_pairs", 2.5),
        ("sources", "count", 3),
        ("detection", "efficiency", 0.0),
        ("detection", "repetition_rate_hz", -76.0e6),
        ("run", "seed", -1),
        ("run", "seed", 1.5),
        ("sources", "pair_probability", math.nan),
        ("detection", "repetition_rate_hz", math.inf),
        pytest.param("detection", "repetition_rate_hz", 10**400, id="rate-past-float-range"),
        # refused without building a witness plan of 2e12 settings
        pytest.param("sources", "count", 10**12, id="count-past-k-labels"),
    ],
)
def test_bad_scalar_rejected(section, key, value):
    data = config_to_dict(default_config())
    data[section][key] = value
    with pytest.raises(ConfigError, match=key):
        config_from_dict(data)


def test_bad_topology_shape_rejected():
    data = config_to_dict(default_config())
    data["topology"]["shape"] = "ring"
    with pytest.raises(ConfigError, match="shape"):
        config_from_dict(data)


def test_custom_wiring_validated():
    data = config_to_dict(default_config())
    data["sources"]["count"] = 2
    data["topology"] = {
        "shape": "custom",
        "sources": [[1, 2], [2, 3]],
        "fusion_edges": [],
    }
    with pytest.raises(ConfigError, match="topology"):
        config_from_dict(data)
    # a valid two-source wiring under sources.count=4 fails at load
    data["sources"]["count"] = 4
    data["topology"]["sources"] = [[1, 2], [4, 3]]
    data["topology"]["fusion_edges"] = [[1, 4]]
    with pytest.raises(ConfigError, match="count=4 but topology lists 2"):
        config_from_dict(data)


def test_wiring_lists_only_valid_for_custom_shape():
    data = config_to_dict(default_config())
    data["topology"]["sources"] = [[1, 2]]
    with pytest.raises(ConfigError, match="topology.sources"):
        config_from_dict(data)


def test_wiring_must_be_pair_list():
    data = config_to_dict(default_config())
    data["topology"] = {"shape": "custom", "sources": 7, "fusion_edges": []}
    with pytest.raises(ConfigError, match="topology.sources"):
        config_from_dict(data)
    # arms are numbers: a nested list or a name is refused, not raised on
    data["sources"]["count"] = 2
    for key, sources, edges in [
        ("sources", [[1, [2]], [4, 3]], [[1, 4]]),
        ("fusion_edges", [[1, 2], [4, 3]], [[1, [4]]]),
        ("sources", [["a", "b"], [4, 3]], [["b", 4]]),
    ]:
        data["topology"] = {"shape": "custom", "sources": sources, "fusion_edges": edges}
        with pytest.raises(ConfigError, match=f"topology.{key} must be a list of arm pairs"):
            config_from_dict(data)


def test_unknown_setting_label_rejected():
    data = config_to_dict(default_config())
    data["run"]["settings"] = ["HV", "k9"]
    with pytest.raises(ConfigError, match="k9"):
        config_from_dict(data)
    # an unhashable entry is refused like any other
    data["run"]["settings"] = [["HV"], "k0"]
    with pytest.raises(ConfigError, match=r"entry \['HV'\] not one of"):
        config_from_dict(data)


def test_duplicate_setting_rejected():
    data = config_to_dict(default_config())
    data["run"]["settings"] = ["HV", "HV"]
    with pytest.raises(ConfigError, match="duplicate"):
        config_from_dict(data)


def test_every_listed_setting_needs_a_duration():
    data = config_to_dict(default_config())
    del data["run"]["duration_hours"]["k3"]
    with pytest.raises(ConfigError, match="k3"):
        config_from_dict(data)


def test_extra_durations_are_allowed():
    data = config_to_dict(default_config())
    data["sources"]["count"] = 2
    data["run"]["settings"] = ["HV", "k0", "k2", "k4", "k6"]
    cfg = config_from_dict(data)
    assert set(cfg.run.duration_hours) == set(SETTING_LABELS)


@pytest.mark.parametrize(
    "count,truncation,pair_probability",
    [(4, 3, 0.058), (2, 1, 0.058), (1, 1, 0.0), (4, 4, 0.0)],
)
def test_config_accepting_nothing_rejected(count, truncation, pair_probability):
    # each arm needs a photon: 2 * count arms need count pairs, and p > 0
    data = config_to_dict(default_config())
    data["sources"].update(
        count=count, truncation_pairs=truncation, pair_probability=pair_probability
    )
    with pytest.raises(ConfigError, match="no accepted coincidences"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "count,settings,lacking",
    [
        (4, ["HV"], "k0, k1, k2, k3, k4, k5, k6, k7"),
        (4, ["HV", "k0", "k2", "k4", "k6"], "k1, k3, k5, k7"),
        (2, ["HV", "k0", "k1", "k2", "k3"], "k4, k6"),
        (1, ["k0", "k4"], "HV"),
    ],
)
def test_plan_without_the_witness_plan_rejected(count, settings, lacking):
    data = config_to_dict(default_config())
    data["sources"]["count"] = count
    data["run"]["settings"] = settings
    with pytest.raises(ConfigError, match=f"lacks {lacking} of the witness plan"):
        config_from_dict(data)


def test_nonpositive_duration_rejected():
    for hours in (0.0, math.nan, math.inf, 10**400):
        data = config_to_dict(default_config())
        data["run"]["duration_hours"]["k1"] = hours
        with pytest.raises(ConfigError, match=r"duration_hours\['k1'\] must be a positive"):
            config_from_dict(data)


def test_output_formats_validated():
    data = config_to_dict(default_config())
    data["output"]["formats"] = ["yaml"]
    with pytest.raises(ConfigError, match="formats"):
        config_from_dict(data)
    data["output"]["formats"] = []
    with pytest.raises(ConfigError, match="formats"):
        config_from_dict(data)
    data["output"]["formats"] = [["csv"]]
    with pytest.raises(ConfigError, match=r"output.formats entry \['csv'\]"):
        config_from_dict(data)


_SECTIONS = config_to_dict(default_config())
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=3)
    | st.sampled_from(["HV", "k0", "csv", "custom"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_PLACES = st.sampled_from(
    [(section,) for section in _SECTIONS]
    + [(section, key) for section, keys in _SECTIONS.items() for key in keys]
)


@settings(max_examples=300, deadline=None)
@given(place=_PLACES, value=_JSON)
def test_any_json_entry_validates_or_is_refused(place, value):
    """Whatever JSON value sits at a section or key, loading either gives a
    config or raises ConfigError, and never raises anything else."""
    data = config_to_dict(default_config())
    if len(place) == 1:
        data[place[0]] = value
    else:
        data[place[0]][place[1]] = value
    try:
        config_from_dict(data)
    except ConfigError:
        pass


# ---- Files ----


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "run.json"
    cfg = default_config()
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_save_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_config(default_config(), a)
    save_config(default_config(), b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_load_missing_file_reports_path(tmp_path):
    path = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="nope.json"):
        load_config(path)


def test_load_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"sources": }')
    with pytest.raises(ConfigError, match="broken.json:1"):
        load_config(path)


def test_load_validation_problem_mentions_file(tmp_path):
    path = tmp_path / "bad.json"
    data = config_to_dict(default_config())
    data["sources"]["count"] = 5
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="bad.json"):
        load_config(path)

"""End-to-end apparatus tests: closure, noise knobs, counting, file IO."""

import dataclasses
import functools
import math
import sys
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    apply_multinomial,
    arm_groups,
    beamsplitter_matrix,
    coincidence_support,
    emission_sector,
    map_modes,
    members_for_pattern,
    pattern_vector,
    tensor_product,
)
from oracles import outcome_distribution as oracle_distribution
from photonfusion import experiment
from photonfusion.config import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    default_config,
    leading_underflow,
)
from photonfusion.experiment import (
    Apparatus,
    CoincidenceHistogram,
    DetectionPattern,
    MeasurementSetting,
    _pattern_vectors,
    absolute_outcome_distribution,
    absolute_outcome_distributions,
    all_detection_patterns,
    angle_setting,
    assemble_apparatus,
    build_apparatus,
    calibrate_overlaps,
    emission_pattern_probability,
    fusion_visibility,
    histogram_from_lines,
    histogram_to_lines,
    hv_setting,
    k_setting,
    monte_carlo_counts,
    outcome_distribution,
    parity_visibility,
    setting_from_label,
    synthesizer_visibility,
)
from photonfusion.elements import analyzer_matrix, apply_element, element_on
from photonfusion.fock import AmplitudeState, ModeLabel, registry_from
from photonfusion.sources import TAG_BROAD, TAG_NARROW, PdcSource
from photonfusion.topology import (
    FusionTopology,
    admitted_patterns,
    chain_topology,
    n_fold_rate,
    single_source_topology,
    star_topology,
)


def signed_parity(dist):
    return sum(((-1) ** pat.count("-")) * p for pat, p in dist.items())


def signed_m(dist, k):
    return ((-1) ** k) * signed_parity(dist)


@pytest.fixture(scope="module")
def ideal_star():
    return assemble_apparatus(
        star_topology(), pair_probability=0.058, detector_efficiency=0.265,
        truncation_pairs=4,
    )


@pytest.fixture(scope="module")
def noisy_pair():
    # two sources, one fusion: the small testbed with both knobs active
    return assemble_apparatus(
        star_topology(2), pair_probability=0.05, synthesizer_overlap=0.9,
        fusion_overlap=0.8, detector_efficiency=0.3, truncation_pairs=2,
    )


# ---- Measurement settings ----


def test_hv_setting_is_computational():
    s = hv_setting()
    assert s.label == "HV" and s.angles is None
    assert s.symbols == ("H", "V")


def test_k_setting_angles():
    s = k_setting(3)
    assert s.label == "k3"
    assert s.angles == (3 * math.pi / 8,) * 8
    assert s.symbols == ("+", "-")
    assert k_setting(5, 4).angles == (5 * math.pi / 8,) * 4


@pytest.mark.parametrize("bad", [-1, 16, 2.0, "3"])
def test_k_setting_rejects_bad_index(bad):
    with pytest.raises(ValueError):
        k_setting(bad)


def test_angle_outside_range_rejected():
    with pytest.raises(ValueError, match="angle"):
        MeasurementSetting("x", (0.1, 7.0))


def test_setting_from_label_round_trip():
    assert setting_from_label("HV") == hv_setting()
    assert setting_from_label("k6", 4) == k_setting(6, 4)
    custom = angle_setting([0.1, 1e-05, 2 / 3, 6.0])
    assert "," not in custom.label
    assert setting_from_label(custom.label, 4) == custom
    with pytest.raises(ValueError, match="setting"):
        setting_from_label("diag")
    with pytest.raises(ValueError, match="setting"):
        setting_from_label("angles:0.1;x", 2)
    with pytest.raises(ValueError, match="arms"):
        setting_from_label(custom.label, 8)


# ---- Patterns and histograms ----


def test_detection_pattern_validation():
    assert DetectionPattern("HVVH").count("V") == 2
    for bad in ("", "HX", "H+", "+H"):
        with pytest.raises(ValueError):
            DetectionPattern(bad)


def test_all_detection_patterns_order():
    pats = all_detection_patterns(3)
    assert len(pats) == 8
    assert pats[0].bits == "HHH" and pats[1].bits == "HHV"
    assert pats[-1].bits == "VVV"
    plus = all_detection_patterns(2, ("+", "-"))
    assert [p.bits for p in plus] == ["++", "+-", "-+", "--"]


def test_histogram_validation():
    pat = DetectionPattern("HH")
    with pytest.raises(ValueError, match="count"):
        CoincidenceHistogram(hv_setting(), {pat: -1}, 1.0, 0)
    with pytest.raises(ValueError, match="width"):
        CoincidenceHistogram(
            hv_setting(), {pat: 1, DetectionPattern("HHH"): 2}, 1.0, 0
        )
    with pytest.raises(ValueError, match="duration"):
        CoincidenceHistogram(hv_setting(), {pat: 1}, 0.0, 0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="count"):
            CoincidenceHistogram(hv_setting(), {pat: bad}, 1.0, 0)
        with pytest.raises(ValueError, match="duration"):
            CoincidenceHistogram(hv_setting(), {pat: 1}, bad, 0)


# ---- Apparatus assembly ----


def test_star_apparatus_layout(ideal_star):
    app = ideal_star
    assert app.output_arms == (1, 2, 3, 4, 5, 6, 7, 8)
    assert app.n_arms == 8
    assert len(app.sources) == 4
    assert len(app.registry) == 16
    assert len(app.plain_registry) == 16
    assert len(app.marked_registry) == 64
    # one splitter per fusion edge in the interfering branch, one per
    # source mark in the distinguishable branch
    assert len(app.fusion_elements) == 3
    assert len(app.marked_fusion_elements) == 12
    # everything else is derived from the inputs
    assert [f.name for f in dataclasses.fields(Apparatus)] == [
        "topology",
        "pair_probability",
        "synthesizer_overlap",
        "fusion_overlap",
        "detector_efficiency",
        "repetition_rate_hz",
        "truncation_pairs",
    ]


def test_compensator_phase_is_half_turn(ideal_star):
    assert ideal_star.compensator_phase == pytest.approx(math.pi, abs=1e-12)
    chain = assemble_apparatus(chain_topology(), pair_probability=0.01)
    assert chain.compensator_phase == pytest.approx(math.pi, abs=1e-12)
    pair = assemble_apparatus(star_topology(2), pair_probability=0.01)
    assert pair.compensator_phase == pytest.approx(math.pi, abs=1e-12)
    for even in (chain_topology(3), single_source_topology()):
        app = assemble_apparatus(even, pair_probability=0.01)
        assert app.compensator_phase == pytest.approx(0.0, abs=1e-12)


def probe_compensator_phase(apparatus):
    """Reference for the compensator phase, read off the optics.

    Pushes one ideal pair per source through the fusion splitters and
    returns the phase of the post-selected all-H amplitude relative to
    the all-V one, or 0.0 when either amplitude falls below 1e-12.
    """
    probe = None
    for arm_a, arm_b in apparatus.topology.sources:
        src = PdcSource(arm_a=arm_a, arm_b=arm_b, pair_amplitude=0.2)
        piece = emission_sector(src, 1)
        own = {arm_a: TAG_NARROW, arm_b: TAG_BROAD}
        local = registry_from(
            [ModeLabel(arm, pol, "") for arm in (arm_a, arm_b) for pol in ("H", "V")]
        )
        piece = map_modes(
            piece,
            local,
            lambda lab: ModeLabel(lab.arm, lab.pol, "")
            if lab.tag == own.get(lab.arm)
            else None,
        )
        probe = piece if probe is None else tensor_product(probe, piece)
    registry = apparatus.plain_registry
    probe = map_modes(probe, registry, lambda lab: lab)
    for el in apparatus.fusion_elements:
        probe = apply_multinomial(probe, el)
    all_h = [0] * len(registry)
    all_v = [0] * len(registry)
    for arm in apparatus.output_arms:
        all_h[registry.index(ModeLabel(arm, "H", ""))] = 1
        all_v[registry.index(ModeLabel(arm, "V", ""))] = 1
    amp_h = probe.terms.get(tuple(all_h), 0j)
    amp_v = probe.terms.get(tuple(all_v), 0j)
    if abs(amp_h) < 1e-12 or abs(amp_v) < 1e-12:
        return 0.0
    phase = math.atan2(amp_h.imag, amp_h.real) - math.atan2(amp_v.imag, amp_v.real)
    return phase % (2 * math.pi)


@pytest.mark.parametrize(
    "topology",
    [
        star_topology(2),
        star_topology(4),
        *(chain_topology(n) for n in range(2, 6)),
        single_source_topology(),
        FusionTopology(((1, 2), (3, 4), (5, 6)), ((1, 3), (3, 5), (1, 5))),
        FusionTopology(((1, 2), (3, 4)), ((2, 3), (1, 4))),
    ],
    ids=lambda t: f"{t.shape}{t.n_sources}-{len(t.fusion_edges)}edges",
)
def test_compensator_phase_matches_probe(topology):
    app = assemble_apparatus(topology, pair_probability=0.01)
    assert app.compensator_phase == probe_compensator_phase(app)


@pytest.mark.parametrize(
    "kwargs,msg",
    [
        (dict(fusion_overlap=1.2), "fusion_overlap"),
        (dict(detector_efficiency=0.0), "efficiency"),
        (dict(repetition_rate_hz=0.0), "repetition"),
        (dict(truncation_pairs=0), "truncation"),
        (dict(repetition_rate_hz=math.nan), "repetition rate must be positive and finite"),
        (dict(repetition_rate_hz=math.inf), "repetition rate must be positive and finite"),
        (dict(pair_probability=math.nan), r"pair_probability must lie in \[0, 1\]"),
        (dict(pair_probability=-0.1), r"pair_probability must lie in \[0, 1\]"),
        (dict(pair_probability=1.5), r"pair_probability must lie in \[0, 1\]"),
        (dict(truncation_pairs=2.5), "truncation_pairs must be an integer"),
        (dict(truncation_pairs=4.0), "truncation_pairs must be an integer"),
        (dict(truncation_pairs=True), "truncation_pairs must be an integer"),
    ],
)
def test_assembly_parameter_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        assemble_apparatus(star_topology(2), **(dict(pair_probability=0.05) | kwargs))


@pytest.mark.parametrize("count", [1, 2, 4])
def test_config_and_apparatus_share_the_underflow_bound(count):
    # (p/2)^S xi^(2S) must stay 4^S above the smallest normal float; config
    # and Apparatus keep and refuse the same brightness on either side
    xi = 0.265
    edge = 2 * (4**count * sys.float_info.min / xi ** (2 * count)) ** (1 / count)
    data = config_to_dict(default_config())
    data["sources"]["count"] = data["sources"]["truncation_pairs"] = count
    data["run"].pop("settings")
    data["sources"]["pair_probability"] = edge * 1.001
    app = build_apparatus(config_from_dict(data))
    assert app.detector_efficiency == xi
    data["sources"]["pair_probability"] = edge * 0.999
    with pytest.raises(ConfigError, match="underflows float64"):
        config_from_dict(data)
    with pytest.raises(ValueError, match="underflows float64"):
        dataclasses.replace(app, pair_probability=edge * 0.999)
    # the smallest positive p, whose half rounds to 0
    data["sources"]["pair_probability"] = 5e-324
    with pytest.raises(ConfigError, match="underflows float64"):
        config_from_dict(data)
    with pytest.raises(ValueError, match="underflows float64"):
        dataclasses.replace(app, pair_probability=5e-324)


def test_subnormal_oracle_draw_refused():
    # an oracle draw whose HV values were subnormal, 1.1e-11 apart from the
    # oracle's: its leading order underflows, so it is refused as config
    # refuses it
    with pytest.raises(ValueError, match="underflows float64"):
        assemble_apparatus(
            chain_topology(3), pair_probability=6.25e-102, synthesizer_overlap=0.5,
            fusion_overlap=0.0, detector_efficiency=0.0625, truncation_pairs=3,
        )


def test_truncation_past_one_byte_per_mode_refused():
    # a mode holds up to truncation_pairs photons, packed one byte per mode
    app = assemble_apparatus(star_topology(2), pair_probability=0.05, truncation_pairs=255)
    assert app.truncation_pairs == 255
    with pytest.raises(ValueError, match=r"truncation_pairs must lie in 1\.\.255"):
        dataclasses.replace(app, truncation_pairs=256)


def test_build_apparatus_from_default_config():
    app = build_apparatus(default_config())
    assert app.topology.shape == "star"
    assert app.truncation_pairs == 4
    assert app.detector_efficiency == 0.265
    assert app.repetition_rate_hz == 76.0e6
    assert app.sources[0].pair_amplitude == pytest.approx(math.sqrt(0.058))


def test_build_apparatus_single_and_double_source():
    data = config_to_dict(default_config())
    data["sources"]["count"] = 1
    data["sources"]["truncation_pairs"] = 2
    app = build_apparatus(config_from_dict(data))
    assert app.topology.fusion_edges == ()
    assert app.n_arms == 2
    data["sources"]["count"] = 2
    app = build_apparatus(config_from_dict(data))
    assert app.n_arms == 4 and len(app.fusion_elements) == 1


def test_build_apparatus_count_mismatch():
    data = config_to_dict(default_config())
    data["sources"]["count"] = 4
    data["topology"] = {
        "shape": "custom",
        "sources": [[1, 2], [4, 3]],
        "fusion_edges": [[1, 4]],
    }
    with pytest.raises(ConfigError, match="count"):
        build_apparatus(config_from_dict(data))


# ---- Ideal closure ----


def test_ideal_hv_distribution_is_half_half(ideal_star):
    dist = outcome_distribution(ideal_star, hv_setting())
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    assert dist[DetectionPattern("H" * 8)] == pytest.approx(0.5, abs=1e-9)
    assert dist[DetectionPattern("V" * 8)] == pytest.approx(0.5, abs=1e-9)
    rest = [p for pat, p in dist.items() if pat.count("H") not in (0, 8)]
    assert max(rest) < 1e-12


@pytest.mark.parametrize("k", range(8))
def test_ideal_correlations_alternate_sign(ideal_star, k):
    dist = outcome_distribution(ideal_star, k_setting(k))
    assert signed_m(dist, k) == pytest.approx(1.0, abs=1e-9)


def test_ideal_k0_parity_structure(ideal_star):
    dist = outcome_distribution(ideal_star, k_setting(0))
    support = {pat for pat, p in dist.items() if p > 1e-12}
    assert len(support) == 128
    assert all(pat.count("-") % 2 == 0 for pat in support)
    for pat in support:
        assert dist[pat] == pytest.approx(1 / 128, abs=1e-10)


def test_chain_ideal_closure():
    app = assemble_apparatus(chain_topology(), pair_probability=0.058,
                             detector_efficiency=0.265, truncation_pairs=4)
    dist = outcome_distribution(app, hv_setting())
    assert dist[DetectionPattern("H" * 8)] == pytest.approx(0.5, abs=1e-9)
    assert signed_m(outcome_distribution(app, k_setting(5)), 5) == pytest.approx(
        1.0, abs=1e-9
    )


def test_absolute_probability_closed_form(ideal_star):
    # 4 ideal pairs: two surviving amplitudes (p/2)^4, eight detections,
    # and the 1/8 projection showing up as accepted/emitted
    p, xi = 0.058, 0.265
    absolute = absolute_outcome_distribution(ideal_star, hv_setting())
    total = sum(absolute.values())
    assert total == pytest.approx(2 * (p / 2) ** 4 * xi**8, rel=1e-10)
    emitted = 16 * (p / 2) ** 4
    assert total / (emitted * xi**8) == pytest.approx(1 / 8, rel=1e-10)


def test_absolute_rate_matches_rate_formula(ideal_star):
    absolute = absolute_outcome_distribution(ideal_star, hv_setting())
    rate = ideal_star.repetition_rate_hz * sum(absolute.values())
    formula = n_fold_rate(0.058, 0.265**2, 76.0e6, n_pairs=4, success_factor=1 / 8)
    assert rate == pytest.approx(formula.rate_hz, rel=1e-10)


def test_conditional_sums_to_one(noisy_pair):
    for setting in (hv_setting(), k_setting(2, 4)):
        dist = outcome_distribution(noisy_pair, setting)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
        assert len(dist) == 16


def test_setting_arity_checked(noisy_pair):
    with pytest.raises(ValueError, match="angles"):
        outcome_distribution(noisy_pair, k_setting(0, 8))
    with pytest.raises(ValueError, match="angles"):
        absolute_outcome_distributions(noisy_pair, [hv_setting(), k_setting(0, 8)])


def test_replaced_apparatus_recomputes_its_distributions():
    app = assemble_apparatus(
        star_topology(2), pair_probability=0.05, detector_efficiency=0.3
    )
    dim = absolute_outcome_distribution(app, hv_setting())
    bright = dataclasses.replace(app, detector_efficiency=0.9)
    fresh = assemble_apparatus(
        star_topology(2), pair_probability=0.05, detector_efficiency=0.9
    )
    expected = absolute_outcome_distribution(fresh, hv_setting())
    assert sum(expected.values()) > 10 * sum(dim.values())
    assert absolute_outcome_distribution(bright, hv_setting()) == expected
    # overlap 1.0 has no distinguishable branch; 0.5 has both
    app = assemble_apparatus(star_topology(2), pair_probability=0.05, fusion_overlap=1.0)
    coherent = absolute_outcome_distribution(app, k_setting(0, 4))
    mixed = dataclasses.replace(app, fusion_overlap=0.5)
    fresh = assemble_apparatus(star_topology(2), pair_probability=0.05, fusion_overlap=0.5)
    expected = absolute_outcome_distribution(fresh, k_setting(0, 4))
    assert expected != coherent
    assert absolute_outcome_distribution(mixed, k_setting(0, 4)) == expected


REPLACE_TOPOLOGIES = (star_topology(2), chain_topology(3))


@st.composite
def apparatus_inputs(draw):
    """Valid keyword inputs of assemble_apparatus on star-2 or chain-3."""
    inputs = dict(
        topology=draw(st.sampled_from(REPLACE_TOPOLOGIES)),
        pair_probability=draw(st.floats(0.0, 0.2)),
        synthesizer_overlap=draw(st.floats(0.0, 1.0)),
        fusion_overlap=draw(st.floats(0.0, 1.0)),
        detector_efficiency=draw(st.floats(0.0, 1.0, exclude_min=True)),
        repetition_rate_hz=draw(st.floats(1.0, 1e9)),
        truncation_pairs=draw(st.integers(1, 4)),
    )
    assume_kept(inputs)
    return inputs


def assume_kept(inputs):
    """Draw only apparatus inputs Apparatus keeps: it refuses a brightness
    whose leading order underflows, as config does
    (test_config_and_apparatus_share_the_underflow_bound)."""
    p, xi = inputs["pair_probability"], inputs["detector_efficiency"]
    assume(not leading_underflow(p, xi, inputs["topology"].n_sources))


def fresh_apparatus(inputs):
    inputs = dict(inputs)
    return assemble_apparatus(inputs.pop("topology"), **inputs)


def distributions(app):
    return absolute_outcome_distributions(app, [hv_setting(), k_setting(1, app.n_arms)])


@settings(max_examples=25, deadline=None)
@given(base=apparatus_inputs(), other=apparatus_inputs(), data=st.data())
def test_replace_rederives_from_the_inputs(base, other, data):
    names = data.draw(st.sets(st.sampled_from(sorted(other)), min_size=1))
    change = {name: other[name] for name in names}
    mixed = {**base, **change}
    assume_kept(mixed)
    app = fresh_apparatus(base)
    # fill every memo of the original before replacing
    distributions(app)
    replaced = dataclasses.replace(app, **change)
    fresh = fresh_apparatus(mixed)
    assert replaced == fresh and hash(replaced) == hash(fresh)
    assert distributions(replaced) == distributions(fresh)


@pytest.mark.parametrize(
    "topology",
    [chain_topology(4), FusionTopology(star_topology().sources, ((1, 4), (5, 8)))],
    ids=["chain4", "custom-2edges"],
)
def test_replaced_wiring_matches_a_fresh_build(topology):
    app = dataclasses.replace(build_apparatus(default_config()), truncation_pairs=5)
    distributions(app)
    replaced = dataclasses.replace(app, topology=topology)
    fresh = assemble_apparatus(
        topology, pair_probability=0.058, synthesizer_overlap=0.94,
        fusion_overlap=0.76, detector_efficiency=0.265, truncation_pairs=5,
    )
    assert distributions(replaced) == distributions(fresh)


def test_replace_checks_the_inputs_and_equal_assemblies_are_equal():
    app = assemble_apparatus(star_topology(2), pair_probability=0.05)
    with pytest.raises(ValueError, match="fusion_overlap"):
        dataclasses.replace(app, fusion_overlap=1.5)
    with pytest.raises(ValueError, match="efficiency"):
        dataclasses.replace(app, detector_efficiency=0.0)
    with pytest.raises(ValueError, match="pair_probability"):
        dataclasses.replace(app, pair_probability=1.5)
    with pytest.raises(ValueError, match="spectral_overlap"):
        dataclasses.replace(app, synthesizer_overlap=-0.1)
    twin = assemble_apparatus(star_topology(2), pair_probability=0.05)
    assert twin == app and hash(twin) == hash(app)


# ---- Distinguishability knobs ----


def test_single_source_diagonal_correlation_equals_overlap():
    gs = 0.7
    app = assemble_apparatus(
        single_source_topology(), pair_probability=0.05,
        synthesizer_overlap=gs, detector_efficiency=0.3, truncation_pairs=1,
    )
    assert signed_parity(outcome_distribution(app, k_setting(0, 2))) == pytest.approx(
        gs, abs=1e-12
    )


def test_fused_pair_correlation_is_product_of_overlaps(noisy_pair):
    # one fusion between two sources: coherence costs one fusion overlap
    # and one synthesizer overlap per source
    e4 = signed_parity(outcome_distribution(noisy_pair, k_setting(0, 4)))
    assert e4 == pytest.approx(0.8 * 0.9**2, abs=1e-12)


def test_star_trunc4_correlation_product():
    gs, gf = 0.94, 0.76
    app = assemble_apparatus(
        star_topology(), pair_probability=0.058, synthesizer_overlap=gs,
        fusion_overlap=gf, detector_efficiency=0.265, truncation_pairs=4,
    )
    dist = outcome_distribution(app, k_setting(2))
    assert signed_m(dist, 2) == pytest.approx(gf * gs**4, abs=1e-9)
    hv = outcome_distribution(app, hv_setting())
    assert hv[DetectionPattern("H" * 8)] == pytest.approx(0.5, abs=1e-9)


def test_hv_correlations_survive_zero_overlap():
    app = assemble_apparatus(
        star_topology(2), pair_probability=0.05, synthesizer_overlap=0.0,
        fusion_overlap=0.0, detector_efficiency=0.3, truncation_pairs=2,
    )
    hv = outcome_distribution(app, hv_setting())
    assert hv[DetectionPattern("HHHH")] == pytest.approx(0.5, abs=1e-10)
    assert hv[DetectionPattern("VVVV")] == pytest.approx(0.5, abs=1e-10)
    assert abs(signed_parity(outcome_distribution(app, k_setting(0, 4)))) < 1e-12


@pytest.mark.parametrize(
    "topology,truncation", [(star_topology(), 7), (chain_topology(3), 5)], ids=["star", "chain3"]
)
def test_hv_distribution_independent_of_overlaps_at_multipair_orders(topology, truncation):
    # HV detection is diagonal in occupation and the fusion map permutes
    # modes, so neither the branch mixture nor the synthesizer dephasing
    # reaches the computational basis, at any emission order
    app = assemble_apparatus(
        topology, pair_probability=0.058, synthesizer_overlap=1.0, fusion_overlap=1.0,
        detector_efficiency=0.265, truncation_pairs=truncation,
    )
    reference = absolute_outcome_distribution(app, hv_setting())
    for gamma_s, gamma_f in ((0.94, 0.76), (0.0, 0.0)):
        other = dataclasses.replace(
            app, synthesizer_overlap=gamma_s, fusion_overlap=gamma_f
        )
        got = absolute_outcome_distribution(other, hv_setting())
        assert got.keys() == reference.keys()
        for pattern, expected in reference.items():
            assert (got[pattern] == 0) == (expected == 0)
            assert abs(got[pattern] - expected) <= 1e-12 * expected


# ---- Invariances ----


def test_conditional_independent_of_efficiency():
    dists = []
    for xi in (0.1, 0.265, 1.0):
        app = assemble_apparatus(
            star_topology(2), pair_probability=0.05, synthesizer_overlap=0.9,
            fusion_overlap=0.8, detector_efficiency=xi, truncation_pairs=2,
        )
        dists.append(outcome_distribution(app, k_setting(3, 4)))
    for other in dists[1:]:
        assert all(abs(other[p] - dists[0][p]) < 1e-10 for p in dists[0])


def test_conditional_independent_of_brightness_at_leading_order():
    # with truncation at one pair per source the pump power cancels
    dists = []
    for p in (0.01, 0.05):
        app = assemble_apparatus(
            star_topology(2), pair_probability=p, synthesizer_overlap=0.9,
            fusion_overlap=0.8, detector_efficiency=0.3, truncation_pairs=2,
        )
        dists.append(outcome_distribution(app, k_setting(1, 4)))
    assert all(abs(dists[1][p] - dists[0][p]) < 1e-12 for p in dists[0])


def test_quarter_turn_settings_swap_outcomes():
    app = assemble_apparatus(
        star_topology(2), pair_probability=0.05, synthesizer_overlap=0.9,
        fusion_overlap=0.8, detector_efficiency=0.3, truncation_pairs=3,
    )
    d3 = outcome_distribution(app, k_setting(3, 4))
    d11 = outcome_distribution(app, k_setting(11, 4))
    swap = str.maketrans("+-", "-+")
    for pat in d3:
        assert d3[pat] == pytest.approx(
            d11[DetectionPattern(pat.bits.translate(swap))], abs=1e-12
        )


def test_source_order_relabeling_invariance():
    base = star_topology()
    permuted = FusionTopology(
        sources=(base.sources[2], base.sources[0], base.sources[3], base.sources[1]),
        fusion_edges=base.fusion_edges,
        shape="custom",
    )
    kwargs = dict(
        pair_probability=0.058, synthesizer_overlap=0.94, fusion_overlap=0.76,
        detector_efficiency=0.265, truncation_pairs=4,
    )
    da = outcome_distribution(assemble_apparatus(base, **kwargs), hv_setting())
    db = outcome_distribution(assemble_apparatus(permuted, **kwargs), hv_setting())
    assert all(abs(da[p] - db[p]) < 1e-12 for p in da)


# ---- Visibility calibration ----


def test_perfect_hardware_visibility_diluted_by_multi_pair():
    vs = synthesizer_visibility(1.0, pair_probability=0.058, efficiency=0.265)
    assert vs == pytest.approx(0.97199, abs=1e-4)
    vf = fusion_visibility(1.0, 1.0, pair_probability=0.058, efficiency=0.265)
    assert vf == pytest.approx(0.88746, abs=1e-4)


def test_visibility_monotone_in_overlap():
    rng = np.random.default_rng(20260822)
    samples = sorted(rng.uniform(0.0, 1.0, size=4))
    values = [
        synthesizer_visibility(g, pair_probability=0.058, efficiency=0.265)
        for g in samples
    ]
    assert values == sorted(values)


def test_calibrated_overlaps_reproduce_targets():
    cal = calibrate_overlaps(pair_probability=0.058, efficiency=0.265)
    assert cal.synthesizer_overlap == pytest.approx(0.967074, abs=1e-5)
    assert cal.fusion_overlap == pytest.approx(0.914894, abs=1e-5)
    # the solution of two builds per overlap, at g = 0 and g = 1
    assert tuple(cal) == pytest.approx((0.967073855583857, 0.9148936026998017), rel=1e-12)
    assert synthesizer_visibility(
        cal.synthesizer_overlap, pair_probability=0.058, efficiency=0.265
    ) == pytest.approx(0.94, abs=1e-9)
    assert fusion_visibility(
        cal.fusion_overlap, cal.synthesizer_overlap,
        pair_probability=0.058, efficiency=0.265,
    ) == pytest.approx(0.76, abs=1e-9)


def test_calibration_builds_each_overlap_once(monkeypatch):
    calls = []
    all_members = experiment._all_members

    def counted(apparatus):
        calls.append((apparatus.synthesizer_overlap, apparatus.fusion_overlap))
        return all_members(apparatus)

    monkeypatch.setattr(experiment, "_all_members", counted)
    cal = calibrate_overlaps(pair_probability=0.058, efficiency=0.265)
    gs = cal.synthesizer_overlap
    assert calls == [(0.0, 1.0), (1.0, 1.0), (gs, 0.0), (gs, 1.0)]


@pytest.mark.parametrize("synthesizer_overlap", [0.0, 1.0])
def test_fusion_solve_at_a_boundary_synthesizer_overlap(synthesizer_overlap):
    # calibration solves the fusion overlap at the solved synthesizer
    # overlap, which may be 0 or 1. Each end's visibility, read off a fresh
    # build, solves to exactly that end; at 0 no source's two processes
    # interfere, so every fusion overlap shows visibility 0 and none is
    # singled out
    app = assemble_apparatus(
        star_topology(2), pair_probability=0.058, synthesizer_overlap=synthesizer_overlap,
        detector_efficiency=0.265, truncation_pairs=3,
    )
    ends = [
        parity_visibility(dataclasses.replace(app, fusion_overlap=g)) for g in (0.0, 1.0)
    ]
    if synthesizer_overlap == 0.0:
        assert ends == [0.0, 0.0]
        with pytest.raises(ValueError, match="not determined"):
            experiment._solve_overlap(app, "fusion_overlap", 0.0)
        return
    assert ends[0] < ends[1]
    for g, target in zip((0.0, 1.0), ends):
        assert experiment._solve_overlap(app, "fusion_overlap", target) == g


def test_unreachable_visibility_target_raises():
    cases = [
        (dict(synthesizer_target=0.999), "unreachable"),
        # below the fully distinguishable visibility, which is 0 here
        (dict(synthesizer_target=-0.5), "unreachable"),
        (dict(fusion_target=-0.2), "unreachable"),
        (dict(synthesizer_target=math.nan), "unreachable"),
        (dict(pair_probability=0.0), "no accepted coincidences"),
        # the synthesizer solves to 0, where every fusion overlap shows 0
        (dict(synthesizer_target=0.0, fusion_target=0.0), "not determined"),
    ]
    for kwargs, msg in cases:
        args = dict(pair_probability=0.058, efficiency=0.265) | kwargs
        with pytest.raises(ValueError, match=msg):
            calibrate_overlaps(**args)


def assert_linear_in_overlap(build, g, setting):
    """build(x) at overlap x has the distribution (1-x)*D(0) + x*D(1)."""
    d0, d1, dg = (
        absolute_outcome_distribution(build(x), setting) for x in (0.0, 1.0, g)
    )
    for pat, value in dg.items():
        mixed = (1.0 - g) * d0[pat] + g * d1[pat]
        assert abs(value - mixed) <= 1e-12 * max(value, mixed), pat


@settings(max_examples=15, deadline=None)
@given(
    g=st.floats(0.0, 1.0),
    p=st.floats(1e-3, 0.2),
    xi=st.floats(0.05, 1.0),
    k=st.integers(0, 7),
)
# near g = 1 at unit efficiency: the coherent member cancels exactly at some
# patterns, where all that is left is the split members' share, 1 - g times
# theirs. A zero rule run over the summed weights loses it in the coherent
# member's rounding, 8e-12 and 8e-5 relative off at these g
@example(g=1 - 1e-6, p=0.125, xi=1.0, k=0)
@example(g=1 - 1e-12, p=0.125, xi=1.0, k=0)
def test_synthesizer_overlap_enters_linearly(g, p, xi, k):
    assert_linear_in_overlap(
        lambda x: assemble_apparatus(
            single_source_topology(), pair_probability=p, synthesizer_overlap=x,
            detector_efficiency=xi, truncation_pairs=2,
        ),
        g,
        k_setting(k, 2),
    )


@settings(max_examples=15, deadline=None)
@given(
    g=st.floats(0.0, 1.0),
    gs=st.floats(0.0, 1.0),
    p=st.floats(1e-3, 0.2),
    xi=st.floats(0.05, 1.0),
    k=st.integers(0, 7),
)
def test_fusion_overlap_enters_linearly(g, gs, p, xi, k):
    assert_linear_in_overlap(
        lambda x: assemble_apparatus(
            star_topology(2), pair_probability=p, synthesizer_overlap=gs,
            fusion_overlap=x, detector_efficiency=xi, truncation_pairs=3,
        ),
        g,
        k_setting(k, 4),
    )


# ---- Monte Carlo ----


@pytest.fixture(scope="module")
def bright_pair():
    return assemble_apparatus(
        star_topology(2), pair_probability=0.01, detector_efficiency=0.5,
        repetition_rate_hz=76.0e6, truncation_pairs=2,
    )


def test_monte_carlo_reproducible(bright_pair):
    h1 = monte_carlo_counts(bright_pair, hv_setting(), 10.0, seed=7)
    h2 = monte_carlo_counts(bright_pair, hv_setting(), 10.0, seed=7)
    assert h1 == h2
    h3 = monte_carlo_counts(bright_pair, hv_setting(), 10.0, seed=8)
    assert h1.counts != h3.counts


def test_monte_carlo_settings_draw_independent_streams(bright_pair):
    hv = monte_carlo_counts(bright_pair, hv_setting(), 10.0, seed=7)
    k0 = monte_carlo_counts(bright_pair, k_setting(0, 4), 10.0, seed=7)
    assert [hv.counts[p] for p in sorted(hv.counts)] != [
        k0.counts[p] for p in sorted(k0.counts)
    ]


def test_monte_carlo_custom_angles_draw_independent_streams(bright_pair):
    # the fused pair's distribution depends on the sum of the angles only,
    # so equal counts here would mean one stream for both settings
    first = angle_setting([0.1, 0.2, 0.3, 0.4])
    second = angle_setting([0.4, 0.3, 0.2, 0.1])
    assert absolute_outcome_distribution(bright_pair, first) == (
        absolute_outcome_distribution(bright_pair, second)
    )
    a = monte_carlo_counts(bright_pair, first, 10.0, seed=7)
    b = monte_carlo_counts(bright_pair, second, 10.0, seed=7)
    assert a.counts != b.counts


@pytest.mark.parametrize("k", [None, 0])
def test_monte_carlo_draws_match_a_scalar_loop(ideal_star, k):
    # the ideal star's HV and k0 distributions hold exact zeros between
    # nonzero patterns; a zero mean draws nothing from the stream
    setting = hv_setting() if k is None else k_setting(k, 8)
    absolute = absolute_outcome_distribution(ideal_star, setting)
    values = list(absolute.values())
    assert 0.0 in values[values.index(next(v for v in values if v)) :]
    hist = monte_carlo_counts(ideal_star, setting, 7200.0, seed=13)
    stream = np.random.SeedSequence([13, zlib.crc32(setting.label.encode())])
    rng = np.random.default_rng(stream)
    expected = {}
    for pat, p in absolute.items():
        expected[pat] = int(rng.poisson(ideal_star.repetition_rate_hz * p * 7200.0))
    assert list(hist.counts.items()) == list(expected.items())
    assert hist.total > 0


def test_monte_carlo_duration_validated(bright_pair):
    # refused before any draw, by CoincidenceHistogram's rule: numpy's
    # Poisson draw fails on a NaN or infinite mean with "lam value too large"
    for duration in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            monte_carlo_counts(bright_pair, hv_setting(), duration, seed=1)


def test_monte_carlo_total_tracks_expectation(bright_pair):
    absolute = absolute_outcome_distribution(bright_pair, hv_setting())
    expected = bright_pair.repetition_rate_hz * sum(absolute.values()) * 20.0
    hist = monte_carlo_counts(bright_pair, hv_setting(), 20.0, seed=11)
    assert abs(hist.total - expected) < 4 * math.sqrt(expected)


def test_monte_carlo_matches_distribution_shape(bright_pair):
    # total-variation against the exact conditional, at ~1e4 events
    exact = outcome_distribution(bright_pair, k_setting(0, 4))
    hist = monte_carlo_counts(bright_pair, k_setting(0, 4), 60.0, seed=3)
    n = hist.total
    assert n > 10_000
    tv = 0.5 * sum(
        abs(hist.counts[pat] / n - exact[pat]) for pat in exact
    )
    bound = 1.5 * sum(math.sqrt(p / n) for p in exact.values() if p > 0)
    assert tv < bound


# ---- Histogram files ----


def test_histogram_lines_round_trip(bright_pair):
    hist = monte_carlo_counts(bright_pair, k_setting(4, 4), 12.5, seed=42)
    lines = histogram_to_lines(hist)
    assert lines[0] == "k4,12.5,42"
    assert len(lines) == 1 + 16
    back = histogram_from_lines(lines)
    assert back == hist
    assert histogram_to_lines(back) == lines
    # an exact histogram says so in its header
    dist = outcome_distribution(bright_pair, k_setting(4, 4))
    exact = CoincidenceHistogram(k_setting(4, 4), dist, 12.5, 42, exact=True)
    lines = histogram_to_lines(exact)
    assert lines[0] == "k4,12.5,42,exact"
    assert histogram_from_lines(lines) == exact


def test_custom_angle_histogram_round_trip(bright_pair):
    hist = monte_carlo_counts(bright_pair, angle_setting([0.1, 0.2, 0.3, 0.4]), 3.0, seed=1)
    lines = histogram_to_lines(hist)
    assert histogram_from_lines(lines) == hist


def test_histogram_rows_sorted(bright_pair):
    hist = monte_carlo_counts(bright_pair, hv_setting(), 5.0, seed=1)
    rows = [line.split(",")[0] for line in histogram_to_lines(hist)[1:]]
    assert rows == sorted(rows)


def test_histogram_rows_read_into_shared_keys(bright_pair):
    # a full file and a partial one both read into the one object per
    # pattern that every distribution of their shape shares
    hist = monte_carlo_counts(bright_pair, k_setting(2, 4), 5.0, seed=3)
    lines = histogram_to_lines(hist)
    shared = all_detection_patterns(4, ("+", "-"))
    back = histogram_from_lines(lines)
    assert sorted(map(id, back.counts)) == sorted(map(id, shared))
    partial = histogram_from_lines(lines[:5])
    assert list(partial.counts) == sorted(shared, key=lambda pat: pat.bits)[:4]
    assert {id(pat) for pat in partial.counts} <= {id(pat) for pat in shared}
    with pytest.raises(ValueError, match="mixes basis"):
        histogram_from_lines(lines + ["+-HV,1"])


def test_histogram_from_lines_errors():
    with pytest.raises(ValueError, match="empty"):
        histogram_from_lines([])
    with pytest.raises(ValueError, match="header"):
        histogram_from_lines(["HV,1.0"])
    with pytest.raises(ValueError, match="header"):
        histogram_from_lines(["HV,1.0,3,sampled", "HH,1"])
    with pytest.raises(ValueError, match="rows"):
        histogram_from_lines(["HV,1.0,3"])
    with pytest.raises(ValueError, match="duplicate pattern row 'HH'"):
        histogram_from_lines(["HV,1.0,1", "HH,1", "HH,2", "HV,0", "VV,3"])
    for bad in ("inf", "nan"):
        with pytest.raises(ValueError, match="count"):
            histogram_from_lines(["HV,1.0,1", f"HH,{bad}"])
        with pytest.raises(ValueError, match="duration"):
            histogram_from_lines([f"HV,{bad},1", "HH,1"])


# ---- Per-pattern accepted probability ----


def test_emission_pattern_probability_validation(ideal_star):
    with pytest.raises(ValueError, match="length"):
        emission_pattern_probability(ideal_star, (1, 1, 1))
    with pytest.raises(ValueError, match="negative"):
        emission_pattern_probability(ideal_star, (1, 1, 1, -1))
    with pytest.raises(ValueError, match="truncation"):
        emission_pattern_probability(ideal_star, (2, 1, 1, 1))
    # a pair count is an int and not a bool, never truncated to one
    for counts in ((1.7, 1, 1, 1), (True, 1, 1, 1), (1.0, 1, 1, 1)):
        with pytest.raises(ValueError, match="integers"):
            emission_pattern_probability(ideal_star, counts)


def test_single_pattern_carries_the_whole_ideal_rate(ideal_star):
    per_pattern = emission_pattern_probability(ideal_star, (1, 1, 1, 1))
    total = sum(absolute_outcome_distribution(ideal_star, hv_setting()).values())
    assert abs(per_pattern - total) < 1e-18


def test_pattern_probabilities_sum_to_the_total(noisy_pair):
    by_pattern = sum(
        emission_pattern_probability(noisy_pair, counts)
        for counts in ((2, 0), (1, 1), (0, 2))
    )
    total = sum(absolute_outcome_distribution(noisy_pair, hv_setting()).values())
    assert abs(by_pattern - total) < 1e-18


def test_unfillable_pattern_has_zero_probability(noisy_pair):
    # a silent source leaves its arms dark in the two-source layout
    assert emission_pattern_probability(noisy_pair, (2, 0)) == 0.0
    assert emission_pattern_probability(noisy_pair, (1, 1)) > 0.0


# ---- Compiled optics against the element-by-element oracle ----


ORACLE_TOPOLOGIES = (
    star_topology(2),
    chain_topology(2),
    chain_topology(3),
    FusionTopology(((1, 2), (3, 4)), ((2, 3), (1, 4))),
    FusionTopology(((1, 2), (3, 4), (5, 6)), ((1, 3), (3, 5), (1, 5))),
)


@st.composite
def oracle_cases(draw):
    """A builder of one small apparatus, and one to three settings, each
    HV or per-arm angles that are not all equal."""
    topology = draw(st.sampled_from(ORACLE_TOPOLOGIES))
    n = topology.n_sources
    # below n pairs nothing is accepted; the oracle takes ~15 s per rotated
    # three-source setting at truncation 5
    top = n + 2 if n == 2 else n + 1
    unit = st.floats(0.0, 1.0)
    build = functools.partial(
        assemble_apparatus,
        topology,
        pair_probability=draw(unit),
        synthesizer_overlap=draw(unit),
        fusion_overlap=draw(unit),
        detector_efficiency=draw(st.floats(0.0, 1.0, exclude_min=True)),
        truncation_pairs=draw(st.integers(n, top)),
    )
    assume_kept(dict(build.keywords, topology=topology))
    n_arms = 2 * n
    angle = st.floats(0.0, 2 * math.pi, exclude_max=True)
    setting = st.none() | st.lists(angle, min_size=n_arms, max_size=n_arms).filter(
        lambda a: len(set(a)) > 1
    )
    drawn = draw(st.lists(setting, min_size=1, max_size=3))
    return build, [hv_setting() if a is None else angle_setting(a) for a in drawn]


def assert_matches(got, expected):
    assert got.keys() == expected.keys()
    for pat, ref in expected.items():
        value = got[pat]
        assert value >= 0.0, pat
        # exact zeros stay exact zeros
        assert abs(value - ref) <= 1e-12 * max(value, ref), (pat, value, ref)


def assert_matches_oracle(app, setting):
    got = absolute_outcome_distribution(app, setting)
    assert_matches(got, oracle_distribution(app, setting))


@settings(max_examples=30, deadline=None)
@given(case=oracle_cases())
def test_distribution_matches_element_oracle(case):
    build, run_settings = case
    app = build()
    batch = absolute_outcome_distributions(app, run_settings)
    assert len(batch) == len(run_settings)
    for setting, got in zip(run_settings, batch):
        assert_matches(got, oracle_distribution(app, setting))
        # sharing one pass with other settings changes no bit
        assert got == absolute_outcome_distribution(build(), setting)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_ideal_star_interference_zeros_match_oracle(ideal_star, k):
    assert_matches_oracle(ideal_star, k_setting(k, 8))


def test_turned_triangle_arm_matches_oracle():
    # three sources fused in a triangle, photons source-marked, one arm
    # turned to angle 1: interference keys carry the pair-row phase, and
    # conjugating it on the wrong side, or turning it the wrong way, moves
    # this distribution by ~90%
    triangle = FusionTopology(
        sources=((1, 2), (3, 4), (5, 6)),
        fusion_edges=((1, 3), (3, 5), (1, 5)),
        shape="custom",
    )
    app = assemble_apparatus(
        triangle, pair_probability=1.0, synthesizer_overlap=1.0,
        fusion_overlap=0.0, detector_efficiency=1.0, truncation_pairs=3,
    )
    assert_matches_oracle(app, angle_setting((0, 1, 0, 0, 0, 0)))


@pytest.mark.parametrize("p", [4e-15, 2e-14, 1e-13])
def test_small_pair_probability_matches_oracle(p):
    # two-pair amplitudes p/2 of 2e-15 to 5e-14, analyzed down to ~1e-17:
    # the engine and the oracle decide exact zeros by one scale-free rule
    # (fock._cancels), so they agree at any brightness
    build = functools.partial(
        assemble_apparatus,
        star_topology(2), pair_probability=p, synthesizer_overlap=0.9,
        fusion_overlap=0.8, detector_efficiency=0.7, truncation_pairs=3,
    )
    app = build()
    run_settings = [k_setting(1, 4), angle_setting([0.3, 1.1, 2.0, 5.0])]
    for setting in run_settings:
        assert_matches_oracle(app, setting)
    # one batch of settings gives the same bits
    batch = absolute_outcome_distributions(build(), run_settings)
    for setting, got in zip(run_settings, batch):
        assert_matches(got, oracle_distribution(app, setting))
        assert got == absolute_outcome_distribution(app, setting)


@pytest.mark.parametrize(
    "sources, gamma_s, gamma_f, xi",
    [(2, 1.0, 1.0, 1.0), (2, 0.9, 0.8, 0.7), (4, 1.0, 1.0, 1.0)],
    ids=["star-2-ideal", "star-2-noisy", "star-4-ideal"],
)
def test_fixed_order_distribution_scales_as_a_power_of_p(sources, gamma_s, gamma_f, xi):
    # truncation at the source count admits only order N = sources, one
    # pair per source, so every probability is (p/2)^N times a constant:
    # the same scaled values and the same exact zeros for every p
    n_arms = 2 * sources
    plan = [
        hv_setting(),
        k_setting(1, n_arms),
        k_setting(3, n_arms),
        angle_setting([0.3, 1.1, 2.0, 5.0, 0.7, 2.9, 4.4, 6.0][:n_arms]),
    ]

    def scaled(p):
        app = assemble_apparatus(
            star_topology(sources), pair_probability=p, synthesizer_overlap=gamma_s,
            fusion_overlap=gamma_f, detector_efficiency=xi, truncation_pairs=sources,
        )
        return [
            {pat: v / (p / 2) ** sources for pat, v in dist.items()}
            for dist in absolute_outcome_distributions(app, plan)
        ]

    reference = scaled(0.3)
    assert any(v == 0.0 for dist in reference for v in dist.values())
    for p in (1e-12, 3e-10, 1e-7, 2e-5, 0.058):
        for got, expected in zip(scaled(p), reference):
            assert_matches(got, expected)


def test_tiny_detector_efficiency_scales_as_its_power(ideal_star):
    # one pair per source puts one photon in each of the 8 arms, so every
    # accepted probability is xi^8 times its value at xi = 1, with the same
    # exact zeros; at xi = 1e-30, 1 - xi rounds to 1 and a firing
    # probability read as 1 - (1 - xi)^n would be 0
    plan = [hv_setting(), *(k_setting(k) for k in range(8))]
    plan.append(angle_setting([0.3, 1.1, 2.0, 5.0, 0.7, 2.9, 4.4, 6.0]))

    def scaled(xi):
        app = dataclasses.replace(ideal_star, detector_efficiency=xi)
        return [
            {pat: v / xi**8 for pat, v in dist.items()}
            for dist in absolute_outcome_distributions(app, plan)
        ]

    reference = scaled(1.0)
    assert any(v == 0.0 for dist in reference for v in dist.values())
    for got, expected in zip(scaled(1e-30), reference):
        assert_matches(got, expected)


@pytest.mark.parametrize("marked", [False, True], ids=["interfering", "distinguishable"])
def test_closed_form_analyzer_matches_the_multinomial_oracle(marked):
    # every photon number up to 14 at every k*pi/8 and three generic angles:
    # the analyzer at angle theta is the one at angle 0 with column h
    # turned by e^{-i theta (n - h)}, the phase theta puts on n - h V photons
    app = assemble_apparatus(star_topology(2), pair_probability=0.05, fusion_overlap=0.5)
    (branch,) = [b for b in app._branches if b.marked == marked]
    for theta in [k * math.pi / 8 for k in range(16)] + [0.3, 1.234, 5.0]:
        element = experiment._analyzer_element(
            branch.registry, app.output_arms[0], branch.tags[0], theta
        )
        for n in range(15):
            expected = np.zeros((n + 1, n + 1), dtype=complex)
            for h in range(n + 1):
                occ = (h, n - h) + (0,) * (len(branch.registry) - 2)
                state = AmplitudeState(branch.registry, {occ: 1.0 + 0j}, n)
                for out, a in apply_multinomial(state, element).terms.items():
                    expected[out[0], h] = a
            turn = np.exp(-1j * theta * (n - np.arange(n + 1)))
            got = branch.analyzed(n)[0] * turn
            assert np.array_equal(got == 0, expected == 0), (theta, n)
            assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected)), (theta, n)


def test_each_branch_applies_its_analyzer_once_at_angle_zero(monkeypatch):
    # every rotated setting is read off the angle-0 analyzer, so a plan of
    # 17 angles applies it to one H and one V photon per branch; HV alone
    # applies none
    analyzers = []
    apply = experiment.apply_element

    def counted(state, element):
        if element.name.startswith("analyzer-"):
            analyzers.append(element.matrix)
        return apply(state, element)

    monkeypatch.setattr(experiment, "apply_element", counted)
    app = assemble_apparatus(
        star_topology(2), pair_probability=0.05, fusion_overlap=0.5, truncation_pairs=3
    )
    absolute_outcome_distributions(app, [hv_setting()])
    assert analyzers == []
    plan = [*(k_setting(k, 4) for k in range(16)), angle_setting([0.3, 1.1, 2.0, 5.0])]
    absolute_outcome_distributions(app, plan)
    assert len(analyzers) == 2 * len(app._branches) == 4
    assert all(np.array_equal(m, analyzer_matrix(0.0)) for m in analyzers)


def test_plan_builds_the_same_pair_keys_and_one_row_table(monkeypatch):
    # default star at truncation 5: its multi-pair terms form multi-term
    # coherence classes, whose pairs of terms are pair keys; neither those
    # keys nor the one arm-row table a plan builds depend on its settings
    tables = []
    table = experiment._PatternSum._table

    def counted(self, slices):
        keys = list(self.keys)
        tables.append(
            {
                (weight, keys[i][0].marked, keys[i][1:]): summed
                for weight, tally in self.tally.items()
                for i, summed in tally.items()
                # a pair key holds an occupation and its partner's
                if len(keys[i][1]) == 2 * len(keys[i][0].registry)
            }
        )
        return table(self, slices)

    monkeypatch.setattr(experiment._PatternSum, "_table", counted)
    base = dataclasses.replace(build_apparatus(default_config()), truncation_pairs=5)
    plan = [setting_from_label(label) for label in default_config().run.settings]
    assert sum(s.angles is not None for s in plan) == 8
    absolute_outcome_distributions(dataclasses.replace(base), plan[:2])
    assert len(tables) == 1 and tables[0]
    absolute_outcome_distributions(dataclasses.replace(base), plan)
    assert len(tables) == 2
    assert tables[1] == tables[0]


def test_each_setting_reads_alone_as_in_its_plan():
    # default star at truncation 6, where multi-pair terms make pair keys:
    # HV and each k-setting computed alone equal, bit for bit, the same
    # setting in the nine-setting plan, so no key, row or block of keys a
    # setting reads depends on the plan's other settings
    base = dataclasses.replace(build_apparatus(default_config()), truncation_pairs=6)
    plan = [setting_from_label(label) for label in default_config().run.settings]
    together = absolute_outcome_distributions(dataclasses.replace(base), plan)
    for setting, in_plan in zip(plan, together):
        alone = absolute_outcome_distribution(dataclasses.replace(base), setting)
        assert list(alone) == list(in_plan)
        assert [v.hex() for v in alone.values()] == [v.hex() for v in in_plan.values()]


def test_unequal_slots_of_one_arm_match_the_element_oracle():
    # distinguishable branch alone: every photon keeps its source's mark,
    # so an arm fed by both sources of star-2 holds two slots, and pattern
    # (2, 2) puts 1 photon in one and 2 in the other, either way round.
    # The firing weights (_Branch.weights) and the arm rows must order
    # those slots alike. At HV a row is one entry of the weights, so a
    # slot order of theirs that differs shows there; a rotated single
    # key's row does not see it, as an analyzer's output probabilities are
    # symmetric under swapping + and - in every slot.
    app = assemble_apparatus(
        star_topology(2), pair_probability=0.05, synthesizer_overlap=0.9,
        fusion_overlap=0.0, detector_efficiency=0.7, truncation_pairs=4,
    )
    counts = (2, 2)
    members = list(experiment._members(app, [counts]))
    unequal = set()
    for _, supported, branch in members:
        slots = branch.width // 2
        for occ, _ in supported:
            ns = branch.photons(occ)
            for a in range(app.n_arms):
                occupied = [n for n in ns[a * slots : (a + 1) * slots] if n]
                if len(set(occupied)) > 1:
                    unequal.add(tuple(occupied))
    assert unequal == {(1, 2), (2, 1)}
    plan = [hv_setting(), angle_setting([0.3, 1.1, 2.0, 5.0])]
    for setting, got in zip(plan, _pattern_vectors(app, members, plan)):
        expected = pattern_vector(app, members_for_pattern(app, counts), setting)
        assert np.array_equal(got == 0.0, expected == 0.0)
        assert np.all(np.abs(got - expected) <= 1e-12 * expected)


@pytest.mark.parametrize("config", ["default", "ideal"])
def test_half_turn_on_one_arm_swaps_its_labels(config, ideal_star):
    # truncation 6, where pairs of terms of one coherence class carry the
    # interference: adding pi to an analyzer's angle swaps its + and -
    # outputs, so the arm's + and - labels trade values
    app = build_apparatus(default_config()) if config == "default" else ideal_star
    app = dataclasses.replace(app, truncation_pairs=6)
    bases = [(math.pi / 8,) * 8, (0.3, 1.1, 2.0, 5.0, 0.7, 2.9, 4.4, 6.0)]
    turned = [(b, arm) for b in range(len(bases)) for arm in (0, 5)]
    plan = [angle_setting(angles) for angles in bases]
    for b, arm in turned:
        plan.append(angle_setting([t + math.pi * (a == arm) for a, t in enumerate(bases[b])]))
    dists = absolute_outcome_distributions(app, plan)

    def swapped(bits, arm):
        return bits[:arm] + {"+": "-", "-": "+"}[bits[arm]] + bits[arm + 1 :]

    for (b, arm), dist in zip(turned, dists[len(bases) :]):
        values = {pat.bits: v for pat, v in dist.items()}
        expected = {pat: values[swapped(pat.bits, arm)] for pat in dists[b]}
        assert_matches(dists[b], expected)


def test_non_monomial_fusion_optics_raise(monkeypatch):
    # a 50:50 splitter on the H modes in place of the second polarizing
    # splitter; at fusion overlap 1 only the plain registry is built
    fusion_elements = experiment._fusion_elements

    def broken(apparatus, registry):
        fusion = fusion_elements(apparatus, registry)
        x, y = apparatus.topology.fusion_edges[1]
        splitter = element_on(
            registry,
            [ModeLabel(x, "H"), ModeLabel(y, "H")],
            beamsplitter_matrix(),
            f"fuse-{x}-{y}",
        )
        return fusion[:1] + (splitter,) + fusion[2:]

    monkeypatch.setattr(experiment, "_fusion_elements", broken)
    app = assemble_apparatus(star_topology(), pair_probability=0.05)
    with pytest.raises(ValueError, match="not monomial"):
        absolute_outcome_distribution(app, hv_setting())


def test_fusion_compile_pushes_only_occupied_modes(monkeypatch):
    # default star: 16 plain modes and 64 marked ones, of which a source
    # photon can occupy 16; 12 of those meet one splitter, one the plate
    calls = []

    def counted(state, element):
        calls.append(element.name)
        return apply_element(state, element)

    monkeypatch.setattr(experiment, "apply_element", counted)
    app = build_apparatus(default_config())
    absolute_outcome_distribution(app, hv_setting())
    assert len(calls) == 2 * (12 + 1)
    assert sum(name.startswith("fuse-") for name in calls) == 2 * 12


def _supported_terms_from_oracle(app, patterns):
    """Terms with a photon in every arm, counted on the oracle's members."""
    groups = {
        marked: arm_groups(registry, app.output_arms)
        for marked, registry in ((False, app.plain_registry), (True, app.marked_registry))
    }
    return sum(
        len(coincidence_support(state, groups[marked]).terms)
        for counts in patterns
        for _, state, marked in members_for_pattern(app, counts)
    )


@pytest.mark.parametrize(
    "topology,fusion_overlap,truncation",
    [(star_topology(), 0.76, 5), (chain_topology(3), 0.6, 5)],
    ids=["star-4", "chain-3"],
)
def test_members_assemble_only_supported_terms(topology, fusion_overlap, truncation):
    app = assemble_apparatus(
        topology, pair_probability=0.058, synthesizer_overlap=0.94,
        fusion_overlap=fusion_overlap, detector_efficiency=0.265,
        truncation_pairs=truncation,
    )
    patterns = [
        counts
        for order in range(truncation + 1)
        for counts in admitted_patterns(topology, order)
    ]
    n_terms = 0
    for _, supported, branch in experiment._members(app, patterns):
        groups = arm_groups(branch.registry, app.output_arms)
        for occ, _ in supported:
            assert all(sum(occ[i] for i in h + v) for h, v in groups)
            n_terms += 1
    assert n_terms == _supported_terms_from_oracle(app, patterns)


@pytest.mark.parametrize(
    "topology", [star_topology(), chain_topology(3)], ids=["star-4", "chain-3"]
)
def test_branch_registries_are_arm_major(topology):
    # an arm's modes are one contiguous run of (H, V) slots, tag by tag, so
    # a packed occupation of the branch registry is its per-arm layout
    app = assemble_apparatus(topology, pair_probability=0.05, fusion_overlap=0.6)
    assert len(app._branches) == 2
    for branch in app._branches:
        width = 2 * len(branch.tags)
        labels = list(branch.registry)
        assert len(labels) == width * app.n_arms
        for a, arm in enumerate(app.output_arms):
            assert labels[a * width : (a + 1) * width] == [
                ModeLabel(arm, pol, tag) for tag in branch.tags for pol in ("H", "V")
            ]
    # plain modes carry no tag, marked ones one mark per source
    assert [branch.width for branch in app._branches] == [2, 2 * topology.n_sources]


def test_members_build_each_source_ensemble_once(monkeypatch):
    calls = []
    ensemble = experiment.source_ensemble

    def counted(*args, **kwargs):
        calls.append(args)
        return ensemble(*args, **kwargs)

    monkeypatch.setattr(experiment, "source_ensemble", counted)
    app = dataclasses.replace(build_apparatus(default_config()), truncation_pairs=6)
    absolute_outcome_distribution(app, hv_setting())
    # each of the four sources emits one to three pairs at truncation 6
    assert len(set(calls)) == 4 * 3
    assert len(calls) == len(set(calls))


def single_term_distribution(app, bits):
    """Hand-built member: one photon per arm, polarizations from bits,
    detected at HV with unit efficiency."""
    registry = app.plain_registry
    occ = [0] * len(registry)
    for arm, pol in zip(app.output_arms, bits):
        occ[registry.index(ModeLabel(arm, pol))] = 1
    branch = app._branches[0]
    member = (1.0, [(bytes(occ), 1.0 + 0j)], branch)
    (vector,) = _pattern_vectors(app, [member], [hv_setting()])
    return dict(zip((p.bits for p in all_detection_patterns(app.n_arms)), vector))


def test_single_term_fires_its_own_detectors():
    app = assemble_apparatus(star_topology(2), pair_probability=0.05)
    # a palindrome reads the same in either arm order
    dist = single_term_distribution(app, "HVVH")
    assert dist["HVVH"] == 1.0
    assert sum(dist.values()) == 1.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "_pattern_vectors indexes the first arm fastest, the reverse of "
        "all_detection_patterns; perfbench/refs/multipair_hv.json was recorded "
        "in that order, so the fix waits for a benchmark change that re-records it"
    ),
)
def test_detection_pattern_order_matches_labels():
    app = assemble_apparatus(star_topology(2), pair_probability=0.05)
    assert single_term_distribution(app, "HHVH")["HHVH"] == 1.0

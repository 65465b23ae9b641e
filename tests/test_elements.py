import math

import numpy as np
import pytest

from oracles import (
    apply_all,
    apply_creation,
    apply_multinomial,
    beamsplitter_matrix,
    hwp_matrix,
    norm,
    normalized,
    photon_number_sectors,
    plus,
    qwp_matrix,
    scaled,
    vacuum,
    waveplate_angles,
)
from photonfusion import experiment
from photonfusion.config import default_config
from photonfusion.elements import (
    LinearElement,
    analyzer_matrix,
    apply_element,
    element_on,
    phase_matrix,
    pbs_matrix,
)
from photonfusion.fock import AmplitudeState, ModeLabel, registry_from
from photonfusion.topology import _compositions, star_topology


def polarization_registry():
    return registry_from([ModeLabel(1, "H"), ModeLabel(1, "V")])


def haar_unitary(rng, k):
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(rng, registry, max_photons, nterms=6):
    width = len(registry)
    terms = {}
    for _ in range(nterms):
        occ = [0] * width
        for _ in range(int(rng.integers(0, max_photons + 1))):
            occ[int(rng.integers(width))] += 1
        terms[tuple(occ)] = complex(rng.normal(), rng.normal())
    s = AmplitudeState(registry, terms, max_photons + 1)
    return normalized(s)


def test_compositions_enumerate_stars_and_bars():
    assert list(_compositions(2, 1)) == [(2,)]
    assert len(list(_compositions(3, 2))) == 4
    assert len(list(_compositions(4, 3))) == 15
    for t in _compositions(4, 3):
        assert sum(t) == 4


def test_non_unitary_matrix_rejected():
    reg = polarization_registry()
    with pytest.raises(ValueError):
        element_on(reg, list(reg), np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_repeated_mode_rejected():
    reg = polarization_registry()
    with pytest.raises(ValueError):
        LinearElement("bad", (0, 0), np.eye(2))


def test_half_wave_plate_at_quarter_pi_swaps_polarizations():
    assert np.allclose(hwp_matrix(math.pi / 4), [[0, 1], [1, 0]])


def test_half_wave_plate_at_eighth_pi_is_hadamard():
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(hwp_matrix(math.pi / 8), h)


def test_quarter_wave_plate_makes_circular_light():
    reg = polarization_registry()
    s = apply_creation(vacuum(reg, 2), ModeLabel(1, "H"))
    out = apply_multinomial(s, element_on(reg, list(reg), qwp_matrix(math.pi / 4), "qwp"))
    amp_h = out.terms[(1, 0)]
    amp_v = out.terms[(0, 1)]
    assert abs(amp_h) == pytest.approx(1 / math.sqrt(2))
    assert amp_v / amp_h == pytest.approx(1j)


def test_phase_matrix_is_a_pure_phase():
    reg = polarization_registry()
    s = apply_creation(vacuum(reg, 2), ModeLabel(1, "V"))
    flip = element_on(reg, [ModeLabel(1, "V")], phase_matrix(math.pi), "flip")
    out = apply_multinomial(s, flip)
    assert out.terms[(0, 1)] == pytest.approx(-1.0)


def test_two_photon_dip_on_balanced_splitter():
    # |1,1> in, coincidences vanish, both photons bunch: i/sqrt2 (|2,0> + |0,2>)
    reg = registry_from([ModeLabel(1, "H"), ModeLabel(2, "H")])
    s = AmplitudeState(reg, {(1, 1): 1.0 + 0j}, 4)
    out = apply_multinomial(s, element_on(reg, list(reg), beamsplitter_matrix(), "bs"))
    assert (1, 1) not in out.terms
    assert out.terms[(2, 0)] == pytest.approx(1j / math.sqrt(2))
    assert out.terms[(0, 2)] == pytest.approx(1j / math.sqrt(2))
    assert norm(out) == pytest.approx(1.0)


def four_mode_pbs_registry():
    return registry_from(
        [ModeLabel(1, "H"), ModeLabel(1, "V"), ModeLabel(2, "H"), ModeLabel(2, "V")]
    )


def test_pbs_transmits_h_and_reflects_v_with_phase():
    reg = four_mode_pbs_registry()
    pbs = element_on(reg, list(reg), pbs_matrix(), "pbs")
    h_in = AmplitudeState(reg, {(1, 0, 0, 0): 1.0 + 0j}, 4)
    assert apply_multinomial(h_in, pbs).terms == {(1, 0, 0, 0): 1.0 + 0j}
    v_in = AmplitudeState(reg, {(0, 1, 0, 0): 1.0 + 0j}, 4)
    assert apply_multinomial(v_in, pbs).terms[(0, 0, 0, 1)] == pytest.approx(1j)
    v_other = AmplitudeState(reg, {(0, 0, 0, 1): 1.0 + 0j}, 4)
    assert apply_multinomial(v_other, pbs).terms[(0, 1, 0, 0)] == pytest.approx(1j)


def test_pbs_on_mixed_pair():
    reg = four_mode_pbs_registry()
    pbs = element_on(reg, list(reg), pbs_matrix(), "pbs")
    s = AmplitudeState(reg, {(1, 1, 0, 0): 1.0 + 0j}, 4)
    out = apply_multinomial(s, pbs)
    assert out.terms == {(1, 0, 0, 1): pytest.approx(1j)}


def test_analyzer_matrix_action():
    rng = np.random.default_rng(11)
    reg = polarization_registry()
    for theta in [0.0, math.pi / 8, math.pi / 3, *rng.uniform(-math.pi, math.pi, 5)]:
        el = element_on(reg, list(reg), analyzer_matrix(theta), "analyzer")
        from_h = apply_multinomial(AmplitudeState(reg, {(1, 0): 1.0 + 0j}, 2), el)
        assert from_h.terms[(1, 0)] == pytest.approx(1 / math.sqrt(2))
        assert from_h.terms[(0, 1)] == pytest.approx(1 / math.sqrt(2))
        ph = complex(math.cos(theta), -math.sin(theta))
        from_v = apply_multinomial(AmplitudeState(reg, {(0, 1): 1.0 + 0j}, 2), el)
        assert from_v.terms[(1, 0)] == pytest.approx(ph / math.sqrt(2))
        assert from_v.terms[(0, 1)] == pytest.approx(-ph / math.sqrt(2))


def test_waveplate_recipe_reproduces_analyzer_rows():
    # QWP then HWP equals the analyzer up to a phase on each output row,
    # which detectors cannot see.
    rng = np.random.default_rng(3)
    angles = [k * math.pi / 8 for k in range(8)] + list(rng.uniform(-math.pi, math.pi, 10))
    for theta in angles:
        qwp_angle, hwp_angle = waveplate_angles(theta)
        stack = hwp_matrix(hwp_angle) @ qwp_matrix(qwp_angle)
        target = analyzer_matrix(theta)
        for row_s, row_t in zip(stack, target):
            ratios = row_s / row_t
            assert abs(ratios[0] - ratios[1]) < 1e-12
            assert abs(abs(ratios[0]) - 1.0) < 1e-12


def test_random_unitaries_preserve_norm_and_photon_number():
    rng = np.random.default_rng(20240818)
    reg = registry_from([ModeLabel(1, "H"), ModeLabel(1, "V"), ModeLabel(2, "H")])
    for _ in range(20):
        u = haar_unitary(rng, 3)
        el = element_on(reg, list(reg), u, "random")
        s = random_state(rng, reg, 3)
        out = apply_multinomial(s, el)
        assert norm(out) == pytest.approx(1.0, abs=1e-12)
        for n, sector in photon_number_sectors(s).items():
            out_sector = apply_multinomial(sector, el)
            assert set(sum(occ) for occ in out_sector.terms) <= {n}
            assert norm(out_sector) == pytest.approx(norm(sector), abs=1e-12)


def test_sequential_application_matches_matrix_product():
    rng = np.random.default_rng(99)
    reg = polarization_registry()
    for _ in range(10):
        u = haar_unitary(rng, 2)
        w = haar_unitary(rng, 2)
        s = random_state(rng, reg, 3)
        stepwise = apply_all(
            s,
            [element_on(reg, list(reg), u, "u"), element_on(reg, list(reg), w, "w")],
        )
        fused = apply_multinomial(s, element_on(reg, list(reg), w @ u, "wu"))
        diff = plus(stepwise, scaled(fused, -1.0))
        assert norm(diff) == pytest.approx(0.0, abs=1e-12)


def test_untouched_modes_pass_through():
    reg = registry_from([ModeLabel(1, "H"), ModeLabel(1, "V"), ModeLabel(2, "H")])
    s = AmplitudeState(reg, {(0, 0, 2): 0.5 + 0.5j}, 4)
    el = element_on(reg, [ModeLabel(1, "H"), ModeLabel(1, "V")], hwp_matrix(0.3), "hwp")
    assert apply_multinomial(s, el).terms == s.terms


# ---- The one-photon read against the multinomial oracle ----


def _bits(state):
    """Each amplitude's real and imaginary parts, bit for bit."""
    return {occ: (float(a.real).hex(), float(a.imag).hex()) for occ, a in state.terms.items()}


def _apparatus_elements():
    """(element, registry) for every element star-2 and the default
    star build: fusion and compensator elements of both branches, and the
    analyzers at angle 0, at k1-k15 and at one generic angle."""
    apparatuses = (
        experiment.assemble_apparatus(star_topology(2), pair_probability=0.05),
        experiment.build_apparatus(default_config()),
    )
    for app in apparatuses:
        settings = [experiment.k_setting(k, app.n_arms) for k in range(16)]
        settings.append(experiment.angle_setting([1.234] * app.n_arms))
        for registry, optics in (
            (app.plain_registry, app.fusion_elements + app.compensator_elements),
            (
                app.marked_registry,
                app.marked_fusion_elements + app.marked_compensator_elements,
            ),
        ):
            analyzers = [
                el
                for setting in settings
                for el in experiment._analyzer_elements(registry, app.output_arms, setting)
            ]
            for el in optics + tuple(analyzers):
                yield el, registry


def test_one_photon_read_matches_the_multinomial_oracle_bitwise():
    checked = 0
    for el, registry in _apparatus_elements():
        width = len(registry)
        inputs = []
        for i in el.mode_indices:
            occ = [0] * width
            occ[i] = 1
            inputs.append(tuple(occ))
        states = [AmplitudeState(registry, {occ: 1.0 + 0j}, 1) for occ in inputs]
        # every input at once: terms that meet on one output add, and an
        # analyzer's - output of |H> + |V> cancels to an exact zero
        states.append(AmplitudeState(registry, {occ: 1.0 + 0j for occ in inputs}, 1))
        for state in states:
            assert _bits(apply_element(state, el)) == _bits(apply_multinomial(state, el))
            checked += 1
    assert checked > 1000


def test_one_photon_read_refuses_two_photons():
    reg = registry_from([ModeLabel(1, "H"), ModeLabel(1, "V"), ModeLabel(2, "H")])
    el = element_on(reg, [ModeLabel(1, "H"), ModeLabel(1, "V")], analyzer_matrix(0.0), "an")
    for occ in ((2, 0, 0), (1, 1, 0), (0, 2, 1)):
        with pytest.raises(ValueError, match="2 photons"):
            apply_element(AmplitudeState(reg, {occ: 1.0 + 0j}, 3), el)
    # photons off the element's modes pass through
    state = AmplitudeState(reg, {(0, 0, 2): 0.5j, (1, 0, 2): 1.0 + 0j}, 3)
    assert _bits(apply_element(state, el)) == _bits(apply_multinomial(state, el))

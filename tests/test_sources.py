import math

import pytest

from oracles import (
    apply_all,
    apply_pair_creation,
    emission_sector,
    ensemble_states,
    ideal_pair_state,
    inner,
    norm,
    norm_sq,
    normalized,
    pair_type_sector,
    pdc_emit,
    photon_number_sectors,
    plus,
    scaled,
    source_registry,
    synthesized_pair_state,
    synthesizer_elements,
    vacuum,
)
from photonfusion.experiment import _Moved
from photonfusion.fock import ModeLabel
from photonfusion.sources import PdcSource, source_ensemble, source_mode_labels


def make_source(p=0.058, overlap=1.0):
    return PdcSource(arm_a=1, arm_b=2, pair_amplitude=math.sqrt(p), spectral_overlap=overlap)


def emission_operator_oracle(source, registry, nmax):
    """Rebuild the emission state from raw creation operators.

    Accumulates lam^n/n! (T + R)^n |0> term by term; independent of the
    closed-form construction used by pdc_emit.
    """
    t_pair = (ModeLabel(source.arm_a, "H", "e"), ModeLabel(source.arm_b, "V", "o"))
    r_pair = (ModeLabel(source.arm_b, "H", "e"), ModeLabel(source.arm_a, "V", "o"))
    lam = source.pair_amplitude / math.sqrt(2)
    total = vacuum(registry, 2 * nmax)
    power = vacuum(registry, 2 * nmax)
    for n in range(1, nmax + 1):
        power = scaled(
            plus(apply_pair_creation(power, *t_pair), apply_pair_creation(power, *r_pair)),
            lam / n,
        )
        total = plus(total, power)
    return total


def test_source_validation():
    with pytest.raises(ValueError):
        PdcSource(arm_a=1, arm_b=1, pair_amplitude=0.1)
    with pytest.raises(ValueError):
        PdcSource(arm_a=1, arm_b=2, pair_amplitude=0.1, spectral_overlap=1.5)
    with pytest.raises(ValueError):
        PdcSource(arm_a=1, arm_b=2, pair_amplitude=1.2)


def test_zero_amplitude_source_emits_vacuum():
    src = PdcSource(arm_a=1, arm_b=2, pair_amplitude=0.0)
    state = pdc_emit(src, 3)
    assert state.terms == {(0,) * 8: 1.0 + 0j}


def test_emission_keeps_vacuum_amplitude_one():
    state = pdc_emit(make_source(), 2)
    assert state.terms[(0,) * 8] == 1.0 + 0j


def test_emission_photon_numbers_pair_up_across_arms():
    src = make_source(p=0.3)
    reg = source_registry(src)
    arm_a_modes = [i for i, lab in enumerate(reg) if lab.arm == src.arm_a]
    arm_b_modes = [i for i, lab in enumerate(reg) if lab.arm == src.arm_b]
    for occ in pdc_emit(src, 3, reg).terms:
        assert sum(occ[i] for i in arm_a_modes) == sum(occ[i] for i in arm_b_modes)


def test_single_pair_probability_equals_p():
    p = 0.058
    state = pdc_emit(make_source(p=p), 2)
    one_pair = photon_number_sectors(state)[2]
    assert norm_sq(one_pair) == pytest.approx(p, rel=1e-12)


def test_double_pair_probability():
    # two-pair sector weight: 3 (p/2)^2, three equally weighted splits
    p = 0.2
    state = pdc_emit(make_source(p=p), 2)
    two_pair = photon_number_sectors(state)[4]
    assert norm_sq(two_pair) == pytest.approx(3 * (p / 2) ** 2, rel=1e-12)
    assert len(two_pair.terms) == 3


def test_emission_matches_operator_expansion_oracle():
    src = make_source(p=0.4)
    reg = source_registry(src)
    direct = pdc_emit(src, 3, reg)
    oracle = emission_operator_oracle(src, reg, 3)
    assert norm(plus(direct, scaled(oracle, -1.0))) == pytest.approx(0.0, abs=1e-12)


def test_synthesizer_elements_reproduce_direct_construction():
    src = make_source(p=0.3)
    reg = source_registry(src)
    via_elements = apply_all(pdc_emit(src, 3, reg), synthesizer_elements(src, reg))
    direct = synthesized_pair_state(src, 3, reg)
    assert norm(plus(via_elements, scaled(direct, -1.0))) == pytest.approx(0.0, abs=1e-12)


def test_synthesized_single_pair_is_the_ideal_pair():
    src = make_source(p=0.1)
    reg = source_registry(src)
    sector = photon_number_sectors(synthesized_pair_state(src, 2, reg))[2]
    ideal = ideal_pair_state(src, 2, reg)
    overlap = abs(inner(ideal, normalized(sector)))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_synthesized_pair_never_bunches_in_one_arm():
    # single-pair sector: one photon per arm, every term
    src = make_source(p=0.1)
    reg = source_registry(src)
    sector = photon_number_sectors(synthesized_pair_state(src, 2, reg))[2]
    for occ in sector.terms:
        for arm in (src.arm_a, src.arm_b):
            arm_total = sum(n for i, n in enumerate(occ) if reg.labels[i].arm == arm)
            assert arm_total == 1


def test_narrowband_photons_exit_on_arm_a():
    src = make_source(p=0.3)
    reg = source_registry(src)
    state = synthesized_pair_state(src, 2, reg)
    for occ in state.terms:
        for i, n in enumerate(occ):
            if n == 0:
                continue
            lab = reg.labels[i]
            if lab.tag == "e":
                assert lab.arm == src.arm_a
            else:
                assert lab.arm == src.arm_b


def test_hh_and_vv_weights_are_equal():
    src = make_source(p=0.1)
    reg = source_registry(src)
    hh = pair_type_sector(src, 1, 0, reg)
    vv = pair_type_sector(src, 0, 1, reg)
    assert norm_sq(hh) == pytest.approx(norm_sq(vv))


def test_emission_sector_amplitudes_are_uniform():
    src = make_source(p=0.3)
    reg = source_registry(src)
    lam = src.process_amplitude
    for n in (1, 2, 3):
        sector = emission_sector(src, n, reg)
        assert len(sector.terms) == n + 1
        for amp in sector.terms.values():
            assert amp == pytest.approx(lam**n)
        # and it is exactly the 2n-photon slice of the full output
        slice_ = photon_number_sectors(synthesized_pair_state(src, 3, reg))[2 * n]
        assert norm(plus(sector, scaled(slice_, -1.0))) == pytest.approx(0.0, abs=1e-13)


def test_ensemble_conserves_probability():
    src = make_source(p=0.2, overlap=0.7)
    reg = source_registry(src)
    for n in (0, 1, 2, 3):
        members = ensemble_states(src, n, reg)
        total = sum(w * norm_sq(m) for w, m in members)
        assert total == pytest.approx(norm_sq(emission_sector(src, n, reg)), rel=1e-12)


def test_ensemble_pair_coherence_equals_overlap():
    # cross-coherence between the HH and VV single-pair kets, normalized
    # by the pair weight, is exactly the overlap parameter
    for gamma in (0.0, 0.25, 0.5, 0.94, 1.0):
        src = make_source(p=0.1, overlap=gamma)
        reg = source_registry(src)
        hh = normalized(pair_type_sector(src, 1, 0, reg))
        vv = normalized(pair_type_sector(src, 0, 1, reg))
        num = 0j
        for w, m in ensemble_states(src, 1, reg):
            num += w * inner(hh, m) * inner(m, vv)
        lam_sq = src.process_amplitude**2
        assert (num / lam_sq).real == pytest.approx(gamma, abs=1e-12)


def test_post_selected_pair_fidelity_rises_with_overlap():
    # ensemble-averaged fidelity of the single-pair sector to the ideal
    # pair: overlap + (1 - overlap)/2
    values = []
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        src = make_source(p=0.1, overlap=gamma)
        reg = source_registry(src)
        ideal = ideal_pair_state(src, 2, reg)
        num = 0.0
        den = 0.0
        for w, m in ensemble_states(src, 1, reg):
            num += w * abs(inner(ideal, m)) ** 2
            den += w * norm_sq(m)
        values.append(num / den)
    assert values == pytest.approx([0.5, 0.625, 0.75, 0.875, 1.0])
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("gamma", [0.0, 0.37, 1.0])
def test_closed_form_ensemble_matches_the_oracle_construction(gamma):
    # member by member: the same weights in the same order, and the same
    # occupations of the four output modes with exactly the same amplitudes,
    # read through the engine's term builder with an identity fusion image
    src = make_source(p=0.3, overlap=gamma)
    reg = source_registry(src)
    outputs = [reg.index(lab) for lab in source_mode_labels(src)]
    identity = tuple((j, 1) for j in range(len(outputs)))
    for n in range(9):
        closed = source_ensemble(src, n)
        oracle = ensemble_states(src, n, reg)
        assert [w for w, _ in closed] == [w for w, _ in oracle]
        amp = complex(src.process_amplitude**n)
        for (_, hs), (_, state) in zip(closed, oracle):
            terms = []
            for packed, a, _ in _Moved(n, hs, amp, identity, len(outputs)).terms:
                terms.append((tuple(packed.to_bytes(len(outputs), "little")), a))
            expected = []
            for occ, a in state.terms.items():
                # the synthesizer leaves every other mode empty
                assert sum(occ[j] for j in outputs) == sum(occ) == 2 * n
                expected.append((tuple(occ[j] for j in outputs), a))
            assert terms == expected

import math

import numpy as np
import pytest

from oracles import (
    apply_creation,
    apply_multinomial,
    apply_pair_creation,
    beamsplitter_matrix,
    has_mode,
    inner,
    map_modes,
    norm,
    norm_sq,
    normalized,
    photon_number_sectors,
    plus,
    scaled,
    tensor_product,
    vacuum,
)
from photonfusion.elements import analyzer_matrix, element_on
from photonfusion.fock import AmplitudeState, ModeLabel, ModeRegistry, registry_from


def two_mode_registry():
    return registry_from([ModeLabel(1, "H"), ModeLabel(1, "V")])


def test_registry_keeps_construction_order():
    labs = [ModeLabel(2, "H"), ModeLabel(1, "V"), ModeLabel(1, "H")]
    reg = registry_from(labs)
    assert list(reg) == labs
    assert reg.index(ModeLabel(1, "V")) == 1
    assert has_mode(reg, ModeLabel(2, "H"))
    assert not has_mode(reg, ModeLabel(3, "H"))


def test_registry_rejects_duplicates():
    with pytest.raises(ValueError):
        registry_from([ModeLabel(1, "H"), ModeLabel(1, "H")])


def test_vacuum_is_normalized():
    reg = two_mode_registry()
    v = vacuum(reg, 4)
    assert norm(v) == 1.0
    assert v.terms == {(0, 0): 1.0 + 0j}


def test_creation_bosonic_factors():
    reg = two_mode_registry()
    s = vacuum(reg, 4)
    s = apply_creation(s, ModeLabel(1, "H"))
    assert s.terms == {(1, 0): pytest.approx(1.0)}
    s = apply_creation(s, ModeLabel(1, "H"))
    # a+ a+ |0> = sqrt(2) |2>
    assert s.terms[(2, 0)] == pytest.approx(math.sqrt(2))
    s = apply_creation(s, ModeLabel(1, "H"))
    assert s.terms[(3, 0)] == pytest.approx(math.sqrt(6))


def test_creation_respects_truncation():
    reg = two_mode_registry()
    s = vacuum(reg, 2)
    for _ in range(3):
        s = apply_creation(s, ModeLabel(1, "H"))
    assert s.terms == {}
    assert norm(s) == 0.0


def test_pair_creation_matches_two_singles():
    reg = two_mode_registry()
    a = apply_pair_creation(vacuum(reg, 4), ModeLabel(1, "H"), ModeLabel(1, "V"))
    b = apply_creation(apply_creation(vacuum(reg, 4), ModeLabel(1, "H")), ModeLabel(1, "V"))
    assert a.terms == b.terms


def test_creation_coefficient_multiplies_amplitude():
    reg = two_mode_registry()
    s = apply_creation(vacuum(reg, 4), ModeLabel(1, "V"), coeff=0.5j)
    assert s.terms == {(0, 1): pytest.approx(0.5j)}


def test_vacuum_registry_can_be_empty():
    reg = registry_from([])
    v = vacuum(reg, 0)
    assert v.terms == {(): 1.0 + 0j}
    assert inner(v, v) == pytest.approx(1.0)


def test_tensor_product_of_vacua_is_vacuum():
    a = vacuum(registry_from([ModeLabel(1, "H")]), 2)
    b = vacuum(registry_from([ModeLabel(2, "H")]), 2)
    t = tensor_product(a, b)
    assert t.terms == {(0, 0): 1.0 + 0j}
    assert list(t.registry) == [ModeLabel(1, "H"), ModeLabel(2, "H")]


def test_tensor_product_single_photons():
    a = apply_creation(vacuum(registry_from([ModeLabel(1, "H")]), 2), ModeLabel(1, "H"))
    b = apply_creation(vacuum(registry_from([ModeLabel(2, "H")]), 2), ModeLabel(2, "H"))
    t = tensor_product(a, b)
    assert t.terms == {(1, 1): pytest.approx(1.0)}


def test_tensor_product_expands_products_of_superpositions():
    reg_a = registry_from([ModeLabel(1, "H")])
    reg_b = registry_from([ModeLabel(2, "H")])
    a = AmplitudeState(reg_a, {(0,): 0.6 + 0j, (1,): 0.8j}, 2)
    b = AmplitudeState(reg_b, {(0,): 0.5 + 0j, (1,): 0.5 + 0j}, 2)
    t = tensor_product(a, b)
    assert t.terms[(0, 0)] == pytest.approx(0.3)
    assert t.terms[(0, 1)] == pytest.approx(0.3)
    assert t.terms[(1, 0)] == pytest.approx(0.4j)
    assert t.terms[(1, 1)] == pytest.approx(0.4j)
    assert norm(t) == pytest.approx(norm(a) * norm(b))


def test_tensor_product_rejects_shared_labels():
    a = vacuum(registry_from([ModeLabel(1, "H")]), 2)
    b = vacuum(registry_from([ModeLabel(1, "H")]), 2)
    with pytest.raises(ValueError):
        tensor_product(a, b)


def test_tensor_product_truncation_cap():
    reg_a = registry_from([ModeLabel(1, "H")])
    reg_b = registry_from([ModeLabel(2, "H")])
    a = AmplitudeState(reg_a, {(2,): 1.0 + 0j}, 2)
    b = AmplitudeState(reg_b, {(2,): 1.0 + 0j}, 2)
    assert tensor_product(a, b).terms == {(2, 2): 1.0 + 0j}
    assert tensor_product(a, b, truncation=3).terms == {}


def test_inner_product_conjugates_left_argument():
    reg = two_mode_registry()
    x = AmplitudeState(reg, {(1, 0): 1j}, 4)
    y = AmplitudeState(reg, {(1, 0): 1.0 + 0j}, 4)
    assert inner(x, y) == pytest.approx(-1j)
    assert inner(y, x) == pytest.approx(1j)


def test_superposition_norm():
    # (|2,0> + |0,2>)/sqrt2 has unit norm; overlap with |2,0> is 1/sqrt2
    reg = two_mode_registry()
    c = 1 / math.sqrt(2)
    s = AmplitudeState(reg, {(2, 0): c, (0, 2): c}, 4)
    assert norm(s) == pytest.approx(1.0)
    basis = AmplitudeState(reg, {(2, 0): 1.0 + 0j}, 4)
    assert abs(inner(basis, s)) == pytest.approx(c)


def test_scaling_and_addition():
    reg = two_mode_registry()
    s = AmplitudeState(reg, {(1, 0): 0.5 + 0j, (0, 1): 0.5j}, 4)
    t = plus(scaled(s, 2.0), scaled(s, -1.0))
    assert t.terms[(1, 0)] == pytest.approx(0.5)
    assert t.terms[(0, 1)] == pytest.approx(0.5j)
    cancel = plus(s, scaled(s, -1.0))
    assert cancel.terms == {}


def test_sum_that_cancels_leaves_no_terms():
    # plus(s, scaled(s, -1.0)) cancels exactly (test_scaling_and_addition); 0.1 +
    # 0.2 - 0.3 rounds to 5.6e-17, a cancellation within rounding
    reg = two_mode_registry()
    a, b, c = (AmplitudeState(reg, {(0, 1): x + 0j}, 4) for x in (0.1, 0.2, -0.3))
    assert plus(plus(a, b), c).terms == {}
    # a near-cancellation far above rounding is kept
    d = AmplitudeState(reg, {(0, 1): -(1.0 - 1e-9) + 0j}, 4)
    assert plus(d, AmplitudeState(reg, {(0, 1): 1.0 + 0j}, 4)).terms[(0, 1)] != 0
    # a tiny amplitude no sum produced is no zero
    tiny = AmplitudeState(reg, {(1, 0): 1.0 + 0j, (0, 1): 1e-16 + 0j}, 4)
    assert scaled(tiny, 1.0).terms == tiny.terms


def test_zeros_do_not_depend_on_the_amplitude_scale():
    # a 50:50 splitter on the H modes, then an analyzer at angle 0 on the
    # first arm: twelve photons there leave rounding residues at the
    # analyzer's exact zeros (odd + counts of |6 H, 6 V>, among others)
    reg = registry_from([ModeLabel(arm, pol) for arm in (1, 2) for pol in ("H", "V")])
    splitter = element_on(reg, [ModeLabel(1, "H"), ModeLabel(2, "H")], beamsplitter_matrix())
    analyzer = element_on(reg, [ModeLabel(1, "H"), ModeLabel(1, "V")], analyzer_matrix(0.0))
    outputs = []
    for scale in (1.0, 1e-300):
        terms = {(5, 6, 1, 0): scale * (1.0 + 0.5j), (6, 6, 0, 0): scale * (0.5 + 0j)}
        state = AmplitudeState(reg, terms, 14)
        state = apply_multinomial(apply_multinomial(state, splitter), analyzer)
        outputs.append({occ: a / scale for occ, a in state.terms.items()})
    unit, tiny = outputs
    assert unit.keys() == tiny.keys()
    assert not any((p, 12 - p, 0, 0) in unit for p in range(1, 12, 2))
    for occ, a in unit.items():
        assert abs(tiny[occ] - a) <= 1e-12 * abs(a), occ


def test_normalize_zero_state_raises():
    reg = two_mode_registry()
    s = AmplitudeState(reg, {}, 4)
    with pytest.raises(ValueError):
        normalized(s)


def test_photon_number_sectors():
    reg = two_mode_registry()
    s = AmplitudeState(reg, {(0, 0): 0.5 + 0j, (1, 1): 0.5 + 0j, (2, 0): 0.5 + 0j}, 4)
    sectors = photon_number_sectors(s)
    assert set(sectors) == {0, 2}
    assert sectors[2].terms == {(1, 1): 0.5 + 0j, (2, 0): 0.5 + 0j}


def test_map_modes_renames_and_preserves_norm():
    small = registry_from([ModeLabel(1, "H"), ModeLabel(1, "V")])
    big = registry_from(
        [ModeLabel(7, "H", "e"), ModeLabel(7, "V", "e"), ModeLabel(8, "H", "e")]
    )
    s = AmplitudeState(small, {(1, 0): 0.6 + 0j, (0, 1): 0.8j}, 4)
    mapped = map_modes(s, big, lambda lab: ModeLabel(7, lab.pol, "e"))
    assert norm(mapped) == pytest.approx(1.0)
    assert mapped.terms[(1, 0, 0)] == pytest.approx(0.6)
    assert mapped.terms[(0, 1, 0)] == pytest.approx(0.8j)


def test_map_modes_rejects_collisions():
    small = registry_from([ModeLabel(1, "H"), ModeLabel(2, "H")])
    big = registry_from([ModeLabel(3, "H")])
    s = AmplitudeState(small, {(1, 1): 1.0 + 0j}, 4)
    with pytest.raises(ValueError):
        map_modes(s, big, lambda lab: ModeLabel(3, "H"))


def test_random_state_inner_product_properties():
    rng = np.random.default_rng(7)
    reg = registry_from([ModeLabel(1, "H"), ModeLabel(1, "V"), ModeLabel(2, "H")])
    for _ in range(25):
        terms_a = {
            tuple(int(n) for n in rng.integers(0, 3, size=3)): complex(rng.normal(), rng.normal())
            for _ in range(8)
        }
        terms_b = {
            tuple(int(n) for n in rng.integers(0, 3, size=3)): complex(rng.normal(), rng.normal())
            for _ in range(8)
        }
        a = AmplitudeState(reg, terms_a, 9)
        b = AmplitudeState(reg, terms_b, 9)
        # <a|a> is the squared norm, real and nonnegative
        assert inner(a, a).imag == pytest.approx(0.0, abs=1e-12)
        assert inner(a, a).real == pytest.approx(norm_sq(a))
        # conjugate symmetry
        assert inner(a, b) == pytest.approx(inner(b, a).conjugate())
        # linearity in the right slot
        c = 0.3 - 1.7j
        lhs = inner(a, scaled(b, c))
        assert lhs == pytest.approx(c * inner(a, b))

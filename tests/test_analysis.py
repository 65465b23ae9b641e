"""Tests for histogram observables and the witness assembly."""

import builtins
import json
import math

import numpy as np
import pytest

from oracles import apply_all, inner
from photonfusion.analysis import (
    ObservableResult,
    fidelity_witness,
    m_k_expectation,
    poisson_propagate,
    populations,
    witness_from_histograms,
)
from photonfusion.elements import analyzer_matrix, element_on
from photonfusion.experiment import (
    CoincidenceHistogram,
    DetectionPattern,
    all_detection_patterns,
    angle_setting,
    hv_setting,
    k_setting,
)
from photonfusion.fock import AmplitudeState, ModeLabel, registry_from


def hv_hist(counts, width=8):
    return CoincidenceHistogram(hv_setting(), counts, duration_s=1.0, seed=0)


def pat(bits):
    return DetectionPattern(bits)


# ---- Poisson propagation ----


def test_fifty_fifty_sigma_anchor():
    hist = hv_hist({pat("H" * 8): 200, pat("V" * 8): 200})
    sigma = poisson_propagate({pat("H" * 8): 1.0}, hist)
    assert abs(sigma - 0.025) < 1e-12


def test_saturated_pattern_has_zero_sigma():
    hist = hv_hist({pat("H" * 8): 400})
    assert poisson_propagate({pat("H" * 8): 1.0}, hist) == 0.0


def test_saturated_parity_has_zero_sigma():
    counts = {
        p: 3.0
        for p in all_detection_patterns(8, ("+", "-"))
        if p.count("-") % 2 == 0
    }
    hist = CoincidenceHistogram(k_setting(0), counts, 1.0, 0)
    assert m_k_expectation(hist).sigma == 0.0
    assert m_k_expectation(hist).value == 1.0


def test_sigma_scales_as_inverse_root_n():
    sigmas = []
    for n in (100, 10_000):
        counts = {pat("+" * 8): 0.7 * n, pat("+" * 7 + "-"): 0.3 * n}
        hist = CoincidenceHistogram(k_setting(0), counts, 1.0, 0)
        sigmas.append(m_k_expectation(hist).sigma)
    assert abs(sigmas[0] / sigmas[1] - 10.0) < 1e-9


def test_callable_and_dict_forms_agree():
    hist = hv_hist({pat("H" * 8): 37, pat("V" * 8): 11, pat("HV" * 4): 5})
    as_dict = {p: float(p.count("H") % 2) for p in hist.counts}
    a = poisson_propagate(as_dict, hist)
    b = poisson_propagate(lambda p: p.count("H") % 2, hist)
    assert a == b


def test_empty_histogram_rejected():
    hist = hv_hist({})
    with pytest.raises(ValueError, match="no events"):
        poisson_propagate({}, hist)
    with pytest.raises(ValueError, match="no events"):
        populations(hv_hist({pat("H" * 8): 0}))


# ---- Populations ----


def test_populations_values_and_errors():
    hist = hv_hist({pat("H" * 8): 200, pat("V" * 8): 200})
    summary = populations(hist)
    assert summary.all_h.value == 0.5
    assert summary.all_v.value == 0.5
    assert abs(summary.all_h.sigma - 0.025) < 1e-12
    # the signal patterns fill the histogram, so their sum is exact
    assert summary.combined.value == 1.0
    assert summary.combined.sigma == 0.0
    assert summary.snr is None and summary.snr_unbounded
    assert summary.n_events == 400


def test_populations_snr():
    counts = {p: 1.0 for p in all_detection_patterns(8)}
    counts[pat("H" * 8)] = 508.0
    counts[pat("V" * 8)] = 552.0
    summary = populations(hv_hist(counts))
    assert not summary.snr_unbounded
    assert abs(summary.snr - 530.0) < 1e-9


def test_populations_requires_computational_basis():
    counts = {pat("+" * 8): 10}
    hist = CoincidenceHistogram(k_setting(0), counts, 1.0, 0)
    with pytest.raises(ValueError, match="computational-basis"):
        populations(hist)


# ---- Correlation expectations ----


def test_m_k_alternating_signs():
    even = {p: 1.0 for p in all_detection_patterns(4, ("+", "-")) if p.count("-") % 2 == 0}
    odd = {p: 1.0 for p in all_detection_patterns(4, ("+", "-")) if p.count("-") % 2 == 1}
    h_even = CoincidenceHistogram(k_setting(0, n_arms=4), even, 1.0, 0)
    h_odd = CoincidenceHistogram(k_setting(2, n_arms=4), odd, 1.0, 0)
    assert m_k_expectation(h_even).value == 1.0
    assert m_k_expectation(h_odd).value == -1.0


def test_m_k_invariant_under_global_complement():
    rng = np.random.default_rng(7)
    patterns = all_detection_patterns(8, ("+", "-"))
    counts = {p: float(n) for p, n in zip(patterns, rng.integers(0, 50, size=256))}
    flipped = {
        DetectionPattern(p.bits.translate(str.maketrans("+-", "-+"))): n
        for p, n in counts.items()
    }
    a = m_k_expectation(CoincidenceHistogram(k_setting(3), counts, 1.0, 0))
    b = m_k_expectation(CoincidenceHistogram(k_setting(3), flipped, 1.0, 0))
    assert a.value == b.value
    assert a.sigma == b.sigma


def test_m_k_rejects_hv_and_mixed_angles():
    with pytest.raises(ValueError, match="rotated"):
        m_k_expectation(hv_hist({pat("H" * 8): 3}))
    setting = angle_setting((0.1, 0.2, 0.1), label="skew")
    counts = {pat("+++"): 2.0}
    with pytest.raises(ValueError, match="differ"):
        m_k_expectation(CoincidenceHistogram(setting, counts, 1.0, 0))


# ---- Witness assembly ----


def ideal_ghz_histograms(n=8):
    """Exact outcome distributions for a perfect n-arm cat state."""
    hv = CoincidenceHistogram(
        hv_setting(), {pat("H" * n): 0.5, pat("V" * n): 0.5}, 1.0, 0
    )
    out = [hv]
    for k in range(n):
        counts = {
            p: 1.0 / 2 ** (n - 1)
            for p in all_detection_patterns(n, ("+", "-"))
            if p.count("-") % 2 == k % 2
        }
        setting = angle_setting((k * math.pi / n,) * n, label=f"w{k}")
        out.append(CoincidenceHistogram(setting, counts, 1.0, 0))
    return out


def test_ideal_witness_is_exactly_one():
    report = witness_from_histograms(ideal_ghz_histograms())
    assert abs(report.fidelity.value - 1.0) < 1e-15
    assert report.fidelity.sigma == 0.0
    assert report.significance_sigmas is None
    assert report.entangled
    assert report.population_term.value == 0.5
    values = [res.value for _, res in report.correlation_terms]
    assert values == [(-1.0) ** k for k in range(8)]


def test_witness_report_serialization():
    report = witness_from_histograms(ideal_ghz_histograms())
    data = report.to_dict()
    expected = {"population_term", "fidelity", "sigma", "significance",
                "significance_unbounded", "entangled"}
    expected |= {f"m_k_{k}" for k in range(8)}
    assert set(data) == expected
    assert data["significance"] is None
    assert data["significance_unbounded"] is True
    dumped = json.dumps(data)
    assert "Infinity" not in dumped and "NaN" not in dumped


def test_paper_scale_synthetic_run():
    # 0.806 combined signal fraction and alternating 0.61 correlations
    hv = hv_hist(
        {pat("H" * 8): 100.75, pat("V" * 8): 100.75, pat("H" * 7 + "V"): 48.5}
    )
    hists = [hv]
    for k in range(8):
        n_aligned, n_opposed = (161.0, 39.0) if k % 2 == 0 else (39.0, 161.0)
        counts = {pat("+" * 8): n_aligned, pat("+" * 7 + "-"): n_opposed}
        hists.append(CoincidenceHistogram(k_setting(k), counts, 1.0, 0))
    report = witness_from_histograms(hists)
    assert abs(report.fidelity.value - 0.708) < 1e-9
    assert 12.5 < report.significance_sigmas < 13.5
    assert report.entangled
    expected = (report.fidelity.value - 0.5) / report.fidelity.sigma
    assert report.significance_sigmas == expected


def test_fidelity_stays_in_witness_range():
    rng = np.random.default_rng(20260822)
    hv_patterns = all_detection_patterns(8)
    rot_patterns = all_detection_patterns(8, ("+", "-"))
    for _ in range(20):
        hv = hv_hist(
            {p: float(n) for p, n in zip(hv_patterns, rng.integers(1, 30, 256))}
        )
        hists = [hv]
        for k in range(8):
            counts = {
                p: float(n) for p, n in zip(rot_patterns, rng.integers(1, 30, 256))
            }
            hists.append(CoincidenceHistogram(k_setting(k), counts, 1.0, 0))
        report = witness_from_histograms(hists)
        assert -1.0 <= report.fidelity.value <= 1.0


def hand_built_run(exact):
    """A fixed witness input whose float sums round differently left to
    right than compensated: odd counts, or their probabilities."""
    hists = []
    for k, setting in enumerate([hv_setting()] + [k_setting(k) for k in range(8)]):
        patterns = all_detection_patterns(8, setting.symbols)
        counts = {p: (37 * i * i + 11 * k + 5) % 97 + 1 for i, p in enumerate(patterns)}
        if exact:
            total = sum(counts.values())
            counts = {p: n / total for p, n in counts.items()}
        hists.append(CoincidenceHistogram(setting, counts, 1.0, 0, exact=exact))
    return hists


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_witness_digits_do_not_depend_on_how_sum_rounds(monkeypatch, exact):
    # Python 3.12 made builtins.sum compensate float rounding; a report
    # summed left to right reads the same under a compensated sum
    hists = hand_built_run(exact)
    expected = witness_from_histograms(hists).to_dict()
    plain_sum = builtins.sum

    def compensated_sum(values, start=0):
        values = list(values)
        if any(isinstance(v, float) for v in values):
            return start + math.fsum(values)
        return plain_sum(values, start)

    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert witness_from_histograms(hists).to_dict() == expected


def test_missing_ingredients_rejected():
    pop = populations(hv_hist({pat("H" * 8): 1.0, pat("V" * 8): 1.0}))
    counts = {pat("+" * 8): 4.0, pat("+" * 7 + "-"): 1.0}
    results = [
        (k, m_k_expectation(CoincidenceHistogram(k_setting(k), counts, 1.0, 0)))
        for k in range(7)
    ]
    with pytest.raises(ValueError, match="missing k="):
        fidelity_witness(pop, results)
    with pytest.raises(ValueError, match="no correlation terms"):
        fidelity_witness(pop, [])


def test_witness_input_validation():
    hists = ideal_ghz_histograms()
    with pytest.raises(ValueError, match="exactly one computational"):
        witness_from_histograms(hists[1:])
    with pytest.raises(ValueError, match="rotated histograms"):
        witness_from_histograms(hists[:-1])
    off_grid = CoincidenceHistogram(
        angle_setting((0.123,) * 8, label="odd"), {pat("+" * 8): 1.0}, 1.0, 0
    )
    with pytest.raises(ValueError, match="witness grid"):
        witness_from_histograms(hists[:-1] + [off_grid])
    with pytest.raises(ValueError, match="duplicate analyzer angles"):
        witness_from_histograms(hists[:-1] + [hists[1]])


# ---- Statevector oracle on three arms ----

ARMS3 = (1, 2, 3)
REG3 = registry_from(
    [ModeLabel(arm, pol) for arm in ARMS3 for pol in ("H", "V")]
)


def qubit_state(amps: dict) -> AmplitudeState:
    """One photon per arm; amps maps e.g. 'HVH' to a complex amplitude."""
    terms = {}
    for bits, a in amps.items():
        occ = [0] * len(REG3)
        for i, ch in enumerate(bits):
            occ[REG3.index(ModeLabel(ARMS3[i], ch))] = 1
        terms[tuple(occ)] = complex(a)
    return AmplitudeState(REG3, terms, truncation_order=len(ARMS3))


GHZ3 = qubit_state({"HHH": 1 / math.sqrt(2), "VVV": 1 / math.sqrt(2)})


def exact_distribution(state: AmplitudeState, theta) -> dict:
    """Measurement distribution, computed with the optics machinery."""
    if theta is not None:
        rotations = [
            element_on(
                REG3,
                (ModeLabel(arm, "H"), ModeLabel(arm, "V")),
                analyzer_matrix(theta),
                name=f"analyzer{arm}",
            )
            for arm in ARMS3
        ]
        state = apply_all(state, rotations)
        symbols = ("+", "-")
    else:
        symbols = ("H", "V")
    dist: dict = {}
    for occ, amp in state.terms.items():
        bits = []
        for arm in ARMS3:
            slot = ("H", "V")[occ[REG3.index(ModeLabel(arm, "V"))]]
            if occ[REG3.index(ModeLabel(arm, "H"))] + occ[REG3.index(ModeLabel(arm, "V"))] != 1:
                bits = None
                break
            bits.append(symbols[0] if slot == "H" else symbols[1])
        if bits is None:
            continue
        key = DetectionPattern("".join(bits))
        dist[key] = dist.get(key, 0.0) + abs(amp) ** 2
    return dist


def witness_histograms_for(components) -> list:
    """components: [(weight, state), ...] describing a mixture."""
    hists = []
    for theta, setting in [(None, hv_setting())] + [
        (k * math.pi / 3, angle_setting((k * math.pi / 3,) * 3, label=f"w{k}"))
        for k in range(3)
    ]:
        counts: dict = {}
        for weight, state in components:
            for p, prob in exact_distribution(state, theta).items():
                counts[p] = counts.get(p, 0.0) + weight * prob
        hists.append(CoincidenceHistogram(setting, counts, 1.0, 0))
    return hists


def random_components(rng):
    if rng.random() < 0.8:
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        bits = [format(i, "03b").translate(str.maketrans("01", "HV")) for i in range(8)]
        return [(1.0, qubit_state(dict(zip(bits, amps))))]
    # dephased mixture of two pure pieces
    w = rng.uniform(0.2, 0.8)
    parts = []
    for weight in (w, 1.0 - w):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        bits = [format(i, "03b").translate(str.maketrans("01", "HV")) for i in range(8)]
        parts.append((weight, qubit_state(dict(zip(bits, amps)))))
    return parts


def test_three_arm_witness_matches_overlap_oracle():
    rng = np.random.default_rng(314159)
    for _ in range(50):
        components = random_components(rng)
        oracle = sum(
            w * abs(inner(GHZ3, state)) ** 2 for w, state in components
        )
        report = witness_from_histograms(witness_histograms_for(components))
        assert abs(report.fidelity.value - oracle) < 1e-10
        assert report.n_arms == 3


def test_three_arm_ideal_state_saturates():
    report = witness_from_histograms(witness_histograms_for([(1.0, GHZ3)]))
    assert abs(report.fidelity.value - 1.0) < 1e-12

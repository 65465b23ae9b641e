"""End-to-end acceptance checks.

One test per shipped guarantee; each prints a single PASS/FAIL line with
the measured numbers so a run log reads as a checklist.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from oracles import apply_all, inner
from photonfusion.analysis import (
    ObservableResult,
    PopulationSummary,
    fidelity_witness,
    populations,
    witness_from_histograms,
)
from photonfusion.cli import main
from photonfusion.config import default_config
from photonfusion.elements import analyzer_matrix, element_on
from photonfusion.experiment import (
    CoincidenceHistogram,
    DetectionPattern,
    absolute_outcome_distribution,
    all_detection_patterns,
    angle_setting,
    assemble_apparatus,
    build_apparatus,
    calibrate_overlaps,
    emission_pattern_probability,
    hv_setting,
    k_setting,
    monte_carlo_counts,
    outcome_distribution,
)
from photonfusion.fock import AmplitudeState, ModeLabel, registry_from
from photonfusion.topology import chain_topology, enumerate_error_terms, star_topology


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def exact_histograms(apparatus, n_correlations=8):
    hists = []
    for setting in [hv_setting()] + [
        k_setting(k, apparatus.n_arms) for k in range(n_correlations)
    ]:
        dist = outcome_distribution(apparatus, setting)
        hists.append(CoincidenceHistogram(setting, dist, 1.0, 0))
    return hists


def signed_parity(dist) -> float:
    return sum(
        (-1 if pat.count("-") % 2 else 1) * p for pat, p in dist.items()
    )


# ---- 1: ideal closure ----


def test_criterion_1_ideal_closure():
    t0 = time.perf_counter()
    app = assemble_apparatus(
        star_topology(),
        pair_probability=0.058,
        detector_efficiency=0.265,
        truncation_pairs=4,
    )
    hv = outcome_distribution(app, hv_setting())
    all_h = hv[DetectionPattern("H" * 8)]
    all_v = hv[DetectionPattern("V" * 8)]
    pop_err = max(abs(all_h - 0.5), abs(all_v - 0.5))
    parity_err = 0.0
    for k in range(16):
        parity = signed_parity(outcome_distribution(app, k_setting(k)))
        parity_err = max(parity_err, abs(parity - (-1.0) ** k))
    fidelity = witness_from_histograms(exact_histograms(app)).fidelity.value
    elapsed = time.perf_counter() - t0
    ok = pop_err <= 1e-9 and parity_err <= 1e-9 and abs(fidelity - 1.0) <= 1e-9
    ok = ok and elapsed < 10.0
    _report(
        "criterion 1",
        ok,
        f"ideal populations off by {pop_err:.1e}, parities by {parity_err:.1e}, "
        f"F = {fidelity:.12f}, in {elapsed:.1f} s (budget 10 s)",
    )


# ---- 2: parity structure ----


def test_criterion_2_parity_support():
    app = assemble_apparatus(
        star_topology(), pair_probability=0.058, truncation_pairs=4
    )
    dist = outcome_distribution(app, k_setting(0))
    even = {p for p in dist if p.count("-") % 2 == 0}
    nonzero = {p for p, v in dist.items() if v > 1e-20}
    worst = max(abs(dist[p] - 1.0 / 128) for p in even)
    leak = max((dist[p] for p in dist if p not in even), default=0.0)
    ok = nonzero == even and len(even) == 128 and worst <= 1e-10
    _report(
        "criterion 2",
        ok,
        f"{len(nonzero)} even-minus patterns carry weight, worst deviation "
        f"from 1/128 is {worst:.1e}, odd-pattern leak {leak:.1e}",
    )


# ---- 3: noise-term combinatorics against the exact simulator ----


def test_criterion_3_topology_oracle():
    t0 = time.perf_counter()
    totals = {}
    matches = []
    for name, topo in (("star", star_topology()), ("chain", chain_topology())):
        app = assemble_apparatus(
            topo, pair_probability=0.2, truncation_pairs=5, detector_efficiency=0.5
        )
        for order in (4, 5):
            rows = enumerate_error_terms(topo, order)
            totals[name, order] = sum(row.multiplicity for row in rows)
            counted = {row.pattern.pairs_per_source for row in rows}
            simulated = set()
            for counts in itertools.product(range(order + 1), repeat=4):
                if sum(counts) != order:
                    continue
                if emission_pattern_probability(app, counts) > 1e-18:
                    simulated.add(counts)
            matches.append(simulated == counted)
    elapsed = time.perf_counter() - t0
    ok = (
        totals["chain", 5] == 6
        and totals["star", 5] == 4
        and all(matches)
        and elapsed < 300.0
    )
    _report(
        "criterion 3",
        ok,
        f"order-5 totals star {totals['star', 5]} chain {totals['chain', 5]}, "
        f"exact-simulation support matches enumeration in all {len(matches)} "
        f"cases, in {elapsed:.1f} s (budget 300 s)",
    )


# ---- 4: brightness-efficiency scaling ----


def test_criterion_4_rate_scaling():
    coefficients = {}
    for p, xi in itertools.product((0.01, 0.05), (0.1, 0.265)):
        app = assemble_apparatus(
            star_topology(),
            pair_probability=p,
            detector_efficiency=math.sqrt(xi),
            truncation_pairs=4,
        )
        total = sum(absolute_outcome_distribution(app, hv_setting()).values())
        coefficients[p, xi] = total / (p * xi) ** 4
    values = list(coefficients.values())
    spread = max(values) / min(values) - 1.0
    ok = spread <= 0.05
    _report(
        "criterion 4",
        ok,
        f"eight-fold probability over (p*xi)^4 constant to {spread:.2e} "
        f"across the 4-point grid (allowed 5e-2)",
    )


# ---- 5: calibrated noisy run lands in the plausible band ----


def test_criterion_5_calibrated_band():
    overlaps = calibrate_overlaps(pair_probability=0.058, efficiency=0.265)
    app = assemble_apparatus(
        star_topology(),
        pair_probability=0.058,
        synthesizer_overlap=overlaps.synthesizer_overlap,
        fusion_overlap=overlaps.fusion_overlap,
        detector_efficiency=0.265,
        truncation_pairs=5,
    )
    hists = exact_histograms(app)
    report = witness_from_histograms(hists)
    fidelity = report.fidelity.value
    snr = populations(hists[0]).snr
    k0 = outcome_distribution(app, k_setting(0))
    even = sum(p for pat, p in k0.items() if pat.count("-") % 2 == 0)
    correlation_ratio = even / (1.0 - even)
    ratio_ok = 4.1 / 3.0 <= correlation_ratio <= 4.1 * 3.0
    ok = 0.60 <= fidelity <= 0.82 and snr > 100.0 and ratio_ok
    _report(
        "criterion 5",
        ok,
        f"F = {fidelity:.4f} (band 0.60..0.82), HV SNR {snr:.0f}:1 (>100), "
        f"even:odd ratio {correlation_ratio:.2f}:1 (4.1:1 within x3)",
    )


# ---- 6: counting statistics ----


def test_criterion_6_monte_carlo_statistics():
    app = build_apparatus(default_config())
    settings = [hv_setting()] + [k_setting(k) for k in range(8)]
    for setting in settings:
        absolute_outcome_distribution(app, setting)

    hv_total = sum(absolute_outcome_distribution(app, hv_setting()).values())
    per_hour = app.repetition_rate_hz * hv_total * 3600.0

    ratios = []
    for seed in range(20):
        sigmas = {}
        for hours in (40.0, 80.0):
            hists = [
                monte_carlo_counts(app, setting, hours * 3600.0, seed)
                for setting in settings
            ]
            sigmas[hours] = witness_from_histograms(hists).fidelity.sigma
        ratios.append(sigmas[40.0] / sigmas[80.0])
    mean_ratio = sum(ratios) / len(ratios)
    scaling_ok = math.sqrt(2.0) * 0.9 <= mean_ratio <= math.sqrt(2.0) * 1.1

    # published-value anchor for the significance arithmetic
    sigma_each = 0.016 * 16.0 / math.sqrt(8.0)
    correlations = [
        (k, ObservableResult((-1.0) ** k * 0.610, sigma_each, 1000))
        for k in range(8)
    ]
    pop = PopulationSummary(
        all_h=ObservableResult(0.403, 0.0, 360),
        all_v=ObservableResult(0.403, 0.0, 360),
        combined=ObservableResult(0.806, 0.0, 360),
        snr=530.0,
        snr_unbounded=False,
        n_arms=8,
        n_events=360,
    )
    anchor = fidelity_witness(pop, correlations)
    anchor_ok = (
        abs(anchor.fidelity.value - 0.708) < 1e-12
        and abs(anchor.fidelity.sigma - 0.016) < 1e-12
        and abs(anchor.significance_sigmas - 13.0) < 1e-9
    )
    ok = scaling_ok and anchor_ok and 4.0 < per_hour < 16.0
    _report(
        "criterion 6",
        ok,
        f"{per_hour:.1f} events/h, doubling 40 h to 80 h shrinks sigma_F by "
        f"{mean_ratio:.3f} (want sqrt2 +/- 10%), published-value significance "
        f"{anchor.significance_sigmas:.10f} (want 13.0)",
    )


# ---- 7: analysis fidelity equals the state overlap on the testbed ----

TESTBED_ARMS = (1, 2, 3, 4)
TESTBED_REG = registry_from(
    [ModeLabel(arm, pol) for arm in TESTBED_ARMS for pol in ("H", "V")]
)


def qubit_sector_state(amps: dict) -> AmplitudeState:
    terms = {}
    for bits, a in amps.items():
        occ = [0] * len(TESTBED_REG)
        for i, ch in enumerate(bits):
            occ[TESTBED_REG.index(ModeLabel(TESTBED_ARMS[i], ch))] = 1
        terms[tuple(occ)] = complex(a)
    return AmplitudeState(TESTBED_REG, terms, truncation_order=4)


def qubit_sector_distribution(state, theta):
    if theta is not None:
        rotations = [
            element_on(
                TESTBED_REG,
                (ModeLabel(arm, "H"), ModeLabel(arm, "V")),
                analyzer_matrix(theta),
                name=f"analyzer{arm}",
            )
            for arm in TESTBED_ARMS
        ]
        state = apply_all(state, rotations)
        symbols = ("+", "-")
    else:
        symbols = ("H", "V")
    dist = {}
    for occ, amp in state.terms.items():
        bits = []
        for arm in TESTBED_ARMS:
            i_h = TESTBED_REG.index(ModeLabel(arm, "H"))
            i_v = TESTBED_REG.index(ModeLabel(arm, "V"))
            if occ[i_h] + occ[i_v] != 1:
                bits = None
                break
            bits.append(symbols[0] if occ[i_h] else symbols[1])
        if bits is None:
            continue
        key = DetectionPattern("".join(bits))
        dist[key] = dist.get(key, 0.0) + abs(amp) ** 2
    return dist


def test_criterion_7_testbed_oracle():
    ghz = qubit_sector_state({"HHHH": 1 / math.sqrt(2), "VVVV": 1 / math.sqrt(2)})
    basis = [format(i, "04b").translate(str.maketrans("01", "HV")) for i in range(16)]
    rng = np.random.default_rng(777)
    worst = 0.0
    for trial in range(50):
        components = []
        if trial % 5 == 4:
            w = rng.uniform(0.2, 0.8)
            weights = (w, 1.0 - w)
        else:
            weights = (1.0,)
        for weight in weights:
            amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            amps /= np.linalg.norm(amps)
            components.append((weight, qubit_sector_state(dict(zip(basis, amps)))))
        overlap = sum(
            w * abs(inner(ghz, state)) ** 2 for w, state in components
        )
        hists = []
        for theta, setting in [(None, hv_setting())] + [
            (k * math.pi / 4, angle_setting((k * math.pi / 4,) * 4, label=f"w{k}"))
            for k in range(4)
        ]:
            counts = {}
            for weight, state in components:
                for p, prob in qubit_sector_distribution(state, theta).items():
                    counts[p] = counts.get(p, 0.0) + weight * prob
            hists.append(CoincidenceHistogram(setting, counts, 1.0, 0))
        fidelity = witness_from_histograms(hists).fidelity.value
        worst = max(worst, abs(fidelity - overlap))
    ok = worst <= 1e-10
    _report(
        "criterion 7",
        ok,
        f"witness fidelity matches state overlap on 50 random testbed states, "
        f"worst gap {worst:.1e} (allowed 1e-10)",
    )


# ---- 8: pipeline determinism ----


def test_criterion_8_pipeline_determinism(tmp_path):
    from photonfusion.config import (
        DetectionSettings,
        ExperimentConfig,
        OutputSettings,
        RunPlanSettings,
        SourceSettings,
        TopologySettings,
        save_config,
    )

    labels = ("HV", "k0", "k2", "k4", "k6")
    cfg = ExperimentConfig(
        sources=SourceSettings(
            pair_probability=0.05, truncation_pairs=2, count=2,
            synthesizer_overlap=0.95, fusion_overlap=0.85,
        ),
        topology=TopologySettings(shape="star"),
        detection=DetectionSettings(efficiency=0.3, repetition_rate_hz=76e6),
        run=RunPlanSettings(
            settings=labels,
            duration_hours={label: 0.02 for label in labels},
            seed=5,
        ),
        output=OutputSettings(directory=str(tmp_path / "out")),
    )
    config = tmp_path / "testbed.json"
    save_config(cfg, config)

    snapshots = []
    for _ in range(2):
        assert main(["simulate", "--config", str(config)]) == 0
        assert main(["analyze", "--config", str(config)]) == 0
        assert main(["topology", "star", "--order", "5",
                     "--out", str(tmp_path / "out")]) == 0
        out = tmp_path / "out"
        snapshots.append(
            {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        )
    ok = snapshots[0] == snapshots[1] and len(snapshots[0]) >= 9
    _report(
        "criterion 8",
        ok,
        f"two identical runs produced {len(snapshots[0])} files with "
        f"matching bytes" if ok else "reruns differ",
    )

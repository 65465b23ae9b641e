"""
Fidelity at measured alignment and pump power
=============================================

Bench alignment is quoted through two interference visibilities: a
two-photon dip for each synthesizer and a four-photon dip across a
fusion. Both are measured at running pump power, where multi-pair
emission already dilutes them, so the intrinsic mode overlaps have to be
recovered first. This script inverts the two simulated alignment
measurements, rebuilds the full network with the recovered overlaps, and
reports the witness fidelity alongside the raw coincidence diagnostics.

The nine exact runs with five pairs of emission headroom take a while;
expect about a minute and a half.
"""

from photonfusion import (
    assemble_apparatus,
    calibrate_overlaps,
    hv_setting,
    k_setting,
    outcome_distribution,
    populations,
    star_topology,
    witness_from_histograms,
)
from photonfusion.experiment import CoincidenceHistogram

PAIR_PROBABILITY = 0.058
EFFICIENCY = 0.265

# Invert visibility 0.94 (synthesizer) and 0.76 (fusion) in closed form.
overlaps = calibrate_overlaps(
    pair_probability=PAIR_PROBABILITY,
    efficiency=EFFICIENCY,
)
print(f"intrinsic synthesizer overlap: {overlaps.synthesizer_overlap:.6f}")
print(f"intrinsic fusion overlap:      {overlaps.fusion_overlap:.6f}")

# One extra pair of emission headroom beyond the post-selected order, so
# the dominant higher-order noise (five pairs masquerading as four after
# loss) is resolved exactly. With truncation_pairs=4 the star network
# admits no such impostors and the fidelity comes out near 0.90; the
# order-five terms pull it down into the measured band.
apparatus = assemble_apparatus(
    star_topology(4),
    pair_probability=PAIR_PROBABILITY,
    synthesizer_overlap=overlaps.synthesizer_overlap,
    fusion_overlap=overlaps.fusion_overlap,
    detector_efficiency=EFFICIENCY,
    truncation_pairs=5,
)

settings = [hv_setting()] + [k_setting(k) for k in range(8)]
histograms = [
    CoincidenceHistogram(setting, dict(outcome_distribution(apparatus, setting)), 3600.0, 0)
    for setting in settings
]

summary = populations(histograms[0])
print(f"\nP(all H) + P(all V): {summary.combined.value:.4f}")
print(f"signal-to-noise over the other 254 patterns: {summary.snr:.0f}:1")

k0 = outcome_distribution(apparatus, k_setting(0))
even = sum(p for pat, p in k0.items() if pat.count("-") % 2 == 0)
print(f"even:odd parity ratio at k=0: {even / (1.0 - even):.2f}:1")

report = witness_from_histograms(histograms)
print(f"\nwitness fidelity: {report.fidelity.value:.4f}")
print(f"above the 0.5 entanglement bound: {report.entangled}")

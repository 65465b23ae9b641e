"""
Ideal eight-photon run from emission to witness
===============================================

With perfect photon overlap and lossless detectors the four-source star
network should collapse onto a single eight-photon superposition: every
accepted coincidence is all-H or all-V, every rotated-basis correlation
saturates, and the fidelity witness reads exactly one.
"""

from photonfusion import (
    assemble_apparatus,
    hv_setting,
    k_setting,
    outcome_distribution,
    star_topology,
    witness_from_histograms,
)
from photonfusion.experiment import CoincidenceHistogram, absolute_outcome_distributions

# Four sources, one pair each, no distinguishability, unit efficiency.
apparatus = assemble_apparatus(
    star_topology(4),
    pair_probability=0.058,
    truncation_pairs=4,
)

# Computational basis: the distribution over accepted eight-fold patterns.
hv = outcome_distribution(apparatus, hv_setting())
print("computational-basis support:")
for pattern, prob in sorted(hv.items(), key=lambda item: -item[1]):
    if prob > 1e-12:
        print(f"  {pattern}  {prob:.6f}")

# Rotate every analyzer together through all sixteen grid angles and read
# off the signed parity. A coherent superposition alternates between +1
# and -1; a classical mixture of all-H and all-V would stay near zero.
# One pass over the emission ensemble serves all sixteen settings; the
# distributions come back per pulse, so each is divided by its total.
print("\nsigned parity against analyzer angle k*pi/8:")
rotated = [k_setting(k) for k in range(16)]
for k, dist in enumerate(absolute_outcome_distributions(apparatus, rotated)):
    signed = sum(((-1) ** pat.count("-")) * p for pat, p in dist.items())
    print(f"  k={k:2d}  {signed / sum(dist.values()):+.9f}")

# Assemble the witness from exact distributions. The histogram container
# normally holds Monte Carlo counts; per-pulse probabilities work just as
# well because the estimators only ever use count ratios.
settings = [hv_setting()] + rotated[:8]
histograms = [
    CoincidenceHistogram(setting, dist, 3600.0, 0)
    for setting, dist in zip(settings, absolute_outcome_distributions(apparatus, settings))
]
report = witness_from_histograms(histograms)
print(f"\nwitness fidelity: {report.fidelity.value:.12f}")
print(f"entangled: {report.entangled}")

"""Pulsed pair sources and their output after the Bell-pair synthesizer.

A source emits photon pairs into two arms. Each pair consists of a
narrowband photon (wavepacket tag "e") and a broadband one (tag "o"),
and is created by one of two processes that differ in which arm receives
which photon. The synthesizer (a half-wave plate on arm_b, a polarizing
splitter across the arms, and a phase plate) turns the two processes into
HH-pair and VV-pair creation with unit coefficients, so every pair leaves
as (|HH> + |VV>)/sqrt2 across the arms, the narrowband photon on arm_a.

The output is therefore known in closed form. Kept unnormalized (vacuum
amplitude 1), so that squared amplitudes read directly as per-pulse
probabilities, its n-pair sector holds one term per count h of HH pairs,
h = 0..n: h photons in each H mode and n - h in each V mode of the four
output modes (source_mode_labels), every term with amplitude lam^n,
lam = pair_amplitude / sqrt(2). With this normalization the single-pair
probability is pair_amplitude^2. The test suite rebuilds this output
element by element, from creation operators through the synthesizer
optics, as a check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import ModeLabel

TAG_NARROW = "e"
TAG_BROAD = "o"


@dataclass(frozen=True)
class PdcSource:
    """One pulsed pair source feeding two arms.

    pair_amplitude is the square root of the per-pulse pair probability.
    spectral_overlap in [0,1] quantifies how well the two emission
    processes' wavepackets match; 1 means perfectly coherent pairs and
    0 means the which-process information is fully resolvable.
    """

    arm_a: int
    arm_b: int
    pair_amplitude: float
    spectral_overlap: float = 1.0

    def __post_init__(self):
        if self.arm_a == self.arm_b:
            raise ValueError("source arms must differ")
        if not 0.0 <= self.spectral_overlap <= 1.0:
            raise ValueError("spectral_overlap must lie in [0, 1]")
        if self.pair_amplitude < 0 or self.pair_amplitude**2 > 1:
            raise ValueError("pair_amplitude must lie in [0, 1]")

    @property
    def pair_probability(self) -> float:
        return self.pair_amplitude**2

    @property
    def process_amplitude(self) -> float:
        """Amplitude per emission process; the two processes share p evenly."""
        return self.pair_amplitude / math.sqrt(2)


def source_mode_labels(source: PdcSource) -> list:
    """The four modes a photon leaves the synthesizer in: arm_a's H and V
    narrowband modes, then arm_b's H and V broadband modes."""
    return [
        ModeLabel(source.arm_a, "H", TAG_NARROW),
        ModeLabel(source.arm_a, "V", TAG_NARROW),
        ModeLabel(source.arm_b, "H", TAG_BROAD),
        ModeLabel(source.arm_b, "V", TAG_BROAD),
    ]


def source_ensemble(source: PdcSource, n_pairs: int) -> list:
    """Classical alternatives for one source emitting exactly n_pairs.

    Returns [(weight, hs), ...], each member the n-pair terms with the HH
    pair counts h in hs: the coherent sector, every h in 0..n, with weight
    equal to the process overlap, and each definite split, one h, with
    weight (1 - overlap). When the processes are distinguishable the
    cross-terms between splits are lost, so each split becomes its own
    alternative. Total probability is conserved because the split members'
    squared norms sum to the coherent sector's.
    """
    gamma = source.spectral_overlap
    members = []
    if gamma > 0.0:
        members.append((gamma, tuple(range(n_pairs + 1))))
    if gamma < 1.0:
        members.extend((1.0 - gamma, (h,)) for h in range(n_pairs + 1))
    return members

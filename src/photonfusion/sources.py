"""Pulsed pair sources and their output after the Bell-pair synthesizer.

A source emits photon pairs into two arms. Each pair consists of a
narrowband photon (wavepacket tag "e") and a broadband one (tag "o"),
and is created by one of two processes that differ in which arm receives
which photon. Writing T and R for the two pair-creation operators, the
emitted state is the truncated exponential

    sum_n (lam^n / n!) (T + R)^n |0>,    lam = pair_amplitude / sqrt(2),

kept unnormalized (vacuum amplitude 1) so that squared amplitudes read
directly as per-pulse probabilities. With this normalization the
single-pair probability is pair_amplitude^2.

The synthesizer (a half-wave plate on arm_b, a polarizing splitter
across the arms, and a phase plate) converts each emitted pair into
(|HH> + |VV>)/sqrt2 across the arms, with the narrowband photon always
leaving on arm_a. The simulator builds that output directly, one n-pair
sector at a time (emission_sector); the test suite rebuilds it element
by element as a check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import AmplitudeState, ModeLabel, ModeRegistry, registry_from

TAG_NARROW = "e"
TAG_BROAD = "o"
TAGS = (TAG_NARROW, TAG_BROAD)


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
    truncation_pairs: int = 2

    def __post_init__(self):
        if self.arm_a == self.arm_b:
            raise ValueError("source arms must differ")
        if not 0.0 <= self.spectral_overlap <= 1.0:
            raise ValueError("spectral_overlap must lie in [0, 1]")
        if self.pair_amplitude < 0 or self.pair_amplitude**2 > 1:
            raise ValueError("pair_amplitude must lie in [0, 1]")
        if self.truncation_pairs < 1:
            raise ValueError("truncation_pairs must be at least 1")

    @property
    def pair_probability(self) -> float:
        return self.pair_amplitude**2

    @property
    def process_amplitude(self) -> float:
        """Amplitude per emission process; the two processes share p evenly."""
        return self.pair_amplitude / math.sqrt(2)


def source_mode_labels(source: PdcSource) -> list:
    """Canonical 8 labels: arm_a then arm_b, H before V, narrow before broad."""
    return [
        ModeLabel(arm, pol, tag)
        for arm in (source.arm_a, source.arm_b)
        for pol in ("H", "V")
        for tag in TAGS
    ]


def source_registry(source: PdcSource) -> ModeRegistry:
    return registry_from(source_mode_labels(source))


def pair_type_sector(
    source: PdcSource, hh_pairs: int, vv_pairs: int, registry: ModeRegistry | None = None
) -> AmplitudeState:
    """One definite-pair-content component of the synthesizer output.

    These are the pieces the dephasing ensemble is made of: when the two
    emission processes are distinguishable, the cross-terms between
    different (hh, vv) splits are lost and each split becomes its own
    classical alternative, amplitude lam^(hh+vv) as in the coherent sum.
    """
    if hh_pairs < 0 or vv_pairs < 0 or hh_pairs + vv_pairs > source.truncation_pairs:
        raise ValueError("pair counts outside the source truncation")
    reg = registry if registry is not None else source_registry(source)
    occ = [0] * len(reg)
    occ[reg.index(ModeLabel(source.arm_a, "H", TAG_NARROW))] += hh_pairs
    occ[reg.index(ModeLabel(source.arm_b, "H", TAG_BROAD))] += hh_pairs
    occ[reg.index(ModeLabel(source.arm_a, "V", TAG_NARROW))] += vv_pairs
    occ[reg.index(ModeLabel(source.arm_b, "V", TAG_BROAD))] += vv_pairs
    amp = source.process_amplitude ** (hh_pairs + vv_pairs)
    return AmplitudeState(reg, {tuple(occ): complex(amp)}, 2 * source.truncation_pairs)


def emission_sector(
    source: PdcSource, n_pairs: int, registry: ModeRegistry | None = None
) -> AmplitudeState:
    """Coherent n-pair sector of the synthesizer output: sum over splits."""
    reg = registry if registry is not None else source_registry(source)
    out: dict = {}
    for h in range(n_pairs + 1):
        piece = pair_type_sector(source, h, n_pairs - h, reg)
        for occ, amp in piece.terms.items():
            out[occ] = out.get(occ, 0j) + amp
    return AmplitudeState(reg, out, 2 * source.truncation_pairs)


# ---- Dephasing ensemble ----


def source_ensemble(source: PdcSource, n_pairs: int, registry: ModeRegistry | None = None):
    """Classical alternatives for one source emitting exactly n_pairs.

    Returns [(weight, state), ...]: the coherent sector with weight equal
    to the process overlap, and each definite-split piece with weight
    (1 - overlap). Total probability is conserved because the split
    pieces' squared norms sum to the coherent sector's.
    """
    reg = registry if registry is not None else source_registry(source)
    gamma = source.spectral_overlap
    members = []
    if gamma > 0.0:
        members.append((gamma, emission_sector(source, n_pairs, reg)))
    if gamma < 1.0:
        for h in range(n_pairs + 1):
            members.append((1.0 - gamma, pair_type_sector(source, h, n_pairs - h, reg)))
    return members

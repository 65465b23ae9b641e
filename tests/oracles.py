"""Independent reference constructions the test suite checks the library against.

None of this is on the simulation path. The simulator builds each
source's post-synthesizer state directly (``sources.emission_sector``)
and applies only the analyzer, splitter and phase matrices; the routes
here rebuild the same physics another way so the two can be compared:

- raw creation operators on the vacuum, for the Fock inputs of element
  tests and the operator-expansion check of ``pdc_emit``;
- the element-by-element synthesizer: ``pdc_emit`` pushed through the
  synthesizer optics must equal ``synthesized_pair_state``, whose
  sectors must equal ``emission_sector``;
- wave-plate matrices and the plate recipe behind ``analyzer_matrix``,
  and a balanced splitter for the two-photon dip.
"""

from __future__ import annotations

import math

import numpy as np

from photonfusion.elements import apply_element, element_on, pbs_matrix, phase_matrix
from photonfusion.fock import AmplitudeState, ModeLabel, ModeRegistry, _pruned
from photonfusion.sources import TAG_BROAD, TAG_NARROW, TAGS, PdcSource, source_registry


# ---- Creation operators ----


def vacuum(registry: ModeRegistry, truncation_order: int) -> AmplitudeState:
    return AmplitudeState(registry, {(0,) * len(registry): 1.0 + 0j}, truncation_order)


def apply_creation(
    state: AmplitudeState, label: ModeLabel, coeff: complex = 1.0
) -> AmplitudeState:
    """Apply coeff times the creation operator for one mode.

    Each term picks up coeff * sqrt(n+1) where n is the mode's occupation
    before the photon is added. Terms that would exceed the state's
    truncation order are dropped, not raised: the truncation defines the
    working subspace.
    """
    i = state.registry.index(label)
    out: dict = {}
    for occ, a in state.terms.items():
        if sum(occ) + 1 > state.truncation_order:
            continue
        n = occ[i]
        new_occ = occ[:i] + (n + 1,) + occ[i + 1 :]
        out[new_occ] = out.get(new_occ, 0j) + a * coeff * math.sqrt(n + 1)
    return AmplitudeState(state.registry, _pruned(out), state.truncation_order)


def apply_pair_creation(
    state: AmplitudeState, first: ModeLabel, second: ModeLabel, coeff: complex = 1.0
) -> AmplitudeState:
    """Two creations at once; reads better in pair-source code."""
    return apply_creation(apply_creation(state, first), second, coeff)


# ---- Optics ----


def apply_all(state: AmplitudeState, elements) -> AmplitudeState:
    for el in elements:
        state = apply_element(state, el)
    return state


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def hwp_matrix(theta: float) -> np.ndarray:
    """Half-wave plate with fast axis at theta, acting on (H, V)."""
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_matrix(theta: float) -> np.ndarray:
    """Quarter-wave plate with fast axis at theta, acting on (H, V)."""
    r = _rotation(theta)
    return r @ np.diag([1.0, -1.0j]) @ r.T


def beamsplitter_matrix() -> np.ndarray:
    """Symmetric 50/50 splitter on two spatial modes."""
    return np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2)


def waveplate_angles(theta: float) -> tuple:
    """Plate settings realizing the analyzer at angle theta.

    Returns (qwp_angle, hwp_angle). Sending light through the quarter-wave
    plate and then the half-wave plate before an H/V splitter measures the
    (|H> +/- e^{i theta}|V>)/sqrt2 pair, up to harmless per-outcome phases.
    """
    return (math.pi / 4, math.pi / 8 + theta / 4)


# ---- Emission and the element-by-element synthesizer ----

# The two pair processes. The first sends the narrowband H photon to
# arm_a and the broadband V photon to arm_b; the second swaps the arms.
def _process_modes(source: PdcSource):
    t_pair = (ModeLabel(source.arm_a, "H", TAG_NARROW), ModeLabel(source.arm_b, "V", TAG_BROAD))
    r_pair = (ModeLabel(source.arm_b, "H", TAG_NARROW), ModeLabel(source.arm_a, "V", TAG_BROAD))
    return t_pair, r_pair


def pdc_emit(source: PdcSource, registry: ModeRegistry | None = None) -> AmplitudeState:
    """Multi-pair emission state before the synthesizer, unnormalized.

    Terms are indexed by how many pairs each process contributed. A term
    with t pairs from one process and r from the other carries amplitude
    lam^(t+r): the exponential's 1/n! cancels against the multinomial
    count and the bosonic sqrt(n!) factors. The operator-expansion route
    in the test suite rebuilds this with raw creation operators.
    """
    reg = registry if registry is not None else source_registry(source)
    t_pair, r_pair = _process_modes(source)
    idx = {lab: reg.index(lab) for lab in t_pair + r_pair}
    lam = source.process_amplitude
    width = len(reg)
    terms: dict = {}
    for t in range(source.truncation_pairs + 1):
        for r in range(source.truncation_pairs + 1 - t):
            occ = [0] * width
            occ[idx[t_pair[0]]] += t
            occ[idx[t_pair[1]]] += t
            occ[idx[r_pair[0]]] += r
            occ[idx[r_pair[1]]] += r
            amp = lam ** (t + r)
            if abs(amp) > 0:
                terms[tuple(occ)] = terms.get(tuple(occ), 0j) + amp
    return AmplitudeState(reg, terms, 2 * source.truncation_pairs)


def synthesizer_elements(source: PdcSource, registry: ModeRegistry) -> list:
    """The synthesizer optics in application order.

    Half-wave plate at pi/4 on arm_b, polarizing splitter across the
    arms, then a pi phase on arm_a's V modes. The plate and splitter act
    identically on every wavepacket tag; the phase plate makes both pair
    processes arrive with coefficient exactly +1.
    """
    els = []
    for tag in TAGS:
        els.append(
            element_on(
                registry,
                [ModeLabel(source.arm_b, "H", tag), ModeLabel(source.arm_b, "V", tag)],
                hwp_matrix(math.pi / 4),
                f"synth-hwp[{tag}]",
            )
        )
    for tag in TAGS:
        els.append(
            element_on(
                registry,
                [
                    ModeLabel(source.arm_a, "H", tag),
                    ModeLabel(source.arm_a, "V", tag),
                    ModeLabel(source.arm_b, "H", tag),
                    ModeLabel(source.arm_b, "V", tag),
                ],
                pbs_matrix(),
                f"synth-pbs[{tag}]",
            )
        )
    for tag in TAGS:
        els.append(
            element_on(
                registry,
                [ModeLabel(source.arm_a, "V", tag)],
                phase_matrix(math.pi),
                f"synth-phase[{tag}]",
            )
        )
    return els


def synthesized_pair_state(
    source: PdcSource, registry: ModeRegistry | None = None
) -> AmplitudeState:
    """Post-synthesizer state, constructed directly.

    The synthesizer maps the two emission processes onto HH-pair and
    VV-pair creation with unit coefficients, so the output is the
    truncated exponential over those: a term with h HH-pairs and v
    VV-pairs has amplitude lam^(h+v), narrowband photons on arm_a and
    broadband on arm_b. Must agree with pushing pdc_emit through
    synthesizer_elements; the test suite holds the two routes together.
    """
    reg = registry if registry is not None else source_registry(source)
    hh = (ModeLabel(source.arm_a, "H", TAG_NARROW), ModeLabel(source.arm_b, "H", TAG_BROAD))
    vv = (ModeLabel(source.arm_a, "V", TAG_NARROW), ModeLabel(source.arm_b, "V", TAG_BROAD))
    idx = {lab: reg.index(lab) for lab in hh + vv}
    lam = source.process_amplitude
    width = len(reg)
    terms: dict = {}
    for h in range(source.truncation_pairs + 1):
        for v in range(source.truncation_pairs + 1 - h):
            occ = [0] * width
            occ[idx[hh[0]]] += h
            occ[idx[hh[1]]] += h
            occ[idx[vv[0]]] += v
            occ[idx[vv[1]]] += v
            amp = lam ** (h + v)
            if abs(amp) > 0:
                terms[tuple(occ)] = terms.get(tuple(occ), 0j) + amp
    return AmplitudeState(reg, terms, 2 * source.truncation_pairs)


def ideal_pair_state(source: PdcSource, registry: ModeRegistry | None = None) -> AmplitudeState:
    """(|HH> + |VV>)/sqrt2 across the arms, narrowband photon on arm_a."""
    reg = registry if registry is not None else source_registry(source)
    c = 1 / math.sqrt(2)
    terms = {}
    for pol in ("H", "V"):
        occ = [0] * len(reg)
        occ[reg.index(ModeLabel(source.arm_a, pol, TAG_NARROW))] = 1
        occ[reg.index(ModeLabel(source.arm_b, pol, TAG_BROAD))] = 1
        terms[tuple(occ)] = c + 0j
    return AmplitudeState(reg, terms, 2 * source.truncation_pairs)

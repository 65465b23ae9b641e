"""Whole-apparatus simulation: sources into fusions into detectors.

Builds the multi-source interferometer over tagged modes, moves each
source's classical ensemble, read in closed form off its pair counts,
through the fusion splitters, analyzers and detectors, and turns the
result into exact outcome probabilities or Poisson-sampled coincidence
histograms. The records it fills (settings, detection patterns,
histograms and their files) are defined in records, which reading and
analyzing a run need without this engine.

The optics are described once, as linear elements, and compiled from
those elements on first use rather than applied to every member state.
The fusion network (polarizing splitters and a phase plate) is
monomial, so it compiles to a permutation of modes with a phase per
mode. Analyzers and bucket detectors act on one arm at a time, so they
compile to per-arm analyzer amplitudes and firing probabilities, and a
member is reduced arm by arm.

Imperfect interference enters as two scalar overlaps. The synthesizer
overlap dephases each source's two emission processes against each
other; the fusion overlap splits the run into a branch where photons
from different sources interfere at the splitters and a branch where
every photon keeps a mark identifying its source. Each branch of
nonzero weight is one _Branch, built on first use: its weight, its fusion
optics compiled from its own elements, and its arm-by-arm detection
layout. Weights multiply, so any cross-source coherence in the output
carries the product of all the overlaps involved.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import typing
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig, config_topology
from .elements import (
    UNITARITY_TOL,
    analyzer_matrix,
    apply_element,
    element_on,
    pbs_matrix,
    phase_matrix,
)
from .fock import (
    PRUNE_EPS,
    AmplitudeState,
    ModeLabel,
    ModeRegistry,
    registry_from,
)
from .records import (
    CoincidenceHistogram,
    DetectionPattern,
    MeasurementSetting,
    _detection_patterns,
    all_detection_patterns,
    angle_setting,
    histogram_from_lines,
    histogram_to_lines,
    hv_setting,
    k_setting,
    setting_from_label,
)
from .sources import PdcSource, source_ensemble, source_mode_labels
from .topology import (
    FusionTopology,
    admitted_patterns,
    single_source_topology,
    star_topology,
)

__all__ = [
    "MeasurementSetting",
    "DetectionPattern",
    "CoincidenceHistogram",
    "Apparatus",
    "hv_setting",
    "k_setting",
    "angle_setting",
    "setting_from_label",
    "assemble_apparatus",
    "build_apparatus",
    "absolute_outcome_distribution",
    "absolute_outcome_distributions",
    "outcome_distribution",
    "emission_pattern_probability",
    "CalibratedOverlaps",
    "parity_visibility",
    "synthesizer_visibility",
    "fusion_visibility",
    "calibrate_overlaps",
    "monte_carlo_counts",
    "all_detection_patterns",
    "histogram_to_lines",
    "histogram_from_lines",
]


# ---- Apparatus ----


@dataclass(frozen=True)
class Apparatus:
    """The interferometer and its detection, as exactly its seven inputs.

    Everything else is derived from the inputs on first use and memoized
    (functools.cached_property): the sources, the tagged modes a photon
    leaves a synthesizer in (registry, 4 per source), the fusion and
    compensation optics over plain arm/polarization modes (interfering
    branch) and over source-marked modes (distinguishable branch), the
    fusion branches and the computed distributions per setting. Equality
    and hashing see the inputs alone, and dataclasses.replace re-checks its
    inputs and derives everything afresh, so it is the way to sweep a
    parameter.
    """

    topology: FusionTopology
    pair_probability: float
    synthesizer_overlap: float
    fusion_overlap: float
    detector_efficiency: float
    repetition_rate_hz: float
    truncation_pairs: int

    def __post_init__(self):
        if not 0.0 <= self.fusion_overlap <= 1.0:
            raise ValueError("fusion_overlap must lie in [0, 1]")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must lie in (0, 1]")
        if self.repetition_rate_hz <= 0:
            raise ValueError("repetition rate must be positive")
        if self.truncation_pairs < 1:
            raise ValueError("truncation_pairs must be at least 1")
        self.sources  # PdcSource checks the pair probability and overlap

    @functools.cached_property
    def sources(self) -> tuple:
        return tuple(
            PdcSource(
                arm_a=arm_a,
                arm_b=arm_b,
                pair_amplitude=math.sqrt(self.pair_probability),
                spectral_overlap=self.synthesizer_overlap,
            )
            for arm_a, arm_b in self.topology.sources
        )

    @functools.cached_property
    def registry(self) -> ModeRegistry:
        return registry_from([lab for s in self.sources for lab in source_mode_labels(s)])

    @functools.cached_property
    def output_arms(self) -> tuple:
        return tuple(sorted(self.topology.arms))

    @property
    def n_arms(self) -> int:
        return len(self.output_arms)

    @property
    def compensator_phase(self) -> float:
        """Phase that realigns the all-V fused amplitude with the all-H one.

        Exact from the wiring alone: every source emits HH and VV in phase,
        a polarizing splitter passes H untouched and reflects V with phase
        i, and in the one-photon-per-arm all-V term each splitter reflects
        one V photon from each of its two arms. So the all-V amplitude
        trails the all-H one by (-1)^(number of fusions); the compensator
        plate on the first arm's V modes cancels that.
        """
        return math.pi if len(self.topology.fusion_edges) % 2 else 0.0

    @functools.cached_property
    def plain_registry(self) -> ModeRegistry:
        return _arm_registry(self.output_arms, ("",))

    @functools.cached_property
    def marked_registry(self) -> ModeRegistry:
        marks = tuple(f"m{i + 1}" for i in range(len(self.sources)))
        return _arm_registry(self.output_arms, marks)

    @functools.cached_property
    def fusion_elements(self) -> tuple:
        return _fusion_elements(self, self.plain_registry)

    @functools.cached_property
    def marked_fusion_elements(self) -> tuple:
        return _fusion_elements(self, self.marked_registry)

    @functools.cached_property
    def compensator_elements(self) -> tuple:
        return _phase_elements(self, self.plain_registry)

    @functools.cached_property
    def marked_compensator_elements(self) -> tuple:
        return _phase_elements(self, self.marked_registry)

    @functools.cached_property
    def _branches(self) -> tuple:
        """The fusion branches of nonzero weight, interfering first."""
        gamma_f = self.fusion_overlap
        weights = ((False, gamma_f), (True, 1.0 - gamma_f))
        return tuple(_Branch(self, marked, w) for marked, w in weights if w > 0.0)

    @functools.cached_property
    def _distribution_cache(self) -> dict:
        """Computed outcome distributions, keyed by setting."""
        return {}


def _arm_registry(arms, tags) -> ModeRegistry:
    """Modes arm by arm, then tag by tag, H before V: each arm is one
    contiguous run of (H, V) slots, so a packed occupation is already laid
    out per arm."""
    return registry_from(
        [ModeLabel(arm, pol, tag) for arm in arms for tag in tags for pol in ("H", "V")]
    )


def _tags(registry) -> tuple:
    return tuple(dict.fromkeys(lab.tag for lab in registry))


def _fusion_elements(apparatus: Apparatus, registry) -> tuple:
    els = []
    for x, y in apparatus.topology.fusion_edges:
        for tag in _tags(registry):
            labels = [ModeLabel(a, pol, tag) for a in (x, y) for pol in ("H", "V")]
            els.append(element_on(registry, labels, pbs_matrix(), f"fuse-{x}-{y}"))
    return tuple(els)


def _phase_elements(apparatus: Apparatus, registry) -> tuple:
    arm = apparatus.output_arms[0]
    plate = phase_matrix(apparatus.compensator_phase)
    return tuple(
        element_on(registry, [ModeLabel(arm, "V", tag)], plate, f"compensator-{arm}")
        for tag in _tags(registry)
    )


def assemble_apparatus(
    topology: FusionTopology,
    *,
    pair_probability: float,
    synthesizer_overlap: float = 1.0,
    fusion_overlap: float = 1.0,
    detector_efficiency: float = 1.0,
    repetition_rate_hz: float = 76.0e6,
    truncation_pairs: int | None = None,
) -> Apparatus:
    """Wire up sources and optics for a topology.

    truncation_pairs bounds the total pair count across all sources;
    the default resolves exactly the wanted one-pair-per-source events.
    """
    if truncation_pairs is None:
        truncation_pairs = topology.n_sources
    return Apparatus(
        topology=topology,
        pair_probability=pair_probability,
        synthesizer_overlap=synthesizer_overlap,
        fusion_overlap=fusion_overlap,
        detector_efficiency=detector_efficiency,
        repetition_rate_hz=repetition_rate_hz,
        truncation_pairs=truncation_pairs,
    )


def build_apparatus(config: ExperimentConfig) -> Apparatus:
    """Apparatus for a validated config."""
    return assemble_apparatus(
        config_topology(config),
        pair_probability=config.sources.pair_probability,
        synthesizer_overlap=config.sources.synthesizer_overlap,
        fusion_overlap=config.sources.fusion_overlap,
        detector_efficiency=config.detection.efficiency,
        repetition_rate_hz=config.detection.repetition_rate_hz,
        truncation_pairs=config.sources.truncation_pairs,
    )


# ---- Fusion branches ----


def _compile_fusion(apparatus: Apparatus, registry, optics, marked: bool) -> tuple:
    """Per source, its fusion image: per output mode of its synthesizer, in
    source_mode_labels order, (index in the branch registry after the
    fusion optics, phase).

    A mode enters the interfering branch untagged and the distinguishable
    branch with the mark of its source.

    Polarizing splitters and phase plates send each a+_j to phi_j a+_pi(j)
    with pi a bijection, so a term moves by permuting its occupation and
    multiplying its amplitude by prod_j phi_j^n_j. pi and phi are read off
    by pushing the one-photon state of each mode through the branch's
    elements; optics that split or scale a photon raise ValueError. A
    photon meets only the elements acting on a mode it occupies, since
    apply_element passes every other term through as it is.
    """
    images = []
    for i, source in enumerate(apparatus.sources):
        mark = f"m{i + 1}" if marked else ""
        image = []
        for lab in source_mode_labels(source):
            label = ModeLabel(lab.arm, lab.pol, mark)
            j = registry.index(label)
            occ = [0] * len(registry)
            occ[j] = 1
            state = AmplitudeState(registry, {tuple(occ): 1.0 + 0j}, 1)
            occupied = {j}
            for el in optics:
                if occupied.isdisjoint(el.mode_indices):
                    continue
                state = apply_element(state, el)
                occupied = {out.index(1) for out in state.terms}
            if len(state.terms) != 1:
                raise ValueError(
                    f"fusion optics are not monomial: mode {label} leaves in "
                    f"{len(state.terms)} modes"
                )
            ((out, phase),) = state.terms.items()
            if abs(abs(phase) - 1.0) > UNITARITY_TOL:
                raise ValueError(f"fusion optics scale mode {label} by {abs(phase)}")
            image.append((out.index(1), phase))
        images.append(tuple(image))
    return tuple(images)


class _Branch:
    """One fusion branch: its weight, its fusion optics compiled from its
    own elements, and where its photons sit, arm by arm.

    The interfering branch (weight gamma_f) lives on plain arm and
    polarization modes. In the distinguishable branch (weight 1 - gamma_f)
    every mode also carries the mark of its photon's source, so photons
    from different sources never interfere.

    The registry is laid out arm by arm (_arm_registry): arm a holds modes
    a * width to (a + 1) * width - 1, and each adjacent (H, V) pair of
    modes, one per tag, is a slot. Memos fill as settings are computed,
    since none depends on the setting: firing probabilities per joint plus
    count, which depend on the detector efficiency alone; a slot's
    one-photon analyzer amplitudes per angle and its n-photon ones per
    (angle, photon number); and an arm's row per (angle, photon numbers of
    its occupied slots). All are shared by every setting, arm and slot at
    that angle, since every analyzer of a branch applies one matrix to one
    slot.
    """

    def __init__(self, apparatus: Apparatus, marked: bool, weight: float):
        if marked:
            registry = apparatus.marked_registry
            optics = apparatus.marked_fusion_elements + apparatus.marked_compensator_elements
        else:
            registry = apparatus.plain_registry
            optics = apparatus.fusion_elements + apparatus.compensator_elements
        self.marked = marked
        self.weight = weight
        self.registry = registry
        self.images = _compile_fusion(apparatus, registry, optics, marked)
        self.arms = apparatus.output_arms
        self.tags = _tags(registry)
        self.width = 2 * len(self.tags)
        self.miss = 1.0 - apparatus.detector_efficiency
        self._weights: dict = {}
        self._one_photon: dict = {}
        self._analyzers: dict = {}
        self._rows: dict = {}

    def photons(self, occ) -> tuple:
        """An occupation's photon numbers per slot, arm by arm."""
        return tuple(map(operator.add, occ[0::2], occ[1::2]))

    def weights(self, ns: tuple) -> np.ndarray:
        """Firing probabilities per joint plus count of an arm's slots holding
        ns photons, shape (prod(n+1), 2)."""
        hit = self._weights.get(ns)
        if hit is None:
            total = sum(ns)
            hit = self._weights[ns] = np.array(
                [
                    _firing(sum(ps), total - sum(ps), self.miss)
                    for ps in itertools.product(*(range(n + 1) for n in ns))
                ]
            )
        return hit

    def analyzer(self, theta: float, n: int) -> np.ndarray:
        """<p +, (n-p) -| analyzer |h H, (n-h) V> of a slot holding n
        photons, as a matrix [p, h]: the symmetric power of the slot's
        one-photon analyzer amplitudes (_symmetric_power)."""
        u = self._analyzers.get((theta, n))
        if u is None:
            u = self._analyzers[(theta, n)] = _symmetric_power(self.one_photon(theta), n)
        return u

    def one_photon(self, theta: float) -> tuple:
        """((<+|H>, <+|V>), (<-|H>, <-|V>)): the branch's own analyzer
        element (first arm, first tag: modes 0 and 1) applied to one H and
        one V photon with apply_element."""
        hit = self._one_photon.get(theta)
        if hit is None:
            element = _analyzer_element(self.registry, self.arms[0], self.tags[0], theta)
            # one photon in mode 0 (H in, + out) or in mode 1 (V in, - out)
            rest = (0,) * (len(self.registry) - 2)
            first, second = (1, 0) + rest, (0, 1) + rest
            columns = []
            for photon in (first, second):
                state = AmplitudeState(self.registry, {photon: 1.0 + 0j}, 1)
                terms = apply_element(state, element).terms
                columns.append([complex(terms.get(out, 0j)) for out in (first, second)])
            (plus_h, minus_h), (plus_v, minus_v) = columns
            hit = self._one_photon[theta] = ((plus_h, plus_v), (minus_h, minus_v))
        return hit

    def row(self, theta, slots: tuple) -> tuple:
        """(first, second) firing probabilities of one arm for a unit
        amplitude with (h, v) photons in each of its occupied slots, in
        slot order, and its smallest analyzed amplitude. At HV (theta None)
        there is no analyzer: the H port is the first and the amplitude is
        untouched."""
        key = (theta, slots)
        hit = self._rows.get(key)
        if hit is None:
            hit = self._rows[key] = self._row(theta, slots)
        return hit

    def _row(self, theta, slots: tuple) -> tuple:
        n_h = sum(h for h, _ in slots)
        total = n_h + sum(v for _, v in slots)
        if theta is None:
            return (*_firing(n_h, total - n_h, self.miss), 1.0)
        # each slot's analyzed amplitudes {p: amplitude}, exact zeros left out
        columns = [
            {p: a for p, a in enumerate(self.analyzer(theta, h + v)[:, h].tolist()) if a}
            for h, v in slots
        ]
        first = second = 0.0
        for outs in itertools.product(*(col.items() for col in columns)):
            plus = sum(p for p, _ in outs)
            w = abs(math.prod(a for _, a in outs)) ** 2
            f_first, f_second = _firing(plus, total - plus, self.miss)
            first += w * f_first
            second += w * f_second
        floor = math.prod(min(abs(a) for a in col.values()) for col in columns)
        return first, second, floor


class _Moved:
    """One ensemble member's terms after one branch's fusion optics, as
    (((branch mode, count), ...), amplitude, arm mask): the mask has bit a
    set when a photon of the term leaves on output arm a. reach is the
    union of the masks, and covering(need) the terms whose mask holds
    every arm of need, memoized per need."""

    __slots__ = ("terms", "reach", "_covering")

    def __init__(self, n: int, hs: tuple, amp: complex, image: tuple, width: int):
        """The member's terms are its source's n-pair terms with h HH pairs
        for each h in hs, counts (h, n - h, h, n - h) on the source's four
        output modes, each of amplitude amp. image is the source's fusion
        image, width the branch's modes per arm."""
        self.terms = []
        self.reach = 0
        for h in hs:
            moves = []
            mask = 0
            term = amp
            for (dest, phase), count in zip(image, (h, n - h, h, n - h)):
                if count:
                    moves.append((dest, count))
                    mask |= 1 << dest // width
                    term *= phase**count
            self.terms.append((tuple(moves), term, mask))
            self.reach |= mask
        self._covering = {0: self.terms}

    def covering(self, need: int) -> list:
        hit = self._covering.get(need)
        if hit is None:
            hit = self._covering[need] = [t for t in self.terms if t[2] & need == need]
        return hit


def _members(apparatus: Apparatus, patterns):
    """Yield (weight, supported, branch, k) members of each emission
    pattern after fusion and compensation: supported lists (occupation,
    amplitude) of the member's terms with a photon in every arm, the only
    ones that can fire every arm. The occupation of the branch registry is
    packed into bytes, arm by arm, and a plan keeps it per key. A member
    without such a term is not yielded.

    The weight of a member is the product of its per-source ensemble
    weights and the branch weight; states are unnormalized, so a member's
    accepted probability is weight times the detection value of its
    amplitudes. k counts the sources whose member is the coherent one, so
    the weight is gamma_s^k (1 - gamma_s)^(S - k) times the branch weight
    over S sources: (branch, k) is the member's overlap component. A joint
    amplitude at or below fock.PRUNE_EPS is dropped, as the reference
    construction's tensor product of the sources' states drops it.

    Each source's ensemble is moved through each branch's compiled fusion
    image once per pair count, and every moved term carries the arms its
    photons reach. The joint terms are the product of the sources' terms
    in source order, pruned as it is built: a source's term is kept only
    if it covers every arm that neither the sources before it nor any
    term of the sources after it reach. So an occupation is built only
    for a term with a photon in every arm, and terms come out in product
    order with their amplitudes multiplied in source order. The arm masks
    come from the compiled fusion image, not from the topology
    enumerator, so a pattern it admits wrongly yields nothing here.
    """
    branches = apparatus._branches
    pieces: dict = {}
    for counts in patterns:
        per_source = []
        for i, (source, n) in enumerate(zip(apparatus.sources, counts)):
            piece = pieces.get((i, n))
            if piece is None:
                amp = complex(source.process_amplitude**n)
                coherent = source.spectral_overlap > 0.0
                # source_ensemble lists the coherent member first
                piece = pieces[(i, n)] = [
                    (
                        w,
                        coherent and j == 0,
                        [_Moved(n, hs, amp, b.images[i], b.width) for b in branches],
                    )
                    for j, (w, hs) in enumerate(source_ensemble(source, n))
                ]
            per_source.append(piece)
        for combo in itertools.product(*per_source):
            weight = 1.0
            k = 0
            for w, coherent, _ in combo:
                weight *= w
                k += coherent
            for b, branch in enumerate(branches):
                supported = _joint_terms(branch, [moved[b] for _, _, moved in combo])
                if supported:
                    yield weight * branch.weight, supported, branch, k


def _joint_terms(branch: _Branch, parts: list) -> list:
    """(occupation bytes, amplitude) of the product of parts' terms with a
    photon in every arm, in product order."""
    full = (1 << len(branch.arms)) - 1
    # rest[k]: the arms the parts after k can reach
    rest = [0] * len(parts)
    for k in range(len(parts) - 1, 0, -1):
        rest[k - 1] = rest[k] | parts[k].reach
    partials = [(0, 1.0, ())]
    for part, later in zip(parts, rest):
        partials = [
            (covered | mask, amp * a, moves + m)
            for covered, amp, moves in partials
            for m, a, mask in part.covering(full & ~(covered | later))
        ]
    width = len(branch.registry)
    out = []
    for _, amp, moves in partials:
        if abs(amp) > PRUNE_EPS:
            occ = [0] * width
            for dest, n in moves:
                occ[dest] = n
            out.append((bytes(occ), amp))
    return out


# ---- Detection ----


def _analyzer_element(registry, arm, tag, theta: float):
    labels = [ModeLabel(arm, "H", tag), ModeLabel(arm, "V", tag)]
    return element_on(registry, labels, analyzer_matrix(theta), f"analyzer-{arm}")


def _symmetric_power(one: tuple, n: int) -> np.ndarray:
    """<p +, (n-p) -| U |h H, (n-h) V> as a matrix [p, h], from the
    one-photon amplitudes one = ((<+|H>, <+|V>), (<-|H>, <-|V>)) of U.

    The h H photons and the n - h V photons each split binomially between
    the outputs, so column h is the product of the two splits times the
    bosonic factor sqrt(p! (n-p)! / (h! (n-h)!)). The sum is evaluated
    factor for factor as apply_element evaluates it, on Python complex
    scalars, so the matrix equals the Fock engine's to the last bit; in
    particular the rounding left at the analyzer's exact interference zeros
    is the same, and an amplitude at or below fock.PRUNE_EPS is zeroed as
    apply_element drops it. (numpy's vectorized complex product may fuse
    its multiply and add, which moves the last bit.)
    """
    (plus_h, plus_v), (minus_h, minus_v) = one
    fact = [math.factorial(i) for i in range(n + 1)]
    u = np.zeros((n + 1, n + 1), dtype=complex)
    for h in range(n + 1):
        pref = (1.0 + 0j) / math.sqrt(fact[h] * fact[n - h])
        column = [pref * c for c in _split(plus_h, minus_h, h, fact)] if h else [pref]
        if n - h:
            second = _split(plus_v, minus_v, n - h, fact)
            first, column = column, [0j] * (n + 1)
            for p_h, a in enumerate(first):
                for p_v, c in enumerate(second):
                    column[p_h + p_v] += a * c
        for p, a in enumerate(column):
            a *= math.sqrt(fact[p] * fact[n - p])
            if abs(a) > PRUNE_EPS:
                u[p, h] = a
    return u


def _split(plus: complex, minus: complex, m: int, fact: list) -> list:
    """Amplitudes of m photons of one input mode leaving p of them at +,
    p = 0..m: m!/(p! (m-p)!) plus^p minus^(m-p), before the bosonic
    factors."""
    out = []
    for p in range(m + 1):
        amp = complex(fact[m])
        if p:
            amp = amp * plus**p * (1.0 / fact[p])
        if m - p:
            amp = amp * minus ** (m - p) * (1.0 / fact[m - p])
        out.append(amp)
    return out


def _analyzer_elements(registry, output_arms, setting: MeasurementSetting):
    """Every (arm, tag) analyzer over a registry under one setting. The
    compiled detection builds one at a time, when it first reads an angle;
    the element-by-element reference engine applies the whole list."""
    if setting.angles is None:
        return ()
    return tuple(
        _analyzer_element(registry, arm, tag, theta)
        for arm, theta in zip(output_arms, setting.angles)
        for tag in _tags(registry)
    )


def _firing(n_first: int, n_second: int, miss: float) -> tuple:
    """Probabilities that only the first, or only the second, of an arm's
    two detectors fires with n_first and n_second photons at them; each
    photon is missed independently with probability miss."""
    silent_first = miss**n_first
    silent_second = miss**n_second
    return (1.0 - silent_first) * silent_second, (1.0 - silent_second) * silent_first


_PROFILE_BLOCK = 64


class _PatternSum:
    """A run plan's accepted-pattern vectors, one per setting, summed over
    one stream of members.

    At HV every supported term is a class of its own, and add sums it
    into a key (branch, occupation, |amplitude|) holding its summed
    weight. For the rotated settings add splits each member's supported
    terms into coherence classes once, as they do not depend on the
    angles: a single-term class is summed into a key of the same form, and
    a multi-term class is kept whole. Neither key set depends on which
    settings the plan holds, so neither does any setting's vector.

    The rotated side keeps one sum per overlap component (branch, k) of
    the members (_members): a key holds one summed weight per component,
    and a multi-term class counts towards its member's component. Every
    member of a component carries the same weight gamma_s^k (1 -
    gamma_s)^(S - k) times the branch weight, so components() lets one
    build be read at any overlaps (_overlap_distributions), and a rotated
    setting's vector is the sum of its components. HV needs no
    components: HV detection is diagonal in occupation and the fusion map
    is a permutation, so both overlaps drop out of it, and its tally,
    summed over all members, is the one HV vector at every overlap.

    vectors() reduces the whole plan at once. A key's firing profile under
    a setting is the product of its arms' rows (_Branch.row), gathered as
    one array over the settings. Where all of a key's analyzed amplitudes
    stay above fock.PRUNE_EPS, the key adds weight * |amplitude|^2 times
    its profile; the profiles are expanded a block of keys at a time, and
    on the rotated side contracted with the weights of every component at
    once. A multi-term class, and a key below that floor at some setting,
    is contracted with the analyzers once (_contract), with the rotated
    settings as a leading axis, and the key's contraction counts only at
    the settings where it is below the floor. At HV there is no analyzer:
    the H port is the first, and the floor is the amplitude itself, above
    fock.PRUNE_EPS for every member term.
    """

    def __init__(self, n_arms: int, settings):
        self.n_arms = n_arms
        self.settings = settings
        self.rotated = [s.angles for s in settings if s.angles is not None]
        self.hv = len(self.rotated) < len(settings)
        self.terms: dict = {}
        self.singles: dict = {}
        self.classes: list = []
        self._stacks: dict = {}

    def add(self, weight: float, supported, branch: _Branch, k: int) -> None:
        if self.hv:
            _tally(self.terms, branch, weight, supported)
        if not self.rotated:
            return
        component = (branch, k)
        singles = self.singles.get(component)
        if singles is None:
            singles = self.singles[component] = {}
        classes: dict = {}
        for term in supported:
            classes.setdefault(branch.photons(term[0]), []).append(term)
        for terms in classes.values():
            if len(terms) == 1:
                _tally(singles, branch, weight, terms)
            else:
                self.classes.append((component, weight, terms))

    def vectors(self) -> list:
        """One vector per setting, in order; HV settings share theirs."""
        if self.rotated:
            _, components = self.components()
            rotated = iter(components.sum(axis=1))
        if self.hv:
            keys, _, weights = _keyed(self.terms)
            rows = self._rows(keys, [(None,) * self.n_arms])
            hv = _expand(rows, weights[None], np.zeros((1, 2**self.n_arms)))[0]
        return [hv if s.angles is None else next(rotated) for s in self.settings]

    def components(self) -> tuple:
        """The overlap components (branch, k) of the members added, in
        first-seen order, and the rotated settings' vectors per component:
        shape (rotated settings, components, 2^n)."""
        labels = list(dict.fromkeys([*self.singles, *(c for c, _, _ in self.classes)]))
        column = {c: i for i, c in enumerate(labels)}
        index: dict = {}
        for tally in self.singles.values():
            for key in tally:
                index.setdefault(key, len(index))
        keys = list(index)
        # sums[component, key]: the summed weights
        sums = np.zeros((len(labels), len(keys)))
        for c, tally in self.singles.items():
            sums[column[c], [index[key] for key in tally]] = list(tally.values())
        amps = np.array([amp for _, _, amp in keys])
        rows = self._rows(keys, self.rotated)
        # the floor guard multiplies |amplitude| first, then arm by arm
        floor = amps
        for a in range(self.n_arms):
            floor = floor * rows[:, :, a, 2]
        passed = floor > PRUNE_EPS
        vectors = np.zeros((len(self.rotated), len(labels), 2**self.n_arms))
        for c, weight, terms in self.classes:
            vectors[:, column[c]] += weight * self._contract(c[0], terms)
        for e in np.flatnonzero(~passed.all(axis=0)):
            branch, occ, amp = keys[e]
            below = ~passed[:, e]
            vector = self._contract(branch, [(occ, amp)])[below]
            vectors[below] += sums[:, e, None] * vector[:, None]
        weights = np.where(passed[:, None], sums * amps**2, 0.0)
        return labels, _expand(rows, weights, vectors)

    def _rows(self, keys, angle_rows) -> np.ndarray:
        """(settings, keys, arms, 3): each key's arm rows, (first, second,
        floor), under each setting's per-arm angles; read from one table
        over the distinct (branch, arm's slice of the occupation) pairs and
        the distinct angles of the plan."""
        pairs: dict = {}
        index = [
            [
                pairs.setdefault((branch, occ[start : start + branch.width]), len(pairs))
                for start in range(0, len(occ), branch.width)
            ]
            for branch, occ, _ in keys
        ]
        thetas: dict = {}
        angle_index = [[thetas.setdefault(t, len(thetas)) for t in row] for row in angle_rows]
        occupied = [
            (branch, tuple((h, v) for h, v in zip(arm[0::2], arm[1::2]) if h + v))
            for branch, arm in pairs
        ]
        table = np.array(
            [[branch.row(t, slots) for t in thetas] for branch, slots in occupied]
        ).reshape(len(pairs), len(thetas), 3)
        index = np.array(index, dtype=np.intp).reshape(len(keys), self.n_arms)
        return table[index[None], np.array(angle_index)[:, None]]

    def _stack(self, branch: _Branch, arm: int, n: int) -> np.ndarray:
        """The analyzer matrices of arm's n-photon slots under each rotated
        setting, shape (rotated settings, n + 1, n + 1)."""
        key = (branch, arm, n)
        hit = self._stacks.get(key)
        if hit is None:
            hit = self._stacks[key] = np.array(
                [branch.analyzer(angles[arm], n) for angles in self.rotated]
            )
        return hit

    def _contract(self, branch: _Branch, terms) -> np.ndarray:
        """Accepted-pattern vectors of one coherence class, terms sharing
        their photon numbers per slot, under every rotated setting:
        shape (rotated settings, 2^n).

        The analyzers act slot by slot in element order, and analyzed
        amplitudes at or below fock.PRUNE_EPS are dropped after each, as
        apply_element drops them.
        """
        first = terms[0][0]
        # (arm, H mode, photon number) of each occupied slot, in mode order
        slots = [
            (t // branch.width, t, first[t] + first[t + 1])
            for t in range(0, len(first), 2)
            if first[t] + first[t + 1]
        ]
        n_settings = len(self.rotated)
        # amps[setting, column, output of the last analyzed slot, ..., of the
        # first]: one column per distinct H-count tuple of the slots not
        # analyzed yet, as every other column of the whole tensor is zero
        rests = [tuple(occ[t] for _, t, _ in slots) for occ, _ in terms]
        amps = np.array([[amp for _, amp in terms]], dtype=complex)
        for a, _, n in slots:
            # each column's analyzer column, gathered, its outputs on a new
            # axis after the column axis
            u = self._stack(branch, a, n)[:, :, [rest[0] for rest in rests]]
            u = u.transpose(0, 2, 1).reshape(
                (n_settings, len(rests), n + 1) + (1,) * (amps.ndim - 2)
            )
            amps = amps[:, :, None] * u
            merged = dict.fromkeys(rest[1:] for rest in rests)
            if len(merged) < len(rests):
                column = {rest: c for c, rest in enumerate(merged)}
                out = np.zeros((n_settings, len(merged)) + amps.shape[2:], dtype=complex)
                for j, rest in enumerate(rests):
                    out[:, column[rest[1:]]] += amps[:, j]
                amps = out
            rests = list(merged)
            amps[np.abs(amps) <= PRUNE_EPS] = 0.0
        # arms last to first on the axes; each arm's firing pair goes last,
        # so the first arm varies fastest in the end
        prob = np.abs(amps[:, 0]) ** 2
        for a in reversed(range(self.n_arms)):
            # the arm's slot axes run last slot first; firing depends on the
            # arm's plus count alone
            ns = tuple(n for b, _, n in reversed(slots) if b == a)
            weights = branch.weights(ns)
            prob = prob.reshape(n_settings, len(weights), -1).transpose(0, 2, 1) @ weights
        return prob.reshape(n_settings, -1)


def _tally(sums: dict, branch: _Branch, weight: float, terms) -> None:
    for occ, amp in terms:
        key = (branch, occ, abs(amp))
        sums[key] = sums.get(key, 0.0) + weight


def _keyed(sums: dict) -> tuple:
    """The keys of a _tally, their |amplitude|s and weight * |amplitude|^2."""
    keys = list(sums)
    amps = np.array([amp for _, _, amp in keys])
    return keys, amps, np.fromiter(sums.values(), float, len(keys)) * amps**2


def _expand(rows: np.ndarray, weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """vectors plus the weighted sum of the keys' profiles, expanded into
    pattern vectors with the first arm varying fastest, in place. rows is
    (settings, keys, arms, 2 or more); weights is (settings, keys), folded
    into each profile product from the start, or (settings, components,
    keys), contracted with the finished profiles into vectors of shape
    (settings, components, 2^n). A block of keys at a time keeps the
    expanded rows small."""
    n_settings, n_keys, n_arms, _ = rows.shape
    for start in range(0, n_keys, _PROFILE_BLOCK):
        block = rows[:, start : start + _PROFILE_BLOCK, :, :2]
        w = weights[..., start : start + _PROFILE_BLOCK]
        prob = w[..., None] if w.ndim == 2 else np.ones(block.shape[:2] + (1,))
        for a in reversed(range(n_arms)):
            prob = (prob[..., None] * block[:, :, a, None, :]).reshape(
                n_settings, block.shape[1], -1
            )
        vectors += prob.sum(axis=1) if w.ndim == 2 else w @ prob
    return vectors


def _pattern_sum(apparatus: Apparatus, members, settings) -> _PatternSum:
    """One _PatternSum for settings, filled from one stream of (weight,
    supported, branch, k) members from _members, which hold only the terms
    with a photon in every arm.

    The supported terms are grouped into coherence classes, the terms an
    analyzer can mix: at a rotated setting the terms with equal photon
    numbers per (arm, tag) slot, at HV each term alone. Neither the terms
    nor the classes depend on the angles, so each member is split once
    into one _PatternSum for the whole plan, which then reduces every
    setting together: per-arm rows and class contractions carry the
    settings as an array axis instead of being recomputed per setting.
    """
    plan = _PatternSum(apparatus.n_arms, list(settings))
    for weight, supported, branch, k in members:
        plan.add(weight, supported, branch, k)
    return plan


def _pattern_vectors(apparatus: Apparatus, members, settings) -> list:
    """Per-pulse probabilities of the 2^n accepted patterns under each
    setting, summed over one stream of members (_pattern_sum).

    The vectors are indexed with the first arm varying fastest, the
    reverse of the order all_detection_patterns labels. This is a known
    defect kept so that recorded benchmark distributions still match.
    """
    return _pattern_sum(apparatus, members, settings).vectors()


def absolute_outcome_distributions(apparatus: Apparatus, settings) -> list:
    """absolute_outcome_distribution under each of several settings, in
    order, from one pass over the emission ensemble.

    Emission patterns, ensemble members and their fusion do not depend on
    the analyzers, so each member is assembled once and reduced under
    every setting not yet in the apparatus's cache; a run plan asks for
    all of its settings here and then reads each from the cache.
    """
    settings = list(settings)
    for setting in settings:
        if setting.angles is not None and len(setting.angles) != apparatus.n_arms:
            raise ValueError(
                f"setting has {len(setting.angles)} angles for {apparatus.n_arms} arms"
            )
    cache = apparatus._distribution_cache
    todo = {}
    for setting in settings:
        key = (setting.label, setting.angles)
        if key not in cache:
            todo.setdefault(key, setting)
    if todo:
        vectors = _pattern_vectors(apparatus, _all_members(apparatus), list(todo.values()))
        for (key, setting), vector in zip(todo.items(), vectors):
            cache[key] = _distribution(apparatus, setting, vector)
    return [dict(cache[(s.label, s.angles)]) for s in settings]


def _all_members(apparatus: Apparatus):
    """_members of every emission pattern the truncation admits."""
    patterns = (
        counts
        for order in range(apparatus.truncation_pairs + 1)
        for counts in admitted_patterns(apparatus.topology, order)
    )
    return _members(apparatus, patterns)


def _distribution(apparatus: Apparatus, setting: MeasurementSetting, vector) -> dict:
    """A pattern vector as a distribution. Its keys are shared by every
    distribution of this shape, and exact zeros (254 of the 256 HV
    patterns of the default star) share one 0.0, so callers that keep many
    distributions keep them small."""
    patterns = _detection_patterns(apparatus.n_arms, setting.symbols)
    return {pat: v or 0.0 for pat, v in zip(patterns, vector.tolist())}


def absolute_outcome_distribution(
    apparatus: Apparatus, setting: MeasurementSetting
) -> dict:
    """Per-pulse probability of each accepted pattern, before conditioning.

    Patterns where some arm fires both detectors or none are discarded by
    construction, so the values sum to the total accepted probability.
    """
    (distribution,) = absolute_outcome_distributions(apparatus, [setting])
    return distribution


def _accepted(absolute: dict) -> tuple:
    """An absolute distribution and its total; raises when it accepts
    nothing, so no run plan reads as zero events."""
    total = sum(absolute.values())
    if total <= 0.0:
        raise ValueError("no accepted coincidences under this truncation")
    return absolute, total


def outcome_distribution(apparatus: Apparatus, setting: MeasurementSetting) -> dict:
    """Conditional distribution over patterns given an accepted event."""
    absolute, total = _accepted(absolute_outcome_distribution(apparatus, setting))
    return {pat: p / total for pat, p in absolute.items()}


def emission_pattern_probability(apparatus: Apparatus, pairs_per_source) -> float:
    """Accepted probability contributed by one emission pattern alone.

    Takes no counting shortcut from the topology module: the pattern's
    state goes through the compiled fusion optics and detectors whether or
    not the topology enumerator would admit it. The only terms _members
    leaves out are those its arm masks, read off the compiled fusion
    image, show to miss an arm, so the result is an independent check on
    admitted_patterns.
    """
    counts = tuple(int(n) for n in pairs_per_source)
    if len(counts) != len(apparatus.sources):
        raise ValueError("pattern length does not match the source count")
    if any(n < 0 for n in counts):
        raise ValueError("negative pair count")
    if sum(counts) > apparatus.truncation_pairs:
        raise ValueError("pattern exceeds the pair truncation")
    (vector,) = _pattern_vectors(apparatus, _members(apparatus, [counts]), [hv_setting()])
    return float(vector.sum())


# ---- Overlap calibration ----


class CalibratedOverlaps(typing.NamedTuple):
    synthesizer_overlap: float
    fusion_overlap: float


def parity_visibility(apparatus: Apparatus) -> float:
    """Signed parity correlation at analyzer angle zero, conditioned on
    an accepted coincidence; the simulated analog of an interference
    visibility measurement on this apparatus."""
    absolute = absolute_outcome_distribution(apparatus, k_setting(0, apparatus.n_arms))
    return _parity(*_accepted(absolute))


def _parity(absolute: dict, total: float) -> float:
    return sum(((-1) ** pat.count("-")) * (p / total) for pat, p in absolute.items())


def synthesizer_visibility(
    overlap: float,
    *,
    pair_probability: float,
    efficiency: float,
    truncation_pairs: int = 2,
) -> float:
    """Two-fold diagonal-basis visibility of one source at running power.

    Includes multi-pair dilution, so the result sits below the intrinsic
    overlap whenever truncation_pairs > 1.
    """
    return parity_visibility(
        assemble_apparatus(
            single_source_topology(),
            pair_probability=pair_probability,
            synthesizer_overlap=overlap,
            detector_efficiency=efficiency,
            truncation_pairs=truncation_pairs,
        )
    )


def fusion_visibility(
    fusion_overlap: float,
    synthesizer_overlap: float,
    *,
    pair_probability: float,
    efficiency: float,
    truncation_pairs: int = 3,
) -> float:
    """Four-fold parity visibility of two sources fused on one splitter,
    at running power: the simulated analog of the alignment interference
    check between independent photons."""
    return parity_visibility(
        assemble_apparatus(
            star_topology(2),
            pair_probability=pair_probability,
            synthesizer_overlap=synthesizer_overlap,
            fusion_overlap=fusion_overlap,
            detector_efficiency=efficiency,
            truncation_pairs=truncation_pairs,
        )
    )


def _overlap_factor(apparatus: Apparatus, component: tuple) -> float:
    """The weight every member of component (branch, k) carries at the
    apparatus's overlaps: gamma_s^k (1 - gamma_s)^(S - k) over S sources,
    times the branch weight."""
    branch, k = component
    gamma_s, gamma_f = apparatus.synthesizer_overlap, apparatus.fusion_overlap
    fusion = 1.0 - gamma_f if branch.marked else gamma_f
    return gamma_s**k * (1.0 - gamma_s) ** (apparatus.topology.n_sources - k) * fusion


def _overlap_distributions(
    apparatus: Apparatus, setting: MeasurementSetting, overlaps
) -> list:
    """absolute_outcome_distribution(replace(apparatus, **o), setting) for
    a rotated setting and each o in overlaps, a dict of
    synthesizer_overlap and fusion_overlap values, read off this
    apparatus's one build.

    The setting's vector is the sum of its overlap components
    (_PatternSum.components), and every member of a component carries one
    weight, a product of overlap factors (_overlap_factor). So the vector at
    other overlaps rescales each component by the ratio of its weights
    there and here. An overlap that changes must lie strictly inside
    (0, 1) here, where every component has weight.
    """
    plan = _pattern_sum(apparatus, _all_members(apparatus), [setting])
    labels, components = plan.components()
    here = np.array([_overlap_factor(apparatus, c) for c in labels])
    out = []
    for overlap in overlaps:
        target = replace(apparatus, **overlap)
        there = np.array([_overlap_factor(target, c) for c in labels])
        out.append(_distribution(apparatus, setting, (there / here) @ components[0]))
    return out


def _solve_overlap(apparatus: Apparatus, overlap: str, target: float) -> float:
    """The value g in [0, 1] of the named overlap at which the apparatus
    shows parity visibility target, V(g) = a(g)/c(g), a and c linear in g.

    The apparatus is built once, at g = 1/2, and read at g = 0 and 1
    (_overlap_distributions). At 1/2 every weight that g enters is a
    power of two, so the ratios that read the two ends are exactly 2 and
    0: each end's vector is the sum of doubled components, the same terms
    a build at that end sums, up to the order of summation.
    """
    half = replace(apparatus, **{overlap: 0.5})
    ends = []
    reads = [{overlap: 0.0}, {overlap: 1.0}]
    for dist in _overlap_distributions(half, k_setting(0, half.n_arms), reads):
        absolute, total = _accepted(dist)
        ends.append((_parity(absolute, total), total))
    (v0, c0), (v1, c1) = ends
    below = c0 * (target - v0)
    above = c1 * (v1 - target)
    if not (below >= 0.0 and above >= 0.0):
        raise ValueError(f"target visibility {target} unreachable at this brightness")
    return below / (below + above)


def calibrate_overlaps(
    *,
    pair_probability: float,
    efficiency: float,
    synthesizer_target: float = 0.94,
    fusion_target: float = 0.76,
) -> CalibratedOverlaps:
    """Intrinsic overlaps that reproduce measured visibilities.

    Interference visibilities are quoted at running pump power, where
    multi-pair emission already dilutes them; feeding them to the model
    unchanged would double-count that noise. This inverts the two
    simulated alignment measurements: first the single source against its
    diagonal-basis visibility, then the two-source fusion against the
    independent-photon visibility.

    Both inversions are exact. At fixed apparatus every accepted
    probability is (1-g)*D(0) + g*D(1) in the overlap g being solved: the
    synthesizer overlap weights the single source's coherent member by g
    and its split members by 1-g, and the fusion overlap weights the
    interfering and source-marked branches the same way. So the signed
    parity sum a(g) and the accepted total c(g) are linear, and
    a(g) = target * c(g) is solved from D(0) and D(1). Each inversion
    builds its apparatus once, at g = 1/2, where D(0) and D(1) are the
    build's overlap components doubled or dropped, exact in binary
    (_solve_overlap). A target outside [V(0), V(1)] raises.
    """
    single = assemble_apparatus(
        single_source_topology(),
        pair_probability=pair_probability,
        detector_efficiency=efficiency,
        truncation_pairs=2,
    )
    gs = _solve_overlap(single, "synthesizer_overlap", synthesizer_target)
    fused = replace(
        single, topology=star_topology(2), synthesizer_overlap=gs, truncation_pairs=3
    )
    gf = _solve_overlap(fused, "fusion_overlap", fusion_target)
    return CalibratedOverlaps(synthesizer_overlap=gs, fusion_overlap=gf)


# ---- Counting ----


def monte_carlo_counts(
    apparatus: Apparatus,
    setting: MeasurementSetting,
    duration_s: float,
    seed: int,
) -> CoincidenceHistogram:
    """Poisson counts per pattern over a run of the given duration.

    Each pattern accumulates at repetition rate times its absolute
    probability. The stream is derived from (seed, setting label), so a
    fixed seed reproduces the histogram bit for bit and different
    settings draw independently. An apparatus that accepts nothing
    raises, as outcome_distribution does.

    The patterns draw in one call, element by element in pattern order,
    and a zero mean draws nothing from the stream.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    absolute, _ = _accepted(absolute_outcome_distribution(apparatus, setting))
    stream = np.random.SeedSequence([seed, zlib.crc32(setting.label.encode())])
    rng = np.random.default_rng(stream)
    means = apparatus.repetition_rate_hz * np.fromiter(absolute.values(), float) * duration_s
    counts = dict(zip(absolute, rng.poisson(means).tolist()))
    return CoincidenceHistogram(
        setting=setting, counts=counts, duration_s=float(duration_s), seed=seed
    )

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
member is reduced arm by arm. The amplitudes are built once, at analyzer
angle 0: a rotated setting differs from it by one phase per pair of
interfering terms.

Imperfect interference enters as two scalar overlaps. The synthesizer
overlap dephases each source's two emission processes against each
other; the fusion overlap splits the run into a branch where photons
from different sources interfere at the splitters and a branch where
every photon keeps a mark identifying its source. Each branch of
nonzero weight is one _Branch, built on first use: its weight, its fusion
optics compiled from its own elements, and its arm-by-arm detection
layout. Weights multiply, so any cross-source coherence in the output
carries the product of all the overlaps involved, and every accepted
probability is linear in each overlap: calibration solves an overlap from
two builds, at its two ends.
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

from .config import MAX_TRUNCATION, ExperimentConfig, config_topology, leading_underflow
from .elements import (
    UNITARITY_TOL,
    analyzer_matrix,
    apply_element,
    element_on,
    pbs_matrix,
    phase_matrix,
)
from .fock import (
    AmplitudeState,
    ModeLabel,
    ModeRegistry,
    _cancels,
    registry_from,
)
from .records import (
    CoincidenceHistogram,
    DetectionPattern,
    MeasurementSetting,
    _detection_patterns,
    _left_sum,
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
    _is_integer,
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
        p, xi = self.pair_probability, self.detector_efficiency
        if not 0.0 <= p <= 1.0:
            raise ValueError("pair_probability must lie in [0, 1]")
        if not 0.0 <= self.fusion_overlap <= 1.0:
            raise ValueError("fusion_overlap must lie in [0, 1]")
        if not 0.0 < xi <= 1.0:
            raise ValueError("detector_efficiency must lie in (0, 1]")
        if not 0.0 < self.repetition_rate_hz < math.inf:
            raise ValueError("repetition rate must be positive and finite")
        if not _is_integer(self.truncation_pairs):
            raise ValueError(f"truncation_pairs must be an integer, not {self.truncation_pairs!r}")
        if not 1 <= self.truncation_pairs <= MAX_TRUNCATION:
            # a mode holds at most truncation_pairs photons, in one byte of
            # a packed occupation (_Moved)
            raise ValueError(f"truncation_pairs must lie in 1..{MAX_TRUNCATION}")
        underflow = leading_underflow(p, xi, self.topology.n_sources)
        if underflow:
            raise ValueError(f"pair_probability={p} with detector_efficiency={xi}: {underflow}")
        self.sources  # PdcSource checks the synthesizer overlap

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
    count of an arm's slots, which depend on the detector efficiency
    alone, and a slot's analyzer amplitudes at angle 0, one-photon ones
    and n-photon ones per photon number, shared by every arm and slot,
    since every analyzer of a branch applies one matrix to one slot. Every
    other angle is a phase on V photons (elements.analyzer_matrix), which
    a plan applies per key, so a branch applies its analyzer element once.
    A plan builds its arm rows from these memos (_PatternSum).
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
        # the log of the probability that a detector misses one photon
        xi = apparatus.detector_efficiency
        self.log_miss = math.log1p(-xi) if xi < 1.0 else -math.inf
        self._weights: dict = {}
        self._analyzers: dict = {}

    def photons(self, occ) -> tuple:
        """An occupation's photon numbers per slot, arm by arm."""
        return tuple(map(operator.add, occ[0::2], occ[1::2]))

    def weights(self, ns: tuple) -> np.ndarray:
        """Firing probabilities, (first, second), per joint plus count of an
        arm's slots holding ns photons, in slot order: shape (prod(n+1), 2),
        the first slot varying slowest."""
        hit = self._weights.get(ns)
        if hit is None:
            total = sum(ns)
            hit = self._weights[ns] = np.array(
                [
                    _firing(sum(ps), total - sum(ps), self.log_miss)
                    for ps in itertools.product(*(range(n + 1) for n in ns))
                ]
            )
        return hit

    def analyzed(self, n: int) -> tuple:
        """(<p +, (n-p) -| analyzer |h H, (n-h) V> of an n-photon slot at
        angle 0 as a real matrix [p, h], the sums of its entries' leaf
        magnitudes): symmetric powers of the one-photon amplitudes and their
        magnitudes. At angle theta, column h takes the factor
        e^{-i theta (n - h)}. An entry that cancels within its leaves
        (fock._cancels) is an exact zero, as in the multinomial engine that
        _symmetric_power mirrors."""
        hit = self._analyzers.get(n)
        if hit is None:
            one = self.one_photon
            u = _symmetric_power(one, n)
            scale = _symmetric_power([[abs(c) for c in row] for row in one], n).real
            u[_cancels(u, scale)] = 0.0
            # the angle-0 amplitudes are real: their imaginary parts are
            # exact zeros
            hit = self._analyzers[n] = (u.real, scale)
        return hit

    @functools.cached_property
    def one_photon(self) -> tuple:
        """((<+|H>, <+|V>), (<-|H>, <-|V>)): the branch's own analyzer
        element at angle 0 (first arm, first tag: modes 0 and 1) applied to
        one H and one V photon with apply_element."""
        element = _analyzer_element(self.registry, self.arms[0], self.tags[0], 0.0)
        # one photon in mode 0 (H in, + out) or in mode 1 (V in, - out)
        rest = (0,) * (len(self.registry) - 2)
        first, second = (1, 0) + rest, (0, 1) + rest
        columns = []
        for photon in (first, second):
            state = AmplitudeState(self.registry, {photon: 1.0 + 0j}, 1)
            terms = apply_element(state, element).terms
            columns.append([complex(terms.get(out, 0j)) for out in (first, second)])
        (plus_h, minus_h), (plus_v, minus_v) = columns
        return (plus_h, plus_v), (minus_h, minus_v)


class _Moved:
    """One ensemble member's terms after one branch's fusion optics, as
    (packed occupation, amplitude, arm mask). The packed occupation holds
    the term's count on branch mode j in bits 8j to 8j + 7, so
    packed.to_bytes(modes, "little") is the occupation as bytes
    (Apparatus refuses truncations past 255 pairs, which would carry into
    the next mode). The mask has bit a set when a photon of the term
    leaves on output arm a. reach is the union of the masks, and
    covering(need) the terms whose mask holds every arm of need,
    memoized per need."""

    __slots__ = ("terms", "reach", "_covering")

    def __init__(self, n: int, hs: tuple, amp: complex, image: tuple, width: int):
        """The member's terms are its source's n-pair terms with h HH pairs
        for each h in hs, counts (h, n - h, h, n - h) on the source's four
        output modes, each of amplitude amp. image is the source's fusion
        image, width the branch's modes per arm."""
        self.terms = []
        self.reach = 0
        for h in hs:
            packed = 0
            mask = 0
            term = amp
            for (dest, phase), count in zip(image, (h, n - h, h, n - h)):
                if count:
                    packed |= count << 8 * dest
                    mask |= 1 << dest // width
                    term *= phase**count
            self.terms.append((packed, term, mask))
            self.reach |= mask
        self._covering = {0: self.terms}

    def covering(self, need: int) -> list:
        hit = self._covering.get(need)
        if hit is None:
            hit = self._covering[need] = [t for t in self.terms if t[2] & need == need]
        return hit


def _members(apparatus: Apparatus, patterns):
    """Yield (weight, supported, branch) members of each emission pattern
    after fusion and compensation: supported lists (occupation, amplitude)
    of the member's terms with a photon in every arm, the only ones that
    can fire every arm. The occupation of the branch registry is packed
    into bytes, arm by arm, and a plan keeps it per key. A member without
    such a term is not yielded.

    The weight of a member is the product of its per-source ensemble
    weights and the branch weight; states are unnormalized, so a member's
    accepted probability is weight times the detection value of its
    amplitudes. A joint amplitude is a product of nonzero amplitudes,
    which cannot cancel, so every one is kept.

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
                piece = pieces[(i, n)] = [
                    (w, [_Moved(n, hs, amp, b.images[i], b.width) for b in branches])
                    for w, hs in source_ensemble(source, n)
                ]
            per_source.append(piece)
        for combo in itertools.product(*per_source):
            # in sorted order, so that members with the same overlap factors
            # carry bitwise the same weight
            weight = math.prod(sorted(w for w, _ in combo))
            for b, branch in enumerate(branches):
                supported = _joint_terms(branch, [moved[b] for _, moved in combo])
                if supported:
                    yield weight * branch.weight, supported, branch


def _joint_terms(branch: _Branch, parts: list) -> list:
    """(occupation bytes, amplitude) of the product of parts' terms with a
    photon in every arm, in product order, amplitudes multiplied in part
    order. Every branch mode is reached from one source's mode alone (the
    fusion map is a permutation), so a joint occupation is the sum of its
    parts' packed occupations. When the parts together cannot reach every
    arm, there is no such term."""
    full = (1 << len(branch.arms)) - 1
    # rest[k]: the arms the parts after k can reach
    rest = [0] * len(parts)
    for k in range(len(parts) - 1, 0, -1):
        rest[k - 1] = rest[k] | parts[k].reach
    if rest[0] | parts[0].reach != full:
        return []
    partials = [(0, 1.0, 0)]
    for part, later in zip(parts, rest):
        partials = [
            (covered | mask, amp * a, packed + p)
            for covered, amp, packed in partials
            for p, a, mask in part.covering(full & ~(covered | later))
        ]
    width = len(branch.registry)
    return [(packed.to_bytes(width, "little"), amp) for _, amp, packed in partials]


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
    factor for factor as the multinomial Fock engine of the test oracle
    (apply_multinomial in tests/oracles.py) evaluates it, on complex
    scalars, so the rounding left at the analyzer's exact interference
    zeros is that engine's. (numpy's vectorized complex product may fuse
    its multiply and add, which moves the last bit.) Fed the magnitudes of
    one, it sums the magnitudes of each entry's leaves instead.
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
            u[p, h] = a * math.sqrt(fact[p] * fact[n - p])
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


def _firing(n_first: int, n_second: int, log_miss: float) -> tuple:
    """Probabilities that only the first, or only the second, of an arm's
    two detectors fires with n_first and n_second photons at them; each
    photon is missed independently, log_miss the log of that probability
    (-inf at unit efficiency). A port with n photons fires with
    1 - (1 - efficiency)^n, read as -expm1(n log_miss) so that it keeps
    its precision at any efficiency: 1 - efficiency rounds to 1 below
    about 1.1e-16."""
    fire_first, silent_first = _port(n_first, log_miss)
    fire_second, silent_second = _port(n_second, log_miss)
    return fire_first * silent_second, fire_second * silent_first


def _port(n: int, log_miss: float) -> tuple:
    """(fires, stays silent) for one detector with n photons at it."""
    if not n:
        return 0.0, 1.0
    x = n * log_miss
    return -math.expm1(x), math.exp(x)


_PROFILE_BLOCK = 64


class _PatternSum:
    """A run plan's accepted-pattern vectors, one per setting, summed over
    one stream of (weight, supported, branch) members from _members, which
    hold only the terms with a photon in every arm.

    An analyzer mixes only terms with equal photon numbers per (arm, tag)
    slot, a coherence class. Over the outputs, a class of terms with
    amplitudes a_t and analyzed amplitudes psi_t adds |sum_t a_t psi_t|^2 =
    sum_t |a_t psi_t|^2 + sum_{t<t'} 2 Re(a_t conj(a_t') psi_t conj(psi_t'))
    times the firing probabilities, each product factorizing over arms. So
    add sums each term's weight into a single key (branch, occupation,
    |amplitude|), a term paired with itself, and, for a plan with a rotated
    setting, each pair of a class's terms into a pair key (branch,
    occupation and partner occupation arm by arm, a_t conj(a_t')). Every
    key is numbered once, in first-seen order (keys), and summed in one
    tally per member weight, a product of overlaps.

    A key's firing profile is the product of its arms' rows, read from one
    table per plan and analyzer (_table): the identity for HV, which keeps
    each photon's polarization, and the analyzer at angle 0 for every
    rotated setting. An analyzer at angle theta is the one at angle 0
    behind a phase e^{-i theta} on V (elements.analyzer_matrix), so a
    single key's rows are the same at every angle, and a setting turns a
    pair key's profile by e^{-i sum_a theta_a delta_a}, delta_a the
    partner's H count minus the occupation's on arm a. HV reads the single
    keys alone, summed over member weights: under the identity a pair
    key's profile is zero. A rotated setting reads every key, weight by
    weight, so that the zero rule runs per weight: an entry that cancels
    within the keys' leaf magnitudes (fock._cancels) is an exact zero, as
    an element drops it, and where the members of one weight cancel
    exactly, those of any other weight, however small, still add their
    exact share. No key, and so no vector, depends on which settings the
    plan holds.
    """

    def __init__(self, n_arms: int, settings, members):
        self.n_arms = n_arms
        self.settings = settings = list(settings)
        self.rotated = [s.angles for s in settings if s.angles is not None]
        self.hv = len(self.rotated) < len(settings)
        self.keys: dict = {}
        self.tally: dict = {}
        for member in members:
            self.add(*member)

    def add(self, weight: float, supported, branch: _Branch) -> None:
        keys, tally = self.keys, self.tally.setdefault(weight, {})
        for occ, amp in supported:
            i = keys.setdefault((branch, occ, abs(amp)), len(keys))
            tally[i] = tally.get(i, 0.0) + weight
        if not self.rotated:
            return
        classes: dict = {}
        for term in supported:
            classes.setdefault(branch.photons(term[0]), []).append(term)
        w = branch.width
        for terms in classes.values():
            for (occ, a), (other, b) in itertools.combinations(terms, 2):
                arms = range(0, len(occ), w)
                both = b"".join(occ[s : s + w] + other[s : s + w] for s in arms)
                i = keys.setdefault((branch, both, a * b.conjugate()), len(keys))
                tally[i] = tally.get(i, 0.0) + weight

    def vectors(self) -> list:
        """One vector per setting, in order; HV settings share theirs."""
        keys = list(self.keys)
        # (member weights, keys): each key's summed weights
        sums = np.zeros((len(self.tally), len(keys)))
        for row, tally in zip(sums, self.tally.values()):
            row[list(tally)] = list(tally.values())
        slices, index = _arm_index(keys, self.n_arms)
        hv_rows, rows, leaves, deltas = self._table(slices)
        single = np.fromiter((len(k[1]) == len(k[0].registry) for k in keys), bool, len(keys))
        # a single key's |a| squared, a pair key's 2 a conj(a')
        factors = np.array([c * c if s else 2 * c for (_, _, c), s in zip(keys, single)])
        hv = None
        if self.hv:
            coefs = sums[:, single].sum(axis=0) * factors[single].real
            hv = _expand(hv_rows, index[single], coefs)
        rotated = iter(())
        if self.rotated:
            coefs = sums * factors
            # (settings, keys): the angle each setting turns a key by,
            # summed arm by arm so that no setting's bits depend on the
            # others; then (settings, weights, 2^n)
            turn = sum(map(np.multiply.outer, np.array(self.rotated).T, deltas[index].T))
            vectors = _expand(rows, index, coefs, np.exp(-1j * turn))
            vectors[_cancels(vectors, _expand(leaves, index, abs(coefs)))] = 0.0
            rotated = iter(vectors.sum(axis=1))
        return [hv if s.angles is None else next(rotated) for s in self.settings]

    def _table(self, slices: list) -> tuple:
        """(hv, rows, leaves, deltas) per arm slice: (branch, the slice's
        bytes, then its partner's for a pair key's slice; a single key's
        slice is its own partner), each row a real (first, second) pair.

        One formula builds every row: over the outputs p of the occupied
        slots, the sum of prod_s U[p_s, h_s] U[p_s, h'_s] times p's firing
        probabilities (_Branch.weights), h and h' the slots' H counts in
        the occupation and its partner. U is the identity for hv, whose
        rows are so the firing probabilities of the slots' own photons; for
        rows, the slot's analyzer at angle 0, and for leaves, the sums of its
        entries' leaf magnitudes (_Branch.analyzed). delta is the
        partner's H count minus the occupation's. A table is built only
        for a plan that reads it, so a plan without a rotated setting reads
        no analyzer. Array operations per (branch, photon numbers of the
        occupied slots) build the rows."""
        groups: dict = {}
        deltas = np.zeros(len(slices), dtype=np.intp)
        for i, (branch, arm) in enumerate(slices):
            arm, other = arm[: branch.width], arm[branch.width :] or arm
            slots = [s for s in range(0, len(arm), 2) if arm[s] + arm[s + 1]]
            ns = tuple(arm[s] + arm[s + 1] for s in slots)
            at, hs = groups.setdefault((branch, ns), ([], []))
            at.append(i)
            hs.append([arm[s] for s in slots] + [other[s] for s in slots])
            deltas[i] = sum(other[0::2]) - sum(arm[0::2])
        tables = np.zeros((3, len(slices), 2))
        for (branch, ns), (at, hs) in groups.items():
            # (slots, slices): the H counts in each occupation and its partner
            hs, partners = np.array(hs, dtype=np.intp).reshape(len(at), 2, -1).transpose(1, 2, 0)
            weights = branch.weights(ns)
            us = [
                [np.eye(n + 1) for n in ns] if self.hv else None,
                [branch.analyzed(n)[0] for n in ns] if self.rotated else None,
                [branch.analyzed(n)[1] for n in ns] if self.rotated else None,
            ]
            for table, u in zip(tables, us):
                if u is not None:
                    # (slices, joint outputs), the first slot slowest, each
                    # summed along its row: no row depends on the plan's
                    # other slices
                    product = functools.reduce(
                        _outer, [m.T[h] * m.T[p] for m, h, p in zip(u, hs, partners)]
                    )
                    table[at] = (product[:, None, :] * weights.T).sum(axis=-1)
        return (*tables, deltas)


def _outer(product: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """(..., P) times a slot's (..., n + 1), it fastest."""
    return (product[..., None] * factor[..., None, :]).reshape(*product.shape[:-1], -1)


def _arm_index(keys, n_arms: int) -> tuple:
    """The keys' arm slices, (branch, the key's bytes on the arm), in
    first-seen order, and (keys, arms): the index among them of each key's
    slice on each arm."""
    slices: dict = {}
    index = []
    for branch, occ, _ in keys:
        w = len(occ) // n_arms
        arms = range(0, len(occ), w)
        index.append([slices.setdefault((branch, occ[s : s + w]), len(slices)) for s in arms])
    return list(slices), np.array(index, dtype=np.intp).reshape(len(keys), n_arms)


def _expand(table, index, coefs, phase=None) -> np.ndarray:
    """The coefficient-weighted sums of the keys' profiles, coefs (...,
    keys) into pattern vectors (..., 2^n) with the first arm varying
    fastest, a block of keys at a time. A key's profile is the product of
    its arm rows, table[index[key, a]] on arm a. With phase (settings,
    keys), each setting weights a key by the real part of its turned
    coefficient, phase times coefs, formed one block at a time: (settings,
    ..., 2^n)."""
    n_keys, n_arms = index.shape
    lead = coefs.shape[:-1] if phase is None else (len(phase), *coefs.shape[:-1])
    out = np.zeros(lead + (2**n_arms,))
    for start in range(0, n_keys, _PROFILE_BLOCK):
        block = slice(start, start + _PROFILE_BLOCK)
        rows = table[index[block]]
        prob = np.ones((len(rows), 1))
        for a in reversed(range(n_arms)):
            prob = _outer(prob, rows[:, a])
        weights = coefs[..., block]
        if phase is not None:
            weights = (phase[:, None, block] * weights).real
        out += weights @ prob
    return out


def _pattern_vectors(apparatus: Apparatus, members, settings) -> list:
    """Per-pulse probabilities of the 2^n accepted patterns under each
    setting, summed over one stream of members (_PatternSum).

    The vectors are indexed with the first arm varying fastest, the
    reverse of the order all_detection_patterns labels. This is a known
    defect kept so that recorded benchmark distributions still match.
    """
    return _PatternSum(apparatus.n_arms, settings, members).vectors()


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
    """A pattern vector as a distribution, keyed by the one DetectionPattern
    object per pattern. Exact zeros (254 of the 256 HV patterns of the
    default star) share one 0.0, so callers that keep many distributions
    keep them small."""
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
    total = _left_sum(absolute.values())
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
    counts = tuple(pairs_per_source)
    if len(counts) != len(apparatus.sources):
        raise ValueError("pattern length does not match the source count")
    if not all(map(_is_integer, counts)):
        raise ValueError(f"pair counts must be integers, not {counts!r}")
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
    return _parity_reading(apparatus)[0]


def _parity_reading(apparatus: Apparatus) -> tuple:
    """(parity visibility, accepted total) at analyzer angle zero."""
    absolute = absolute_outcome_distribution(apparatus, k_setting(0, apparatus.n_arms))
    absolute, total = _accepted(absolute)
    parity = _left_sum(((-1) ** pat.count("-")) * (p / total) for pat, p in absolute.items())
    return parity, total


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


def _solve_overlap(apparatus: Apparatus, overlap: str, target: float) -> float:
    """The value g in [0, 1] of the named overlap at which the apparatus
    shows parity visibility target, V(g) = a(g)/c(g), a and c linear in g:
    the signed parity sum a and the accepted total c are read off two
    builds, at g = 0 and g = 1. Where both ends show the target, every g
    does, and none is returned."""
    (v0, c0), (v1, c1) = (
        _parity_reading(replace(apparatus, **{overlap: g})) for g in (0.0, 1.0)
    )
    below = c0 * (target - v0)
    above = c1 * (v1 - target)
    if not (below >= 0.0 and above >= 0.0):
        raise ValueError(f"target visibility {target} unreachable at this brightness")
    if below == above == 0.0:
        raise ValueError(f"{overlap} not determined: visibility {target} at every value")
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
    a(g) = target * c(g) is solved from D(0) and D(1), each the
    distribution of one build at that end (_solve_overlap). A target
    outside [V(0), V(1)] raises.
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
    if not 0 < duration_s < math.inf:
        raise ValueError("duration must be positive and finite")
    absolute, _ = _accepted(absolute_outcome_distribution(apparatus, setting))
    stream = np.random.SeedSequence([seed, zlib.crc32(setting.label.encode())])
    rng = np.random.default_rng(stream)
    means = apparatus.repetition_rate_hz * np.fromiter(absolute.values(), float) * duration_s
    counts = dict(zip(absolute, rng.poisson(means).tolist()))
    return CoincidenceHistogram(
        setting=setting, counts=counts, duration_s=float(duration_s), seed=seed
    )

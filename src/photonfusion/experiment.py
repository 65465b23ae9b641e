"""Whole-apparatus simulation: sources into fusions into detectors.

Builds the multi-source interferometer over tagged modes, moves a
classical ensemble of amplitude states through the fusion splitters,
analyzers and detectors, and turns the result into exact outcome
probabilities or Poisson-sampled coincidence histograms.

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
from .sources import (
    TAG_BROAD,
    TAG_NARROW,
    PdcSource,
    source_ensemble,
    source_mode_labels,
)
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


# ---- Measurement settings ----


@dataclass(frozen=True)
class MeasurementSetting:
    """Analyzer configuration for one run: a basis angle per output arm,
    or the computational basis when angles is None."""

    label: str
    angles: tuple | None = None

    def __post_init__(self):
        if self.angles is not None:
            angles = tuple(float(a) for a in self.angles)
            object.__setattr__(self, "angles", angles)
            for a in angles:
                if not 0.0 <= a < 2 * math.pi:
                    raise ValueError(f"analyzer angle {a} outside [0, 2*pi)")

    @property
    def symbols(self) -> tuple:
        return ("H", "V") if self.angles is None else ("+", "-")


def hv_setting() -> MeasurementSetting:
    return MeasurementSetting("HV", None)


def k_setting(k: int, n_arms: int = 8) -> MeasurementSetting:
    """Every arm analyzed at angle k*pi/8."""
    if not isinstance(k, int) or not 0 <= k <= 15:
        raise ValueError("k must be an integer in 0..15")
    return MeasurementSetting(f"k{k}", (k * math.pi / 8,) * n_arms)


_ANGLES_PREFIX = "angles:"


def angle_setting(angles, label: str | None = None) -> MeasurementSetting:
    """One analyzer angle per arm. Without a label, the label spells out
    the angles, so settings at different angles draw different Poisson
    streams and setting_from_label reads the label back exactly."""
    angles = tuple(float(a) for a in angles)
    if label is None:
        label = _ANGLES_PREFIX + ";".join(map(repr, angles))
    return MeasurementSetting(label, angles)


def setting_from_label(label: str, n_arms: int = 8) -> MeasurementSetting:
    if label == "HV":
        return hv_setting()
    if label.startswith("k") and label[1:].isdigit():
        return k_setting(int(label[1:]), n_arms)
    if label.startswith(_ANGLES_PREFIX):
        try:
            angles = [float(a) for a in label[len(_ANGLES_PREFIX) :].split(";")]
        except ValueError:
            raise ValueError(f"unknown setting label {label!r}") from None
        if len(angles) != n_arms:
            raise ValueError(f"setting {label!r} has {len(angles)} angles for {n_arms} arms")
        return MeasurementSetting(label, tuple(angles))
    raise ValueError(f"unknown setting label {label!r}")


# ---- Detection-side types ----


_PATTERN_SYMBOLS = frozenset("HV+-")


@dataclass(frozen=True, order=True)
class DetectionPattern:
    """One symbol per output arm, arms in ascending label order."""

    bits: str

    def __post_init__(self):
        if not self.bits or not set(self.bits) <= _PATTERN_SYMBOLS:
            raise ValueError(f"bad pattern {self.bits!r}")
        if not (set(self.bits) <= {"H", "V"} or set(self.bits) <= {"+", "-"}):
            raise ValueError(f"pattern {self.bits!r} mixes basis symbols")

    def __str__(self) -> str:
        return self.bits

    def count(self, symbol: str) -> int:
        return self.bits.count(symbol)


def all_detection_patterns(n_arms: int, symbols=("H", "V")) -> list:
    """All 2^n patterns; the first arm's symbol varies slowest."""
    return list(_detection_patterns(n_arms, tuple(symbols)))


@functools.lru_cache(maxsize=32)
def _detection_patterns(n_arms: int, symbols: tuple) -> tuple:
    """all_detection_patterns, built once per width and basis so that every
    distribution of that shape shares its (immutable) keys."""
    first, second = symbols
    out = []
    for i in range(2**n_arms):
        bits = "".join(
            second if (i >> (n_arms - 1 - j)) & 1 else first for j in range(n_arms)
        )
        out.append(DetectionPattern(bits))
    return tuple(out)


@dataclass(frozen=True)
class CoincidenceHistogram:
    setting: MeasurementSetting
    counts: dict
    duration_s: float
    seed: int
    # the counts are exact probabilities, which carry no counting error
    exact: bool = False

    def __post_init__(self):
        widths = {len(p.bits) for p in self.counts}
        if len(widths) > 1:
            raise ValueError("histogram mixes pattern widths")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("negative count")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")

    @property
    def total(self) -> int:
        return sum(self.counts.values())


# ---- Apparatus ----


@dataclass(frozen=True)
class Apparatus:
    """The interferometer and its detection, as exactly its seven inputs.

    Everything else is derived from the inputs on first use and memoized
    (functools.cached_property): the sources, the tagged source modes
    (registry, 8 per source), the fusion and compensation optics over
    plain arm/polarization modes (interfering branch) and over
    source-marked modes (distinguishable branch), the fusion branches
    and the computed distributions per setting. Equality and hashing see
    the inputs alone, and dataclasses.replace re-checks its inputs and
    derives everything afresh, so it is the way to sweep a parameter.
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
                truncation_pairs=self.truncation_pairs,
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
    def n_detectors(self) -> int:
        return 2 * self.n_arms

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
    return registry_from(
        [ModeLabel(arm, pol, tag) for arm in arms for pol in ("H", "V") for tag in tags]
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
    """Per tagged source mode: (index in the branch registry after the
    fusion optics, phase), or None for a mode that is never occupied.

    A source's narrowband photons leave on arm_a and its broadband ones on
    arm_b, so the other tag of each arm is never occupied. An occupied mode
    enters the interfering branch untagged and the distinguishable branch
    with the mark of its arm's source.

    Polarizing splitters and phase plates send each a+_j to phi_j a+_pi(j)
    with pi a bijection, so a term moves by permuting its occupation and
    multiplying its amplitude by prod_j phi_j^n_j. pi and phi are read off
    by pushing the one-photon state of each occupied branch mode through
    the branch's elements; optics that split or scale a photon raise
    ValueError. A photon meets only the elements acting on a mode it
    occupies, since apply_element passes every other term through as it
    is.
    """
    own = {}
    mark = {}
    for i, source in enumerate(apparatus.sources):
        own[source.arm_a] = TAG_NARROW
        own[source.arm_b] = TAG_BROAD
        mark[source.arm_a] = mark[source.arm_b] = f"m{i + 1}"
    width = len(registry)
    image = []
    for lab in apparatus.registry:
        if lab.tag != own.get(lab.arm):
            image.append(None)
            continue
        label = ModeLabel(lab.arm, lab.pol, mark[lab.arm] if marked else "")
        i = registry.index(label)
        occ = [0] * width
        occ[i] = 1
        state = AmplitudeState(registry, {tuple(occ): 1.0 + 0j}, 1)
        occupied = {i}
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
    return tuple(image)


class _Branch:
    """One fusion branch: its weight, its fusion optics compiled from its
    own elements, and where its photons sit, arm by arm.

    The interfering branch (weight gamma_f) lives on plain arm and
    polarization modes. In the distinguishable branch (weight 1 - gamma_f)
    every mode also carries the mark of its photon's source, so photons
    from different sources never interfere.

    An arm's local occupation lists its (H, V) photon numbers per tag,
    tags in registry order; one tag's (H, V) pair is a slot. Two memos
    fill as settings are computed, since neither depends on the setting:
    firing probabilities per joint plus count, which depend on the
    detector efficiency alone, and a slot's analyzer amplitudes per
    (angle, h, v), shared by every setting, arm and slot at that angle.
    """

    def __init__(self, apparatus: Apparatus, marked: bool, weight: float):
        if marked:
            registry = apparatus.marked_registry
            optics = apparatus.marked_fusion_elements + apparatus.marked_compensator_elements
        else:
            registry = apparatus.plain_registry
            optics = apparatus.fusion_elements + apparatus.compensator_elements
        self.weight = weight
        self.registry = registry
        self.image = _compile_fusion(apparatus, registry, optics, marked)
        self.arms = apparatus.output_arms
        self.tags = _tags(registry)
        self.miss = 1.0 - apparatus.detector_efficiency
        self.modes = tuple(
            tuple(
                registry.index(ModeLabel(arm, pol, tag))
                for tag in self.tags
                for pol in ("H", "V")
            )
            for arm in self.arms
        )
        self._getters = [operator.itemgetter(*modes) for modes in self.modes]
        self._weights: dict = {}
        self._columns: dict = {}

    def supported(self, terms: dict) -> list:
        """[(local occupations, amplitude)] of the terms with a photon in
        every arm, the only ones that can fire every arm."""
        getters = self._getters
        out = []
        for occ, amp in terms.items():
            local = tuple([get(occ) for get in getters])
            if all(map(any, local)):
                out.append((local, amp))
        return out

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

    def column(self, arm: int, slot: int, theta: float, h: int, v: int) -> dict:
        """{p: <p +, (h+v-p) -| analyzer |h H, v V>} of one slot, read off
        the branch's own analyzer element with apply_element."""
        key = (theta, h, v)
        col = self._columns.get(key)
        if col is None:
            modes = self.modes[arm][slot : slot + 2]
            occ = [0] * len(self.registry)
            occ[modes[0]], occ[modes[1]] = h, v
            state = AmplitudeState(self.registry, {tuple(occ): 1.0 + 0j}, h + v)
            element = _analyzer_element(
                self.registry, self.arms[arm], self.tags[slot // 2], theta
            )
            out = apply_element(state, element)
            col = self._columns[key] = {o[modes[0]]: a for o, a in out.terms.items()}
        return col


def _moved_terms(state: AmplitudeState, image, offset: int) -> list:
    """A source state's terms after the fusion optics, as
    (((branch mode, count), ...), amplitude); the source's modes start at
    offset in the apparatus registry."""
    out = []
    for occ, amp in state.terms.items():
        moves = []
        for j, n in enumerate(occ):
            if n:
                dest, phase = image[offset + j]
                moves.append((dest, n))
                amp *= phase**n
        out.append((tuple(moves), amp))
    return out


def _members(apparatus: Apparatus, patterns):
    """Yield (weight, terms, branch) members of each emission pattern after
    fusion and compensation; terms maps occupations of the branch registry
    to amplitudes.

    The weight of a member is the product of its per-source ensemble
    weights and the branch weight; states are unnormalized, so a member's
    accepted probability is weight times the detection value of its
    amplitudes. A joint amplitude at or below fock.PRUNE_EPS is dropped,
    as tensor_product drops it.
    """
    branches = apparatus._branches
    for counts in patterns:
        per_source = []
        offset = 0  # the apparatus registry lists each source's modes in turn
        for source, n in zip(apparatus.sources, counts):
            per_source.append(
                [
                    (w, [_moved_terms(st, b.image, offset) for b in branches])
                    for w, st in source_ensemble(source, n)
                ]
            )
            offset += len(source_mode_labels(source))
        for combo in itertools.product(*per_source):
            weight = 1.0
            for w, _ in combo:
                weight *= w
            for b, branch in enumerate(branches):
                width = len(branch.registry)
                terms = {}
                for parts in itertools.product(*(moved[b] for _, moved in combo)):
                    occ = [0] * width
                    amp = 1.0
                    for moves, a in parts:
                        amp *= a
                        for dest, n in moves:
                            occ[dest] = n
                    if abs(amp) > PRUNE_EPS:
                        terms[tuple(occ)] = amp
                yield weight * branch.weight, terms, branch


# ---- Detection ----


def _analyzer_element(registry, arm, tag, theta: float):
    labels = [ModeLabel(arm, "H", tag), ModeLabel(arm, "V", tag)]
    return element_on(registry, labels, analyzer_matrix(theta), f"analyzer-{arm}")


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
    """One setting's accepted-pattern vector, summed class by class.

    A single-term class whose analyzed amplitudes all stay above
    fock.PRUNE_EPS adds its squared amplitude to its firing profile, the
    product of its arms' firing probabilities; profiles are summed over
    the whole stream and expanded once, in vector(). An arm's firing
    probabilities for a unit amplitude in one local occupation are
    memoized per branch. Any other class is contracted with the analyzers
    (_contract). At HV there is no analyzer: the H port is the first.
    """

    def __init__(self, n_arms: int, angles):
        self.n_arms = n_arms
        self.angles = angles
        self.contracted = np.zeros(2**n_arms)
        self.profiles: dict = {}
        self._rows: dict = {}

    def add(self, branch: _Branch, weight: float, classes) -> None:
        rows = self._rows.get(branch)
        if rows is None:
            rows = self._rows[branch] = {}
        profiles = self.profiles
        for terms in classes:
            if len(terms) == 1:
                local, amp = terms[0]
                profile = []
                floor = abs(amp)
                for a, arm_local in enumerate(local):
                    key = (a, arm_local)
                    hit = rows.get(key)
                    if hit is None:
                        hit = rows[key] = self._row(branch, a, arm_local)
                    profile.append(hit[0])
                    floor *= hit[1]
                if floor > PRUNE_EPS:
                    profile = tuple(profile)
                    profiles[profile] = profiles.get(profile, 0.0) + weight * abs(amp) ** 2
                    continue
            self.contracted += weight * self._contract(branch, terms)

    def _row(self, branch: _Branch, arm: int, local: tuple) -> tuple:
        """((first, second) firing probabilities, smallest analyzed amplitude)
        of one arm for a unit amplitude in one local occupation."""
        if self.angles is None:
            return _firing(sum(local[0::2]), sum(local[1::2]), branch.miss), 1.0
        theta = self.angles[arm]
        columns = [
            branch.column(arm, t, theta, local[t], local[t + 1])
            for t in range(0, len(local), 2)
            if local[t] + local[t + 1]
        ]
        total = sum(local)
        first = second = 0.0
        for outs in itertools.product(*(col.items() for col in columns)):
            plus = sum(p for p, _ in outs)
            w = abs(math.prod(a for _, a in outs)) ** 2
            f_first, f_second = _firing(plus, total - plus, branch.miss)
            first += w * f_first
            second += w * f_second
        floor = math.prod(min(abs(a) for a in col.values()) for col in columns)
        return (first, second), floor

    def _contract(self, branch: _Branch, terms) -> np.ndarray:
        """Accepted-pattern vector of one coherence class: [(local, amp)]
        sharing their photon numbers per slot.

        The analyzers act slot by slot in element order, and analyzed
        amplitudes at or below fock.PRUNE_EPS are dropped after each, as
        apply_element drops them.
        """
        first = terms[0][0]
        slots = [
            (a, t, local[t] + local[t + 1])
            for a, local in enumerate(first)
            for t in range(0, len(local), 2)
            if local[t] + local[t + 1]
        ]
        amps = np.zeros([n + 1 for _, _, n in slots], dtype=complex)
        for local, amp in terms:
            amps[tuple(local[a][t] for a, t, _ in slots)] = amp
        for axis, (a, t, n) in enumerate(slots):
            u = np.zeros((n + 1, n + 1), dtype=complex)
            for h in range(n + 1):
                for p, c in branch.column(a, t, self.angles[a], h, n - h).items():
                    u[p, h] = c
            amps = np.moveaxis(np.tensordot(u, amps, axes=([1], [axis])), 0, axis)
            amps[np.abs(amps) <= PRUNE_EPS] = 0.0
        prob = np.abs(amps) ** 2
        per_arm = [tuple(n for b, _, n in slots if b == a) for a in range(len(first))]
        prob = prob.reshape([math.prod(n + 1 for n in ns) for ns in per_arm])
        for ns in per_arm:
            prob = np.tensordot(prob, branch.weights(ns), axes=([0], [0]))
        return prob.ravel(order="F")

    def vector(self) -> np.ndarray:
        """The summed vector: the profiles expanded into the contracted
        classes' sum, in place, so called once after the last add."""
        n_arms = self.n_arms
        vector = self.contracted
        rows = np.array(list(self.profiles)).reshape(-1, n_arms, 2)
        weights = np.fromiter(self.profiles.values(), float, len(self.profiles))
        # a block of profiles at a time keeps the expanded rows small
        for start in range(0, len(rows), _PROFILE_BLOCK):
            prob = weights[start : start + _PROFILE_BLOCK, None]
            block = rows[start : start + _PROFILE_BLOCK]
            for a in reversed(range(n_arms)):
                prob = (prob[:, :, None] * block[:, a, None, :]).reshape(len(block), -1)
            vector += prob.sum(axis=0)
        return vector


def _pattern_vectors(apparatus: Apparatus, members, settings) -> list:
    """Per-pulse probabilities of the 2^n accepted patterns under each
    setting, summed over one stream of (weight, terms, branch) members.

    Only terms with a photon in every arm can fire every arm. They are
    grouped into coherence classes, the terms an analyzer can mix: at a
    rotated setting the terms with equal photon numbers per (arm, tag)
    slot, at HV each term alone. Neither the supported terms nor the
    classes depend on the angles, so each member is split once and only
    the analyzer and detector reduction (one _PatternSum per setting)
    runs per setting.

    The vectors are indexed with the first arm varying fastest, the
    reverse of the order all_detection_patterns labels. This is a known
    defect kept so that recorded benchmark distributions still match.
    """
    sums = [_PatternSum(apparatus.n_arms, setting.angles) for setting in settings]
    hv = [s for s in sums if s.angles is None]
    rotated = [s for s in sums if s.angles is not None]
    for weight, terms, branch in members:
        supported = branch.supported(terms)
        if hv:
            singles = [[term] for term in supported]
            for s in hv:
                s.add(branch, weight, singles)
        if rotated:
            classes: dict = {}
            for term in supported:
                key = tuple([tuple(map(operator.add, a[0::2], a[1::2])) for a in term[0]])
                classes.setdefault(key, []).append(term)
            grouped = list(classes.values())
            for s in rotated:
                s.add(branch, weight, grouped)
    return [s.vector() for s in sums]


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
        patterns = (
            counts
            for order in range(apparatus.truncation_pairs + 1)
            for counts in admitted_patterns(apparatus.topology, order)
        )
        members = _members(apparatus, patterns)
        vectors = _pattern_vectors(apparatus, members, list(todo.values()))
        for (key, setting), vector in zip(todo.items(), vectors):
            patterns = _detection_patterns(apparatus.n_arms, setting.symbols)
            # keys are shared by every distribution of this shape, and exact
            # zeros (254 of the 256 HV patterns of the default star) share one
            # 0.0, so callers that keep many distributions keep them small
            cache[key] = {pat: v or 0.0 for pat, v in zip(patterns, vector.tolist())}
    return [dict(cache[(s.label, s.angles)]) for s in settings]


def absolute_outcome_distribution(
    apparatus: Apparatus, setting: MeasurementSetting
) -> dict:
    """Per-pulse probability of each accepted pattern, before conditioning.

    Patterns where some arm fires both detectors or none are discarded by
    construction, so the values sum to the total accepted probability.
    """
    (distribution,) = absolute_outcome_distributions(apparatus, [setting])
    return distribution


def _accepted_distribution(apparatus: Apparatus, setting: MeasurementSetting):
    """The absolute distribution and its total; raises when the
    apparatus accepts nothing, so no run plan reads as zero events."""
    absolute = absolute_outcome_distribution(apparatus, setting)
    total = sum(absolute.values())
    if total <= 0.0:
        raise ValueError("no accepted coincidences under this truncation")
    return absolute, total


def outcome_distribution(apparatus: Apparatus, setting: MeasurementSetting) -> dict:
    """Conditional distribution over patterns given an accepted event."""
    absolute, total = _accepted_distribution(apparatus, setting)
    return {pat: p / total for pat, p in absolute.items()}


def emission_pattern_probability(apparatus: Apparatus, pairs_per_source) -> float:
    """Accepted probability contributed by one emission pattern alone.

    Takes no counting shortcut: the pattern's state goes through the
    compiled fusion optics and detectors whether or not a quick occupancy
    argument would admit it, so the result is an independent check on the
    enumeration in the topology module.
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
    dist = outcome_distribution(apparatus, k_setting(0, apparatus.n_arms))
    return sum(((-1) ** pat.count("-")) * p for pat, p in dist.items())


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
    shows parity visibility target, V(g) = a(g)/c(g), a and c linear in g."""
    ends = []
    for app in (replace(apparatus, **{overlap: g}) for g in (0.0, 1.0)):
        accepted = absolute_outcome_distribution(app, k_setting(0, app.n_arms))
        ends.append((parity_visibility(app), sum(accepted.values())))
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
    a(g) = target * c(g) is solved from the apparatus at g = 0 and 1. A
    target outside [V(0), V(1)] raises.
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
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    absolute, _ = _accepted_distribution(apparatus, setting)
    stream = np.random.SeedSequence([seed, zlib.crc32(setting.label.encode())])
    rng = np.random.default_rng(stream)
    counts = {}
    for pat, p in absolute.items():
        mean = apparatus.repetition_rate_hz * p * duration_s
        counts[pat] = int(rng.poisson(mean))
    return CoincidenceHistogram(
        setting=setting, counts=counts, duration_s=float(duration_s), seed=seed
    )


# ---- Histogram files ----


def histogram_to_lines(hist: CoincidenceHistogram) -> list:
    """Header 'setting,duration,seed', with ',exact' appended for an exact
    histogram, then one 'pattern,count' per line."""
    flag = ",exact" if hist.exact else ""
    lines = [f"{hist.setting.label},{hist.duration_s!r},{hist.seed}{flag}"]
    for pat in sorted(hist.counts):
        lines.append(f"{pat.bits},{hist.counts[pat]}")
    return lines


def histogram_from_lines(lines) -> CoincidenceHistogram:
    lines = list(lines)
    if not lines:
        raise ValueError("empty histogram data")
    head = lines[0].split(",")
    if len(head) < 3 or head[3:] not in ([], ["exact"]):
        raise ValueError(f"bad histogram header {lines[0]!r}")
    label, duration, seed = head[:3]
    counts = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        bits, _, count = line.partition(",")
        value = float(count)
        counts[DetectionPattern(bits)] = int(value) if value.is_integer() else value
    if not counts:
        raise ValueError("histogram has no pattern rows")
    n_arms = len(next(iter(counts)).bits)
    return CoincidenceHistogram(
        setting=setting_from_label(label, n_arms),
        counts=counts,
        duration_s=float(duration),
        seed=int(seed),
        exact=len(head) == 4,
    )

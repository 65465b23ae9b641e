"""Whole-apparatus simulation: sources into fusions into detectors.

Builds the multi-source interferometer over tagged modes, propagates a
classical ensemble of amplitude states through the fusion splitters and
analyzers, and turns the result into exact outcome probabilities or
Poisson-sampled coincidence histograms.

Imperfect interference enters as two scalar overlaps. The synthesizer
overlap dephases each source's two emission processes against each
other; the fusion overlap splits the run into a branch where photons
from different sources interfere at the splitters and a branch where
every photon keeps a mark identifying its source. Weights multiply, so
any cross-source coherence in the output carries the product of all the
overlaps involved.
"""

from __future__ import annotations

import functools
import itertools
import math
import typing
import zlib
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig, config_topology
from .elements import (
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
    map_modes,
    registry_from,
    tensor_product,
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


def angle_setting(angles, label: str = "custom") -> MeasurementSetting:
    return MeasurementSetting(label, tuple(angles))


def setting_from_label(label: str, n_arms: int = 8) -> MeasurementSetting:
    if label == "HV":
        return hv_setting()
    if label.startswith("k") and label[1:].isdigit():
        return k_setting(int(label[1:]), n_arms)
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
    first, second = symbols
    out = []
    for i in range(2**n_arms):
        bits = "".join(
            second if (i >> (n_arms - 1 - j)) & 1 else first for j in range(n_arms)
        )
        out.append(DetectionPattern(bits))
    return out


@dataclass(frozen=True)
class CoincidenceHistogram:
    setting: MeasurementSetting
    counts: dict
    duration_s: float
    seed: int

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
    """The assembled interferometer plus its detection parameters.

    registry holds the tagged source modes (8 per source). The fusion
    and compensation optics are kept both over plain arm/polarization
    modes (interfering branch) and over source-marked modes (the
    distinguishable branch); both describe the same physical elements.
    """

    topology: FusionTopology
    sources: tuple
    fusion_overlap: float
    detector_efficiency: float
    repetition_rate_hz: float
    truncation_pairs: int
    registry: ModeRegistry
    output_arms: tuple
    compensator_phase: float
    fusion_elements: tuple
    plain_registry: ModeRegistry = field(repr=False)
    marked_registry: ModeRegistry = field(repr=False)
    marked_fusion_elements: tuple = field(repr=False)
    compensator_elements: tuple = field(repr=False)
    marked_compensator_elements: tuple = field(repr=False)
    # memo for computed outcome distributions; keyed by setting
    _distribution_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def n_arms(self) -> int:
        return len(self.output_arms)

    @property
    def n_detectors(self) -> int:
        return 2 * self.n_arms


def _fusion_elements(registry, edges, tags) -> tuple:
    els = []
    for x, y in edges:
        for tag in tags:
            labels = [ModeLabel(a, pol, tag) for a in (x, y) for pol in ("H", "V")]
            els.append(element_on(registry, labels, pbs_matrix(), f"fuse-{x}-{y}"))
    return tuple(els)


def _phase_elements(registry, arm, phase, tags) -> tuple:
    return tuple(
        element_on(
            registry,
            [ModeLabel(arm, "V", tag)],
            phase_matrix(phase),
            f"compensator-{arm}",
        )
        for tag in tags
    )


def _arm_groups(registry, output_arms):
    """Per arm: (indices of H-labeled modes, indices of V-labeled modes)."""
    groups = []
    for arm in output_arms:
        h = [i for i, lab in enumerate(registry) if lab.arm == arm and lab.pol == "H"]
        v = [i for i, lab in enumerate(registry) if lab.arm == arm and lab.pol == "V"]
        groups.append((tuple(h), tuple(v)))
    return tuple(groups)


def _compensator_phase(topology: FusionTopology) -> float:
    """Phase that realigns the all-V fused amplitude with the all-H one.

    Exact from the wiring alone: every source emits HH and VV in phase,
    a polarizing splitter passes H untouched and reflects V with phase i,
    and in the one-photon-per-arm all-V term each splitter reflects one V
    photon from each of its two arms. So the all-V amplitude trails the
    all-H one by (-1)^(number of fusions); the compensator plate on the
    first arm's V modes cancels that.
    """
    return math.pi if len(topology.fusion_edges) % 2 else 0.0


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
    if not 0.0 <= fusion_overlap <= 1.0:
        raise ValueError("fusion_overlap must lie in [0, 1]")
    if not 0.0 < detector_efficiency <= 1.0:
        raise ValueError("detector_efficiency must lie in (0, 1]")
    if repetition_rate_hz <= 0:
        raise ValueError("repetition rate must be positive")
    total = truncation_pairs if truncation_pairs is not None else topology.n_sources
    if total < 1:
        raise ValueError("truncation_pairs must be at least 1")
    sources = tuple(
        PdcSource(
            arm_a=arm_a,
            arm_b=arm_b,
            pair_amplitude=math.sqrt(pair_probability),
            spectral_overlap=synthesizer_overlap,
            truncation_pairs=total,
        )
        for arm_a, arm_b in topology.sources
    )
    registry = registry_from([lab for s in sources for lab in source_mode_labels(s)])
    output_arms = tuple(sorted(arm for pair in topology.sources for arm in pair))
    plain_registry = registry_from(
        [ModeLabel(arm, pol, "") for arm in output_arms for pol in ("H", "V")]
    )
    marks = tuple(f"m{i + 1}" for i in range(len(sources)))
    marked_registry = registry_from(
        [
            ModeLabel(arm, pol, mark)
            for arm in output_arms
            for pol in ("H", "V")
            for mark in marks
        ]
    )
    fusion_elements = _fusion_elements(plain_registry, topology.fusion_edges, ("",))
    marked_fusion = _fusion_elements(marked_registry, topology.fusion_edges, marks)
    phase = _compensator_phase(topology)
    first_arm = output_arms[0]
    return Apparatus(
        topology=topology,
        sources=sources,
        fusion_overlap=fusion_overlap,
        detector_efficiency=detector_efficiency,
        repetition_rate_hz=repetition_rate_hz,
        truncation_pairs=total,
        registry=registry,
        output_arms=output_arms,
        compensator_phase=phase,
        fusion_elements=fusion_elements,
        plain_registry=plain_registry,
        marked_registry=marked_registry,
        marked_fusion_elements=marked_fusion,
        compensator_elements=_phase_elements(plain_registry, first_arm, phase, ("",)),
        marked_compensator_elements=_phase_elements(
            marked_registry, first_arm, phase, marks
        ),
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


# ---- Ensemble assembly ----


def _relabel_to(apparatus: Apparatus, state: AmplitudeState, marked: bool):
    own = {}
    mark = {}
    for i, source in enumerate(apparatus.sources):
        own[source.arm_a] = TAG_NARROW
        own[source.arm_b] = TAG_BROAD
        mark[source.arm_a] = mark[source.arm_b] = f"m{i + 1}"
    if marked:
        registry = apparatus.marked_registry
        relabel = lambda lab: (
            ModeLabel(lab.arm, lab.pol, mark[lab.arm])
            if lab.tag == own.get(lab.arm)
            else None
        )
    else:
        registry = apparatus.plain_registry
        relabel = lambda lab: (
            ModeLabel(lab.arm, lab.pol, "") if lab.tag == own.get(lab.arm) else None
        )
    return map_modes(state, registry, relabel)


def _members_for_pattern(apparatus: Apparatus, counts):
    """Yield (weight, state, marked?) members of one emission pattern after
    fusion and compensation.

    The weight of a member is the product of its per-source ensemble
    weights and the fusion-branch weight; states are unnormalized, so a
    member's accepted probability is weight times the detection value of
    its amplitudes.
    """
    gamma_f = apparatus.fusion_overlap
    cap = 2 * apparatus.truncation_pairs
    per_source = [
        source_ensemble(source, n)
        for source, n in zip(apparatus.sources, counts)
    ]
    for combo in itertools.product(*per_source):
        weight = 1.0
        for w, _ in combo:
            weight *= w
        joint = functools.reduce(
            lambda a, b: tensor_product(a, b, cap), (st for _, st in combo)
        )
        if gamma_f > 0.0:
            state = _relabel_to(apparatus, joint, marked=False)
            for el in apparatus.fusion_elements + apparatus.compensator_elements:
                state = apply_element(state, el)
            yield weight * gamma_f, state, False
        if gamma_f < 1.0:
            state = _relabel_to(apparatus, joint, marked=True)
            for el in (
                apparatus.marked_fusion_elements
                + apparatus.marked_compensator_elements
            ):
                state = apply_element(state, el)
            yield weight * (1.0 - gamma_f), state, True


def _coincidence_support(state: AmplitudeState, groups) -> AmplitudeState:
    """Drop terms with any empty arm; they can never fire all detectors."""
    kept = {
        occ: amp
        for occ, amp in state.terms.items()
        if all(sum(occ[i] for i in h) + sum(occ[i] for i in v) for h, v in groups)
    }
    return AmplitudeState(state.registry, kept, state.truncation_order)


# ---- Detection ----


def _analyzer_elements(registry, output_arms, setting: MeasurementSetting):
    if setting.angles is None:
        return ()
    tags = []
    for lab in registry:
        if lab.tag not in tags:
            tags.append(lab.tag)
    els = []
    for arm, theta in zip(output_arms, setting.angles):
        for tag in tags:
            labels = [ModeLabel(arm, "H", tag), ModeLabel(arm, "V", tag)]
            els.append(
                element_on(registry, labels, analyzer_matrix(theta), f"analyzer-{arm}")
            )
    return tuple(els)


def _detection_vector(state, weight, groups, xi, vector):
    """Accumulate accepted-pattern probabilities of one member.

    Per term, only the per-arm photon counts at the two detector ports
    matter: a port with n photons fires with probability 1-(1-xi)^n,
    independently per photon. Terms are first merged by count profile;
    distinct mode occupations never interfere in the detectors.
    """
    profiles: dict = {}
    for occ, amp in state.terms.items():
        prof = tuple(
            (sum(occ[i] for i in h), sum(occ[i] for i in v)) for h, v in groups
        )
        w = abs(amp) ** 2
        profiles[prof] = profiles.get(prof, 0.0) + w
    miss = 1.0 - xi
    for prof, w in profiles.items():
        vec = np.array([weight * w])
        for n_first, n_second in prof:
            silent_first = miss**n_first
            silent_second = miss**n_second
            f_first = (1.0 - silent_first) * silent_second
            f_second = (1.0 - silent_second) * silent_first
            vec = np.concatenate([vec * f_first, vec * f_second])
        vector += vec


def _pattern_vector(apparatus: Apparatus, members, setting: MeasurementSetting):
    """Per-pulse probabilities of the 2^n accepted patterns, summed over a
    stream of (weight, state, marked?) members, first arm slowest."""
    registries = {False: apparatus.plain_registry, True: apparatus.marked_registry}
    groups = {m: _arm_groups(reg, apparatus.output_arms) for m, reg in registries.items()}
    analyzers = {
        m: _analyzer_elements(reg, apparatus.output_arms, setting)
        for m, reg in registries.items()
    }
    vector = np.zeros(2**apparatus.n_arms)
    for weight, state, marked in members:
        state = _coincidence_support(state, groups[marked])
        if not state.terms:
            continue
        for el in analyzers[marked]:
            state = apply_element(state, el)
        _detection_vector(
            state, weight, groups[marked], apparatus.detector_efficiency, vector
        )
    return vector


def absolute_outcome_distribution(
    apparatus: Apparatus, setting: MeasurementSetting
) -> dict:
    """Per-pulse probability of each accepted pattern, before conditioning.

    Patterns where some arm fires both detectors or none are discarded by
    construction, so the values sum to the total accepted probability.
    """
    if setting.angles is not None and len(setting.angles) != apparatus.n_arms:
        raise ValueError(
            f"setting has {len(setting.angles)} angles for {apparatus.n_arms} arms"
        )
    key = (setting.label, setting.angles)
    cached = apparatus._distribution_cache.get(key)
    if cached is not None:
        return dict(cached)
    members = (
        member
        for order in range(apparatus.truncation_pairs + 1)
        for counts in admitted_patterns(apparatus.topology, order)
        for member in _members_for_pattern(apparatus, counts)
    )
    vector = _pattern_vector(apparatus, members, setting)
    patterns = all_detection_patterns(apparatus.n_arms, setting.symbols)
    result = {pat: float(v) for pat, v in zip(patterns, vector)}
    apparatus._distribution_cache[key] = result
    return dict(result)


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

    Takes no counting shortcut: the pattern's state is pushed through the
    fusion optics and detectors whether or not a quick occupancy argument
    would admit it, so the result is an independent check on the
    enumeration in the topology module.
    """
    counts = tuple(int(n) for n in pairs_per_source)
    if len(counts) != len(apparatus.sources):
        raise ValueError("pattern length does not match the source count")
    if any(n < 0 for n in counts):
        raise ValueError("negative pair count")
    if sum(counts) > apparatus.truncation_pairs:
        raise ValueError("pattern exceeds the pair truncation")
    members = _members_for_pattern(apparatus, counts)
    return float(_pattern_vector(apparatus, members, hv_setting()).sum())


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


def _synthesizer_apparatus(overlap, pair_probability, efficiency, truncation_pairs):
    return assemble_apparatus(
        single_source_topology(),
        pair_probability=pair_probability,
        synthesizer_overlap=overlap,
        detector_efficiency=efficiency,
        truncation_pairs=truncation_pairs,
    )


def _fusion_apparatus(
    fusion_overlap, synthesizer_overlap, pair_probability, efficiency, truncation_pairs
):
    return assemble_apparatus(
        star_topology(2),
        pair_probability=pair_probability,
        synthesizer_overlap=synthesizer_overlap,
        fusion_overlap=fusion_overlap,
        detector_efficiency=efficiency,
        truncation_pairs=truncation_pairs,
    )


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
        _synthesizer_apparatus(overlap, pair_probability, efficiency, truncation_pairs)
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
        _fusion_apparatus(
            fusion_overlap, synthesizer_overlap, pair_probability, efficiency,
            truncation_pairs,
        )
    )


def _solve_overlap(build, target: float) -> float:
    """The overlap g in [0, 1] at which build(g) shows parity visibility
    target, given V(g) = a(g)/c(g) with a and c linear in g."""
    ends = []
    for app in (build(0.0), build(1.0)):
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
    gs = _solve_overlap(
        lambda g: _synthesizer_apparatus(g, pair_probability, efficiency, 2),
        synthesizer_target,
    )
    gf = _solve_overlap(
        lambda g: _fusion_apparatus(g, gs, pair_probability, efficiency, 3),
        fusion_target,
    )
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
    """Header 'setting,duration,seed', then one 'pattern,count' per line."""
    lines = [f"{hist.setting.label},{hist.duration_s!r},{hist.seed}"]
    for pat in sorted(hist.counts):
        lines.append(f"{pat.bits},{hist.counts[pat]}")
    return lines


def histogram_from_lines(lines) -> CoincidenceHistogram:
    lines = list(lines)
    if not lines:
        raise ValueError("empty histogram data")
    head = lines[0].split(",")
    if len(head) != 3:
        raise ValueError(f"bad histogram header {lines[0]!r}")
    label, duration, seed = head
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
    )

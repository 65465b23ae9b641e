"""Independent reference constructions the test suite checks the library against.

None of this is on the simulation path. The simulator reads each
source's post-synthesizer ensemble in closed form, as HH/VV pair counts
over the source's four output modes (``sources.source_ensemble``), and
applies only the analyzer, splitter and phase matrices; the routes here
rebuild the same physics another way so the two can be compared:

- raw creation operators on the vacuum, for the Fock inputs of element
  tests and the operator-expansion check of ``pdc_emit``;
- tensor products and mode relabeling, which join the sources' states
  into one state over a branch's modes the generic way;
- the element-by-element synthesizer over a source's eight
  pre-synthesizer modes: ``pdc_emit`` pushed through the synthesizer
  optics must equal ``synthesized_pair_state``, whose 2n-photon sector
  is the coherent n-pair member and whose single terms are the split
  members (``ensemble_states``);
- wave-plate matrices and the plate recipe behind ``analyzer_matrix``,
  and a balanced splitter for the two-photon dip;
- the element-by-element detection engine: every member state pushed
  through the fusion, compensator and analyzer elements with
  ``apply_element`` and reduced term by term, which the compiled fusion
  map and per-arm detection of ``experiment`` must reproduce;
- the coincidence filter as a walk over H/V splits, photon counts per
  arm swapped splitter by splitter, which the arm-mask filter
  ``topology.pattern_admits_coincidence`` must agree with.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from photonfusion.elements import apply_element, element_on, pbs_matrix, phase_matrix
from photonfusion.experiment import (
    _analyzer_elements,
    all_detection_patterns,
    hv_setting,
)
from photonfusion.fock import (
    AmplitudeState,
    ModeLabel,
    ModeRegistry,
    _pruned,
    registry_from,
)
from photonfusion.sources import TAG_BROAD, TAG_NARROW, PdcSource
from photonfusion.topology import admitted_patterns


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


# ---- Fock algebra ----


def tensor_product(
    a: AmplitudeState, b: AmplitudeState, truncation: int | None = None
) -> AmplitudeState:
    """Combine states over disjoint registries into one over both.

    The combined registry lists a's modes then b's; amplitudes multiply.
    Truncation defaults to the sum of the two budgets; pass a smaller cap
    to drop high-photon-number cross terms.
    """
    shared = set(a.registry.labels) & set(b.registry.labels)
    if shared:
        raise ValueError(f"registries overlap on {sorted(shared)[:3]}")
    combined = ModeRegistry(a.registry.labels + b.registry.labels)
    trunc = a.truncation_order + b.truncation_order
    if truncation is not None:
        trunc = min(trunc, truncation)
    out: dict = {}
    for occ_a, amp_a in a.terms.items():
        base = sum(occ_a)
        if base > trunc:
            continue
        for occ_b, amp_b in b.terms.items():
            if base + sum(occ_b) > trunc:
                continue
            out[occ_a + occ_b] = amp_a * amp_b
    return AmplitudeState(combined, _pruned(out), trunc)


def map_modes(
    state: AmplitudeState, new_registry: ModeRegistry, relabel
) -> AmplitudeState:
    """Re-express a state in another registry via a label mapping.

    relabel is a callable ModeLabel -> ModeLabel. Every occupied mode must
    map to a distinct mode of the new registry; amplitudes are untouched,
    so this is a pure renaming (norms are preserved).
    """
    src = state.registry
    dest_index = [None] * len(src)
    for i, lab in enumerate(src):
        target = relabel(lab)
        if target is not None:
            dest_index[i] = new_registry.index(target)
    seen = [d for d in dest_index if d is not None]
    if len(set(seen)) != len(seen):
        raise ValueError("relabeling collapses two modes onto one")
    width = len(new_registry)
    out: dict = {}
    for occ, a in state.terms.items():
        new_occ = [0] * width
        for i, n in enumerate(occ):
            if not n:
                continue
            d = dest_index[i]
            if d is None:
                raise ValueError(f"occupied mode {src.labels[i]} has no target")
            new_occ[d] = n
        key = tuple(new_occ)
        out[key] = out.get(key, 0j) + a
    return AmplitudeState(new_registry, out, state.truncation_order)


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

# A source emits both wavepackets into both arms; the synthesizer sorts
# them, narrowband to arm_a and broadband to arm_b.
TAGS = (TAG_NARROW, TAG_BROAD)


def source_registry(source: PdcSource) -> ModeRegistry:
    """A source's eight modes before the synthesizer: arm_a then arm_b, H
    before V, narrowband before broadband."""
    return registry_from(
        ModeLabel(arm, pol, tag)
        for arm in (source.arm_a, source.arm_b)
        for pol in ("H", "V")
        for tag in TAGS
    )


# The two pair processes. The first sends the narrowband H photon to
# arm_a and the broadband V photon to arm_b; the second swaps the arms.
def _process_modes(source: PdcSource):
    t_pair = (ModeLabel(source.arm_a, "H", TAG_NARROW), ModeLabel(source.arm_b, "V", TAG_BROAD))
    r_pair = (ModeLabel(source.arm_b, "H", TAG_NARROW), ModeLabel(source.arm_a, "V", TAG_BROAD))
    return t_pair, r_pair


def _pair_exponential(source, first, second, truncation, registry) -> AmplitudeState:
    """The truncated exponential over two pair-creation operators, kept
    unnormalized: a term with i pairs of modes first and j of modes second
    has amplitude lam^(i+j), at most truncation pairs in all."""
    reg = registry if registry is not None else source_registry(source)
    idx = {lab: reg.index(lab) for lab in first + second}
    lam = source.process_amplitude
    width = len(reg)
    terms: dict = {}
    for i in range(truncation + 1):
        for j in range(truncation + 1 - i):
            occ = [0] * width
            occ[idx[first[0]]] += i
            occ[idx[first[1]]] += i
            occ[idx[second[0]]] += j
            occ[idx[second[1]]] += j
            amp = lam ** (i + j)
            if abs(amp) > 0:
                terms[tuple(occ)] = terms.get(tuple(occ), 0j) + amp
    return AmplitudeState(reg, terms, 2 * truncation)


def pdc_emit(
    source: PdcSource, truncation: int, registry: ModeRegistry | None = None
) -> AmplitudeState:
    """Multi-pair emission state before the synthesizer, unnormalized, up
    to truncation pairs.

    Terms are indexed by how many pairs each process contributed. A term
    with t pairs from one process and r from the other carries amplitude
    lam^(t+r): the exponential's 1/n! cancels against the multinomial
    count and the bosonic sqrt(n!) factors. The operator-expansion route
    in the test suite rebuilds this with raw creation operators.
    """
    return _pair_exponential(source, *_process_modes(source), truncation, registry)


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


def _pair_modes(source: PdcSource, pol: str) -> tuple:
    """The two modes of a pol-pol pair: narrowband on arm_a, broadband on arm_b."""
    return ModeLabel(source.arm_a, pol, TAG_NARROW), ModeLabel(source.arm_b, pol, TAG_BROAD)


def synthesized_pair_state(
    source: PdcSource, truncation: int, registry: ModeRegistry | None = None
) -> AmplitudeState:
    """Post-synthesizer state up to truncation pairs, constructed directly.

    The synthesizer maps the two emission processes onto HH-pair and
    VV-pair creation with unit coefficients, so the output is the
    truncated exponential over those: a term with h HH-pairs and v
    VV-pairs has amplitude lam^(h+v), narrowband photons on arm_a and
    broadband on arm_b. Must agree with pushing pdc_emit through
    synthesizer_elements; the test suite holds the two routes together.
    """
    hh, vv = _pair_modes(source, "H"), _pair_modes(source, "V")
    return _pair_exponential(source, hh, vv, truncation, registry)


def ideal_pair_state(
    source: PdcSource, truncation: int, registry: ModeRegistry | None = None
) -> AmplitudeState:
    """(|HH> + |VV>)/sqrt2 across the arms, narrowband photon on arm_a, in
    a state of truncation order 2 * truncation."""
    reg = registry if registry is not None else source_registry(source)
    c = 1 / math.sqrt(2)
    terms = {}
    for pol in ("H", "V"):
        occ = [0] * len(reg)
        for lab in _pair_modes(source, pol):
            occ[reg.index(lab)] = 1
        terms[tuple(occ)] = c + 0j
    return AmplitudeState(reg, terms, 2 * truncation)


def emission_sector(
    source: PdcSource, n_pairs: int, registry: ModeRegistry | None = None
) -> AmplitudeState:
    """Coherent n-pair sector of the synthesizer output: the 2n-photon
    terms of synthesized_pair_state, in its order (HH pairs ascending)."""
    state = synthesized_pair_state(source, n_pairs, registry)
    terms = {occ: a for occ, a in state.terms.items() if sum(occ) == 2 * n_pairs}
    return AmplitudeState(state.registry, terms, state.truncation_order)


def pair_type_sector(
    source: PdcSource, hh_pairs: int, vv_pairs: int, registry: ModeRegistry | None = None
) -> AmplitudeState:
    """The one term of emission_sector with hh_pairs HH pairs and vv_pairs
    VV pairs."""
    sector = emission_sector(source, hh_pairs + vv_pairs, registry)
    i = sector.registry.index(_pair_modes(source, "H")[0])
    terms = {occ: a for occ, a in sector.terms.items() if occ[i] == hh_pairs}
    return AmplitudeState(sector.registry, terms, sector.truncation_order)


def ensemble_states(
    source: PdcSource, n_pairs: int, registry: ModeRegistry | None = None
) -> list:
    """Reference members of one source emitting exactly n_pairs, as
    [(weight, state)]: the coherent sector with weight equal to the process
    overlap, then each of its terms alone, a definite (hh, vv) split, with
    weight (1 - overlap)."""
    sector = emission_sector(source, n_pairs, registry)
    gamma = source.spectral_overlap
    members = []
    if gamma > 0.0:
        members.append((gamma, sector))
    if gamma < 1.0:
        members.extend(
            (1.0 - gamma, AmplitudeState(sector.registry, {occ: a}, sector.truncation_order))
            for occ, a in sector.terms.items()
        )
    return members


# ---- The element-by-element detection engine ----


def relabel_to(apparatus, state: AmplitudeState, marked: bool) -> AmplitudeState:
    """A state over the tagged source modes, in one branch's registry."""
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


def members_for_pattern(apparatus, counts):
    """Yield (weight, state, marked?) members of one emission pattern, each
    state pushed through the fusion and compensator elements."""
    gamma_f = apparatus.fusion_overlap
    cap = 2 * apparatus.truncation_pairs
    per_source = [
        ensemble_states(source, n) for source, n in zip(apparatus.sources, counts)
    ]
    for combo in itertools.product(*per_source):
        weight = 1.0
        for w, _ in combo:
            weight *= w
        joint = functools.reduce(
            lambda a, b: tensor_product(a, b, cap), (st for _, st in combo)
        )
        if gamma_f > 0.0:
            state = relabel_to(apparatus, joint, marked=False)
            state = apply_all(state, apparatus.fusion_elements + apparatus.compensator_elements)
            yield weight * gamma_f, state, False
        if gamma_f < 1.0:
            state = relabel_to(apparatus, joint, marked=True)
            state = apply_all(
                state,
                apparatus.marked_fusion_elements + apparatus.marked_compensator_elements,
            )
            yield weight * (1.0 - gamma_f), state, True


def arm_groups(registry, output_arms) -> tuple:
    """Per arm: (indices of H-labeled modes, indices of V-labeled modes)."""
    groups = []
    for arm in output_arms:
        h = [i for i, lab in enumerate(registry) if lab.arm == arm and lab.pol == "H"]
        v = [i for i, lab in enumerate(registry) if lab.arm == arm and lab.pol == "V"]
        groups.append((tuple(h), tuple(v)))
    return tuple(groups)


def coincidence_support(state: AmplitudeState, groups) -> AmplitudeState:
    """Drop terms with any empty arm; they can never fire all detectors."""
    kept = {
        occ: amp
        for occ, amp in state.terms.items()
        if all(sum(occ[i] for i in h) + sum(occ[i] for i in v) for h, v in groups)
    }
    return AmplitudeState(state.registry, kept, state.truncation_order)


def detection_vector(state, weight, groups, xi, vector) -> None:
    """Accumulate accepted-pattern probabilities of one analyzed member.

    Per term, only the per-arm photon counts at the two detector ports
    matter: a port with n photons fires with probability 1-(1-xi)^n,
    independently per photon. Terms are first merged by count profile.
    """
    profiles: dict = {}
    for occ, amp in state.terms.items():
        prof = tuple(
            (sum(occ[i] for i in h), sum(occ[i] for i in v)) for h, v in groups
        )
        profiles[prof] = profiles.get(prof, 0.0) + abs(amp) ** 2
    # 1 - (1 - xi)^n as -expm1(n log1p(-xi)): 1 - xi rounds to 1 for a tiny xi
    log_miss = math.log1p(-xi) if xi < 1.0 else -math.inf

    def fires(n):
        return -math.expm1(n * log_miss) if n else 0.0

    def silent(n):
        return math.exp(n * log_miss) if n else 1.0

    for prof, w in profiles.items():
        vec = np.array([weight * w])
        for n_first, n_second in prof:
            f_first = fires(n_first) * silent(n_second)
            f_second = fires(n_second) * silent(n_first)
            vec = np.concatenate([vec * f_first, vec * f_second])
        vector += vec


def pattern_vector(apparatus, members, setting) -> np.ndarray:
    """Accepted-pattern probabilities of a stream of members from
    members_for_pattern, in the order experiment._pattern_vectors keeps."""
    registries = {False: apparatus.plain_registry, True: apparatus.marked_registry}
    groups = {m: arm_groups(reg, apparatus.output_arms) for m, reg in registries.items()}
    analyzers = {
        m: _analyzer_elements(reg, apparatus.output_arms, setting)
        for m, reg in registries.items()
    }
    vector = np.zeros(2**apparatus.n_arms)
    for weight, state, marked in members:
        state = coincidence_support(state, groups[marked])
        if not state.terms:
            continue
        state = apply_all(state, analyzers[marked])
        detection_vector(
            state, weight, groups[marked], apparatus.detector_efficiency, vector
        )
    return vector


def outcome_distribution(apparatus, setting) -> dict:
    """Reference for experiment.absolute_outcome_distribution."""
    members = (
        member
        for order in range(apparatus.truncation_pairs + 1)
        for counts in admitted_patterns(apparatus.topology, order)
        for member in members_for_pattern(apparatus, counts)
    )
    vector = pattern_vector(apparatus, members, setting)
    patterns = all_detection_patterns(apparatus.n_arms, setting.symbols)
    return {pat: float(v) for pat, v in zip(patterns, vector)}


def pattern_probability(apparatus, counts) -> float:
    """Reference for experiment.emission_pattern_probability."""
    members = members_for_pattern(apparatus, tuple(counts))
    return float(pattern_vector(apparatus, members, hv_setting()).sum())


# ---- The coincidence filter by H/V splits ----


def admits_by_splits(topology, counts) -> bool:
    """Whether some split of each source's n pairs into h all-H and n - h
    all-V pairs, h in 0..n, leaves every arm occupied. Each arm's H and V
    counts are tracked through the splitters in beam-path order: a
    splitter passes H and exchanges the two arms' V counts."""
    for split in itertools.product(*(range(n + 1) for n in counts)):
        n_h: dict = {}
        n_v: dict = {}
        for (arm_a, arm_b), n, h in zip(topology.sources, counts, split):
            n_h[arm_a] = n_h[arm_b] = h
            n_v[arm_a] = n_v[arm_b] = n - h
        for x, y in topology.fusion_edges:
            n_v[x], n_v[y] = n_v[y], n_v[x]
        if all(n_h[a] + n_v[a] for a in topology.arms):
            return True
    return False

"""Fusion network layouts and their counting rules.

Describes how two-arm pair sources are wired together by polarizing
splitters, which surplus-emission events can still sneak through the
every-arm coincidence filter, how fast accepted events accumulate, and
what entanglement graph the wiring builds.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "SHAPES",
    "FusionTopology",
    "EmissionPattern",
    "ErrorTerm",
    "RateEstimate",
    "star_topology",
    "chain_topology",
    "single_source_topology",
    "pattern_admits_coincidence",
    "admitted_patterns",
    "enumerate_error_terms",
    "n_fold_rate",
    "graph_state_edges",
    "error_terms_csv_lines",
]

SHAPES = ("chain", "star", "custom")


# ---- Layouts ----


@dataclass(frozen=True)
class FusionTopology:
    """Two-arm pair sources joined by polarizing-splitter fusions.

    sources lists (arm_a, arm_b) per source, arm_a being the arm that
    carries the narrowband photon. fusion_edges lists arm pairs in the
    order the splitters sit in the beam path; the order matters when an
    arm passes through two of them.
    """

    sources: tuple
    fusion_edges: tuple = ()
    shape: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(tuple(s) for s in self.sources))
        object.__setattr__(
            self, "fusion_edges", tuple(tuple(e) for e in self.fusion_edges)
        )
        if self.shape not in SHAPES:
            raise ValueError(f"unknown topology shape {self.shape!r}")
        if not self.sources:
            raise ValueError("topology needs at least one source")
        owner: dict = {}
        for i, pair in enumerate(self.sources):
            if len(pair) != 2 or pair[0] == pair[1]:
                raise ValueError(f"source {i} must hold two distinct arms")
            for arm in pair:
                if arm in owner:
                    raise ValueError(f"arm {arm!r} is assigned to two sources")
                owner[arm] = i
        # An edge may join a source to itself only through an earlier
        # fusion output, never directly.
        fused = set()
        for edge in self.fusion_edges:
            if len(edge) != 2 or edge[0] == edge[1]:
                raise ValueError("fusion edge must join two distinct arms")
            x, y = edge
            if x not in owner or y not in owner:
                raise ValueError(f"fusion edge ({x!r}, {y!r}) uses an unknown arm")
            if owner[x] == owner[y] and not (x in fused or y in fused):
                raise ValueError("fusion edge joins a source directly to itself")
            fused.update(edge)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def arms(self) -> tuple:
        return tuple(arm for pair in self.sources for arm in pair)

    @functools.cached_property
    def _arm_masks(self) -> tuple:
        """Per source, the arms its H photons and its V photons leave on,
        as bit masks over arms: bit i is the arm arms[i]. H passes every
        splitter; V follows the splitters' swaps in beam-path order."""
        bit = {arm: 1 << i for i, arm in enumerate(self.arms)}
        v_out = {arm: arm for arm in self.arms}  # where the V from each arm is
        for x, y in self.fusion_edges:
            v_out = {a: y if at == x else x if at == y else at for a, at in v_out.items()}
        return tuple(
            (bit[a] | bit[b], bit[v_out[a]] | bit[v_out[b]]) for a, b in self.sources
        )


def star_topology(n_sources: int = 4) -> FusionTopology:
    """Hub layout: narrowband arms fuse pairwise, then the hubs fuse.

    Four sources sit on arms 1..8 with narrowband arms 1, 4, 5, 8. The
    splitters join arms 1-4 and 5-8, and a third joins the 4 and 8
    outputs, so only narrowband photons ever interfere. Broadband arms
    2, 3, 6, 7 run straight to the analyzers.
    """
    if n_sources == 4:
        return FusionTopology(
            sources=((1, 2), (4, 3), (5, 6), (8, 7)),
            fusion_edges=((1, 4), (5, 8), (4, 8)),
            shape="star",
        )
    if n_sources == 2:
        return FusionTopology(
            sources=((1, 2), (4, 3)), fusion_edges=((1, 4),), shape="star"
        )
    raise ValueError("star layout is defined for 2 or 4 sources")


def chain_topology(n_sources: int = 4) -> FusionTopology:
    """Line layout: each splitter joins one source's broadband arm to the
    next source's narrowband arm, so every arm passes at most one splitter."""
    if n_sources < 2:
        raise ValueError("chain layout needs at least 2 sources")
    sources = tuple((2 * i + 1, 2 * i + 2) for i in range(n_sources))
    edges = tuple((2 * i + 2, 2 * i + 3) for i in range(n_sources - 1))
    return FusionTopology(sources=sources, fusion_edges=edges, shape="chain")


def single_source_topology() -> FusionTopology:
    """One source and no fusion: the output is just the entangled pair."""
    return FusionTopology(sources=((1, 2),), fusion_edges=(), shape="custom")


# ---- Emission patterns ----


def _is_integer(value) -> bool:
    """The integer rule of every integer input: an int, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class EmissionPattern:
    """How many pairs each source contributed in a single pulse."""

    pairs_per_source: tuple

    def __post_init__(self):
        counts = tuple(self.pairs_per_source)
        object.__setattr__(self, "pairs_per_source", counts)
        if any(not _is_integer(n) or n < 0 for n in counts):
            raise ValueError("pair counts must be non-negative integers")

    @property
    def order(self) -> int:
        return sum(self.pairs_per_source)

    def formatted(self) -> str:
        return "+".join(str(n) for n in self.pairs_per_source)


class ErrorTerm(NamedTuple):
    pattern: EmissionPattern
    multiplicity: int
    erroneous: bool


def pattern_admits_coincidence(topology: FusionTopology, pattern) -> bool:
    """Whether the pattern can light up every output arm at once.

    A source's n pairs split into h all-horizontal and n - h all-vertical
    pairs, loading both of its arms with h H-photons and v V-photons. A
    splitter passes H and exchanges the two arms' V photons, so a source's
    H photons stay on its own arms and its V photons end on the arms the
    composed splitter swaps take them to (FusionTopology._arm_masks). The
    pattern survives post-selection if some split leaves every arm
    occupied; losses and bucket detection only hide surplus photons, so
    they never rescue an empty arm. A source with two or more pairs can
    split mixed and load both its H and its V arms, which covers whatever
    an all-H or all-V split covers; a source with one pair loads either;
    a silent source loads nothing. So at most 2^S unions of arm masks
    decide it over S sources.
    """
    counts = (
        pattern.pairs_per_source
        if isinstance(pattern, EmissionPattern)
        else tuple(pattern)
    )
    if len(counts) != topology.n_sources:
        raise ValueError("pattern length does not match the source count")
    loaded = 0
    choices = [0]
    for (h_mask, v_mask), n in zip(topology._arm_masks, counts):
        if n >= 2:
            loaded |= h_mask | v_mask
        elif n == 1:
            choices = [c | m for c in choices for m in (h_mask, v_mask)]
    full = (1 << len(topology.arms)) - 1
    return any(loaded | c == full for c in choices)


def admitted_patterns(topology: FusionTopology, order: int) -> list:
    """Pair counts per source, totalling order, that pass the filter.

    Fewer total pairs than sources cannot occupy every arm, giving an
    empty list. Counts come out in lexicographic order, first source
    slowest.
    """
    k = topology.n_sources
    if order < k:
        return []
    return [
        counts
        for counts in _compositions(order, k)
        if pattern_admits_coincidence(topology, counts)
    ]


def _compositions(n: int, k: int):
    """The k-tuples of non-negative integers summing to n, in lexicographic
    order: the gaps between k - 1 bars placed among n + k - 1 slots."""
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, n + k - 1)))


def enumerate_error_terms(topology: FusionTopology, order: int):
    """Emission patterns of the given total order that pass the filter.

    Any pattern other than one pair per source is flagged erroneous: it
    masquerades as the wanted event once bucket detectors and losses hide
    the surplus. Each viable pattern counts once; rows come out sorted by
    pattern, largest first. A negative order raises.
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    desired = (1,) * topology.n_sources
    rows = [
        ErrorTerm(EmissionPattern(counts), 1, counts != desired)
        for counts in admitted_patterns(topology, order)
    ]
    rows.sort(key=lambda row: row.pattern.pairs_per_source, reverse=True)
    return rows


def error_terms_csv_lines(rows) -> list:
    """CSV lines for an enumeration, closed by a total-multiplicity row."""
    lines = ["pattern,multiplicity,erroneous"]
    total = 0
    for row in rows:
        total += row.multiplicity
        flag = "true" if row.erroneous else "false"
        lines.append(f"{row.pattern.formatted()},{row.multiplicity},{flag}")
    lines.append(f"total,{total},")
    return lines


# ---- Rates ----


class RateEstimate(NamedTuple):
    """Coincidence-rate prediction with its inputs echoed back."""

    rate_hz: float
    pair_probability: float
    efficiency: float
    repetition_rate_hz: float
    n_pairs: int
    success_factor: float

    @property
    def events_per_hour(self) -> float:
        return 3600.0 * self.rate_hz


def n_fold_rate(
    pair_probability: float,
    efficiency: float,
    repetition_rate_hz: float,
    n_pairs: int = 4,
    success_factor: float = 1.0,
) -> RateEstimate:
    """Accepted-coincidence rate for n simultaneous pairs.

    Every pulse must yield a pair from each source that is also collected
    and detected, hence repetition rate times (emission probability x
    efficiency)^n; success_factor folds in the fusion projection and any
    analyzer acceptance, and is an explicit input rather than a guess.
    The probabilities lie in [0, 1] and the repetition rate is positive
    and finite, as in the config; NaN fails every one of these checks.
    """
    if not (0.0 <= pair_probability <= 1.0 and 0.0 <= efficiency <= 1.0):
        raise ValueError("pair_probability and efficiency must lie in [0, 1]")
    if not 0.0 < repetition_rate_hz < math.inf:
        raise ValueError("repetition rate must be positive and finite")
    if not _is_integer(n_pairs) or n_pairs < 1:
        raise ValueError("n_pairs must be a positive integer")
    if not 0.0 < success_factor <= 1.0:
        raise ValueError("success_factor must lie in (0, 1]")
    rate = (
        repetition_rate_hz
        * (pair_probability * efficiency) ** n_pairs
        * success_factor
    )
    return RateEstimate(
        rate_hz=rate,
        pair_probability=pair_probability,
        efficiency=efficiency,
        repetition_rate_hz=repetition_rate_hz,
        n_pairs=n_pairs,
        success_factor=success_factor,
    )


# ---- Graph bookkeeping ----


def graph_state_edges(topology: FusionTopology) -> list:
    """Edges of the entanglement graph the fused output corresponds to.

    One vertex per arm: each source contributes the edge between its two
    arms, each fusion the edge between the arms it joins. The graph must
    come out connected; otherwise the output factors into independent
    pieces and no joint entangled state is produced.
    """
    edges = []
    seen = set()
    for pair in list(topology.sources) + list(topology.fusion_edges):
        edge = tuple(sorted(pair))
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)

    parent = {arm: arm for arm in topology.arms}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        parent[find(a)] = find(b)
    roots = {find(a) for a in topology.arms}
    if len(roots) > 1:
        raise ValueError(f"topology splits into {len(roots)} disconnected pieces")
    return edges

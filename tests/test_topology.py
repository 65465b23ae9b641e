"""Layout wiring, error-term counting against an exact Fock oracle, rate
arithmetic, and graph bookkeeping."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    admits_by_splits,
    apply_multinomial,
    emission_sector,
    map_modes,
    tensor_product,
)
from photonfusion.elements import element_on, pbs_matrix
from photonfusion.fock import ModeLabel, registry_from
from photonfusion.sources import TAG_BROAD, TAG_NARROW, PdcSource
from photonfusion.topology import (
    EmissionPattern,
    FusionTopology,
    admitted_patterns,
    chain_topology,
    enumerate_error_terms,
    error_terms_csv_lines,
    graph_state_edges,
    n_fold_rate,
    pattern_admits_coincidence,
    single_source_topology,
    star_topology,
)


# ---- Layout wiring ----


def test_star_layout_wiring():
    topo = star_topology()
    assert topo.shape == "star"
    assert topo.sources == ((1, 2), (4, 3), (5, 6), (8, 7))
    assert topo.fusion_edges == ((1, 4), (5, 8), (4, 8))
    # narrowband arms are exactly the fused ones
    assert {s[0] for s in topo.sources} == {1, 4, 5, 8}
    assert topo.arms == (1, 2, 4, 3, 5, 6, 8, 7)


def test_chain_layout_wiring():
    topo = chain_topology()
    assert topo.shape == "chain"
    assert topo.sources == ((1, 2), (3, 4), (5, 6), (7, 8))
    assert topo.fusion_edges == ((2, 3), (4, 5), (6, 7))
    assert {s[0] for s in topo.sources} == {1, 3, 5, 7}


def test_two_source_layouts():
    star2 = star_topology(2)
    assert star2.sources == ((1, 2), (4, 3))
    assert star2.fusion_edges == ((1, 4),)
    chain2 = chain_topology(2)
    assert chain2.sources == ((1, 2), (3, 4))
    assert chain2.fusion_edges == ((2, 3),)
    with pytest.raises(ValueError):
        star_topology(3)
    with pytest.raises(ValueError):
        chain_topology(1)


def test_layout_validation():
    with pytest.raises(ValueError, match="shape"):
        FusionTopology(sources=((1, 2),), fusion_edges=(), shape="ring")
    with pytest.raises(ValueError, match="two sources"):
        FusionTopology(sources=((1, 2), (2, 3)), fusion_edges=())
    with pytest.raises(ValueError, match="distinct arms"):
        FusionTopology(sources=((1, 1),), fusion_edges=())
    with pytest.raises(ValueError, match="unknown arm"):
        FusionTopology(sources=((1, 2),), fusion_edges=((1, 9),))
    with pytest.raises(ValueError, match="distinct arms"):
        FusionTopology(sources=((1, 2),), fusion_edges=((1, 1),))
    with pytest.raises(ValueError, match="directly to itself"):
        FusionTopology(sources=((1, 2),), fusion_edges=((1, 2),))


def test_same_source_edge_allowed_after_earlier_fusion():
    # arm 2 has been through a splitter already, so closing the loop on
    # source 0 is a fusion of outputs, not of the raw source
    topo = FusionTopology(sources=((1, 2), (3, 4)), fusion_edges=((2, 3), (1, 2)))
    assert topo.n_sources == 2


def test_emission_pattern_validation():
    pat = EmissionPattern((2, 1, 1, 1))
    assert pat.order == 5
    assert pat.formatted() == "2+1+1+1"
    with pytest.raises(ValueError):
        EmissionPattern((1, -1))
    with pytest.raises(ValueError):
        EmissionPattern((1.0, 1))
    with pytest.raises(ValueError):
        EmissionPattern((True, 1))


# ---- Exact Fock oracle for the counting rules ----


def fused_pattern_support(topology, counts) -> bool:
    """Exact-amplitude viability check, no counting shortcuts.

    Builds each source's synthesized multi-pair sector, erases the
    wavepacket tags, pushes the joint state through the fusion splitters,
    and reports whether any surviving term occupies every arm.
    """
    total = sum(counts)
    state = None
    for (arm_a, arm_b), n in zip(topology.sources, counts):
        src = PdcSource(arm_a=arm_a, arm_b=arm_b, pair_amplitude=0.4)
        piece = emission_sector(src, n)
        state = piece if state is None else tensor_product(state, piece, 2 * total)
    plain = registry_from(
        [ModeLabel(arm, pol, "") for arm in topology.arms for pol in ("H", "V")]
    )
    # after synthesis an arm carries a single wavepacket tag; erase it
    keep_tag = {}
    for arm_a, arm_b in topology.sources:
        keep_tag[arm_a] = TAG_NARROW
        keep_tag[arm_b] = TAG_BROAD
    state = map_modes(
        state,
        plain,
        lambda lab: ModeLabel(lab.arm, lab.pol, "")
        if lab.tag == keep_tag[lab.arm]
        else None,
    )
    for x, y in topology.fusion_edges:
        labels = [ModeLabel(a, pol, "") for a in (x, y) for pol in ("H", "V")]
        state = apply_multinomial(
            state, element_on(plain, labels, pbs_matrix(), f"fuse-{x}-{y}")
        )
    groups = [
        (plain.index(ModeLabel(arm, "H", "")), plain.index(ModeLabel(arm, "V", "")))
        for arm in topology.arms
    ]
    return any(
        all(occ[i] + occ[j] for i, j in groups)
        for occ, amp in state.terms.items()
        if abs(amp) > 1e-14
    )


def all_patterns(n_sources, order):
    for counts in itertools.product(range(order + 1), repeat=n_sources):
        if sum(counts) == order:
            yield counts


@pytest.mark.parametrize("make_topo", [star_topology, chain_topology])
@pytest.mark.parametrize("order", [4, 5])
def test_enumerator_matches_fock_oracle(make_topo, order):
    topo = make_topo()
    kept = {row.pattern.pairs_per_source for row in enumerate_error_terms(topo, order)}
    for counts in all_patterns(topo.n_sources, order):
        assert (counts in kept) == fused_pattern_support(topo, counts), counts


@pytest.mark.parametrize(
    "topo, most",
    [(star_topology(), 6), (chain_topology(3), 6), (star_topology(2), 6)],
    ids=["star-4", "chain-3", "star-2"],
)
def test_filter_matches_every_split_walk(topo, most):
    # arm masks decide what walking every H/V split of each source decides
    for counts in itertools.product(range(most + 1), repeat=topo.n_sources):
        assert pattern_admits_coincidence(topo, counts) == admits_by_splits(
            topo, counts
        ), counts


@st.composite
def wirings(draw):
    """A custom wiring of 1 to 5 sources on shuffled arm labels, with up
    to two splitters per source in a drawn beam-path order, so some arms
    pass through two or more splitters. A drawn edge that would join a
    source directly to itself is left out, as FusionTopology refuses it."""
    n = draw(st.integers(1, 5))
    arms = draw(st.permutations(range(1, 2 * n + 1)))
    sources = [(arms[2 * i], arms[2 * i + 1]) for i in range(n)]
    owner = {arm: i for i, pair in enumerate(sources) for arm in pair}
    edges: list = []
    fused: set = set()
    pairs = st.tuples(st.sampled_from(arms), st.sampled_from(arms))
    for x, y in draw(st.lists(pairs, max_size=2 * n)):
        if x != y and (owner[x] != owner[y] or x in fused or y in fused):
            edges.append((x, y))
            fused.update((x, y))
    return FusionTopology(tuple(sources), tuple(edges))


@st.composite
def patterns_up_to_order(draw, n_sources, most=6):
    """Pair counts per source totalling at most most pairs, and at least
    one pair fewer than sources: fewer could never occupy every arm."""
    order = draw(st.integers(max(0, n_sources - 1), most))
    counts = [0] * n_sources
    for i in draw(st.lists(st.integers(0, n_sources - 1), min_size=order, max_size=order)):
        counts[i] += 1
    return tuple(counts)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), topo=wirings())
def test_filter_matches_the_split_oracle_on_random_wirings(data, topo):
    # every pattern of at most two pairs per source, the counts the filter
    # tells apart, and drawn patterns with more pairs on one source
    small = [
        counts
        for counts in itertools.product(range(3), repeat=topo.n_sources)
        if sum(counts) <= 6
    ]
    drawn = data.draw(st.lists(patterns_up_to_order(topo.n_sources), max_size=10))
    for counts in small + drawn:
        assert pattern_admits_coincidence(topo, counts) == admits_by_splits(
            topo, counts
        ), (topo, counts)


@pytest.mark.parametrize("make_topo", [star_topology, chain_topology])
def test_admitted_patterns_in_product_order(make_topo):
    topo = make_topo()
    for order in range(9):
        expected = [
            counts
            for counts in all_patterns(topo.n_sources, order)
            if admits_by_splits(topo, counts)
        ]
        assert admitted_patterns(topo, order) == expected


def test_star_order_40_rows():
    # 12,341 compositions, each decided by at most 2^4 arm-mask unions
    rows = enumerate_error_terms(star_topology(), 40)
    assert len(rows) == 9139
    assert all(row.pattern.order == 40 and row.erroneous for row in rows)


# ---- Enumeration results ----


def test_order_below_source_count_is_empty():
    assert enumerate_error_terms(star_topology(), 3) == []
    assert enumerate_error_terms(chain_topology(), 0) == []


def test_negative_order_is_refused():
    with pytest.raises(ValueError, match="order"):
        enumerate_error_terms(star_topology(), -1)


def test_desired_order_is_the_single_clean_pattern():
    for topo in (star_topology(), chain_topology()):
        rows = enumerate_error_terms(topo, 4)
        assert len(rows) == 1
        assert rows[0].pattern.pairs_per_source == (1, 1, 1, 1)
        assert rows[0].multiplicity == 1
        assert not rows[0].erroneous


def test_star_order5_terms():
    rows = enumerate_error_terms(star_topology(), 5)
    patterns = {row.pattern.pairs_per_source for row in rows}
    assert patterns == {(2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2)}
    assert sum(row.multiplicity for row in rows) == 4
    assert all(row.erroneous for row in rows)


def test_chain_order5_terms():
    rows = enumerate_error_terms(chain_topology(), 5)
    patterns = {row.pattern.pairs_per_source for row in rows}
    assert patterns == {
        (2, 1, 1, 1),
        (1, 2, 1, 1),
        (1, 1, 2, 1),
        (1, 1, 1, 2),
        (2, 0, 2, 1),
        (1, 2, 0, 2),
    }
    assert sum(row.multiplicity for row in rows) == 6
    assert all(row.erroneous for row in rows)


def test_star_is_quieter_than_chain_at_order5():
    star_total = sum(r.multiplicity for r in enumerate_error_terms(star_topology(), 5))
    chain_total = sum(
        r.multiplicity for r in enumerate_error_terms(chain_topology(), 5)
    )
    assert star_total <= chain_total


def relabeled(patterns, perm):
    return {tuple(p[i] for i in perm) for p in patterns}


def test_chain_reversal_symmetry():
    patterns = {
        row.pattern.pairs_per_source
        for row in enumerate_error_terms(chain_topology(), 5)
    }
    assert relabeled(patterns, (3, 2, 1, 0)) == patterns


def test_star_relabeling_symmetry():
    patterns = {
        row.pattern.pairs_per_source
        for row in enumerate_error_terms(star_topology(), 5)
    }
    # swapping the two fused branches is a wiring symmetry; at this order
    # the result is invariant under every source relabeling
    assert relabeled(patterns, (2, 3, 0, 1)) == patterns
    for perm in itertools.permutations(range(4)):
        assert relabeled(patterns, perm) == patterns


def test_csv_lines_for_star_order5():
    lines = error_terms_csv_lines(enumerate_error_terms(star_topology(), 5))
    assert lines == [
        "pattern,multiplicity,erroneous",
        "2+1+1+1,1,true",
        "1+2+1+1,1,true",
        "1+1+2+1,1,true",
        "1+1+1+2,1,true",
        "total,4,",
    ]


def test_pattern_length_mismatch_raises():
    with pytest.raises(ValueError):
        pattern_admits_coincidence(star_topology(), (1, 1, 1))


# ---- Rates ----


def test_rate_matches_observed_events_per_hour():
    # pair efficiency is the square of the single-photon figure; the
    # residual projection factor near 1/8 is what the hub layout predicts
    est = n_fold_rate(0.058, 0.265**2, 76e6, n_pairs=4, success_factor=1 / 8)
    assert 8.5 <= est.events_per_hour <= 10.0
    observed = 9.0 / 3600.0
    residual = observed / n_fold_rate(0.058, 0.265**2, 76e6, 4, 1.0).rate_hz
    assert abs(8 * residual - 1) < 0.1


def test_rate_reproduces_low_brightness_benchmark():
    # with the pair yield of older sources the same arithmetic lands at a
    # rate of order 1e-5 Hz, one event every ten hours
    product = (2.8e-5 * 8 / 76e6) ** 0.25
    est = n_fold_rate(product, 1.0, 76e6, n_pairs=4, success_factor=1 / 8)
    assert est.rate_hz == pytest.approx(2.8e-5, rel=1e-6)
    assert est.events_per_hour < 0.11


def test_rate_zero_efficiency():
    assert n_fold_rate(0.058, 0.0, 76e6).rate_hz == 0.0


def test_rate_echoes_inputs():
    est = n_fold_rate(0.01, 0.1, 1e6, n_pairs=2, success_factor=0.5)
    assert est.pair_probability == 0.01
    assert est.efficiency == 0.1
    assert est.repetition_rate_hz == 1e6
    assert est.n_pairs == 2
    assert est.success_factor == 0.5
    assert est.rate_hz == pytest.approx(1e6 * (0.01 * 0.1) ** 2 * 0.5)


def test_rate_validation():
    with pytest.raises(ValueError):
        n_fold_rate(-0.1, 0.2, 1e6)
    with pytest.raises(ValueError):
        n_fold_rate(0.1, -0.2, 1e6)
    with pytest.raises(ValueError):
        n_fold_rate(0.1, 0.2, 0.0)
    with pytest.raises(ValueError):
        n_fold_rate(0.1, 0.2, 1e6, n_pairs=0)
    for n_pairs in (True, 2.0):
        with pytest.raises(ValueError, match="n_pairs"):
            n_fold_rate(0.1, 0.2, 1e6, n_pairs=n_pairs)
    with pytest.raises(ValueError):
        n_fold_rate(0.1, 0.2, 1e6, success_factor=0.0)
    with pytest.raises(ValueError):
        n_fold_rate(0.1, 0.2, 1e6, success_factor=1.5)
    # the config's ranges: probabilities in [0, 1], a positive finite
    # repetition rate, and no NaN slipping past a one-sided check
    for p, xi, rep in ((1.5, 0.2, 1e6), (0.1, 2.0, 1e6), (math.nan, 0.2, 1e6),
                       (0.1, math.nan, 1e6), (0.1, 0.2, math.inf), (0.1, 0.2, math.nan)):
        with pytest.raises(ValueError):
            n_fold_rate(p, xi, rep)


def test_rate_monotone_in_every_input():
    rng = np.random.default_rng(20260822)
    for _ in range(25):
        p, xi = rng.uniform(0.01, 0.5, size=2)
        rep = rng.uniform(1e5, 1e8)
        sf = rng.uniform(0.05, 0.95)
        n = int(rng.integers(1, 6))
        base = n_fold_rate(p, xi, rep, n, sf).rate_hz
        assert n_fold_rate(p * 1.1, xi, rep, n, sf).rate_hz > base
        assert n_fold_rate(p, xi * 1.1, rep, n, sf).rate_hz > base
        assert n_fold_rate(p, xi, rep * 1.1, n, sf).rate_hz > base
        assert n_fold_rate(p, xi, rep, n, min(sf * 1.1, 1.0)).rate_hz > base


# ---- Graph bookkeeping ----


def degrees(edges):
    deg: dict = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    return sorted(deg.values(), reverse=True)


def test_star_graph_is_a_caterpillar_tree():
    edges = graph_state_edges(star_topology())
    assert len(edges) == 7
    assert degrees(edges) == [3, 3, 2, 2, 1, 1, 1, 1]
    vertices = {v for e in edges for v in e}
    assert vertices == set(range(1, 9))


def test_chain_graph_is_a_path():
    edges = graph_state_edges(chain_topology())
    assert set(edges) == {(i, i + 1) for i in range(1, 8)}
    assert degrees(edges) == [2, 2, 2, 2, 2, 2, 1, 1]


def test_single_source_graph_is_one_bell_edge():
    assert graph_state_edges(single_source_topology()) == [(1, 2)]


def test_disconnected_topology_raises():
    topo = FusionTopology(sources=((1, 2), (3, 4)), fusion_edges=())
    with pytest.raises(ValueError, match="disconnected"):
        graph_state_edges(topo)

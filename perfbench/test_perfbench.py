"""Tests of the benchmark's own arithmetic, classification and checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from photonfusion import experiment  # noqa: E402
from photonfusion.topology import star_topology  # noqa: E402

from tracing import (  # noqa: E402
    Tracer,
    element_role,
    layer_metrics,
    registry_branch,
    self_times,
)
from workloads import distributions_match, rel_close  # noqa: E402


# ---- Self-time arithmetic ----


def test_self_times_subtract_children_on_hand_built_tree():
    spans = [
        ("root", 0.0, 10.0, -1, "op"),
        ("a", 1.0, 4.0, 0, "op"),
        ("a.child", 2.0, 3.0, 1, "op"),
        ("b", 5.0, 9.0, 0, "op"),
        ("other_root", 20.0, 21.5, -1, "op"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])


def test_self_times_merge_overlapping_children_and_clip_to_parent():
    spans = [
        ("root", 0.0, 10.0, -1, "op"),
        ("x", 1.0, 5.0, 0, "op"),
        ("y", 3.0, 7.0, 0, "op"),
        ("z", 9.0, 12.0, 0, "op"),
    ]
    # children cover [1, 7] and [9, 10]: 7 of the root's 10 seconds
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_times_of_a_slice_use_base_offset():
    spans = [
        ("early", 0.0, 1.0, -1, "op"),
        ("root", 2.0, 6.0, -1, "op"),
        ("child", 3.0, 4.0, 1, "op"),
    ]
    assert self_times(spans[1:], base=1) == pytest.approx([3.0, 1.0])


def test_layer_metrics_group_self_time_by_layer():
    spans = [
        ("cli.cmd_simulate", 0.0, 10.0, -1, "op"),
        ("experiment.assemble_apparatus", 1.0, 3.0, 0, "op"),
        ("topology.star_topology", 1.5, 2.0, 1, "op"),
        ("topology.pattern_admits_coincidence", 4.0, 4.25, 0, "op"),
    ]
    metrics = layer_metrics(spans, {"topology.patterns_checked": 1})
    assert metrics["cli.simulate.self_s"] == pytest.approx(7.75)
    assert metrics["experiment.assemble.self_s"] == pytest.approx(1.5)
    assert metrics["topology.self_s"] == pytest.approx(0.75)
    assert metrics["topology.patterns_checked"] == 1
    assert metrics["topology.patterns_admitted"] == 0


# ---- Element roles and branches ----


def _apparatus(n_sources, truncation):
    return experiment.assemble_apparatus(
        star_topology(n_sources),
        pair_probability=0.058,
        synthesizer_overlap=0.94,
        fusion_overlap=0.76,
        detector_efficiency=0.265,
        truncation_pairs=truncation,
    )


@pytest.mark.parametrize("n_sources", [2, 4])
def test_roles_and_branches_of_apparatus_elements(n_sources):
    app = _apparatus(n_sources, n_sources)
    assert {element_role(el) for el in app.fusion_elements} == {"fusion"}
    assert {element_role(el) for el in app.marked_fusion_elements} == {"fusion"}
    assert {element_role(el) for el in app.compensator_elements} == {"compensator"}
    assert {element_role(el) for el in app.marked_compensator_elements} == {"compensator"}
    setting = experiment.k_setting(0, app.n_arms)
    for registry in (app.plain_registry, app.marked_registry):
        analyzers = experiment._analyzer_elements(registry, app.output_arms, setting)
        assert len(analyzers) >= app.n_arms
        assert {element_role(el) for el in analyzers} == {"analyzer"}
    assert registry_branch(app.plain_registry) == "interfering"
    assert registry_branch(app.marked_registry) == "distinguishable"
    # the tagged source modes carry wavepacket tags, not source marks
    assert registry_branch(app.registry) == "interfering"


def _traced_counts(app, setting):
    tracer = Tracer()
    with tracer:
        experiment.absolute_outcome_distribution(app, setting)
    return tracer


def test_traced_two_source_rotated_setting_counts_every_role_and_branch():
    app = _apparatus(2, 2)
    tracer = _traced_counts(app, experiment.k_setting(0, app.n_arms))
    for role in ("fusion", "compensator", "analyzer"):
        for branch in ("interfering", "distinguishable"):
            assert tracer.counts[f"elements.{role}.{branch}.calls"] > 0, (role, branch)
    assert tracer.counts["experiment.distribution.calls"] == 1
    names = {span[0] for span in tracer.spans}
    assert "elements.analyzer.distinguishable" in names
    assert "elements.apply_element" not in names


def test_traced_four_source_hv_setting_has_no_analyzer_work():
    app = _apparatus(4, 4)
    tracer = _traced_counts(app, experiment.hv_setting())
    assert tracer.counts["elements.fusion.interfering.calls"] > 0
    assert tracer.counts["elements.fusion.distinguishable.calls"] > 0
    assert not any(k.startswith("elements.analyzer.") for k in tracer.counts)
    assert tracer.counts["topology.patterns_admitted"] == 1


def test_tracer_restores_every_binding():
    before = experiment.apply_element, experiment.assemble_apparatus
    with Tracer():
        assert experiment.apply_element is not before[0]
    assert (experiment.apply_element, experiment.assemble_apparatus) == before


# ---- Output checks ----


def test_output_check_flags_a_1e9_relative_perturbation():
    app = _apparatus(2, 2)
    dist = {
        p.bits: v
        for p, v in experiment.absolute_outcome_distribution(app, experiment.hv_setting()).items()
    }
    assert any(v > 0 for v in dist.values())
    assert distributions_match(dict(dist), dist)
    perturbed = {k: v * (1 + 1e-9) for k, v in dist.items()}
    assert not distributions_match(perturbed, dist)
    one_entry = dict(dist)
    key = max(dist, key=dist.get)
    one_entry[key] *= 1 + 1e-9
    assert not distributions_match(one_entry, dist)
    assert not distributions_match({k: dist[k] for k in list(dist)[1:]}, dist)


def test_rel_close_scalar():
    assert rel_close(0.9148936026998022, 0.9148936026998022)
    assert rel_close(1.0, 1.0 + 1e-13)
    assert not rel_close(1.0, 1.0 + 1e-9)
    assert rel_close(0.0, 0.0)
    assert not rel_close(0.0, 1e-300)

"""Tests for the command-line front end."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonfusion
from photonfusion import experiment
from photonfusion.cli import main
from photonfusion.config import (
    DetectionSettings,
    ExperimentConfig,
    OutputSettings,
    RunPlanSettings,
    SourceSettings,
    TopologySettings,
    config_to_dict,
    default_config,
    save_config,
)

PAIR_SETTINGS = ("HV", "k0", "k2", "k4", "k6")
ALL_LABELS = ("HV",) + tuple(f"k{k}" for k in range(8))


def pair_config(tmp_path, *, name="pair.json", seed=7, exact_overlaps=True,
                duration=0.001, out="out"):
    """Two-source testbed config writing into tmp_path/out."""
    overlaps = (1.0, 1.0) if exact_overlaps else (0.9, 0.8)
    cfg = ExperimentConfig(
        sources=SourceSettings(
            pair_probability=0.05,
            synthesizer_overlap=overlaps[0],
            fusion_overlap=overlaps[1],
            truncation_pairs=2,
            count=2,
        ),
        topology=TopologySettings(shape="star"),
        detection=DetectionSettings(efficiency=0.3, repetition_rate_hz=76e6),
        run=RunPlanSettings(
            settings=PAIR_SETTINGS,
            duration_hours={label: duration for label in PAIR_SETTINGS},
            seed=seed,
        ),
        output=OutputSettings(directory=str(tmp_path / out)),
    )
    path = tmp_path / name
    save_config(cfg, path)
    return path, tmp_path / out


# ---- Argument handling ----


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unknown_shape_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["topology", "ring", "--order", "4"])
    assert err.value.code == 2


def test_missing_config_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_invalid_config_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 2
    # a malformed entry is refused, not raised on
    data = config_to_dict(default_config())
    data["run"]["settings"] = [["HV"], "k0"]
    path.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(path)]) == 2


# ---- rate ----


def test_rate_defaults_reproduce_observed_rate(capsys):
    assert main(["rate"]) == 0
    out = capsys.readouterr().out
    rate = float(out.splitlines()[0].split(":")[1])
    assert abs(rate - 2.5e-3) < 0.5e-3
    per_hour = float(out.splitlines()[1].split(":")[1])
    assert 8.0 < per_hour < 10.0


def test_rate_saturates_at_repetition_rate(capsys):
    args = ["rate", "--pair-probability", "1", "--efficiency", "1",
            "--success-factor", "1"]
    assert main(args) == 0
    rate = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
    assert rate == 76e6


def test_rate_efficiency_scaling(capsys):
    rates = []
    for xi in ("0.2", "0.1"):
        assert main(["rate", "--efficiency", xi]) == 0
        rates.append(float(capsys.readouterr().out.splitlines()[0].split(":")[1]))
    assert abs(rates[0] / rates[1] - 16.0) < 1e-9


def test_rate_rejects_bad_parameters(capsys):
    assert main(["rate", "--pair-probability", "-0.1"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--efficiency", "2"),
        ("--pair-probability", "1.5"),
        ("--pair-probability", "nan"),
        ("--efficiency", "nan"),
        ("--repetition-rate-hz", "inf"),
        ("--repetition-rate-hz", "nan"),
    ],
)
def test_rate_rejects_impossible_inputs(capsys, flag, value):
    assert main(["rate", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


# ---- topology ----


def test_topology_star_order_five(tmp_path, capsys):
    assert main(["topology", "star", "--order", "5", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "topology_star_order5.csv").read_text().splitlines()
    assert lines[0] == "pattern,multiplicity,erroneous"
    assert lines[-1] == "total,4,"
    assert all(line.endswith("true") for line in lines[1:-1])


def test_topology_chain_order_five(tmp_path):
    assert main(["topology", "chain", "--order", "5", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "topology_chain_order5.csv").read_text().splitlines()
    assert lines[-1] == "total,6,"


def test_topology_star_order_four_is_signal_only(tmp_path):
    assert main(["topology", "star", "--order", "4", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "topology_star_order4.csv").read_text().splitlines()
    assert lines[1:] == ["1+1+1+1,1,false", "total,1,"]


def test_topology_negative_order_writes_nothing(tmp_path, capsys):
    assert main(["topology", "star", "--order", "-1", "--out", str(tmp_path)]) == 2
    assert "order" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_topology_custom_needs_wiring(tmp_path, capsys):
    assert main(["topology", "custom", "--order", "3"]) == 2
    cfg = ExperimentConfig(
        sources=SourceSettings(count=2, truncation_pairs=2),
        topology=TopologySettings(
            shape="custom", sources=((1, 2), (4, 3)), fusion_edges=((1, 4),)
        ),
        run=RunPlanSettings(
            settings=PAIR_SETTINGS,
            duration_hours={label: 1.0 for label in PAIR_SETTINGS},
        ),
    )
    path = tmp_path / "custom.json"
    save_config(cfg, path)
    args = ["topology", "custom", "--order", "3", "--config", str(path),
            "--out", str(tmp_path)]
    assert main(args) == 0
    lines = (tmp_path / "topology_custom_order3.csv").read_text().splitlines()
    # same wiring as the two-source star
    assert main(["topology", "star", "--order", "3", "--count", "2",
                 "--out", str(tmp_path)]) == 0
    star = (tmp_path / "topology_star_order3.csv").read_text().splitlines()
    assert lines[1:] == star[1:]


# ---- simulate ----


def test_simulate_writes_one_file_per_setting(tmp_path, capsys):
    config, out = pair_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(f"{label}.csv" for label in PAIR_SETTINGS)
    for label in PAIR_SETTINGS:
        lines = (out / f"{label}.csv").read_text().splitlines()
        assert lines[0].startswith(f"{label},")


def test_simulate_reruns_are_byte_identical(tmp_path):
    config, out = pair_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["simulate", "--config", str(config)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_simulate_seed_flag_overrides(tmp_path):
    config, out = pair_config(tmp_path, duration=2.0)
    assert main(["simulate", "--config", str(config)]) == 0
    first = (out / "HV.csv").read_bytes()
    assert main(["simulate", "--config", str(config), "--seed", "99"]) == 0
    second = (out / "HV.csv").read_bytes()
    assert first != second
    assert b",99" in second.splitlines()[0]


def test_simulate_exact_mode_writes_probabilities(tmp_path):
    config, out = pair_config(tmp_path)
    assert main(["simulate", "--config", str(config), "--exact"]) == 0
    lines = (out / "HV.csv").read_text().splitlines()
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert abs(sum(values) - 1.0) < 1e-9
    assert any(0 < v < 1 for v in values)


def test_simulate_out_flag_overrides_config(tmp_path):
    config, _ = pair_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["simulate", "--config", str(config), "--out", str(other)]) == 0
    assert (other / "HV.csv").exists()


def test_simulate_unreachable_coincidence_is_config_error(tmp_path, capsys):
    cfg = ExperimentConfig(
        sources=SourceSettings(count=2, truncation_pairs=1),
        run=RunPlanSettings(
            settings=PAIR_SETTINGS,
            duration_hours={label: 1.0 for label in PAIR_SETTINGS},
        ),
        output=OutputSettings(directory=str(tmp_path / "out")),
    )
    path = tmp_path / "thin.json"
    save_config(cfg, path)
    assert main(["simulate", "--config", str(path), "--exact"]) == 2
    assert "no accepted coincidences" in capsys.readouterr().err
    assert main(["simulate", "--config", str(path)]) == 2
    assert "no accepted coincidences" in capsys.readouterr().err


def test_exact_round_trip_on_both_sides_of_the_underflow_bound(tmp_path, capsys):
    # the default star's leading order accepts (p/2)^4 xi^8 per pulse;
    # config refuses it below 4^4 times the smallest normal float, and
    # every p it keeps simulates and analyzes
    xi = default_config().detection.efficiency
    edge = 2 * (4**4 * sys.float_info.min / xi**8) ** (1 / 4)
    data = config_to_dict(default_config())
    for name, p, code in (("kept", edge * 1.001, 0), ("refused", edge * 0.999, 2)):
        data["sources"]["pair_probability"] = p
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        out = str(tmp_path / name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(path), "--out", out, "--exact"]) == code
            if code == 0:
                assert main(["analyze", out, "--config", str(path)]) == 0
    assert "underflows float64" in capsys.readouterr().err


def test_simulate_refuses_a_run_too_short_to_record_events(tmp_path, capsys):
    cfg = ExperimentConfig(
        sources=SourceSettings(count=2, pair_probability=0.02, truncation_pairs=2),
        run=RunPlanSettings(
            settings=PAIR_SETTINGS,
            duration_hours={label: 1e-6 for label in PAIR_SETTINGS},
        ),
        output=OutputSettings(directory=str(tmp_path / "out")),
    )
    path = tmp_path / "short.json"
    save_config(cfg, path)
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "HV records no events" in err
    assert "run.duration_hours" in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("flags", [[], ["--exact"]], ids=["sampled", "exact"])
def test_simulate_assembles_the_ensemble_once_per_plan(tmp_path, monkeypatch, flags):
    # the default plan has nine settings and one admitted emission pattern
    # of four sources: one ensemble per source serves every setting
    calls = []
    ensemble = experiment.source_ensemble

    def counted(*args, **kwargs):
        calls.append(args)
        return ensemble(*args, **kwargs)

    monkeypatch.setattr(experiment, "source_ensemble", counted)
    assert main(["simulate", "--out", str(tmp_path), *flags]) == 0
    assert len(list(tmp_path.glob("*.csv"))) == 9
    assert len(calls) == 4


@pytest.mark.parametrize("count", [1, 2, 4])
def test_default_plan_fits_the_source_count(tmp_path, count):
    # a config without run.settings gets the witness plan for 2*count arms
    path = tmp_path / "config.json"
    out = tmp_path / "out"
    path.write_text(json.dumps({"sources": {"count": count}}))
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert len(list(out.glob("*.csv"))) == 1 + 2 * count
    assert main(["analyze", str(out), "--config", str(path)]) == 0


def test_analyze_reads_the_witness_plan_of_a_larger_plan(tmp_path):
    # two sources under the nine default labels: all nine are simulated and
    # written, and the witness reads HV, k0, k2, k4 and k6
    path = tmp_path / "config.json"
    out = tmp_path / "out"
    path.write_text(json.dumps({"sources": {"count": 2}, "run": {"settings": ALL_LABELS}}))
    assert main(["simulate", "--config", str(path), "--out", str(out), "--exact"]) == 0
    assert len(list(out.glob("*.csv"))) == 9
    (out / "k1.csv").unlink()
    assert main(["analyze", str(out), "--config", str(path)]) == 0
    report = json.loads((out / "witness.json").read_text())
    assert sorted(k for k in report if k.startswith("m_k_")) == [f"m_k_{k}" for k in range(4)]


WITNESS_PLANS = {1: ("HV", "k0", "k4"), 2: PAIR_SETTINGS, 4: ALL_LABELS}


@st.composite
def round_trip_configs(draw):
    count = draw(st.sampled_from((1, 2, 4)))
    witness = WITNESS_PLANS[count]
    extra = draw(st.sets(st.sampled_from(ALL_LABELS[1:])))
    labels = draw(st.permutations(witness + tuple(sorted(extra - set(witness)))))
    unit = st.floats(0.0, 1.0)
    return {
        "sources": {
            "count": count,
            "pair_probability": draw(st.floats(0.02, 0.3)),
            "synthesizer_overlap": draw(unit),
            "fusion_overlap": draw(unit),
            "truncation_pairs": draw(st.integers(count, count + 1)),
        },
        "topology": {"shape": draw(st.sampled_from(("star", "chain")))},
        "detection": {"efficiency": draw(st.floats(0.3, 1.0))},
        # long enough that every sampled histogram holds events: simulate
        # refuses a run in which some setting records none
        "run": {"settings": labels, "duration_hours": {lab: 1000.0 for lab in labels}},
    }


@settings(max_examples=25, deadline=None)
@given(data=round_trip_configs(), exact_p=st.floats(-12.0, math.log10(0.3)))
def test_every_valid_config_round_trips(data, exact_p):
    # the exact run takes any validated pair probability, drawn
    # log-uniformly down to 1e-12; the sampled run keeps a bright one, as
    # a dim run records no events
    exact = json.loads(json.dumps(data))
    exact["sources"]["pair_probability"] = 10.0**exact_p
    with tempfile.TemporaryDirectory() as tmp:
        for name, config, flags in (("sampled", data, []), ("exact", exact, ["--exact"])):
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(config))
            out = str(Path(tmp) / name)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["simulate", "--config", str(path), "--out", out, *flags]) == 0
                assert main(["analyze", out, "--config", str(path)]) == 0


# ---- analyze ----


def test_analyze_missing_files_enumerated(tmp_path, capsys):
    config, out = pair_config(tmp_path)
    out.mkdir()
    assert main(["analyze", str(out), "--config", str(config)]) == 3
    err = capsys.readouterr().err
    for label in PAIR_SETTINGS:
        assert f"{label}.csv" in err


def test_analyze_corrupt_histogram(tmp_path, capsys):
    config, out = pair_config(tmp_path)
    assert main(["simulate", "--config", str(config)]) == 0
    (out / "k2.csv").write_text("garbage\n")
    assert main(["analyze", str(out), "--config", str(config)]) == 3
    assert "k2.csv" in capsys.readouterr().err
    # a non-finite count is as corrupt as a malformed row
    assert main(["simulate", "--config", str(config)]) == 0
    lines = (out / "k4.csv").read_text().splitlines()
    lines[1] = lines[1].split(",")[0] + ",inf"
    (out / "k4.csv").write_text("\n".join(lines) + "\n")
    assert main(["analyze", str(out), "--config", str(config)]) == 3
    assert "k4.csv" in capsys.readouterr().err


def test_exact_pipeline_closes_at_unit_fidelity(tmp_path, capsys):
    config, out = pair_config(tmp_path)
    assert main(["simulate", "--config", str(config), "--exact"]) == 0
    assert main(["analyze", str(out), "--config", str(config)]) == 0
    report = json.loads((out / "witness.json").read_text())
    assert abs(report["fidelity"] - 1.0) < 1e-9
    assert report["entangled"] is True
    rows = (out / "fig3a.csv").read_text().splitlines()
    assert rows[0] == "pattern,count"
    assert len(rows) == 1 + 2**4
    rows = (out / "fig3b.csv").read_text().splitlines()
    assert rows[0] == "k,signed_expectation,sigma"
    assert len(rows) == 1 + 4
    for row in rows[1:]:
        assert abs(float(row.split(",")[1]) - 1.0) < 1e-9


def test_noisy_pipeline_reports_diluted_fidelity(tmp_path):
    config, out = pair_config(tmp_path, exact_overlaps=False)
    assert main(["simulate", "--config", str(config), "--exact"]) == 0
    assert main(["analyze", str(out), "--config", str(config)]) == 0
    report = json.loads((out / "witness.json").read_text())
    # population term pinned at 1/2, correlations carry the overlap product
    expected = 0.5 + 0.5 * (0.8 * 0.9**2)
    assert abs(report["fidelity"] - expected) < 1e-6
    # exact probabilities carry no counting error
    assert report["sigma"] == 0.0
    assert report["significance_unbounded"] is True


def test_analyze_outputs_are_deterministic(tmp_path):
    config, out = pair_config(tmp_path, duration=2.0)
    assert main(["simulate", "--config", str(config)]) == 0
    assert main(["analyze", str(out), "--config", str(config)]) == 0
    first = {n: (out / n).read_bytes() for n in ("witness.json", "fig3a.csv", "fig3b.csv")}
    assert main(["analyze", str(out), "--config", str(config)]) == 0
    second = {n: (out / n).read_bytes() for n in ("witness.json", "fig3a.csv", "fig3b.csv")}
    assert first == second


def test_analyze_respects_output_formats(tmp_path):
    config, out = pair_config(tmp_path)
    cfg_data = json.loads(config.read_text())
    cfg_data["output"]["formats"] = ["json"]
    config.write_text(json.dumps(cfg_data))
    assert main(["simulate", "--config", str(config), "--exact"]) == 0
    assert main(["analyze", str(out), "--config", str(config)]) == 0
    assert (out / "witness.json").exists()
    assert not (out / "fig3a.csv").exists()


def test_witness_json_has_fixed_keys(tmp_path):
    config, out = pair_config(tmp_path, duration=2.0)
    assert main(["simulate", "--config", str(config)]) == 0
    assert main(["analyze", str(out), "--config", str(config)]) == 0
    report = json.loads((out / "witness.json").read_text())
    for key in ("population_term", "fidelity", "sigma", "significance",
                "m_k_0", "m_k_1", "m_k_2", "m_k_3"):
        assert key in report


def child_env():
    """Environment for a child interpreter that imports the same package
    the tests import, installed or not."""
    src = str(Path(photonfusion.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


LIGHT_COMMANDS = """
import sys
import photonfusion, photonfusion.cli
from photonfusion.config import load_config
run, config, out = sys.argv[1:]
load_config(config)
main = photonfusion.cli.main
assert main(["analyze", run, "--config", config]) == 0
assert main(["rate"]) == 0
assert main(["topology", "star", "--order", "5", "--out", out]) == 0
loaded = sorted({"numpy", "photonfusion.experiment"} & set(sys.modules))
assert not loaded, loaded
assert callable(photonfusion.build_apparatus)
assert "numpy" in sys.modules
"""


def test_light_commands_never_load_numpy(tmp_path):
    # analyze, rate and topology read records and counting rules only; the
    # engine (and numpy) loads when a package name of it is first used
    config = tmp_path / "config.json"
    save_config(default_config(), config)
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(run)]) == 0
    proc = subprocess.run(
        [sys.executable, "-c", LIGHT_COMMANDS, str(run), str(config), str(tmp_path / "topo")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (run / "witness.json").exists()
    assert (tmp_path / "topo" / "topology_star_order5.csv").exists()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "photonfusion.cli", "rate"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("rate_hz:")

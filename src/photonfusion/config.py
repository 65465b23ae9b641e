"""Run configuration: strict, human-editable JSON with units in key names.

Unknown keys are rejected and every numeric range is checked on load, so
a config that validates describes exactly one reproducible run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .topology import (
    SHAPES,
    FusionTopology,
    chain_topology,
    single_source_topology,
    star_topology,
)

__all__ = [
    "ConfigError",
    "SourceSettings",
    "TopologySettings",
    "DetectionSettings",
    "RunPlanSettings",
    "OutputSettings",
    "ExperimentConfig",
    "SETTING_LABELS",
    "default_config",
    "config_topology",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "save_config",
]

SETTING_LABELS = ("HV",) + tuple(f"k{k}" for k in range(8))

DEFAULT_DURATIONS = {"HV": 40.0, "k0": 25.0}
DEFAULT_DURATIONS.update({f"k{k}": 15.0 for k in range(1, 8)})


class ConfigError(ValueError):
    """Validation failure carrying the full list of offending entries."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("invalid config: " + "; ".join(self.problems))


@dataclass(frozen=True)
class SourceSettings:
    pair_probability: float = 0.058
    synthesizer_overlap: float = 0.94
    fusion_overlap: float = 0.76
    truncation_pairs: int = 4
    count: int = 4


@dataclass(frozen=True)
class TopologySettings:
    shape: str = "star"
    # populated only for shape == "custom"
    sources: tuple = ()
    fusion_edges: tuple = ()


@dataclass(frozen=True)
class DetectionSettings:
    efficiency: float = 0.265
    repetition_rate_hz: float = 76e6


@dataclass(frozen=True)
class RunPlanSettings:
    settings: tuple = SETTING_LABELS
    duration_hours: dict = field(default_factory=lambda: dict(DEFAULT_DURATIONS))
    seed: int = 1


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "runs"
    formats: tuple = ("csv", "json")


@dataclass(frozen=True)
class ExperimentConfig:
    sources: SourceSettings = field(default_factory=SourceSettings)
    topology: TopologySettings = field(default_factory=TopologySettings)
    detection: DetectionSettings = field(default_factory=DetectionSettings)
    run: RunPlanSettings = field(default_factory=RunPlanSettings)
    output: OutputSettings = field(default_factory=OutputSettings)


def _witness_plan(n_arms: int) -> tuple:
    """The run plan of the n-arm witness: HV, then the rotated settings at
    angles j*pi/n for j < n, each named by its k label (k*pi/8). A run
    plan must hold it; analyze reads exactly these settings."""
    return ("HV",) + tuple(f"k{8 * j // n_arms}" for j in range(n_arms))


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def config_topology(config: ExperimentConfig) -> FusionTopology:
    """The fusion layout a config describes: its custom wiring, or the
    named shape at the configured source count (one source: no fusion)."""
    shape = config.topology.shape
    count = config.sources.count
    if shape == "custom":
        return FusionTopology(config.topology.sources, config.topology.fusion_edges, "custom")
    if count == 1:
        return single_source_topology()
    if shape == "star":
        return star_topology(count)
    return chain_topology(count)


# ---- Parsing ----


def _take(data: dict, where: str, allowed, problems: list) -> dict:
    extra = sorted(set(data) - set(allowed))
    for key in extra:
        problems.append(f"unknown key {where}.{key}")
    return {k: v for k, v in data.items() if k in allowed}


def _number(data, key, where, problems, lo=None, hi=None, default=None):
    if key not in data:
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{where}.{key} must be a number")
        return default
    value = float(value)
    if lo is not None and value < lo or hi is not None and value > hi:
        problems.append(f"{where}.{key}={value} outside [{lo}, {hi}]")
        return default
    return value


def _integer(data, key, where, problems, lo=None, default=None):
    if key not in data:
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{where}.{key} must be an integer")
        return default
    if lo is not None and value < lo:
        problems.append(f"{where}.{key}={value} below {lo}")
        return default
    return value


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config, collecting every problem before failing."""
    problems: list = []
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a mapping"])
    top = _take(
        data, "config", ("sources", "topology", "detection", "run", "output"), problems
    )
    for section, value in top.items():
        if not isinstance(value, dict):
            problems.append(f"config.{section} must be a mapping")
    top = {k: v for k, v in top.items() if isinstance(v, dict)}

    src_d = _take(
        top.get("sources", {}),
        "sources",
        (
            "pair_probability",
            "synthesizer_overlap",
            "fusion_overlap",
            "truncation_pairs",
            "count",
        ),
        problems,
    )
    base = SourceSettings()
    sources = SourceSettings(
        pair_probability=_number(
            src_d, "pair_probability", "sources", problems, 0.0, 1.0, base.pair_probability
        ),
        synthesizer_overlap=_number(
            src_d, "synthesizer_overlap", "sources", problems, 0.0, 1.0, base.synthesizer_overlap
        ),
        fusion_overlap=_number(
            src_d, "fusion_overlap", "sources", problems, 0.0, 1.0, base.fusion_overlap
        ),
        truncation_pairs=_integer(
            src_d, "truncation_pairs", "sources", problems, 1, base.truncation_pairs
        ),
        count=_integer(src_d, "count", "sources", problems, 1, base.count),
    )
    count_ok = sources.count in (1, 2, 4)
    if not count_ok:
        problems.append(f"sources.count={sources.count} must be 1, 2, or 4")
    # every arm must see a photon, and a pair feeds two arms
    elif sources.truncation_pairs < sources.count:
        problems.append(
            f"sources.truncation_pairs={sources.truncation_pairs} below "
            f"sources.count={sources.count}: no accepted coincidences, as "
            f"{2 * sources.count} arms need at least {sources.count} pairs"
        )
    if sources.pair_probability == 0.0:
        problems.append("sources.pair_probability=0 gives no accepted coincidences")

    topo_d = _take(
        top.get("topology", {}), "topology", ("shape", "sources", "fusion_edges"), problems
    )
    shape = topo_d.get("shape", TopologySettings().shape)
    if shape not in SHAPES:
        problems.append(f"topology.shape={shape!r} not one of {SHAPES}")
        shape = "star"
    def _pair_list(key):
        raw = topo_d.get(key, ())
        try:
            return tuple(tuple(entry) for entry in raw)
        except TypeError:
            problems.append(f"topology.{key} must be a list of arm pairs")
            return ()

    custom_sources = _pair_list("sources")
    custom_edges = _pair_list("fusion_edges")
    if shape == "custom":
        try:
            wired = FusionTopology(custom_sources, custom_edges, "custom").n_sources
        except ValueError as exc:
            problems.append(f"topology: {exc}")
        else:
            if wired != sources.count:
                problems.append(
                    f"sources.count={sources.count} but topology lists {wired} sources"
                )
    elif custom_sources or custom_edges:
        problems.append("topology.sources/fusion_edges are only for shape=custom")
    topology = TopologySettings(shape=shape, sources=custom_sources, fusion_edges=custom_edges)

    det_d = _take(
        top.get("detection", {}), "detection", ("efficiency", "repetition_rate_hz"), problems
    )
    det_base = DetectionSettings()
    detection = DetectionSettings(
        efficiency=_number(det_d, "efficiency", "detection", problems, 0.0, 1.0, det_base.efficiency),
        repetition_rate_hz=_number(
            det_d, "repetition_rate_hz", "detection", problems, 0.0, None, det_base.repetition_rate_hz
        ),
    )
    if detection.efficiency == 0.0:
        problems.append("detection.efficiency must be positive")
    if detection.repetition_rate_hz == 0.0:
        problems.append("detection.repetition_rate_hz must be positive")

    run_d = _take(
        top.get("run", {}), "run", ("settings", "duration_hours", "seed"), problems
    )
    run_base = RunPlanSettings()
    labels = run_d.get("settings", _witness_plan(2 * sources.count))
    if not isinstance(labels, (list, tuple)) or not labels:
        problems.append("run.settings must be a non-empty list")
        labels = run_base.settings
    labels = tuple(labels)
    for label in labels:
        if label not in SETTING_LABELS:
            problems.append(f"run.settings entry {label!r} not one of {SETTING_LABELS}")
    if len(set(labels)) != len(labels):
        problems.append("run.settings has duplicates")
    if count_ok:
        witness = _witness_plan(2 * sources.count)
        lacking = [label for label in witness if label not in labels]
        if lacking:
            problems.append(
                f"run.settings lacks {', '.join(lacking)} of the witness plan "
                f"{', '.join(witness)} that analyze reads"
            )
    durations = run_d.get("duration_hours", dict(DEFAULT_DURATIONS))
    if not isinstance(durations, dict):
        problems.append("run.duration_hours must be a mapping")
        durations = dict(DEFAULT_DURATIONS)
    clean_durations = {}
    for label, hours in durations.items():
        if isinstance(hours, bool) or not isinstance(hours, (int, float)) or hours <= 0:
            problems.append(f"run.duration_hours[{label!r}] must be a positive number")
        else:
            clean_durations[label] = float(hours)
    for label in labels:
        if label in SETTING_LABELS and label not in clean_durations:
            problems.append(f"run.duration_hours missing entry for {label!r}")
    run = RunPlanSettings(
        settings=labels,
        duration_hours=clean_durations,
        seed=_integer(run_d, "seed", "run", problems, 0, run_base.seed),
    )

    out_d = _take(top.get("output", {}), "output", ("directory", "formats"), problems)
    out_base = OutputSettings()
    directory = out_d.get("directory", out_base.directory)
    if not isinstance(directory, str) or not directory:
        problems.append("output.directory must be a non-empty string")
        directory = out_base.directory
    formats = out_d.get("formats", out_base.formats)
    if not isinstance(formats, (list, tuple)) or not formats:
        problems.append("output.formats must be a non-empty list")
        formats = out_base.formats
    formats = tuple(formats)
    for fmt in formats:
        if fmt not in ("csv", "json"):
            problems.append(f"output.formats entry {fmt!r} not one of ('csv', 'json')")
    if len(set(formats)) != len(formats):
        problems.append("output.formats has duplicates")
    output = OutputSettings(directory=directory, formats=formats)

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        sources=sources, topology=topology, detection=detection, run=run, output=output
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    """Plain-JSON form; config_from_dict(config_to_dict(c)) == c."""
    d = {
        "sources": {
            "pair_probability": config.sources.pair_probability,
            "synthesizer_overlap": config.sources.synthesizer_overlap,
            "fusion_overlap": config.sources.fusion_overlap,
            "truncation_pairs": config.sources.truncation_pairs,
            "count": config.sources.count,
        },
        "topology": {"shape": config.topology.shape},
        "detection": {
            "efficiency": config.detection.efficiency,
            "repetition_rate_hz": config.detection.repetition_rate_hz,
        },
        "run": {
            "settings": list(config.run.settings),
            "duration_hours": dict(config.run.duration_hours),
            "seed": config.run.seed,
        },
        "output": {
            "directory": config.output.directory,
            "formats": list(config.output.formats),
        },
    }
    if config.topology.shape == "custom":
        d["topology"]["sources"] = [list(s) for s in config.topology.sources]
        d["topology"]["fusion_edges"] = [list(e) for e in config.topology.fusion_edges]
    return d


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}:{exc.lineno}: {exc.msg}"]) from exc
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError([f"{path}: {p}" for p in exc.problems]) from exc


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")

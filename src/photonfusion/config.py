"""Run configuration: strict, human-editable JSON with units in key names.

Unknown keys are rejected and every numeric range is checked on load, so
a config that validates describes exactly one reproducible run.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields

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

# the engine packs a mode's photon count, at most truncation_pairs, in a byte
MAX_TRUNCATION = 255


class ConfigError(ValueError):
    """Validation failure carrying the full list of offending entries."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("invalid config: " + "; ".join(self.problems))


def _ranged(default, *bounds):
    """A numeric field with its default and its bounds: (lo, hi) for a
    float (hi None for no upper bound), (lo,) or (lo, hi) for an int."""
    return field(default=default, metadata={"range": bounds})


@dataclass(frozen=True)
class SourceSettings:
    pair_probability: float = _ranged(0.058, 0.0, 1.0)
    synthesizer_overlap: float = _ranged(0.94, 0.0, 1.0)
    fusion_overlap: float = _ranged(0.76, 0.0, 1.0)
    truncation_pairs: int = _ranged(4, 1, MAX_TRUNCATION)
    count: int = _ranged(4, 1)


@dataclass(frozen=True)
class TopologySettings:
    shape: str = "star"
    # populated only for shape == "custom"
    sources: tuple = ()
    fusion_edges: tuple = ()


@dataclass(frozen=True)
class DetectionSettings:
    efficiency: float = _ranged(0.265, 0.0, 1.0)
    repetition_rate_hz: float = _ranged(76e6, 0.0, None)


@dataclass(frozen=True)
class RunPlanSettings:
    settings: tuple = SETTING_LABELS
    duration_hours: dict = field(default_factory=lambda: dict(DEFAULT_DURATIONS))
    seed: int = _ranged(1, 0)


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


def _take(data: dict, where: str, cls, problems: list) -> dict:
    allowed = {f.name for f in fields(cls)}
    extra = sorted(set(data) - allowed)
    for key in extra:
        problems.append(f"unknown key {where}.{key}")
    return {k: v for k, v in data.items() if k in allowed}


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(data, key, where, problems, default, lo, hi):
    if key not in data:
        return default
    value = data[key]
    if not _is_real(value):
        problems.append(f"{where}.{key} must be a number")
        return default
    try:
        value = float(value)
    except OverflowError:  # an integer past the float range
        value = math.inf if value > 0 else -math.inf
    if not (math.isfinite(value) and lo <= value and (hi is None or value <= hi)):
        problems.append(f"{where}.{key}={value} outside [{lo}, {hi}]")
        return default
    return value


def _integer(data, key, where, problems, default, lo, hi=None):
    if key not in data:
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{where}.{key} must be an integer")
        return default
    if value < lo:
        problems.append(f"{where}.{key}={value} below {lo}")
        return default
    if hi is not None and value > hi:
        problems.append(f"{where}.{key}={value} above {hi}")
        return default
    return value


def _scalars(data, where, cls, problems) -> dict:
    """Every ranged field of a section, read from data within its range;
    the field's default where data lacks it or holds a refused value."""
    values = {}
    for f in fields(cls):
        if "range" in f.metadata:
            read = _integer if isinstance(f.default, int) else _number
            bounds = f.metadata["range"]
            values[f.name] = read(data, f.name, where, problems, f.default, *bounds)
    return values


def _choices(value, where, allowed, problems) -> tuple:
    """A non-empty list of distinct entries from allowed (all of them when
    refused), compared by == alone, so an unhashable entry cannot raise."""
    if not isinstance(value, (list, tuple)) or not value:
        problems.append(f"{where} must be a non-empty list")
        return allowed
    for entry in value:
        if entry not in allowed:
            problems.append(f"{where} entry {entry!r} not one of {allowed}")
    if any(entry in value[:i] for i, entry in enumerate(value)):
        problems.append(f"{where} has duplicates")
    return tuple(value)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config, collecting every problem before failing."""
    problems: list = []
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a mapping"])
    top = _take(data, "config", ExperimentConfig, problems)
    for section, value in top.items():
        if not isinstance(value, dict):
            problems.append(f"config.{section} must be a mapping")
    top = {k: v for k, v in top.items() if isinstance(v, dict)}

    src_d = _take(top.get("sources", {}), "sources", SourceSettings, problems)
    sources = SourceSettings(**_scalars(src_d, "sources", SourceSettings, problems))
    # the witness plan's angles j*pi/n over n = 2 * count arms must be
    # named by k labels (k*pi/8), so n must divide 8
    n_arms = 2 * sources.count
    witness = _witness_plan(n_arms) if 8 % n_arms == 0 else None
    if witness is None:
        problems.append(
            f"sources.count={sources.count}: the witness plan's {n_arms} arms need "
            f"angles j*pi/{n_arms}, which k labels (k*pi/8) cannot name"
        )
    # every arm must see a photon, and a pair feeds two arms
    elif sources.truncation_pairs < sources.count:
        problems.append(
            f"sources.truncation_pairs={sources.truncation_pairs} below "
            f"sources.count={sources.count}: no accepted coincidences, as "
            f"{n_arms} arms need at least {sources.count} pairs"
        )
    if sources.pair_probability == 0.0:
        problems.append("sources.pair_probability=0 gives no accepted coincidences")

    topo_d = _take(top.get("topology", {}), "topology", TopologySettings, problems)
    shape = topo_d.get("shape", TopologySettings.shape)
    if shape not in SHAPES:
        problems.append(f"topology.shape={shape!r} not one of {SHAPES}")
        shape = "star"
    def _pair_list(key):
        try:
            pairs = tuple(tuple(entry) for entry in topo_d.get(key, ()))
        except TypeError:
            pairs = None
        if pairs is None or not all(_is_real(arm) for pair in pairs for arm in pair):
            problems.append(f"topology.{key} must be a list of arm pairs")
            return ()
        return pairs

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

    det_d = _take(top.get("detection", {}), "detection", DetectionSettings, problems)
    detection = DetectionSettings(**_scalars(det_d, "detection", DetectionSettings, problems))
    if detection.efficiency == 0.0:
        problems.append("detection.efficiency must be positive")
    if detection.repetition_rate_hz == 0.0:
        problems.append("detection.repetition_rate_hz must be positive")
    p, xi = sources.pair_probability, detection.efficiency
    if witness and p > 0.0 and xi > 0.0:
        # the leading order, one pair per source, accepts (p/2)^S xi^(2S) per
        # pulse; each of the 2S arms' analyzers splits that over two outcomes,
        # so the margin 4^S keeps every leading pattern a normal float
        s = sources.count
        log_lead = s * math.log(p / 2) + 2 * s * math.log(xi)
        if log_lead < math.log(sys.float_info.min) + s * math.log(4):
            problems.append(
                f"sources.pair_probability={p} with detection.efficiency={xi}: the "
                f"leading accepted probability (p/2)^{s} xi^{2 * s} = "
                f"1e{log_lead / math.log(10):.0f} underflows float64 "
                f"(below 4^{s} times {sys.float_info.min:.3g})"
            )

    run_d = _take(top.get("run", {}), "run", RunPlanSettings, problems)
    labels = run_d.get("settings", witness or SETTING_LABELS)
    labels = _choices(labels, "run.settings", SETTING_LABELS, problems)
    if witness:
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
        # finite: NaN, infinities and integers past the float range fail
        if not _is_real(hours) or not 0 < hours <= sys.float_info.max:
            problems.append(f"run.duration_hours[{label!r}] must be a positive number")
        else:
            clean_durations[label] = float(hours)
    for label in labels:
        if label in SETTING_LABELS and label not in clean_durations:
            problems.append(f"run.duration_hours missing entry for {label!r}")
    run = RunPlanSettings(
        settings=labels,
        duration_hours=clean_durations,
        **_scalars(run_d, "run", RunPlanSettings, problems),
    )

    out_d = _take(top.get("output", {}), "output", OutputSettings, problems)
    directory = out_d.get("directory", OutputSettings.directory)
    if not isinstance(directory, str) or not directory:
        problems.append("output.directory must be a non-empty string")
        directory = OutputSettings.directory
    formats = out_d.get("formats", OutputSettings.formats)
    formats = _choices(formats, "output.formats", ("csv", "json"), problems)
    output = OutputSettings(directory=directory, formats=formats)

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        sources=sources, topology=topology, detection=detection, run=run, output=output
    )


def _listed(value):
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


def config_to_dict(config: ExperimentConfig) -> dict:
    """Plain-JSON form, tuples as lists; config_from_dict(config_to_dict(c)) == c."""
    d = asdict(config, dict_factory=lambda items: {k: _listed(v) for k, v in items})
    if config.topology.shape != "custom":
        d["topology"] = {"shape": config.topology.shape}
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

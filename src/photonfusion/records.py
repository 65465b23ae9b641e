"""What a run records: measurement settings, detection patterns and
coincidence histograms, and the histogram file format.

These are plain records with no numerical engine behind them, so reading
and analyzing a run needs neither numpy nor the simulator in experiment,
which fills them from computed distributions. There is one
DetectionPattern object per symbol string, so every distribution and
every histogram file keys its patterns with the same objects.

Every float sum that reaches an output goes through _left_sum, which adds
left to right as builtins.sum did before Python 3.12; from 3.12 sum
compensates float rounding, so the same counts would write different
digits on different Pythons.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import dataclass

__all__ = [
    "MeasurementSetting",
    "DetectionPattern",
    "CoincidenceHistogram",
    "hv_setting",
    "k_setting",
    "angle_setting",
    "setting_from_label",
    "all_detection_patterns",
    "histogram_to_lines",
    "histogram_from_lines",
]


def _left_sum(values):
    """The sum of values, adding left to right with one rounding per
    addition, on every Python."""
    total = 0
    for value in values:
        total += value
    return total


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


@functools.total_ordering
@dataclass(frozen=True, eq=False, init=False)
class DetectionPattern:
    """One symbol per output arm, arms in ascending label order.

    DetectionPattern(bits) returns the one object for its symbol string,
    so patterns hash and compare by identity and sort by their symbols;
    copies and unpickled patterns are that object too.
    """

    bits: str
    _shared: typing.ClassVar[dict] = {}

    def __new__(cls, bits):
        if not isinstance(bits, str):
            raise ValueError(f"bad pattern {bits!r}")
        pat = cls._shared.get(bits)
        if pat is None:
            symbols = set(bits)
            if not symbols or not symbols <= _PATTERN_SYMBOLS:
                raise ValueError(f"bad pattern {bits!r}")
            if not (symbols <= {"H", "V"} or symbols <= {"+", "-"}):
                raise ValueError(f"pattern {bits!r} mixes basis symbols")
            pat = object.__new__(cls)
            object.__setattr__(pat, "bits", bits)
            # threads that race to build one pattern all keep the first
            pat = cls._shared.setdefault(bits, pat)
        return pat

    def __reduce__(self):
        return DetectionPattern, (self.bits,)

    def __lt__(self, other):
        if not isinstance(other, DetectionPattern):
            return NotImplemented
        return self.bits < other.bits

    def __str__(self) -> str:
        return self.bits

    def count(self, symbol: str) -> int:
        return self.bits.count(symbol)


def all_detection_patterns(n_arms: int, symbols=("H", "V")) -> list:
    """All 2^n patterns; the first arm's symbol varies slowest."""
    return list(_detection_patterns(n_arms, tuple(symbols)))


@functools.lru_cache(maxsize=32)
def _detection_patterns(n_arms: int, symbols: tuple) -> tuple:
    """all_detection_patterns, built once per width and basis; every
    distribution of that shape keys its values with this tuple's order."""
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
        # a pattern never mixes bases, so its first symbol names its basis
        symbols = self.setting.symbols
        for p in self.counts:
            if p.bits[0] not in symbols:
                raise ValueError(f"pattern {p.bits} is outside the {self.setting.label} basis")
        if not all(0 <= c < math.inf for c in self.counts.values()):
            raise ValueError("negative count")
        if not 0 < self.duration_s < math.inf:
            raise ValueError("duration must be positive")

    @property
    def total(self) -> int:
        return _left_sum(self.counts.values())


# ---- Histogram files ----


def histogram_to_lines(hist: CoincidenceHistogram) -> list:
    """Header 'setting,duration,seed', with ',exact' appended for an exact
    histogram, then one 'pattern,count' per line."""
    flag = ",exact" if hist.exact else ""
    lines = [f"{hist.setting.label},{hist.duration_s!r},{hist.seed}{flag}"]
    rows = sorted(hist.counts.items(), key=lambda row: row[0].bits)
    lines.extend(f"{pat.bits},{count}" for pat, count in rows)
    return lines


def histogram_from_lines(lines) -> CoincidenceHistogram:
    lines = list(lines)
    if not lines:
        raise ValueError("empty histogram data")
    head = lines[0].split(",")
    if len(head) < 3 or head[3:] not in ([], ["exact"]):
        raise ValueError(f"bad histogram header {lines[0]!r}")
    label, duration, seed = head[:3]
    rows = [line.partition(",") for line in lines[1:] if line.strip()]
    counts = {}
    for bits, _, count in rows:
        # a count reads back as the type it was written from, so an exact
        # probability of 0.0 stays a float and rewrites as it was read
        try:
            value = int(count)
        except ValueError:
            value = float(count)
        pat = DetectionPattern(bits)
        if pat in counts:
            raise ValueError(f"duplicate pattern row {bits!r}")
        counts[pat] = value
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

"""Sparse Fock-space states over labeled bosonic modes.

States are dictionaries mapping occupation tuples to complex amplitudes.
Everything here is exact up to float arithmetic: no sampling, no cutoff
tricks beyond an explicit total-photon-number truncation that callers set
when they build a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

PRUNE_EPS = 1e-15
NORM_TOL = 1e-12


class ModeLabel(NamedTuple):
    """One bosonic mode: spatial arm, polarization, optional wavepacket tag.

    pol is "H" or "V" (or "+"/"-" after an analyzer rewrites the basis).
    tag distinguishes wavepackets that never interfere with each other,
    e.g. extraordinary/ordinary cone labels or per-source marks.
    """

    arm: int
    pol: str
    tag: str = ""


@dataclass(frozen=True)
class ModeRegistry:
    """Ordered set of modes. Construction order is the canonical order."""

    labels: tuple[ModeLabel, ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        idx = {}
        for i, lab in enumerate(self.labels):
            if lab in idx:
                raise ValueError(f"duplicate mode label {lab}")
            idx[lab] = i
        object.__setattr__(self, "_index", idx)

    def index(self, label: ModeLabel) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"mode {label} not in registry") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[ModeLabel]:
        return iter(self.labels)

    def __contains__(self, label: ModeLabel) -> bool:
        return label in self._index


def registry_from(labels) -> ModeRegistry:
    return ModeRegistry(tuple(labels))


@dataclass(frozen=True)
class AmplitudeState:
    """Superposition over occupation-number basis states of a registry.

    terms maps occupation tuples (one int per registry mode) to complex
    amplitudes. States are value objects: every operation returns a new
    instance. Amplitudes below PRUNE_EPS in magnitude are dropped.

    truncation_order caps the total photon number. This is how the
    perturbative pair-source expansion is kept finite.
    """

    registry: ModeRegistry
    terms: dict
    truncation_order: int

    def __post_init__(self):
        nmodes = len(self.registry)
        for occ in self.terms:
            if len(occ) != nmodes:
                raise ValueError("occupation length does not match registry")

    # ---- Norms and inner products ----

    def norm_sq(self) -> float:
        return sum((a * a.conjugate()).real for a in self.terms.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inner(self, other: "AmplitudeState") -> complex:
        """<self|other>. Conjugates self's amplitudes."""
        if self.registry is not other.registry and self.registry != other.registry:
            raise ValueError("inner product requires a shared registry")
        if len(self.terms) > len(other.terms):
            return other.inner(self).conjugate()
        total = 0j
        for occ, a in self.terms.items():
            b = other.terms.get(occ)
            if b is not None:
                total += a.conjugate() * b
        return total

    def normalized(self) -> "AmplitudeState":
        n = self.norm()
        if n < NORM_TOL:
            raise ValueError("cannot normalize a (near-)zero state")
        return self.scaled(1.0 / n)

    # ---- Algebra ----

    def scaled(self, c: complex) -> "AmplitudeState":
        if c == 0:
            return AmplitudeState(self.registry, {}, self.truncation_order)
        return AmplitudeState(
            self.registry,
            _pruned({occ: c * a for occ, a in self.terms.items()}),
            self.truncation_order,
        )

    def plus(self, other: "AmplitudeState") -> "AmplitudeState":
        if self.registry != other.registry:
            raise ValueError("cannot add states over different registries")
        out = dict(self.terms)
        for occ, a in other.terms.items():
            out[occ] = out.get(occ, 0j) + a
        return AmplitudeState(
            self.registry, _pruned(out), min(self.truncation_order, other.truncation_order)
        )

    def __mul__(self, c) -> "AmplitudeState":
        return self.scaled(c)

    __rmul__ = __mul__

    def __add__(self, other) -> "AmplitudeState":
        return self.plus(other)

    # ---- Occupation structure ----

    def photon_number_sectors(self) -> dict:
        """Split terms by total photon number: {n: AmplitudeState}."""
        buckets: dict = {}
        for occ, a in self.terms.items():
            buckets.setdefault(sum(occ), {})[occ] = a
        return {
            n: AmplitudeState(self.registry, t, self.truncation_order)
            for n, t in sorted(buckets.items())
        }


def _pruned(terms: dict) -> dict:
    return {occ: a for occ, a in terms.items() if abs(a) > PRUNE_EPS}

"""Labeled bosonic modes and sparse Fock-space states over them.

A state is a dictionary mapping occupation tuples, one photon number per
registry mode, to complex amplitudes. The library builds states only to
read its optics one photon at a time (elements.apply_element), so a
state here is a record: registry, terms and a photon-number cap, with
no algebra. Norms, inner products, sums and the multinomial action of
an element on many photons are the test suite's independent oracle
(tests/oracles.py). The zero rule both share is here: only exact zeros
are dropped, sums that cancel within the rounding of their summands
(_cancels), and zero products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

# c * u: a float's unit roundoff u = 2^-53 times c = 2^10, which bounds
# the summed terms and the rounding steps behind each
_ROUNDING = 2.0**-43


def _cancels(total, scale):
    """Whether a sum total, of amplitudes whose magnitudes add up to scale,
    is an exact zero: |total| <= c * u * scale. Scale-free, and elementwise
    on numpy arrays. A product of nonzero amplitudes never cancels."""
    return abs(total) <= _ROUNDING * scale


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


def registry_from(labels) -> ModeRegistry:
    return ModeRegistry(tuple(labels))


@dataclass(frozen=True)
class AmplitudeState:
    """Superposition over occupation-number basis states of a registry.

    terms maps occupation tuples (one int per registry mode) to complex
    amplitudes, without exact zeros. States are value objects: an element
    returns a new instance.

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

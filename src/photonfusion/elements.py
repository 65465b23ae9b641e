"""Linear optical elements and their action on one photon.

An element is a unitary matrix over a small set of registry modes.
Matrix convention: columns index input modes, rows index output modes. A
creation operator on input j becomes sum_k U[k, j] a+_k. Photon number is
conserved, and unitarity is enforced at construction time.

The simulator reads its optics one photon at a time, so apply_element
moves one photon: the experiment module applies the fusion elements and
each branch's analyzer at angle 0 to one-photon states, builds a slot's
n-photon analyzer amplitudes from the analyzer's one-photon ones in
closed form, reads every other angle as a phase on V photons
(analyzer_matrix), and moves every ensemble member with the maps read
off those. The multinomial action of an element on many photons, which
those closed forms must reproduce, is the test suite's oracle
(tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import AmplitudeState, ModeRegistry, _cancels

UNITARITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LinearElement:
    name: str
    mode_indices: tuple
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        k = len(self.mode_indices)
        if len(set(self.mode_indices)) != k:
            raise ValueError(f"{self.name}: repeated mode index")
        if m.shape != (k, k):
            raise ValueError(f"{self.name}: matrix shape {m.shape} does not fit {k} modes")
        dev = float(np.max(np.abs(m.conj().T @ m - np.eye(k)))) if k else 0.0
        if dev > UNITARITY_TOL:
            raise ValueError(f"{self.name}: matrix is not unitary (deviation {dev:.3e})")


def element_on(registry: ModeRegistry, labels, matrix, name: str = "element") -> LinearElement:
    """Bind a matrix to concrete registry modes, in the order given."""
    return LinearElement(name, tuple(registry.index(lab) for lab in labels), matrix)


def apply_element(state: AmplitudeState, element: LinearElement) -> AmplitudeState:
    """Push a state of at most one photon per term on the element's modes
    through one element.

    A term with no photon on the element's modes passes through as it is.
    A term whose photon enters input j leaves in each output k with its
    amplitude times U[k, j], a zero entry leaving no term. Terms that meet
    on one output add; next to each output runs the sum of its summands'
    magnitudes, and an output that cancels within their rounding
    (fock._cancels) is an exact zero and dropped. A term with two or more
    photons on the element's modes raises ValueError.
    """
    idx = element.mode_indices
    if idx and max(idx) >= len(state.registry):
        raise ValueError(f"{element.name}: mode index out of range for this registry")
    # each output's amplitude and its summands' summed magnitudes
    out: dict = {}
    for occ, amp in state.terms.items():
        ns = [occ[i] for i in idx]
        photons = sum(ns)
        if not photons:
            out[occ] = (amp, abs(amp))
            continue
        if photons > 1:
            raise ValueError(
                f"{element.name}: {photons} photons on its modes, where it reads one"
            )
        j = ns.index(1)
        scratch = list(occ)
        scratch[idx[j]] = 0
        for i, u in zip(idx, element.matrix[:, j]):
            if u:
                scratch[i] = 1
                key = tuple(scratch)
                scratch[i] = 0
                total, size = out.get(key, (0j, 0.0))
                out[key] = (total + amp * u, size + abs(amp) * abs(u))
    return AmplitudeState(
        state.registry,
        {occ: a for occ, (a, size) in out.items() if not _cancels(a, size)},
        state.truncation_order,
    )


# ---- Standard matrices ----


def phase_matrix(phi: float) -> np.ndarray:
    """Single-mode phase shift."""
    return np.array([[complex(math.cos(phi), math.sin(phi))]])


def pbs_matrix() -> np.ndarray:
    """Polarizing splitter on (A_H, A_V, B_H, B_V).

    H transmits straight through; V is reflected into the partner arm and
    picks up the reflection phase i. The arm labels are kept in place, so
    wiring stays readable downstream.
    """
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0  # A_H -> A_H
    m[2, 2] = 1.0  # B_H -> B_H
    m[3, 1] = 1.0j  # A_V -> B_V
    m[1, 3] = 1.0j  # B_V -> A_V
    return m


def analyzer_matrix(theta: float) -> np.ndarray:
    """Change (H, V) into the superposition basis (+, -) at angle theta.

    The + output detects (|H> + e^{i theta} |V>)/sqrt2 and the - output
    its orthogonal partner. Rows are (+, -), columns are (H, V). It is
    the analyzer at angle 0 behind a phase plate e^{-i theta} on V, so on
    h H and n - h V photons it differs from angle 0 by e^{-i theta (n - h)}.
    """
    ph = complex(math.cos(theta), -math.sin(theta))
    return np.array([[1.0, ph], [1.0, -ph]]) / math.sqrt(2)

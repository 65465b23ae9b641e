"""Linear optical elements and their exact action on Fock states.

An element is a unitary matrix over a small set of registry modes. Its
action rewrites each input creation operator as a combination of output
creation operators; the induced map on occupation-number states is worked
out term by term with multinomial expansions, so multi-photon interference
(bunching, dips) comes out exactly.

Matrix convention: columns index input modes, rows index output modes. A
creation operator on input j becomes sum_k U[k, j] a+_k. Photon number is
conserved, and unitarity is enforced at construction time.

The simulator does not push whole states through elements. The
experiment module compiles its optics from them: it applies the fusion
elements and each branch's analyzer at angle 0 to one-photon states,
builds a slot's n-photon analyzer amplitudes from the analyzer's
one-photon ones in closed form, reads every other angle as a phase on V
photons (analyzer_matrix), and moves every ensemble member with the
maps read off those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import AmplitudeState, ModeRegistry, _cancels
from .topology import _compositions

UNITARITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LinearElement:
    name: str
    mode_indices: tuple
    matrix: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

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

    def _expansion(self, j: int, n: int):
        """All ways to send n photons from input j into the outputs.

        Returns [(counts_per_output, coefficient, its magnitude)], where the
        coefficient is the multinomial weight n!/prod(t!) times
        prod U[k, j]^t_k.
        Cached per element instance; the same (input, count) pair shows up
        for many terms of a big state.
        """
        key = (j, n)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        col = self.matrix[:, j]
        out = []
        for t in _compositions(n, len(col)):
            amp = complex(math.factorial(n))
            for k, tk in enumerate(t):
                if tk:
                    c = col[k]
                    if c == 0:
                        amp = 0j
                        break
                    amp = amp * c**tk / math.factorial(tk)
            if amp != 0:
                out.append((t, amp, float(abs(amp))))
        self._cache[key] = out
        return out


def element_on(registry: ModeRegistry, labels, matrix, name: str = "element") -> LinearElement:
    """Bind a matrix to concrete registry modes, in the order given."""
    return LinearElement(name, tuple(registry.index(lab) for lab in labels), matrix)


def apply_element(state: AmplitudeState, element: LinearElement) -> AmplitudeState:
    """Push a state through one element.

    Terms with no photons on the element's modes pass through untouched.
    For the rest, each populated input mode is expanded multinomially and
    the bosonic sqrt(n!) factors are restored at the end:

        amp_out = amp_in / sqrt(prod n_j!) * prod_j [expansion_j]
                  * sqrt(prod m_k!)

    Each output amplitude is a sum of such products, the leaves. Next to
    every partial and output amplitude runs the sum of its leaves'
    magnitudes, and an output that cancels within the rounding of its
    leaves (fock._cancels) is an exact zero and dropped.
    """
    idx = element.mode_indices
    width = len(state.registry)
    if idx and max(idx) >= width:
        raise ValueError(f"{element.name}: mode index out of range for this registry")
    # each output's amplitude and its leaves' summed magnitudes
    out: dict = {}
    for occ, amp in state.terms.items():
        ns = tuple(occ[i] for i in idx)
        if not any(ns):
            out[occ] = (amp, abs(amp))
            continue
        pref = amp / math.sqrt(math.prod(math.factorial(n) for n in ns))
        partial = {(0,) * len(idx): (pref, abs(pref))}
        for j, n in enumerate(ns):
            if not n:
                continue
            nxt: dict = {}
            for acc, (coef, mag) in partial.items():
                for t, c, size_c in element._expansion(j, n):
                    key = tuple(a + b for a, b in zip(acc, t))
                    total, size = nxt.get(key, (0j, 0.0))
                    nxt[key] = (total + coef * c, size + mag * size_c)
            partial = nxt
        scratch = list(occ)
        for m, (coef, mag) in partial.items():
            for pos, i in enumerate(idx):
                scratch[i] = m[pos]
            key = tuple(scratch)
            bosonic = math.sqrt(math.prod(math.factorial(mm) for mm in m))
            total, size = out.get(key, (0j, 0.0))
            out[key] = (total + coef * bosonic, size + mag * bosonic)
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

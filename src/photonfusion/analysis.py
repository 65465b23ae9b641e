"""Observables and error bars from coincidence histograms.

Everything here is a pure function of recorded counts. Probabilities are
conditional on an accepted event; error bars come from first-order error
propagation treating the pattern counts as Poisson draws, which keeps
the correlation induced by the shared total. Every observable is a linear
form Σ c_i N_i / N read by one function, _linear, and every float sum is
taken left to right (records._left_sum), so a report's digits are the
same on every Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .records import CoincidenceHistogram, DetectionPattern, _left_sum

__all__ = [
    "ObservableResult",
    "PopulationSummary",
    "WitnessReport",
    "poisson_propagate",
    "populations",
    "m_k_expectation",
    "fidelity_witness",
    "witness_from_histograms",
]


class ObservableResult(NamedTuple):
    value: float
    sigma: float
    n_events: int


class PopulationSummary(NamedTuple):
    """HV-basis signal populations and their signal-to-noise figure.

    snr is the mean of the two signal-pattern counts over the mean of
    all other pattern counts; a histogram with an empty noise floor sets
    snr_unbounded instead of producing an infinity.
    """

    all_h: ObservableResult
    all_v: ObservableResult
    combined: ObservableResult
    snr: float | None
    snr_unbounded: bool
    n_arms: int
    n_events: int


@dataclass(frozen=True)
class WitnessReport:
    """Assembled witness: F = population_term + (1/2n) Σ_k (−1)^k ⟨M_k⟩.

    correlation_terms holds (k, result) with the raw expectation values,
    alternating in sign for a cat state; the (−1)^k weight enters only
    in the assembly. significance_sigmas is None when sigma vanished and
    the distance from 0.5 is exact.
    """

    population_term: ObservableResult
    correlation_terms: tuple
    fidelity: ObservableResult
    entangled: bool
    significance_sigmas: float | None

    @property
    def n_arms(self) -> int:
        return len(self.correlation_terms)

    def to_dict(self) -> dict:
        def _entry(res: ObservableResult) -> dict:
            return {
                "value": res.value,
                "sigma": res.sigma,
                "n_events": res.n_events,
            }

        out = {"population_term": _entry(self.population_term)}
        for k, res in self.correlation_terms:
            out[f"m_k_{k}"] = _entry(res)
        out["fidelity"] = self.fidelity.value
        out["sigma"] = self.fidelity.sigma
        out["significance"] = self.significance_sigmas
        out["significance_unbounded"] = self.significance_sigmas is None
        out["entangled"] = self.entangled
        return out


# ---- Counting statistics ----


def _linear(coeffs, hist: CoincidenceHistogram) -> ObservableResult:
    """f = Σ c_i N_i / N, with coeffs in the histogram's pattern order, its
    one-sigma Poisson error and N.

    First-order propagation with each count Poissonian; the (c_i − f)
    form carries the anticorrelation from normalizing by the total, so a
    coefficient pattern the histogram already saturates gives zero. An
    exact histogram has no counting error, so it gives zero too.
    """
    total = hist.total
    if total <= 0:
        raise ValueError("histogram has no events")
    pairs = list(zip(coeffs, hist.counts.values()))
    f = _left_sum(c * n for c, n in pairs) / total
    if hist.exact:
        sigma = 0.0
    else:
        sigma = math.sqrt(_left_sum((c - f) ** 2 * n for c, n in pairs) / total**2)
    return ObservableResult(f, sigma, int(round(total)))


def poisson_propagate(linear_form, hist: CoincidenceHistogram) -> float:
    """One-sigma Poisson error of f = Σ c_i N_i / N_total (_linear), the
    coefficients given as a dict over patterns (absent ones 0) or as a
    function of the pattern."""
    form = linear_form if callable(linear_form) else lambda pat: linear_form.get(pat, 0.0)
    return _linear([float(form(pat)) for pat in hist.counts], hist).sigma


# ---- Observables ----


def populations(hist: CoincidenceHistogram) -> PopulationSummary:
    """Signal fractions of an HV-basis histogram, with Poisson errors."""
    if hist.setting.angles is not None:
        raise ValueError("populations needs a computational-basis histogram")
    counts = hist.counts
    # an empty histogram has no events, which _linear refuses
    width = len(next(iter(counts)).bits) if counts else 1
    all_h = DetectionPattern("H" * width)
    all_v = DetectionPattern("V" * width)
    res_h, res_v, combined = (
        _linear([float(pat in signal) for pat in counts], hist)
        for signal in ((all_h,), (all_v,), (all_h, all_v))
    )
    n_h = counts.get(all_h, 0)
    n_v = counts.get(all_v, 0)
    noise = [n for pat, n in counts.items() if pat not in (all_h, all_v)]
    noise_mean = _left_sum(noise) / len(noise) if noise else 0.0
    if noise_mean > 0:
        snr, unbounded = ((n_h + n_v) / 2) / noise_mean, False
    else:
        snr, unbounded = None, True
    return PopulationSummary(res_h, res_v, combined, snr, unbounded, width, combined.n_events)


def m_k_expectation(hist: CoincidenceHistogram) -> ObservableResult:
    """Product-of-signs expectation of a rotated-basis histogram.

    The returned value is the observable itself; for a cat state it
    alternates with k, and any sign folding is left to the caller.
    """
    setting = hist.setting
    if setting.angles is None:
        raise ValueError("m_k_expectation needs a rotated-basis histogram")
    if len(set(setting.angles)) != 1:
        raise ValueError("analyzer angles differ between arms")
    return _linear([-1.0 if pat.count("-") % 2 else 1.0 for pat in hist.counts], hist)


# ---- Witness assembly ----


def fidelity_witness(population: PopulationSummary, correlations) -> WitnessReport:
    """Combine the population term and n correlation terms into F.

    correlations holds (k, ObservableResult) for k = 0..n−1, the raw
    expectations at analyzer angle kπ/n. Errors combine in quadrature
    across the n+1 independent runs.
    """
    terms = tuple(sorted(((int(k), res) for k, res in correlations)))
    n = population.n_arms
    if not terms:
        raise ValueError("no correlation terms")
    if [k for k, _ in terms] != list(range(n)):
        missing = sorted(set(range(n)) - {k for k, _ in terms})
        raise ValueError(f"correlation terms incomplete: missing k={missing}")
    pop_term = ObservableResult(
        0.5 * population.combined.value,
        0.5 * population.combined.sigma,
        population.combined.n_events,
    )
    m_sum = _left_sum(((-1) ** k) * res.value for k, res in terms)
    fidelity = pop_term.value + m_sum / (2 * n)
    var = pop_term.sigma**2 + _left_sum((res.sigma / (2 * n)) ** 2 for _, res in terms)
    sigma = math.sqrt(var)
    events = pop_term.n_events + sum(res.n_events for _, res in terms)
    result = ObservableResult(fidelity, sigma, events)
    if sigma > 0:
        significance = (fidelity - 0.5) / sigma
        entangled = significance > 0
    else:
        significance = None
        entangled = fidelity > 0.5
    return WitnessReport(
        population_term=pop_term,
        correlation_terms=terms,
        fidelity=result,
        entangled=entangled,
        significance_sigmas=significance,
    )


def witness_from_histograms(histograms) -> WitnessReport:
    """Sort a full run into its witness ingredients and assemble F.

    Expects one computational-basis histogram and, for pattern width n,
    n rotated histograms at analyzer angles kπ/n.
    """
    hv = [h for h in histograms if h.setting.angles is None]
    rotated = [h for h in histograms if h.setting.angles is not None]
    if len(hv) != 1:
        raise ValueError(f"need exactly one computational-basis histogram, got {len(hv)}")
    pop = populations(hv[0])
    n = len(next(iter(hv[0].counts)).bits)
    if len(rotated) != n:
        raise ValueError(f"need {n} rotated histograms, got {len(rotated)}")
    correlations = []
    for hist in rotated:
        angles = set(hist.setting.angles)
        if len(angles) != 1:
            raise ValueError("analyzer angles differ between arms")
        theta = angles.pop()
        k = theta * n / math.pi
        if abs(k - round(k)) > 1e-9:
            raise ValueError(
                f"analyzer angle {theta} is off the witness grid pi/{n}"
            )
        correlations.append((int(round(k)) % n, m_k_expectation(hist)))
    if len({k for k, _ in correlations}) != n:
        raise ValueError("duplicate analyzer angles in witness input")
    return fidelity_witness(pop, correlations)

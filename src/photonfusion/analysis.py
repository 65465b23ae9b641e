"""Observables and error bars from coincidence histograms.

Everything here is a pure function of recorded counts. Probabilities are
conditional on an accepted event; error bars come from first-order error
propagation treating the pattern counts as Poisson draws, which keeps
the correlation induced by the shared total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .experiment import CoincidenceHistogram, DetectionPattern

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


def _counts_and_total(hist: CoincidenceHistogram):
    total = hist.total
    if total <= 0:
        raise ValueError("histogram has no events")
    return hist.counts, total


def poisson_propagate(linear_form, hist: CoincidenceHistogram) -> float:
    """One-sigma error of f = Σ c_i N_i / N_total.

    First-order propagation with each count Poissonian; the (c_i − f)
    form carries the anticorrelation from normalizing by the total, so a
    coefficient pattern the histogram already saturates gives zero. An
    exact histogram has no counting error, so it gives zero too.
    """
    counts, total = _counts_and_total(hist)
    if hist.exact:
        return 0.0
    if callable(linear_form):
        coeff = {pat: float(linear_form(pat)) for pat in counts}
    else:
        coeff = {pat: float(linear_form.get(pat, 0.0)) for pat in counts}
    f = sum(coeff[pat] * n for pat, n in counts.items()) / total
    var = sum((coeff[pat] - f) ** 2 * n for pat, n in counts.items()) / total**2
    return math.sqrt(var)


# ---- Observables ----


def populations(hist: CoincidenceHistogram) -> PopulationSummary:
    """Signal fractions of an HV-basis histogram, with Poisson errors."""
    if hist.setting.angles is not None:
        raise ValueError("populations needs a computational-basis histogram")
    counts, total = _counts_and_total(hist)
    width = len(next(iter(counts)).bits)
    all_h = DetectionPattern("H" * width)
    all_v = DetectionPattern("V" * width)
    n_h = counts.get(all_h, 0)
    n_v = counts.get(all_v, 0)
    res_h = ObservableResult(
        n_h / total, poisson_propagate({all_h: 1.0}, hist), int(round(total))
    )
    res_v = ObservableResult(
        n_v / total, poisson_propagate({all_v: 1.0}, hist), int(round(total))
    )
    combined = ObservableResult(
        (n_h + n_v) / total,
        poisson_propagate({all_h: 1.0, all_v: 1.0}, hist),
        int(round(total)),
    )
    noise = [n for pat, n in counts.items() if pat not in (all_h, all_v)]
    noise_mean = sum(noise) / len(noise) if noise else 0.0
    if noise_mean > 0:
        snr, unbounded = ((n_h + n_v) / 2) / noise_mean, False
    else:
        snr, unbounded = None, True
    return PopulationSummary(
        res_h, res_v, combined, snr, unbounded, width, int(round(total))
    )


def _parity(pat: DetectionPattern) -> int:
    return -1 if pat.count("-") % 2 else 1


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
    counts, total = _counts_and_total(hist)
    value = sum(_parity(pat) * n for pat, n in counts.items()) / total
    sigma = poisson_propagate(_parity, hist)
    return ObservableResult(value, sigma, int(round(total)))


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
    m_sum = sum(((-1) ** k) * res.value for k, res in terms)
    fidelity = pop_term.value + m_sum / (2 * n)
    var = pop_term.sigma**2 + sum(
        (res.sigma / (2 * n)) ** 2 for _, res in terms
    )
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

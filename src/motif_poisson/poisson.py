"""Poisson reference distribution and the empirical total-variation
statistic, a positive-part sum over the observed counts."""

from __future__ import annotations

import math
from typing import Mapping

from .errors import UnnormalizedHistogram, integer, rate

_HIST_TOL = 1e-9


def poisson_pmf(lam: float, k: int) -> float:
    """P(X = k) for X ~ Poisson(lam), evaluated in log space so large
    means and far-tail k stay finite.  ``lam`` must be finite and at
    least 0, and ``k`` an integer, or InvalidParams is raised."""
    lam = rate(lam, "lam")
    k = integer(k, "k")
    if k < 0:
        raise ValueError("k must be >= 0")
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def tv_distance_empirical(hist: Mapping[int, float], lam: float) -> float:
    """Total variation distance between an empirical integer law and
    Poisson(lam).

    Both laws sum to one, so half the L1 difference equals
    ``sum_k max(hist[k] - pmf(k), 0)``, and only the observed counts ``k``
    can contribute to that sum.
    """
    lam = rate(lam, "lam")
    total = math.fsum(hist.values())
    if abs(total - 1.0) > _HIST_TOL:
        raise UnnormalizedHistogram(f"frequencies sum to {total!r}, not 1")
    if any(k < 0 for k in hist):
        raise UnnormalizedHistogram("histogram has negative counts as keys")
    return math.fsum(max(f - poisson_pmf(lam, k), 0.0) for k, f in hist.items())

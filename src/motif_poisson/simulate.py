"""Seeded replicate ensembles: empirical law of the count vs its Poisson
reference.

Every replicate r draws its graph from an independent generator keyed by
(seed, r), so the ensemble is reproducible replicate-by-replicate.
Replicates are sampled in index order, in the calling thread, in batches
of one counter run, and each :class:`~motif_poisson.bitrows.Batch` that
:func:`~motif_poisson.models.sample_batches` yields is counted at once
(:func:`~motif_poisson.counting._count_rows`) before the next is drawn.
"""

from __future__ import annotations

import io
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .bounds import (
    BoundReport,
    bound_graphon,
    bound_sbm,
    lambda_value,
    mu_graphon,
    mu_sbm,
)
from . import counting, models
from .errors import InvalidParams, NotStrictlyBalanced, instance, integer, rate
from .models import _SEED_MASK, GraphonSpec, SbmParams, check_graph_size, substream_seed
from .motif import Motif, check_fits, motif_arg
from .poisson import poisson_pmf, tv_distance_empirical

_BOOTSTRAP_RESAMPLES = 200
_BOOTSTRAP_TAG = 0x0B005EED  # offset separating bootstrap from replicate seeds
_SEED_BLOCK = 1024  # replicate seeds derived at once, as one array


@dataclass(frozen=True)
class SimulationPlan:
    """One ensemble: a model, a motif, a graph size, a replicate budget and
    the master seed (an unsigned 64-bit integer) that determines everything."""

    model: SbmParams | GraphonSpec
    motif: Motif
    n: int
    replicates: int
    seed: int

    def __post_init__(self):
        instance(self.model, "simulate model", SbmParams, GraphonSpec)
        motif_arg(self.motif)
        for key in ("n", "replicates", "seed"):
            object.__setattr__(self, key, integer(getattr(self, key), f"simulate {key}"))
        if self.replicates < 1:
            raise InvalidParams("replicates must be >= 1")
        if not 0 <= self.seed <= _SEED_MASK:
            raise InvalidParams("seed must be an unsigned 64-bit integer")
        check_fits(self.motif, self.n)
        check_graph_size(self.n)


@dataclass(frozen=True)
class SimulationSummary:
    """Empirical results of one plan.

    ``theoretical_bound`` is None when the motif is not strictly balanced
    (simulation is still meaningful, the bound just does not apply).
    ``wall_time`` is informational and excluded from deterministic output.
    """

    histogram: Mapping[int, float]
    sample_mean: float
    sample_variance: float
    empirical_tv: float
    tv_standard_error: float
    lam: float
    theoretical_bound: float | None
    bound_report: BoundReport | None
    replicates: int
    wall_time: float

    def to_dict(self, deterministic: bool = True) -> dict:
        out = {
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "sample_mean": self.sample_mean,
            "sample_variance": self.sample_variance,
            "empirical_tv": self.empirical_tv,
            "tv_standard_error": self.tv_standard_error,
            "lambda": self.lam,
            "theoretical_bound": self.theoretical_bound,
            "bound": self.bound_report.to_dict() if self.bound_report else None,
            "replicates": self.replicates,
        }
        if not deterministic:
            out["wall_time"] = self.wall_time
        return out


def tv_standard_error(
    histogram: Mapping[int, float], replicates: int, lam: float, seed: int
) -> float:
    """Bootstrap standard error of the empirical TV statistic: resample the
    histogram multinomially at the observed replicate count and take the
    standard deviation of the recomputed statistic.  Seeded, hence
    reproducible.  Resamples live on the observed counts, so the pmf is
    evaluated there once and all resamples are scored in one array step by
    the positive-part sum of :func:`tv_distance_empirical`.
    """
    lam = rate(lam, "lam")
    replicates, seed = integer(replicates, "replicates"), integer(seed, "seed")
    if replicates < 2:
        return 0.0
    keys = sorted(histogram)
    probs = np.asarray([histogram[k] for k in keys], dtype=float)
    probs = probs / probs.sum()
    pmf = np.asarray([poisson_pmf(lam, k) for k in keys])
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = rng.multinomial(replicates, probs, size=_BOOTSTRAP_RESAMPLES)
    tvs = np.maximum(draws / replicates - pmf, 0.0).sum(axis=1)
    return float(tvs.std(ddof=1))


def run(plan: SimulationPlan, threads: int = 1) -> SimulationSummary:
    """Run the ensemble and assemble the summary.

    Replicates run serially in index order, so the summary (wall time
    aside) is a pure function of the plan.  lambda and the bound come
    first, so a plan whose mu cannot be evaluated fails before any graph is
    sampled; lambda is the bound report's, and mu is evaluated on its own
    only when the motif is not strictly balanced.  ``threads`` must be an
    integer of at least 1; it is accepted for compatibility and changes
    neither the result nor how the work runs.  Replicates are drawn with
    their (seed, r) keys and only one batch's rows are kept, so how the
    graphs are batched changes nothing in the summary.
    """
    if integer(threads, "threads") < 1:
        raise InvalidParams("threads must be >= 1")
    start = time.perf_counter()
    sbm = isinstance(plan.model, SbmParams)
    mu, bound = (mu_sbm, bound_sbm) if sbm else (mu_graphon, bound_graphon)
    try:
        report = bound(plan.model, plan.motif, plan.n)
        lam = report.lam
    except NotStrictlyBalanced:
        report = None
        lam = lambda_value(plan.motif, plan.n, mu(plan.model, plan.motif))

    r_total, n = plan.replicates, plan.n
    seeds = (
        seed
        for lo in range(0, r_total, _SEED_BLOCK)
        for seed in substream_seed(
            plan.seed, np.arange(lo, min(lo + _SEED_BLOCK, r_total), dtype=np.uint64)
        ).tolist()
    )
    tally = Counter()
    for batch in models.sample_batches(plan.model, n, seeds):
        tally.update(counting._count_rows(batch, plan.motif).tolist())
        del batch  # the next batch is drawn without this one
    histogram = {w: c / r_total for w, c in sorted(tally.items())}

    # exact sums, correctly rounded once, as math.fsum over every replicate
    # would give them
    mean = float(sum(c * w for w, c in tally.items())) / r_total
    if r_total > 1:
        sq = sum(c * Fraction((w - mean) ** 2) for w, c in tally.items())
        var = float(sq) / (r_total - 1)
    else:
        var = 0.0

    tv = tv_distance_empirical(histogram, lam)
    se = tv_standard_error(
        histogram,
        r_total,
        lam,
        substream_seed(plan.seed, _BOOTSTRAP_TAG + r_total),
    )
    return SimulationSummary(
        histogram=histogram,
        sample_mean=mean,
        sample_variance=var,
        empirical_tv=tv,
        tv_standard_error=se,
        lam=lam,
        theoretical_bound=report.bound if report else None,
        bound_report=report,
        replicates=r_total,
        wall_time=time.perf_counter() - start,
    )


def histogram_csv(histogram: Mapping[int, float]) -> str:
    """RFC 4180 rendering of the empirical law, one (count, frequency) row
    per observed value."""
    buf = io.StringIO()
    buf.write("count,frequency\r\n")
    for k in sorted(histogram):
        buf.write(f"{k},{histogram[k]!r}\r\n")
    return buf.getvalue()

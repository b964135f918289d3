"""Workloads of the motif-poisson benchmark and their correctness gate.

Each workload is a fixed list of public-API calls built from the
benchmark seed.  One *pass* makes every call of the list once; the runner
repeats passes for the requested time and reports medians.  Every pass
makes the same calls on the same inputs, so pass-to-pass timing
differences are machine noise, and every pass's outputs go through the
gate below.

The gate never depends on a particular random stream: sampling checks are
statistical with a false-alarm rate far below one in a thousand runs, and
the exact checks compare against values recorded at commit ced3ec9 or
against closed forms computed here, independently of the library.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import motif_poisson as mp
from motif_poisson import bounds, motif, simulate
from motif_poisson.errors import TooManyTerms

EXPECTED_INVARIANTS = Path(__file__).resolve().parent / "expected_invariants.json"

#: Worker threads of the threaded pass: the machine's cores, at least two so
#: the parallel path always runs, at most four to keep memory small.
WORKERS = min(4, max(2, os.cpu_count() or 2))

#: Standard errors allowed between the sample mean and lambda.  At five the
#: chance that a correct program fails is below 1e-4 per check even for the
#: skewed, few-replicate plans of ``dense_count`` and ``large_n``.
MEAN_Z = 5.0

#: Relative tolerance of the graphon mu against its closed form (ced3ec9's
#: midpoint rule with Richardson extrapolation is within 4e-7 on K4).
GRAPHON_MU_RTOL = 1e-6

#: Relative tolerance of mu_sbm against the dense-tensor reference; both sum
#: the same positive terms, only in another order.
SBM_MU_RTOL = 1e-9

INVARIANT_FAMILIES = motif.BUILTIN_FAMILIES
INVARIANT_SIZES = range(3, 10)  # K10 takes 32 s at commit ced3ec9
GRAPHON_BOUND_MOTIFS = ("cycle:4", "complete:4", "cycle:5", "complete:5")
SBM_MU_MOTIFS = ("complete:5", "complete:6", "complete:7")
GRAPHON_BOUND_N = 200


def input_seed(seed: int, index: int) -> int:
    """64-bit input seed for item ``index`` of a workload, derived from the
    benchmark seed independently of the library's own seed mixing."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass
class Outcome:
    """Result of one public-API call: its value, or the exception it raised."""

    key: str
    value: object = None
    error: BaseException | None = None


#: One call of a workload: a key naming it, and a function of the worker
#: thread count that makes it.  The function looks the library function up
#: on its module at call time, so a traced pass reaches the wrapper.
Call = tuple[str, Callable[[int], object]]


@dataclass
class Workload:
    name: str
    build: Callable[[int], object]
    calls: Callable[[object], list[Call]]
    #: (call key, problem) for every output that fails the gate
    check: Callable[[object, list[Outcome]], list[tuple[str, str]]]
    #: worker threads of an extra pass that must reproduce the serial
    #: passes exactly; 1 means no such pass
    workers: int = 1
    #: (model, n) pairs whose single-graph sampler memory is reported
    sampled: Callable[[object], list[tuple[object, int]]] = field(
        default=lambda inputs: []
    )


def fingerprint(outcome: Outcome):
    """Comparable form of one call's result, wall-clock data excluded."""
    if outcome.error is not None:
        return ("error", type(outcome.error).__name__)
    value = outcome.value
    if isinstance(value, mp.MotifStats):
        return stats_record(value)
    return value.to_dict() if hasattr(value, "to_dict") else value


# ------------------------------------------------------------- ensembles


def _plans(seed: int, specs, replicates: int) -> list[mp.SimulationPlan]:
    return [
        mp.SimulationPlan(
            model=model,
            motif=mp.motif_from_string(m),
            n=n,
            replicates=replicates,
            seed=input_seed(seed, i),
        )
        for i, (model, m, n) in enumerate(specs)
    ]


def ensemble_plans(seed: int) -> list[mp.SimulationPlan]:
    """The three criterion-6 scenarios, 1000 replicates each."""
    return _plans(
        seed,
        [
            (
                mp.SbmParams(2, (0.5, 0.5), ((0.0277, 0.01385), (0.01385, 0.0277))),
                "complete:3",
                100,
            ),
            (mp.erdos_renyi(1.5 / 60), "cycle:4", 60),
            (
                mp.GraphonSpec(
                    family="piecewise_constant",
                    breakpoints=(0.0, 0.5, 1.0),
                    values=((0.02, 0.005), (0.005, 0.02)),
                ),
                "complete:3",
                120,
            ),
        ],
        replicates=1000,
    )


def dense_count_plans(seed: int) -> list[mp.SimulationPlan]:
    """Hundreds of copies per graph (lambda about 355 and 196)."""
    return _plans(
        seed,
        [(mp.erdos_renyi(0.3), "complete:4", 60), (mp.erdos_renyi(0.12), "cycle:5", 40)],
        replicates=50,
    )


def large_n_plans(seed: int) -> list[mp.SimulationPlan]:
    """Triangles at n = 4000, where the O(n^2) sampler dominates."""
    n = 4000
    return _plans(
        seed,
        [
            (mp.erdos_renyi(2.0 / n), "complete:3", n),
            (
                mp.GraphonSpec(
                    family="piecewise_constant",
                    breakpoints=(0.0, 0.5, 1.0),
                    values=((3.0 / n, 1.0 / n), (1.0 / n, 3.0 / n)),
                ),
                "complete:3",
                n,
            ),
        ],
        replicates=3,
    )


def plan_calls(plans: list[mp.SimulationPlan]) -> list[Call]:
    return [
        (f"plan{i}", lambda threads, p=p: simulate.run(p, threads=threads))
        for i, p in enumerate(plans)
    ]


def check_mean(plan: mp.SimulationPlan, s: mp.SimulationSummary) -> str | None:
    """|mean - lambda| within MEAN_Z standard errors.  The variance is
    floored at lambda (the Poisson variance) so a few equal counts cannot
    shrink the standard error to zero."""
    se = math.sqrt(max(s.sample_variance, s.lam) / s.replicates)
    if abs(s.sample_mean - s.lam) > MEAN_Z * se:
        return (
            f"{plan.motif.vertex_count}-vertex motif at n={plan.n}: mean "
            f"{s.sample_mean} is more than {MEAN_Z} SE ({se}) from lambda {s.lam}"
        )
    return None


def check_tv(s: mp.SimulationSummary) -> str | None:
    slack = 3 * s.tv_standard_error
    if s.theoretical_bound is None or not s.empirical_tv <= s.theoretical_bound + slack:
        return f"empirical TV {s.empirical_tv} exceeds bound {s.theoretical_bound} + {slack}"
    return None


def _check_ensemble(plans, outcomes, with_tv: bool) -> list[tuple[str, str]]:
    failures = []
    for plan, out in zip(plans, outcomes):
        if out.error is not None:
            failures.append((out.key, f"raised {out.error!r}"))
            continue
        for problem in (check_mean(plan, out.value), check_tv(out.value) if with_tv else None):
            if problem:
                failures.append((out.key, problem))
    return failures


def _sampled(plans) -> list[tuple[object, int]]:
    return [(p.model, p.n) for p in plans]


# ------------------------------------------------------------ invariants


@dataclass
class InvariantInputs:
    stats_motifs: dict[str, mp.Motif]
    graphons: dict[str, mp.GraphonSpec]
    bound_motifs: dict[str, mp.Motif]
    sbm: mp.SbmParams
    mu_motifs: dict[str, mp.Motif]
    expected: dict


def invariant_inputs(seed: int, expected: dict | None = None) -> InvariantInputs:
    """Fixed builtin motifs (their cost does not depend on the seed); the
    graphon scales and the 6-class block model are drawn from the seed."""
    rng = np.random.default_rng(input_seed(seed, 0))
    f = rng.dirichlet(np.ones(6))
    pi = rng.uniform(0.05, 0.6, (6, 6))
    pi = (pi + pi.T) / 2
    if expected is None:
        expected = json.loads(EXPECTED_INVARIANTS.read_text())
    return InvariantInputs(
        stats_motifs={
            f"{fam}:{v}": mp.builtin_motif(fam, v)
            for fam in INVARIANT_FAMILIES
            for v in INVARIANT_SIZES
        },
        graphons={
            fam: mp.GraphonSpec(family=fam, scale=float(rng.uniform(0.2, 0.9)))
            for fam in ("product", "affine_mean")
        },
        bound_motifs={m: mp.motif_from_string(m) for m in GRAPHON_BOUND_MOTIFS},
        sbm=mp.SbmParams(6, tuple(f / f.sum()), tuple(map(tuple, pi))),
        mu_motifs={m: mp.motif_from_string(m) for m in SBM_MU_MOTIFS},
        expected=expected,
    )


def _cold_stats(m: mp.Motif) -> mp.MotifStats:
    motif.compute_stats.cache_clear()  # the call does its full work
    return motif.compute_stats(m)


def invariant_calls(inp: InvariantInputs) -> list[Call]:
    calls: list[Call] = [
        (f"stats/{key}", lambda threads, m=m: _cold_stats(m))
        for key, m in inp.stats_motifs.items()
    ]
    calls += [
        (
            f"bound/{fam}/{key}",
            lambda threads, spec=spec, m=m: bounds.bound_graphon(spec, m, GRAPHON_BOUND_N),
        )
        for fam, spec in inp.graphons.items()
        for key, m in inp.bound_motifs.items()
    ]
    calls += [
        (f"mu_sbm/{key}", lambda threads, m=m: bounds.mu_sbm(inp.sbm, m))
        for key, m in inp.mu_motifs.items()
    ]
    return calls


def stats_record(s: mp.MotifStats) -> dict:
    """Every MotifStats field, rationals as exact ``p/q`` strings."""
    return {
        "density": str(s.density),
        "alpha": str(s.alpha),
        "gamma": str(s.gamma),
        "automorphism_count": s.automorphism_count,
        "rho": s.rho,
        "strictly_balanced": s.strictly_balanced,
        "kappa": {str(k): str(v) for k, v in sorted(s.kappa.items())},
        "degrees": list(s.degrees),
    }


def product_mu_exact(m: mp.Motif, c: float) -> float:
    """mu of c*x*y: each vertex u contributes E[x^deg(u)] = 1/(deg(u)+1)."""
    return c ** m.edge_count / math.prod(d + 1 for d in m.degrees)


def affine_mean_mu_exact(m: mp.Motif, c: float) -> float:
    """mu of c*(x+y)/2 by expanding prod (x_a + x_b) over the edges into
    monomials, each integrated exactly."""
    total = Fraction(0)
    for picks in itertools.product((0, 1), repeat=m.edge_count):
        powers = [0] * m.vertex_count
        for edge, pick in zip(m.edges, picks):
            powers[edge[pick]] += 1
        total += Fraction(1, math.prod(p + 1 for p in powers))
    return (c / 2) ** m.edge_count * float(total)


def sbm_mu_reference(params: mp.SbmParams, m: mp.Motif) -> float:
    """Dense Q^v tensor of class-tuple weights times edge probabilities."""
    q, v = params.class_count, m.vertex_count
    f = np.asarray(params.proportions)
    pi = np.asarray(params.edge_probs)
    t = np.ones((q,) * v)
    for i in range(v):
        t = t * f.reshape([q if j == i else 1 for j in range(v)])
    for a, b in m.edges:
        t = t * pi.reshape([q if j in (a, b) else 1 for j in range(v)])
    return float(t.sum())


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_invariants(inp: InvariantInputs, outcomes: list[Outcome]) -> list[tuple[str, str]]:
    failures = []
    exact_mu = {"product": product_mu_exact, "affine_mean": affine_mean_mu_exact}
    for out in outcomes:
        kind, _, key = out.key.partition("/")
        if out.error is not None:
            # ced3ec9's quadrature refuses 64^5 > 1e8 terms up front
            refusable = kind == "bound" and inp.bound_motifs[key.split("/")[1]].vertex_count >= 5
            if not (refusable and isinstance(out.error, TooManyTerms)):
                failures.append((out.key, f"raised {out.error!r}"))
        elif kind == "stats":
            got, want = stats_record(out.value), inp.expected.get(key)
            if got != want:
                failures.append((out.key, f"{got} != recorded {want}"))
        elif kind == "bound":
            fam, mkey = key.split("/")
            want = exact_mu[fam](inp.bound_motifs[mkey], inp.graphons[fam].scale)
            if not _rel(out.value.mu, want) <= GRAPHON_MU_RTOL:
                failures.append((out.key, f"mu {out.value.mu} vs exact {want}"))
        else:
            want = sbm_mu_reference(inp.sbm, inp.mu_motifs[key])
            if not _rel(out.value, want) <= SBM_MU_RTOL:
                failures.append((out.key, f"mu {out.value} vs reference {want}"))
    return failures


# -------------------------------------------------------------- registry


def _ensemble_workload(name, plans, workers, with_tv=False) -> Workload:
    return Workload(
        name=name,
        build=plans,
        calls=plan_calls,
        check=lambda p, o: _check_ensemble(p, o, with_tv),
        workers=workers,
        sampled=_sampled,
    )


WORKLOADS = {
    w.name: w
    for w in (
        _ensemble_workload("ensemble", ensemble_plans, WORKERS, with_tv=True),
        _ensemble_workload("dense_count", dense_count_plans, WORKERS),
        # a threaded pass would hold two 4000-vertex graphs at once and
        # double the peak memory this workload reports
        _ensemble_workload("large_n", large_n_plans, 1),
        Workload(
            name="invariants",
            build=invariant_inputs,
            calls=invariant_calls,
            check=check_invariants,
        ),
    )
}

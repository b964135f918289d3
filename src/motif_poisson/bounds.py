"""Poisson-approximation error bounds for motif counts.

Every itemised bound is the dependent-edge (nu-table) bound: a term for
copies meeting at a single vertex, a term for a second copy on the same
position, and one term per overlap size ``s``, fed by the probabilities
at the triples :meth:`NuTable.required_triples` lists, times a
dependence-width factor.  The block-model, independent-edge and graphon
variants are this bound with the power table ``x ** k`` of their
worst-case edge probability (pi*, nu_max, h*) and widths 1, 1 and 2.
All variants require a strictly balanced motif, and all take one
prefactor, ``1 - exp(-lambda)``, which is at most ``min(1, lambda)`` for
every lambda >= 0.

The occurrence probability mu is exact in both models: the homomorphism
density of the motif in the class graph, a sum over class tuples of the
weight and edge-probability products, with Gauss-Legendre nodes standing
in for the classes of a smooth graphon.  It is summed out one motif vertex
at a time by :func:`~motif_poisson.homs._contract`, on the one elimination
plan that the homomorphism counts of :mod:`~motif_poisson.homs` also run.

Large combinatorial factors are evaluated in floating point via product
forms; the relative error budget of the assembled bounds is ~1e-12.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .errors import (
    IncompleteNuTable,
    InvalidParams,
    NotStrictlyBalanced,
    instance,
    integer,
    known_keys,
    probability,
    real,
    sequence,
)
from .homs import _contract
from .models import GraphonSpec, SbmParams, graphon_to_sbm, h_star
from .motif import Motif, MotifStats, check_fits, compute_stats, motif_arg


def _binom_float(n: int, k: int) -> float:
    """C(n, k) as a float, in product form to avoid huge intermediates."""
    out = 1.0
    for i in range(k):
        out *= (n - i) / (i + 1)
    return out


def _require_strictly_balanced(m: Motif) -> MotifStats:
    """The motif's invariants, or NotStrictlyBalanced: every bound needs it."""
    stats = compute_stats(m)
    if not stats.strictly_balanced:
        raise NotStrictlyBalanced(
            "bound requires a strictly balanced motif (gamma > 0)"
        )
    return stats


# ------------------------------------------------------------------ mu


def mu_sbm(params: SbmParams, m: Motif) -> float:
    """Occurrence probability of one fixed copy of the motif under the
    block model: the exact average of the edge-probability product over all
    class assignments of the motif's vertices, at most 1 (proportions may
    sum to 1 + 1e-12, and lift it above 1 where every probability is 1)."""
    m = motif_arg(m)
    weights = np.asarray(instance(params, "model", SbmParams).proportions)
    mat = np.asarray(params.edge_probs)
    return min(1.0, _contract(weights, mat, m.vertex_count, m.edges))


def mu_graphon(spec: GraphonSpec, m: Motif) -> float:
    """Occurrence probability under the graphon model, exactly.

    Piecewise-constant surfaces reduce to the block model.  The smooth
    families are polynomials of degree one in each argument, so the
    integrand has degree deg(u) in x_u, and Gauss-Legendre quadrature with
    ceil((max degree + 1) / 2) nodes on [0, 1] integrates it exactly.
    """
    m = motif_arg(m)
    if instance(spec, "graphon", GraphonSpec).family == "piecewise_constant":
        return mu_sbm(graphon_to_sbm(spec), m)
    x, weights = _legendre((max(m.degrees) + 2) // 2)
    mat = spec.evaluate(x[:, None], x[None, :])
    return _contract(weights, mat, m.vertex_count, m.edges)


@lru_cache(maxsize=None)
def _legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` Gauss-Legendre nodes on [0, 1] and their weights, both
    read-only, as every later call gets them."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    x, w = (nodes + 1.0) / 2.0, weights / 2.0
    x.flags.writeable = w.flags.writeable = False
    return x, w


def lambda_value(m: Motif, n: int, mu: float) -> float:
    """Expected copy count: positions times copies per position times the
    single-copy occurrence probability ``mu``, which must lie in [0, 1]."""
    n = integer(n, "n")
    mu = probability(mu, "mu")
    check_fits(m, n)
    return _binom_float(n, m.vertex_count) * compute_stats(m).rho * mu


# --------------------------------------------------------------- reports


@dataclass(frozen=True)
class BoundReport:
    """A fully itemised total-variation bound.

    ``bound`` equals ``prefactor * rho * dependence_factor *
    (pair_term + same_position_term + sum of overlap_terms)`` exactly as
    assembled.  The prefactor is always ``1 - exp(-lambda)``, never more
    than the other valid one, ``min(1, lambda)``; ``to_dict`` names it as
    ``prefactor_used``.  ``mu`` is evaluated on the elimination plan of
    :func:`~motif_poisson.homs._plan`.
    """

    variant: str
    mu: float
    lam: float
    prefactor: float
    rho: int
    dependence_factor: float
    pair_term: float
    same_position_term: float
    overlap_terms: Mapping[int, float]
    bound: float

    @property
    def vacuous(self) -> bool:
        """True when the bound exceeds 1 and so says nothing."""
        return self.bound > 1.0

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "mu": self.mu,
            "lambda": self.lam,
            "prefactor": self.prefactor,
            "prefactor_used": "1-exp(-lambda)",
            "rho": self.rho,
            "dependence_factor": self.dependence_factor,
            "per_term": {
                "pair_term": self.pair_term,
                "same_position_term": self.same_position_term,
                "overlap_terms": {
                    str(s): t for s, t in sorted(self.overlap_terms.items())
                },
            },
            "bound": self.bound,
            "vacuous": self.vacuous,
        }


def _finite(report, where: str):
    """``report``, or InvalidParams if one of its numbers is infinite or NaN,
    which JSON cannot hold.  The overlap terms sum into ``bound``, so its
    top-level numbers cover them."""
    if not all(math.isfinite(x) for x in vars(report).values() if isinstance(x, float)):
        raise InvalidParams(f"bound is not finite at {where}")
    return report


def _assemble(
    variant: str, m: Motif, n: int, mu: float, prob: Callable[..., float], g: int
) -> BoundReport:
    """The bound with dependence width ``g`` whose probabilities are
    ``prob(k, v, s)`` at the triples of :meth:`NuTable.required_triples`,
    read in that order: a whole copy, one edge, then one per overlap size."""
    triples = NuTable.required_triples(m)
    pair_prob, same_prob, *overlap_probs = (prob(*t) for t in triples)
    v = m.vertex_count
    rho = compute_stats(m).rho
    where = f"n={n}, g={g}, motif with {v} vertices and {m.edge_count} edges"
    try:
        lam = lambda_value(m, n, mu)
        nf, gf = float(n), float(g)
        pair = 2.0 * v * v / math.factorial(v) * nf ** (v - 1) * pair_prob
        overlaps = {
            s: math.comb(v, s) * nf ** (v - s) * p / math.factorial(v - s)
            for (_, _, s), p in zip(triples[2:], overlap_probs)
        }
        bracket = math.fsum([pair, same_prob, *overlaps.values()])
    except OverflowError:
        raise InvalidParams(f"bound overflows at {where}") from None
    prefactor = -math.expm1(-lam)
    report = BoundReport(
        variant=variant,
        mu=mu,
        lam=lam,
        prefactor=prefactor,
        rho=rho,
        dependence_factor=gf,
        pair_term=pair,
        same_position_term=same_prob,
        overlap_terms=overlaps,
        bound=prefactor * rho * gf * bracket,
    )
    return _finite(report, where)


def _powers(x: float) -> Callable[..., float]:
    """The probabilities of ``NuTable.from_power(x, m)``, unbuilt."""
    return lambda k, v, s: x ** float(k)


# ---------------------------------------------------------------- bounds


def bound_sbm(params: SbmParams, m: Motif, n: int) -> BoundReport:
    """Total-variation bound for the block model, driven by the maximum
    edge probability; non-integer overlap exponents are applied as real
    powers of it."""
    _require_strictly_balanced(m)
    return _assemble("sbm", m, n, mu_sbm(params, m), _powers(params.pi_star), 1)


def bound_independent_edges(m: Motif, n: int, nu_max: float) -> BoundReport:
    """Bound for independent (not necessarily identical) edges with maximum
    mean ``nu_max``, whose powers feed the terms.  The reference mean uses
    ``nu_max ** e`` for the occurrence probability, which is exact in the
    equal-probability case and the natural ceiling otherwise."""
    _require_strictly_balanced(m)
    nu_max = probability(nu_max, "nu_max")
    return _assemble("independent", m, n, nu_max**m.edge_count, _powers(nu_max), 1)


def _exponent(k) -> Fraction:
    """A nu-table ``k``: a Fraction, an int, or a ``"p"`` or ``"p/q"``
    string of integers (``Fraction`` itself would also parse "1e9999999",
    into ten million digits)."""
    if isinstance(k, str):
        try:
            return Fraction(*map(int, k.split("/")))
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    elif isinstance(k, Fraction) or type(k) is int:
        return Fraction(k)
    raise InvalidParams(f"nu-table k must be an integer or 'p/q', got {k!r}")


@dataclass(frozen=True)
class NuTable:
    """Worst-case conditional probabilities for dependent edge models.

    ``entries[(k, v, s)]`` bounds the probability that ``k`` further edges
    are all present given ``v`` motif edges whose vertex sets share ``s``
    vertices with them.  ``k`` follows the overlap exponent and may be a
    non-integer rational, given as a Fraction, an int or a ``"p"`` or
    ``"p/q"`` string; keys are stored as exact fractions and must be
    supplied at exactly the exponents the bound consumes.
    """

    entries: Mapping[tuple[Fraction, int, int], float] = field(
        default_factory=dict
    )

    def __post_init__(self):
        norm = {}
        for (k, v, s), val in self.entries.items():
            key = (_exponent(k), integer(v, "nu-table v"), integer(s, "nu-table s"))
            norm[key] = probability(val, "nu value")
        object.__setattr__(self, "entries", norm)

    def lookup(self, k: Fraction, v: int, s: int) -> float:
        try:
            return self.entries[k, v, s]
        except KeyError:
            raise IncompleteNuTable(
                f"missing nu entry for (k={k}, v={v}, s={s})"
            ) from None

    @staticmethod
    def required_triples(m: Motif) -> tuple[tuple[Fraction, int, int], ...]:
        """Every (k, v, s) triple the dependent-edge bound consumes, in the
        order it reads them: ``k = e`` for a whole copy, ``k = 1`` for one
        edge, then ``k = kappa(s)`` for each overlap size ``s``."""
        stats = compute_stats(m)
        e = m.edge_count
        triples = [(Fraction(e), e, 1), (Fraction(1), e, 1)]
        triples.extend((stats.kappa[s], e, s) for s in sorted(stats.kappa))
        return tuple(triples)

    @classmethod
    def from_power(cls, nu: float, m: Motif) -> "NuTable":
        """The table ``nu ** k`` at every required triple (the block-model,
        independent and graphon specialisations)."""
        power = _powers(probability(nu, "nu"))
        return cls({t: power(*t) for t in cls.required_triples(m)})

    def to_dict(self) -> dict:
        return {
            "entries": [
                {"k": str(k), "v": v, "s": s, "value": val}
                for (k, v, s), val in sorted(
                    self.entries.items(), key=lambda kv: (kv[0][2], kv[0][0])
                )
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NuTable":
        entries = {}
        rows = known_keys(data, ("entries",), "nu-table").get("entries", [])
        for row in sequence(rows, "nu-table 'entries'"):
            known_keys(row, ("k", "v", "s", "value"), "nu-table row")
            try:
                entries[row["k"], row["v"], row["s"]] = row["value"]
            except (KeyError, TypeError) as exc:
                raise InvalidParams(f"malformed nu-table row {row!r}") from exc
        return cls(entries)


def bound_nu(m: Motif, n: int, g: int, mu: float, nu: NuTable) -> BoundReport:
    """Bound for locally dependent edge probabilities.

    ``g`` caps the width of any edge's dependence neighborhood and ``mu``
    is the model's occurrence probability, supplied by the caller because
    the general dependent model leaves it model-specific.
    """
    _require_strictly_balanced(m)
    g = integer(g, "dependence width g")
    if g < 1:
        raise InvalidParams("dependence width g must be >= 1")
    return _assemble("nu", m, n, probability(mu, "mu"), nu.lookup, g)


def bound_graphon(spec: GraphonSpec, m: Motif, n: int) -> BoundReport:
    """Bound for the graphon model: edges sharing a vertex are dependent,
    giving dependence width 2, with the graphon's maximum in place of the
    maximum edge probability."""
    _require_strictly_balanced(m)
    return _assemble("graphon", m, n, mu_graphon(spec, m), _powers(h_star(spec)), 2)


# ---------------------------------------------------------- scaled form


@dataclass(frozen=True)
class ScaledBoundReport:
    """Bound under the critical scaling where every edge probability sits
    between ``c * n^(-1/d)`` and ``C * n^(-1/d)``: the expected count is
    then sandwiched in ``[lambda_lower, lambda_upper]`` and the bound uses
    the smaller of the two overlap envelopes A and B."""

    C: float
    c: float
    n: int
    lambda_lower: float
    lambda_upper: float
    A: float
    B: float
    bound: float

    def to_dict(self) -> dict:
        return {"variant": "scaled", **asdict(self)}


def bound_scaled(m: Motif, n: int, c: float, C: float) -> ScaledBoundReport:
    """Evaluate the scaled-regime bound for constants ``0 < c <= C``."""
    stats = _require_strictly_balanced(m)
    c, C = real(c, "c"), real(C, "C")
    if not 0 < c <= C:
        raise InvalidParams("need 0 < c <= C")
    n = integer(n, "n")
    check_fits(m, n)
    v, e = m.vertex_count, m.edge_count
    d = float(stats.density)
    alpha = float(stats.alpha)
    gamma = float(stats.gamma)
    rho = stats.rho
    where = f"C={C!r}, n={n}, motif with {v} vertices and {e} edges"
    try:
        lam_lo = rho / v**v * c**e
        lam_hi = rho / math.factorial(v) * C**e
        nf = float(n)
        a_env = (1.0 + C**alpha) ** (v - 1) * nf ** (1.0 - alpha / d)
        b_env = C ** (e + gamma) * (1.0 + C**-d) ** (v - 1) * nf ** (-gamma / d)
        bound = (
            min(1.0, lam_hi)
            * rho
            * (
                2.0 * v * v / math.factorial(v) * C**e / nf
                + C * nf ** (-1.0 / d)
                + min(a_env, b_env)
            )
        )
    except OverflowError:
        raise InvalidParams(f"bound overflows at {where}") from None
    report = ScaledBoundReport(
        C=C,
        c=c,
        n=n,
        lambda_lower=lam_lo,
        lambda_upper=lam_hi,
        A=a_env,
        B=b_env,
        bound=bound,
    )
    return _finite(report, where)


def rate_exponent(m: Motif) -> Fraction:
    """Decay exponent of the block-model bound when the maximum edge
    probability scales critically as ``n^(-1/d)``: the slowest of the
    pair term (exponent 1), the same-position term (1/d) and each overlap
    term (kappa(s)/d - (v - s)), in exact rationals."""
    stats = _require_strictly_balanced(m)
    v = m.vertex_count
    d = stats.density
    candidates = [Fraction(1), 1 / d]
    candidates.extend(stats.kappa[s] / d - (v - s) for s in stats.kappa)
    return min(candidates)

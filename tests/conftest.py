"""Shared test helpers: small independent oracles and random instances."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from motif_poisson import (
    Motif,
    SampledGraph,
    SbmParams,
    graph_from_edge_text,
    motif_from_edge_list,
    poisson_pmf,
)
from motif_poisson import bitrows
from motif_poisson.bitrows import Batch
from motif_poisson.motif import Edge


def subgraph_minima_oracle(m: Motif) -> tuple[Fraction, Fraction]:
    """(alpha, gamma) straight from the definitions: iterate every proper
    non-empty edge subset, take the subgraph on its endpoints."""
    v, e = m.vertex_count, m.edge_count
    d = Fraction(e, v)
    alpha = None
    gamma = None
    for r in range(1, e):
        for sub in itertools.combinations(m.edges, r):
            vh = len({x for ed in sub for x in ed})
            eh = len(sub)
            g_term = d * vh - eh
            if gamma is None or g_term < gamma:
                gamma = g_term
            if vh < v:
                a_term = Fraction(e - eh, v - vh)
                if alpha is None or a_term < alpha:
                    alpha = a_term
    return alpha, gamma


def subgraph_minima_reference(
    m: Motif,
) -> tuple[Fraction, tuple[Edge, ...], Fraction, tuple[Edge, ...]]:
    """(alpha, its witness, gamma, its witness) by the vertex-set reduction
    as first written: one pass over the vertex masks that builds each
    candidate as a Fraction, kept to pin the integer recurrence of
    ``motif._subgraph_minima_by_vertex_sets`` output for output.

    A subgraph without isolated vertices is an edge subset together with
    its endpoints.  Both minima are monotone in the subgraph's edge count at
    fixed vertex count, so only the densest subgraph on each vertex set
    matters: the induced subgraph, valid whenever it leaves no vertex
    isolated.  Proper spanning subgraphs additionally contribute to gamma;
    the best of those removes a single edge whose endpoints both have
    degree >= 2 (if every edge has a degree-1 endpoint, any removal isolates
    a vertex and no proper spanning subgraph exists).  Each witness is the
    first minimiser in vertex-mask order, the spanning candidate last.
    """
    v, e = m.vertex_count, m.edge_count
    adj = m.neighbor_masks()
    deg = m.degrees

    alpha: Fraction | None = None
    gamma: Fraction | None = None
    alpha_mask = gamma_mask = 0
    for mask in range(1, (1 << v) - 1):
        members = [i for i in range(v) if (mask >> i) & 1]
        if any(adj[i] & mask == 0 for i in members):
            continue  # induced subgraph would isolate i
        v_h = len(members)
        e_h = sum((adj[i] & mask).bit_count() for i in members) // 2
        g_cand = Fraction(e * v_h - v * e_h, v)
        if gamma is None or g_cand < gamma:
            gamma, gamma_mask = g_cand, mask
        a_cand = Fraction(e - e_h, v - v_h)
        if alpha is None or a_cand < alpha:
            alpha, alpha_mask = a_cand, mask
    assert alpha is not None and gamma is not None  # any edge is a candidate

    def induced(mask: int) -> tuple[Edge, ...]:
        return tuple((a, b) for a, b in m.edges if (mask >> a) & (mask >> b) & 1)

    gamma_witness = induced(gamma_mask)
    removable = [(a, b) for a, b in m.edges if deg[a] >= 2 and deg[b] >= 2]
    # the spanning graph minus one edge scores d*v - (e - 1) = 1
    if removable and gamma > 1:
        gamma = Fraction(1)
        gamma_witness = tuple(x for x in m.edges if x != removable[0])
    return alpha, induced(alpha_mask), gamma, gamma_witness


def automorphisms_oracle(m: Motif) -> int:
    """Count permutations fixing the edge set, by full enumeration."""
    es = set(m.edges)
    total = 0
    for p in itertools.permutations(range(m.vertex_count)):
        if all(tuple(sorted((p[a], p[b]))) in es for a, b in m.edges):
            total += 1
    return total


def random_motif(rng: np.random.Generator, v_max: int = 5) -> Motif:
    """A random valid motif: pick an edge subset of K_v with at least two
    edges; dense renumbering drops untouched vertices."""
    while True:
        v = int(rng.integers(3, v_max + 1))
        pairs = list(itertools.combinations(range(v), 2))
        k = int(rng.integers(2, len(pairs) + 1))
        chosen = [pairs[i] for i in rng.choice(len(pairs), size=k, replace=False)]
        try:
            return motif_from_edge_list(chosen)
        except Exception:
            continue


def graph_from_edges(n: int, edges) -> SampledGraph:
    return graph_from_edge_text("".join(f"{u} {v}\n" for u, v in edges), n)


def complete_graph(n: int) -> SampledGraph:
    return graph_from_edges(n, itertools.combinations(range(n), 2))


def scanned(rows: np.ndarray, n: int) -> Batch:
    """The batch of rows of n-vertex graphs stacked n rows a graph, its
    nonzero words found by a fresh scan."""
    return Batch(rows, n, len(rows) // n, bitrows.nonzero_words(rows))


def replayed_latents(n: int, seed: int) -> np.ndarray:
    """The latent uniforms of the graph a sampler draws from ``seed``: both
    samplers start with n draws from the Philox generator keyed by it."""
    return np.random.Generator(np.random.Philox(key=seed)).random(n)


def replayed_labels(params: SbmParams, n: int, seed: int) -> tuple[int, ...]:
    """The class labels of ``sample_sbm(params, n, seed)``: its latents by
    inverse CDF over the proportions, capped at the last class."""
    cum = np.asarray(params.proportions).cumsum()
    labels = cum.searchsorted(replayed_latents(n, seed), side="right")
    return tuple(np.minimum(labels, params.class_count - 1).tolist())


def poisson_tail(lam: float, k: int) -> float:
    """P(X > k) for X ~ Poisson(lam): one minus the compensated CDF."""
    return max(0.0, 1.0 - math.fsum(poisson_pmf(lam, j) for j in range(k + 1)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

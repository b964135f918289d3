"""Exact motif counting.

``count_copies`` is the production counter: a backtracking search for
injective edge-preserving maps with bitset candidate filtering, under the
symmetry-breaking conditions of Grochow & Kellis (RECOMB 2007), so each
copy is found exactly once; the injection count is the copy count times the
automorphism count, not enumerated.  The search is one loop over an
explicit stack, not recursion: per graph it builds one mask of the vertices
of high enough degree for each degree the motif needs, and it never
iterates the last position, whose candidate mask's popcount is the number
of copies completed there.  ``count_copies_bruteforce`` enumerates
every vertex-set position and every distinct copy of the motif on it,
exactly as the count is defined, and serves as the independent oracle.
Copies are counted, not induced copies: extra edges among the image
vertices are permitted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import GraphTooLargeForOracle, MotifLargerThanGraph
from .models import SampledGraph
from .motif import Motif, _canonical_edges, compute_stats, stabiliser_orbits

#: The brute-force oracle lists the v! vertex permutations once, then tests
#: all copies per position at all C(n, v) positions.  That blows up
#: combinatorially, so both the graph and the work are capped (K_10 in K_14
#: alone lists 3.6 million permutations).
ORACLE_MAX_VERTICES = 14
ORACLE_MAX_WORK = 10**6


@dataclass(frozen=True)
class CopyCount:
    """A motif count together with the underlying injection count.

    ``injections`` is the number of injective edge-preserving maps from the
    motif into the graph, which is the copy count times the automorphism
    count.
    """

    count: int
    injections: int

    def __post_init__(self):
        if self.count < 0 or self.injections < 0:
            raise ValueError("counts must be non-negative")


class _SearchPlan(NamedTuple):
    """Per-motif work shared by every count.  For each position of the
    search order: the earlier positions holding already-mapped neighbors;
    the degree its image needs, or 0 where those neighbors already
    guarantee it; the symmetry-breaking floor (the earlier position whose
    image its own must exceed, or -1); and the earlier positions off its
    floor chain, whose images it must still avoid.  And the automorphism
    count."""

    back_edges: tuple[tuple[int, ...], ...]
    need_deg: tuple[int, ...]
    floor: tuple[int, ...]
    avoid: tuple[tuple[int, ...], ...]
    aut: int


@lru_cache(maxsize=None)
def _search_plan(m: Motif) -> _SearchPlan:
    """Connectivity-aware vertex order, computed once per motif.

    Each next vertex is chosen adjacent to as many placed vertices as
    possible (ties broken by degree), so connected motifs never restart the
    candidate set; disconnected motifs start each component fresh with
    injectivity still enforced globally.

    Symmetry is broken on the stabiliser chain of the motif relabelled into
    search order: an image at position ``i`` must exceed the image at every
    earlier ``k`` whose orbit holds ``i``, which keeps exactly one injection
    per automorphism class.  Only the largest such ``k`` needs checking: if
    ``i`` lies in the orbits of ``k1 < k2``, then ``k2`` lies in the orbit
    of ``k1``, so the image at ``k1`` is already below the one at ``k2``.

    Injectivity needs no test against the images on a position's floor
    chain (the floor, its floor, and so on): each is below the floor's
    image, which the position's own image exceeds.
    """
    v = m.vertex_count
    adj = m.neighbor_masks()
    deg = m.degrees
    order: list[int] = []
    placed = 0
    remaining = set(range(v))
    while remaining:
        best = max(
            remaining,
            key=lambda u: ((adj[u] & placed).bit_count(), deg[u], -u),
        )
        order.append(best)
        placed |= 1 << best
        remaining.remove(best)
    pos_of = {u: i for i, u in enumerate(order)}
    back_edges = tuple(
        tuple(sorted(pos_of[w] for w in range(v) if (adj[u] >> w) & 1 and pos_of[w] < i))
        for i, u in enumerate(order)
    )
    # an image adjacent to the images of k back neighbors has degree >= k
    need_deg = tuple(
        deg[u] if deg[u] > len(backs) else 0 for u, backs in zip(order, back_edges)
    )
    orbits = stabiliser_orbits(m.relabelled([pos_of[u] for u in range(v)]))
    floor = tuple(
        max((k for k in range(i) if (orbits[k] >> i) & 1), default=-1)
        for i in range(v)
    )
    avoid = []
    for i in range(v):
        chain = set()
        k = floor[i]
        while k >= 0:
            chain.add(k)
            k = floor[k]
        avoid.append(tuple(k for k in range(i) if k not in chain))
    aut = math.prod(orbit.bit_count() for orbit in orbits)
    return _SearchPlan(back_edges, need_deg, floor, tuple(avoid), aut)


def _degree_masks(adj: tuple[int, ...], degrees) -> dict[int, int]:
    """For each degree d, the bitmask of the vertices with at least d
    neighbors."""
    rdeg = [a.bit_count() for a in reversed(adj)]
    masks = {
        d: int("".join(["1" if x >= d else "0" for x in rdeg]), 2)
        for d in set(degrees) - {0}
    }
    masks[0] = (1 << len(adj)) - 1
    return masks


def count_copies(g: SampledGraph, m: Motif) -> CopyCount:
    """Exact number of copies of ``m`` in ``g``: the injective maps of the
    motif's vertices into the graph that carry every motif edge onto a
    graph edge, one per automorphism class.

    The search fills the positions of :func:`_search_plan`'s order one at a
    time, as a loop over an explicit stack of candidate masks.  A
    position's candidates are the vertices of high enough degree (one mask
    per needed degree, built once per graph), intersected with the
    neighbor rows of its mapped back neighbors, stripped of the images it
    could still repeat, and kept above its floor's image.  The last
    position is never iterated: its candidate mask's popcount is added to
    the count.
    """
    v = m.vertex_count
    if g.n < v:
        raise MotifLargerThanGraph(f"graph has {g.n} vertices, motif needs {v}")
    back_edges, need_deg, floor, avoid, aut = _search_plan(m)
    adj = g.adjacency
    masks = _degree_masks(adj, need_deg)
    steps = [
        (b, masks[d], f, a) for b, d, f, a in zip(back_edges, need_deg, floor, avoid)
    ]
    last = v - 1
    images = [0] * v
    bits = [0] * v
    cands = [0] * v
    total = 0
    pos = -1
    while True:
        # candidates of the position after ``pos``, images[:pos + 1] set
        backs, cand, f, earlier = steps[pos + 1]
        for q in backs:
            cand &= adj[images[q]]
        for q in earlier:
            cand &= ~bits[q]
        if f >= 0:
            lo = images[f] + 1
            cand = cand >> lo << lo
        if pos + 1 == last:
            total += cand.bit_count()
        elif cand:
            pos += 1
            cands[pos] = cand
        # the next image, at the deepest position with candidates left
        while pos >= 0 and not cands[pos]:
            pos -= 1
        if pos < 0:
            return CopyCount(count=total, injections=total * aut)
        cand = cands[pos]
        bit = cand & -cand
        cands[pos] = cand ^ bit
        bits[pos] = bit
        images[pos] = bit.bit_length() - 1


@lru_cache(maxsize=None)
def placement_edge_sets(m: Motif) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The distinct copies of the motif on placeholder slots ``0..v-1``:
    one canonical sorted edge tuple per copy, the whole family sorted.

    The family size equals v!/a(G); an assertion keeps that honest.
    """
    v = m.vertex_count
    seen = {
        _canonical_edges((p[a], p[b]) for a, b in m.edges)
        for p in itertools.permutations(range(v))
    }
    family = tuple(sorted(seen))
    assert len(family) == compute_stats(m).rho
    return family


def copies_on_vertices(
    m: Motif, alpha: tuple[int, ...]
) -> list[tuple[tuple[int, int], ...]]:
    """All distinct copies of ``m`` on the fixed vertex tuple ``alpha``, as
    sorted edge tuples in a deterministic order (sorted by edge set)."""
    if len(alpha) != m.vertex_count:
        raise ValueError("alpha must have exactly v(G) vertices")
    return sorted(
        _canonical_edges((alpha[a], alpha[b]) for a, b in slots)
        for slots in placement_edge_sets(m)
    )


def copy_indicators(
    g: SampledGraph, m: Motif, alpha: tuple[int, ...]
) -> list[int]:
    """Indicator per distinct copy on ``alpha`` (order of
    :func:`copies_on_vertices`): 1 iff every edge of that copy is in ``g``."""
    return [
        int(all(g.has_edge(u, w) for u, w in copy))
        for copy in copies_on_vertices(m, alpha)
    ]


def count_copies_bruteforce(g: SampledGraph, m: Motif) -> CopyCount:
    """Oracle counter: sum the copy indicators over every vertex-set
    position, literally as the count is defined."""
    v = m.vertex_count
    if g.n < v:
        raise MotifLargerThanGraph(f"graph has {g.n} vertices, motif needs {v}")
    if g.n > ORACLE_MAX_VERTICES:
        raise GraphTooLargeForOracle(
            f"oracle capped at {ORACLE_MAX_VERTICES} vertices, got {g.n}"
        )
    stats = compute_stats(m)
    work = math.factorial(v) + math.comb(g.n, v) * stats.rho
    if work > ORACLE_MAX_WORK:
        raise GraphTooLargeForOracle(
            f"oracle work v! + C(n, v) * rho = {work} exceeds {ORACLE_MAX_WORK}"
        )
    total = 0
    for alpha in itertools.combinations(range(g.n), v):
        total += sum(copy_indicators(g, m, alpha))
    return CopyCount(count=total, injections=total * stats.automorphism_count)

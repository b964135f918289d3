"""Motif representation and exact graph invariants.

A motif is a small fixed graph whose copies are counted inside a large
random graph.  All density-type invariants (density, alpha, gamma, the
overlap exponents kappa) are exact rationals: the strict inequalities that
define strict balancedness involve ties at rational values, so floating
point would make them untestable.  The subgraph minima are found by exact
integer comparisons over vertex sets, each turned into a Fraction once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DuplicateEdge,
    EmptyEdgeSet,
    InvalidMotifError,
    IsolatedVertex,
    MotifLargerThanGraph,
    SelfLoop,
    SingleEdge,
    TooLarge,
    integer,
)

#: Hard cap on motif size.  The invariant minima visit all 2^v vertex subsets
#: (1,024 integer steps at the cap) and the automorphism count backtracks
#: over vertex maps, so larger motifs are rejected rather than silently slow.
MAX_VERTICES = 10

Edge = tuple[int, int]

BUILTIN_FAMILIES = ("tree_path", "cycle", "almost_complete", "complete")


def _pair(e) -> Edge:
    """``e`` as a pair of vertex labels."""
    try:
        u, w = e
    except (TypeError, ValueError):
        raise InvalidMotifError(f"not a vertex pair: {e!r}") from None
    return integer(u, "vertex", InvalidMotifError), integer(w, "vertex", InvalidMotifError)


def _canonical_edges(pairs: Iterable[Edge]) -> tuple[Edge, ...]:
    """Each pair sorted, then the pairs sorted."""
    return tuple(sorted((u, w) if u < w else (w, u) for u, w in pairs))


@dataclass(frozen=True)
class Motif:
    """A labelled graph on vertices ``0..vertex_count-1`` with no isolated
    vertices, no self-loops, no repeated edge and more than one edge; the
    constructor raises an :class:`InvalidMotifError` subclass otherwise.

    Edges are stored canonically: each pair sorted, the tuple of pairs
    sorted.  Two motifs compare equal iff they are the same labelled graph.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        v = integer(self.vertex_count, "vertex count", InvalidMotifError)
        if v > MAX_VERTICES:
            raise TooLarge(f"motif has {v} vertices; cap is {MAX_VERTICES}")
        edges = _canonical_edges(_pair(e) for e in self.edges)
        if not edges:
            raise EmptyEdgeSet("motif requires at least one edge")
        for u, w in edges:
            if u == w:
                raise SelfLoop(f"self-loop at vertex {u}")
            if u < 0 or w >= v:
                bad = u if u < 0 else w
                raise InvalidMotifError(f"vertex {bad} outside 0..{v - 1}")
        for e, after in zip(edges, edges[1:]):
            if e == after:
                raise DuplicateEdge(f"edge {e} listed twice")
        if len(edges) == 1:
            raise SingleEdge("motif must have more than one edge")
        isolated = set(range(v)).difference(*edges)
        if isolated:
            raise IsolatedVertex(f"vertex {min(isolated)} is on no edge")
        object.__setattr__(self, "vertex_count", v)
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex adjacency bitsets."""
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def relabelled(self, perm: Sequence[int]) -> "Motif":
        """The same graph with vertex ``i`` renamed ``perm[i]``."""
        edges = tuple((perm[u], perm[w]) for u, w in self.edges)
        return Motif(self.vertex_count, edges)


def motif_from_edge_list(edges: Iterable[Sequence[int]]) -> Motif:
    """The motif on the given unordered vertex pairs, its vertices
    renumbered densely to ``0..v-1`` in label order; original labels are
    not retained.  Validation is :class:`Motif`'s."""
    pairs = [_pair(e) for e in edges]
    remap = {lab: i for i, lab in enumerate(sorted({x for e in pairs for x in e}))}
    return Motif(len(remap), tuple((remap[u], remap[w]) for u, w in pairs))


def builtin_motif(family: str, v: int) -> Motif:
    """One of the four standard families on ``v >= 3`` vertices.

    ``tree_path`` is the path (the canonical tree representative: the
    density-type invariants of a tree depend only on its edge count, so any
    tree shares them; other trees can be supplied as edge lists).
    ``almost_complete`` is the complete graph with one edge removed; at
    ``v = 3`` it coincides with the path.
    """
    if family not in BUILTIN_FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {BUILTIN_FAMILIES}"
        )
    v = integer(v, "motif size", InvalidMotifError)
    if v < 3:
        raise ValueError("builtin motifs require v >= 3")
    if v > MAX_VERTICES:
        raise TooLarge(f"motif has {v} vertices; cap is {MAX_VERTICES}")
    if family == "tree_path":
        edges = [(i, i + 1) for i in range(v - 1)]
    elif family == "cycle":
        edges = [(i, (i + 1) % v) for i in range(v)]
    else:
        edges = list(itertools.combinations(range(v), 2))
        if family == "almost_complete":
            # dropping (0, v-1) makes the v=3 case literally the path
            edges.remove((0, v - 1))
    return Motif(v, tuple(edges))

_SPEC_ALIASES = {
    "tree": "tree_path",
    "tree_path": "tree_path",
    "path": "tree_path",
    "cycle": "cycle",
    "almost_complete": "almost_complete",
    "complete": "complete",
}


def motif_from_string(spec: str) -> Motif:
    """Parse a ``family:v`` builtin reference, e.g. ``"cycle:5"``.  A size
    other than ASCII digits is a bad spec, as ``int`` would also read
    ``1_0`` and ``+5``.  A spec that is not a string raises
    InvalidMotifError."""
    if not isinstance(spec, str):
        raise InvalidMotifError(f"motif spec must be a string, got {type(spec).__name__}")
    name, _, size = spec.partition(":")
    name, size = name.strip().lower(), size.strip()
    if name not in _SPEC_ALIASES or not (size.isascii() and size.isdigit()):
        raise ValueError(
            f"bad motif spec {spec!r}; expected family:v with family in "
            f"{sorted(set(_SPEC_ALIASES))} and v in ASCII digits"
        )
    return builtin_motif(_SPEC_ALIASES[name], int(size))


def parse_edge_lines(text: str, error: type[Exception] = ValueError) -> Iterator[Edge]:
    """The ``u v`` pairs of edge-list text, one per line, with ``#``
    comments and blank lines skipped; any other line raises ``error``.
    The pairs are yielded as the lines are read, so a large graph's text is
    never held as a list of lines or of pairs."""
    start = 0
    while start <= len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        # splitlines' other separators, within one line
        for line in text[start:end].splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or not all(x.isdecimal() for x in parts):
                raise error(
                    f"bad edge line: {line!r}; expected two non-negative integers"
                )
            yield int(parts[0]), int(parts[1])
        start = end + 1


def motif_from_text(text: str) -> Motif:
    """Parse edge-list text: one ``u v`` pair per line, ``#`` comments."""
    return motif_from_edge_list(parse_edge_lines(text))


def motif_arg(m) -> Motif:
    """``m`` if it is a :class:`Motif`, or else InvalidMotifError."""
    if not isinstance(m, Motif):
        raise InvalidMotifError(f"motif must be a Motif, got {type(m).__name__}")
    return m


def stabiliser_orbits(m: Motif) -> tuple[int, ...]:
    """The orbits of the stabiliser chain of ``m``, as vertex bitmasks.

    Entry ``k`` is the orbit of vertex ``k`` under the pointwise stabiliser
    of ``0..k-1``: the set of ``w`` for which some automorphism fixes
    ``0..k-1`` and maps ``k`` to ``w``.  See :func:`_stabiliser_chain`."""
    return _stabiliser_chain(motif_arg(m))[0]


def _stabiliser_chain(m: Motif) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The stabiliser-chain orbits of ``m``, and the automorphisms found on
    the way, in the order found, each as the images of ``0..v-1``.

    The orbits are taken for k from v - 1 down to 0, so every automorphism
    found so far fixes ``0..k-1``.  Orbit k is first closed under all of
    them; then each ``w`` it has not reached is tested by a backtracking
    search for an automorphism that fixes ``0..k-1`` and maps ``k`` to
    ``w``, keeping degrees, edges and non-edges and stopping at the first
    hit.  A hit is kept and the orbit closed again, so no search is for a
    vertex that the automorphisms found before it already map ``k`` to.
    """
    v = m.vertex_count
    adj = m.neighbor_masks()
    deg = m.degrees
    everyone = (1 << v) - 1
    image = list(range(v))

    def extends(pos: int, used: int, allowed: int) -> bool:
        # can image[:pos] be completed with image[pos] in ``allowed``?
        if pos == v:
            return True
        # the placed vertices adjacent to image[pos] must be exactly the
        # images of pos's placed neighbors
        want = 0
        lower = adj[pos] & ((1 << pos) - 1)
        while lower:
            b = lower & -lower
            lower ^= b
            want |= 1 << image[b.bit_length() - 1]
        for cand in range(v):
            bit = 1 << cand
            if not allowed & bit or used & bit or deg[cand] != deg[pos]:
                continue
            if adj[cand] & used == want:
                image[pos] = cand
                if extends(pos + 1, used | bit, everyone):
                    return True
        return False

    def close(orbit: int) -> int:
        # the orbit's images under every kept automorphism, until none is new
        todo = [w for w in range(v) if orbit >> w & 1]
        while todo:
            w = todo.pop()
            for g in kept:
                if not orbit >> g[w] & 1:
                    orbit |= 1 << g[w]
                    todo.append(g[w])
        return orbit

    kept: list[tuple[int, ...]] = []
    orbits = [0] * v
    for k in reversed(range(v)):
        fixed = (1 << k) - 1  # image[i] == i for every i < k
        orbit = close(1 << k)
        for w in range(k + 1, v):
            if not orbit >> w & 1 and extends(k, fixed, 1 << w):
                kept.append(tuple(image))
                orbit = close(orbit)
        orbits[k] = orbit
    return tuple(orbits), tuple(kept)


def automorphism_count(m: Motif) -> int:
    """Order of the automorphism group of ``m``, by orbit-stabiliser: the
    product of the sizes of its ``stabiliser_orbits``."""
    return math.prod(orbit.bit_count() for orbit in stabiliser_orbits(m))


@dataclass(frozen=True)
class MotifStats:
    """Exact invariants of a motif.

    ``density`` is edges per vertex.  ``alpha`` is the minimum, over proper
    subgraphs on strictly fewer vertices, of the edge deficit per missing
    vertex; ``gamma`` is the minimum density gap scaled by subgraph order.
    ``alpha_witness`` and ``gamma_witness`` are the edges of a subgraph
    attaining each minimum.  ``kappa[s]`` is the overlap exponent used by
    the error bounds for two copies sharing ``s`` vertices.  ``rho`` is the
    number of distinct copies of the motif on a fixed vertex set of its own
    size.
    """

    density: Fraction
    alpha: Fraction
    gamma: Fraction
    automorphism_count: int
    rho: int
    strictly_balanced: bool
    kappa: Mapping[int, Fraction]
    degrees: tuple[int, ...]
    alpha_witness: tuple[Edge, ...]
    gamma_witness: tuple[Edge, ...]


def _subgraph_minima_by_vertex_sets(
    m: Motif,
) -> tuple[Fraction, tuple[Edge, ...], Fraction, tuple[Edge, ...]]:
    """(alpha, its witness, gamma, its witness) by a reduction over vertex
    subsets.

    A subgraph without isolated vertices is an edge subset together with
    its endpoints.  Both minima are monotone in the subgraph's edge count at
    fixed vertex count, so only the densest subgraph on each vertex set
    matters: the induced subgraph, valid whenever it leaves no vertex
    isolated.  Proper spanning subgraphs additionally contribute to gamma;
    the best of those removes a single edge whose endpoints both have
    degree >= 2 (if every edge has a degree-1 endpoint, any removal isolates
    a vertex and no proper spanning subgraph exists).

    The vertex sets are visited as bitmasks in ascending order, each built
    from the set ``rest`` without its lowest member i, seen before it: its
    induced edges are ``rest``'s plus i's neighbours in ``rest``, and the
    vertices with a neighbour in it are ``rest``'s plus i's neighbours.  A
    set is a candidate when each member is among the latter.  Candidates
    are compared as integers with the same order as the minima: gamma times
    v, ``e * v_h - v * e_h``, and alpha times L = lcm(1, ..., v - 1),
    ``(e - e_h) * (L // (v - v_h))``, whose divisor is in 1..v-2.  Each
    witness is the first minimiser in vertex-mask order (the strict ``<``),
    the spanning candidate last; each minimum becomes a Fraction once.
    """
    v, e = m.vertex_count, m.edge_count
    adj = m.neighbor_masks()
    deg = m.degrees
    scale = math.lcm(*range(1, v))
    # L / (v - v_h) for each candidate size: a candidate has 2..v-1 members
    unit = {k: scale // (v - k) for k in range(2, v)}

    top = (1 << v) - 1
    edges = [0] * top  # induced edges of each vertex set
    near = [0] * top  # vertices with a neighbour in it
    alpha = gamma = math.inf
    alpha_mask = gamma_mask = 0
    for mask in range(1, top):
        low = mask & -mask
        rest = mask ^ low
        i = low.bit_length() - 1
        e_h = edges[mask] = edges[rest] + (adj[i] & rest).bit_count()
        reach = near[mask] = near[rest] | adj[i]
        if mask & ~reach:
            continue  # induced subgraph would isolate a member
        v_h = mask.bit_count()
        g_cand = e * v_h - v * e_h
        if g_cand < gamma:
            gamma, gamma_mask = g_cand, mask
        a_cand = (e - e_h) * unit[v_h]
        if a_cand < alpha:
            alpha, alpha_mask = a_cand, mask
    # both are finite: any edge is a candidate
    alpha, gamma = Fraction(alpha, scale), Fraction(gamma, v)

    def induced(mask: int) -> tuple[Edge, ...]:
        return tuple((a, b) for a, b in m.edges if (mask >> a) & (mask >> b) & 1)

    gamma_witness = induced(gamma_mask)
    removable = [(a, b) for a, b in m.edges if deg[a] >= 2 and deg[b] >= 2]
    # the spanning graph minus one edge scores d*v - (e - 1) = 1
    if removable and gamma > 1:
        gamma = Fraction(1)
        gamma_witness = tuple(x for x in m.edges if x != removable[0])
    return alpha, induced(alpha_mask), gamma, gamma_witness


def compute_stats(m: Motif) -> MotifStats:
    """All exact invariants of a motif, cached per motif (``cache_clear``
    empties the cache).

    The subgraph minima and their witnesses come from one exhaustive pass
    over vertex subsets, the automorphism count from orbit-stabiliser
    (``automorphism_count``).  ``kappa`` covers every overlap ``s`` in
    ``2..v-1``.  Anything but a Motif raises InvalidMotifError, unhashable
    values too.
    """
    return _stats(motif_arg(m))


@lru_cache(maxsize=None)
def _stats(m: Motif) -> MotifStats:
    v, e = m.vertex_count, m.edge_count
    d = Fraction(e, v)
    alpha, alpha_witness, gamma, gamma_witness = _subgraph_minima_by_vertex_sets(m)
    aut = automorphism_count(m)
    fact = math.factorial(v)
    assert fact % aut == 0
    kappa = {
        s: max(e - s * d + gamma, (v - s) * alpha) for s in range(2, v)
    }
    return MotifStats(
        density=d,
        alpha=alpha,
        gamma=gamma,
        automorphism_count=aut,
        rho=fact // aut,
        strictly_balanced=gamma > 0,
        kappa=kappa,
        degrees=m.degrees,
        alpha_witness=alpha_witness,
        gamma_witness=gamma_witness,
    )


compute_stats.cache_clear = _stats.cache_clear


def check_fits(m: Motif, n: int) -> None:
    """MotifLargerThanGraph unless a graph on ``n`` vertices has room for
    ``m``."""
    if n < motif_arg(m).vertex_count:
        raise MotifLargerThanGraph(
            f"n={n} smaller than motif ({m.vertex_count} vertices)"
        )


def stats_to_dict(stats: MotifStats) -> dict:
    """JSON-friendly rendering; rationals as ``p/q`` strings."""
    return {
        "density": str(stats.density),
        "alpha": str(stats.alpha),
        "gamma": str(stats.gamma),
        "automorphism_count": stats.automorphism_count,
        "rho": stats.rho,
        "strictly_balanced": stats.strictly_balanced,
        "kappa": {str(s): str(k) for s, k in sorted(stats.kappa.items())},
        "degrees": list(stats.degrees),
        "alpha_witness": [list(e) for e in stats.alpha_witness],
        "gamma_witness": [list(e) for e in stats.gamma_witness],
    }

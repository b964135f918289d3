"""Exact motif counting.

``_count_rows`` is the production counter.  It counts the copies of a
motif in each of a stack of graphs of one size by one of two paths, chosen
per batch by planned cost from what the batch's rows show, never from
where they came from:

- the search below, whose cost is the expected number of frontier rows at
  each position, in a random graph of the batch's own edge density,
  weighed by the words each reads (:func:`_search_ns`);
- homomorphism counts (:mod:`~motif_poisson.homs`), dense and batched,
  whose cost is planned from n alone: densifying the matrices and the
  elimination steps of each of the motif's quotients.  They are priced
  only while their sum stays below the search's cost, and taken only where
  they are exact and fit their byte budget.

The search counts the injective edge-preserving maps of the motif's
vertices under the symmetry-breaking conditions of Grochow & Kellis
(RECOMB 2007), so each copy is found exactly once.

One search counts the B graphs of a :class:`~motif_poisson.bitrows.Batch`
over NumPy arrays, their bitset rows stacked in one (B*n, w) uint64 array,
w = ⌈n/64⌉.  A frontier row holds a graph id and the images of the
positions filled so far.  A block of frontier rows becomes the nonzero
words of its candidate rows for the next position: the graph's mask of
vertices of high enough degree, ANDed with the rows of the back
neighbours' images and with the row of the bits above its floor's image,
with the images it could repeat cleared.  Each batch forms them in one of
two ways (:func:`_row_words`):

- as whole rows, the floor's row one gather from a window over 64 strips
  of 2w - 1 words, cached per w;
- in wide rows with few nonzero words, those the batch carries from the
  scan that chose its row check, from the nonzero words of the
  position's pivot row, the row of its first back neighbour's image, from
  the floor image's word on, ANDed with the same words of the other rows.
  The work then grows with the edges, not with n·w (Chiba & Nishizeki,
  SIAM J. Comput. 1985).  A position with no back neighbour, where a
  disconnected motif restarts, forms whole rows.

Only the candidates' nonzero words are expanded into the next level's
rows.  The last position is never expanded: its words' popcounts are
added to their graphs' counts.  The search recurses over the motif's
positions, expanding as many children at a time as fit, with their images
and candidate words, in ``bitrows.BLOCK_WORDS`` words, so its memory stays
fixed however wide it goes.  ``count_copies`` is a stack of one graph.

``count_copies_bruteforce`` sums the copy indicators over every
vertex-set position, exactly as the count is defined, and serves as the
independent oracle.  Each copy on a position is an int mask over the
position's v(v-1)/2 vertex pairs, present when the pairs that are edges
cover it (``mask & present == mask``).  Copies are counted, not induced
copies: extra edges among the image vertices are permitted.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import GraphTooLargeForOracle, InvalidParams, instance, integer
from . import bitrows, homs
from .bitrows import BIT64, HIGH, ONES, Batch, above, pack_words
from .models import SampledGraph
from .motif import Motif, check_fits, compute_stats, motif_arg, stabiliser_orbits

#: The brute-force oracle lists the v! vertex permutations once, then tests
#: all copies per position at all C(n, v) positions.  That blows up
#: combinatorially, so both the graph and the work are capped (K_10 in K_14
#: alone lists 3.6 million permutations).
ORACLE_MAX_VERTICES = 14
ORACLE_MAX_WORK = 10**6

#: A batch whose rows take at least ``_SPARSE_WIDTH`` words, at most
#: ``bitrows.SPARSE_SHARE`` of them nonzero, forms candidates from the
#: nonzero words of each pivot row (:func:`_candidates`).  Timed on ER graphs
#: against whole rows, K3 and C4 alike, the pivot words took 0.6 of the time
#: at 63 words a row (n = 4000) up to 12 % nonzero, 0.85 at 27 % and 1.0 at
#: 47 %; at 32 words 0.87-0.96 up to 22 % and 1.04-1.10 at 46 %.  At 16
#: words or fewer they took 1.1-2.3 times as long at every share.
_SPARSE_WIDTH = 32

#: Planned cost of the search in nanoseconds, fitted on a 2-core x86-64 VM
#: to timed searches of K3, C4, K4 and C5 in ER graphs: per frontier row,
#: and per word that a frontier row reads.
_NODE_NS = 60.0
_WORD_NS = 3.0


class _Words(NamedTuple):
    """The nonzero words of stacked bitset rows, in order: row r's are
    ``word[start[r]:start[r + 1]]``, at flat word positions ``at[...]``."""

    start: np.ndarray
    at: np.ndarray
    word: np.ndarray


class _SearchPlan(NamedTuple):
    """Per-motif work shared by every count.  For each position of the
    search order: the earlier positions holding already-mapped neighbors;
    the degree its image needs, or 0 where those neighbors already
    guarantee it; the symmetry-breaking floor (the earlier position whose
    image its own must exceed, or -1); and the earlier positions off its
    floor chain, whose images it must still avoid."""

    back_edges: tuple[tuple[int, ...], ...]
    need_deg: tuple[int, ...]
    floor: tuple[int, ...]
    avoid: tuple[tuple[int, ...], ...]


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
    return _SearchPlan(back_edges, need_deg, floor, tuple(avoid))


def _candidates(rows, n, masks, words, step, gid, img):
    """Candidate words of one position for the frontier rows ``(gid, img)``,
    as ``(parent, j, word)``: word j of frontier row ``parent``'s candidate
    row, nonzero.  That row is the graph's degree mask, ANDed with the rows
    of the back neighbours' images and with the row of the bits above its
    floor's image, with the images the position could repeat cleared.

    With ``words``, the nonzero words of sparse rows, a position with back
    neighbours takes only the nonzero words of its pivot row, that of its
    first back neighbour's image, and ANDs the same words of the rest into
    each.  Otherwise it forms whole rows, the floor gathered from
    :func:`~motif_poisson.bitrows.above`, and lists their nonzero words."""
    backs, deg, floor, avoid = step
    w = rows.shape[1]
    if words is None or not backs:
        cand = masks[deg][gid]
        base = gid * n
        for q in backs:
            cand &= rows[base + img[:, q]]
        if avoid:
            at = np.arange(len(gid))
            for q in avoid:
                x = img[:, q]
                cand[at, x >> 6] &= ~BIT64[x & 63]
        if floor >= 0:
            x = img[:, floor]
            cand &= above(w)[x & 63, w - 1 - (x >> 6)]
        at = np.flatnonzero(cand != 0)
        parent = at // w
        return parent, at - parent * w, cand.ravel()[at]
    flat = rows.ravel()
    base = gid * n
    pivot = base + img[:, backs[0]]
    first = pivot * w
    if floor >= 0:
        x = img[:, floor]
        # no candidate lies below the floor image's word
        lo = np.searchsorted(words.at, first + (x >> 6))
    else:
        lo = words.start[pivot]
    size = words.start[pivot + 1] - lo
    parent = np.repeat(np.arange(len(gid)), size)
    at = np.repeat(lo - (size.cumsum() - size), size)
    at += np.arange(len(at))
    at, word = words.at[at], words.word[at]
    j = at - first[parent]
    if floor >= 0:
        word &= np.where(j == (x >> 6)[parent], HIGH[x & 63][parent], ONES)
    if deg:
        word &= masks[deg].ravel()[(gid * w)[parent] + j]
    for q in backs[1:]:
        word &= flat[at + ((base + img[:, q] - pivot) * w)[parent]]
    for q in avoid:
        x = img[:, q]
        word &= np.where(j == (x >> 6)[parent], ~BIT64[x & 63][parent], ONES)
    keep = word != 0
    return parent[keep], j[keep], word[keep]


def _search(rows, n, masks, words, steps, cap, total, gid, img) -> None:
    """Add to ``total`` the copies that extend the frontier rows
    ``(gid, img)``, which fill the first k positions: at the last position
    the popcounts of their candidate words; elsewhere the search on each
    run of at most ``cap`` of their set bits, expanded into frontier rows
    of position k + 1.  The bits are listed once per window of candidate
    words (:func:`~motif_poisson.bitrows.windows`), and the runs cut from
    the listing."""
    k = img.shape[1]
    parent, j, word = _candidates(rows, n, masks, words, steps[k], gid, img)
    if k == len(steps) - 1:
        np.add.at(total, gid[parent], np.bitwise_count(word).astype(np.int64))
        return
    for lo, listed in bitrows.windows(word):
        for at in range(0, len(listed), cap):
            bit = listed[at : at + cap]
            src = lo + (bit >> 6)
            up = parent[src]
            child = np.empty((len(bit), k + 1), dtype=np.int64)
            child[:, :k] = img[up]
            child[:, k] = j[src] * 64 + (bit & 63)
            _search(rows, n, masks, words, steps, cap, total, gid[up], child)


def _row_words(batch: Batch) -> tuple[_Words | None, np.ndarray]:
    """The degrees of the batch's rows, and their nonzero words when the
    rows take at least ``_SPARSE_WIDTH`` words and the batch lists them, or
    else None.  Sparse rows' degrees come from those words, with no
    temporary as large as the rows."""
    rows, at = batch.rows, batch.words
    flat, w = rows.ravel(), rows.shape[1]
    if w >= _SPARSE_WIDTH and at is not None:
        row, word = at // w, flat[at]
        start = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=len(rows)), out=start[1:])
        ones = np.bincount(row, weights=np.bitwise_count(word), minlength=len(rows))
        return _Words(start, at, word), ones.astype(np.int64)
    return None, np.bitwise_count(rows).sum(axis=1, dtype=np.int64)


@lru_cache(maxsize=None)
def _levels(m: Motif) -> tuple[tuple[int, int, int], ...]:
    """For each position k of the search order, what the expected frontier
    at it takes: the edges among the k positions before it, the product of
    the subtree sizes of their floor forest (a map of k vertices keeps its
    images in the forest's order with chance one over it), and the rows
    that a frontier row reads to list the candidates for position k."""
    back_edges, _, floor, _ = _search_plan(m)
    levels = []
    for k, backs in enumerate(back_edges):
        size = [1] * k
        for i in reversed(range(k)):
            if floor[i] >= 0:
                size[floor[i]] += size[i]
        levels.append((sum(map(len, back_edges[:k])), math.prod(size), len(backs) + 1))
    return tuple(levels)


def _search_ns(m: Motif, n: int, graphs: int, w: int, words, degrees) -> float:
    """Planned nanoseconds of the search over a batch: the expected
    frontier rows at each position, in a random graph of the batch's own
    edge density p (n(n-1)...(n-k+1) p^e over the forest's product per
    graph, with k positions filled and e edges among them), each weighed by
    the words it reads.  Rows listed by their nonzero words read as many as
    a row holds on average, except at a restart, which reads whole rows."""
    p = float(degrees.sum()) / (graphs * n * max(1, n - 1))
    sparse = w if words is None else len(words.word) / len(degrees)
    total, falling = 0.0, float(graphs)
    for k, (edges, hook, reads) in enumerate(_levels(m)):
        width = sparse if reads > 1 else w
        total += falling * p**edges / hook * (_NODE_NS + _WORD_NS * width * reads)
        falling *= n - k
    return total


def _count_rows(batch: Batch, m: Motif) -> np.ndarray:
    """Copies of ``m`` in each graph of the batch, as an int64 array, by
    homomorphism counts where their planned cost is below the search's,
    and by the search otherwise."""
    rows, n, graphs, _ = batch
    words, degrees = _row_words(batch)
    limit = _search_ns(m, n, graphs, rows.shape[1], words, degrees)
    run = homs.plan_within(m, n, graphs, limit)
    if run is not None:
        return homs.count_rows(rows, n, graphs, m, run)
    return _search_rows(rows, n, graphs, m, words, degrees)


def _search_rows(rows, n, graphs, m, words, degrees) -> np.ndarray:
    """Copies of ``m`` in each of the stacked graphs, by one search, with
    candidates from each pivot row's nonzero words where
    :func:`_row_words` listed them as ``words``, and from whole rows
    elsewhere."""
    back_edges, need_deg, floor, avoid = _search_plan(m)
    w = rows.shape[1]
    wide = np.zeros((graphs, 64 * w), dtype=bool)
    masks = {}
    for d in set(need_deg):
        wide[:, :n] = degrees.reshape(graphs, n) >= d
        masks[d] = pack_words(wide)
    steps = tuple(zip(back_edges, need_deg, floor, avoid))
    # the most words the candidates of one frontier row can take
    if words is None or not all(back_edges[1:]):
        widest = w
    else:
        widest = max(1, int(np.diff(words.start).max()))
    # a block's children, each with at most v images and widest candidate
    # words, fit in one budget of words
    cap = max(1, bitrows.BLOCK_WORDS // (widest + len(steps)))
    total = np.zeros(graphs, dtype=np.int64)
    gid, img = np.arange(graphs), np.empty((graphs, 0), dtype=np.int64)
    _search(rows, n, masks, words, steps, cap, total, gid, img)
    return total


def count_copies(g: SampledGraph, m: Motif) -> int:
    """Exact number of copies of ``m`` in ``g``: the injective maps of the
    motif's vertices into the graph that carry every motif edge onto a
    graph edge, one per automorphism class, so the maps number this count
    times the automorphism count.  A batch of one graph for
    :func:`_count_rows`, with the nonzero words the graph's check listed."""
    check_fits(m, instance(g, "graph", SampledGraph).n)
    return int(_count_rows(Batch(g.adjacency, g.n, 1, g.words), m)[0])


def _slot_bits(v: int) -> list[list[int]]:
    """``bits[a][b]``, the mask bit of slot pair {a, b}: ``1 << k`` for the
    k-th pair of ``itertools.combinations(range(v), 2)``."""
    bits = [[0] * v for _ in range(v)]
    for k, (a, b) in enumerate(itertools.combinations(range(v), 2)):
        bits[a][b] = bits[b][a] = 1 << k
    return bits


def _copy_masks(m: Motif) -> list[int]:
    """The distinct copies of the motif on placeholder slots ``0..v-1``, as
    ascending masks of :func:`_slot_bits`.

    The family size equals v!/a(G); an assertion keeps that honest.  It is
    built afresh on every call and not cached: a sparse 9-vertex motif has
    181,440 copies, about 7 MiB as a list of ints.
    """
    v = m.vertex_count
    bits = _slot_bits(v)
    family = sorted(
        {
            sum(bits[p[a]][p[b]] for a, b in m.edges)
            for p in itertools.permutations(range(v))
        }
    )
    assert len(family) == compute_stats(m).rho
    return family


def _present(g: SampledGraph, alpha: tuple[int, ...], bits) -> int:
    """The mask of the slot pairs whose images under ``alpha`` are edges
    of ``g``."""
    return sum(
        bits[a][b]
        for a, b in itertools.combinations(range(len(alpha)), 2)
        if g.has_edge(alpha[a], alpha[b])
    )


def copy_indicators(
    g: SampledGraph, m: Motif, alpha: tuple[int, ...]
) -> list[int]:
    """Indicator per distinct copy of ``m`` on the vertex tuple ``alpha``
    (slot i on vertex ``alpha[i]``), in the order of :func:`_copy_masks`:
    1 iff every edge of that copy is in ``g``.  ``alpha`` holds v(G)
    distinct vertices of ``g``, or InvalidParams is raised."""
    instance(g, "graph", SampledGraph)
    alpha = tuple(integer(x, "vertex") for x in alpha)
    if len(alpha) != motif_arg(m).vertex_count:
        raise InvalidParams("alpha must have exactly v(G) vertices")
    if len(set(alpha)) != len(alpha):
        raise InvalidParams(f"alpha must have distinct vertices, got {alpha}")
    have = _present(g, alpha, _slot_bits(len(alpha)))
    return [int(mask & have == mask) for mask in _copy_masks(m)]


def count_copies_bruteforce(g: SampledGraph, m: Motif) -> int:
    """Oracle counter: sum the copy indicators over every vertex-set
    position, literally as the count is defined."""
    check_fits(m, instance(g, "graph", SampledGraph).n)
    v = m.vertex_count
    if g.n > ORACLE_MAX_VERTICES:
        raise GraphTooLargeForOracle(
            f"oracle capped at {ORACLE_MAX_VERTICES} vertices, got {g.n}"
        )
    work = math.factorial(v) + math.comb(g.n, v) * compute_stats(m).rho
    if work > ORACLE_MAX_WORK:
        raise GraphTooLargeForOracle(
            f"oracle work v! + C(n, v) * rho = {work} exceeds {ORACLE_MAX_WORK}"
        )
    # the indicators of copy_indicators, with the family built once
    family, bits = _copy_masks(m), _slot_bits(v)
    total = 0
    for alpha in itertools.combinations(range(g.n), v):
        have = _present(g, alpha, bits)
        total += sum(mask & have == mask for mask in family)
    return total

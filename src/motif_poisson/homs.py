"""Vertex elimination: the occurrence probability mu, and copy counts of
dense batches from homomorphism counts.

Both sum, over every map of a graph H's vertices into a set of indices,
a product with one factor per edge of H, and both do it by the one
vertex elimination that :func:`_plan` lays out: each step sums out one
vertex over the live factors that hold it, named by their positions.

mu is the homomorphism density of the motif F in the class graph of the
model (Lovász & Szegedy 2006): the indices are the classes, each vertex
weighs its class by its share and each edge takes the matrix of edge
probabilities.  :func:`_contract` runs the plan, and refuses it, before
any step runs, if a step would sum over ``_MAX_TERMS``.  A step on at most
two factors, or on few terms, is one einsum; a wider one is a broadcast
product summed over the vertex's axis, in the order of einsum's generic
loop, so every bit of mu is the same as by one einsum a step, and formed
``_SLICE_TERMS`` terms at a time, so its temporaries stay small however
many terms the step sums.

The injective edge-preserving maps of F into a graph G follow from
homomorphism counts by Möbius inversion over the partitions P of V(F)
into independent sets (Lovász 1967; Curticapean, Dell & Marx, STOC 2017):

    inj(F, G) = sum_P c_P hom(F/P, G),  c_P = prod_{B in P} (-1)^(|B|-1) (|B|-1)!

A block holding an edge would make a loop, which has no homomorphism into
a simple graph, so such partitions drop out.  The copies number
inj / aut(F).  Each quotient F/P is kept once per labelled edge set, with
the coefficients of the partitions that give it summed.

hom(H, G) sums, over all maps of V(H) into V(G), the product of G's 0/1
adjacency entries on H's edges.  It runs the same plan over a stack of
dense adjacency matrices, one per graph: a step on two matrices is a
batched ``@``, any other a plain einsum with a batch index, and the step
that closes a connected component sums in int64.  The steps and their
costs depend only on H and n, so they are planned once per motif, before
any array is formed.

Every value is a count, so float arithmetic is exact while every partial
sum stays an integer a float holds exactly.  A factor summed over s motif
vertices counts maps of s vertices and is at most n^s; a batch runs in
float32 when every such bound is at most 2^24, in float64 when it is at most
2^53, and not at all otherwise.  The closing sums run in int64, and the
path is refused unless the inversion's terms, each at most |c_P| n^|P|,
sum below 2^63.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .bitrows import row_words, unpack_words
from .errors import TooManyTerms
from .motif import Edge, Motif, compute_stats

#: Terms that one step of mu's contraction may sum.
_MAX_TERMS = 10**8

#: Terms that one slice of a wide contraction step forms at once: 512 KiB
#: of float64 products.  From 2^16 to 2^20 terms, mu of K7 on 6 classes
#: took the same time on a 2-core x86-64 VM (NumPy 2.4); at 2^20, the peak
#: RSS of K8 on 10 classes rose from 119 MB to 142 MB.
_SLICE_TERMS = 1 << 16

#: Terms from which a step on three factors or more is summed as a
#: broadcast product, not by einsum's generic loop: on the VM above the
#: loop took about 10 ns a term, the broadcast about 13 µs a step and 3.5
#: ns a term.
_WIDE_TERMS = 4096

#: Bytes that the dense arrays of one sub-batch may take, the graphs'
#: matrices and every live elimination factor together.  The CI steps at
#: n >= 2000 keep a process under 150 MB of peak RSS, of which the
#: interpreter with NumPy takes about 30 MB: this leaves room for C5 at
#: n = 2000 (three 32 MB float64 matrices at once) and keeps K3 at n = 4000
#: (two 64 MB float32 matrices) on the frontier.
_DENSE_BYTES = 96 << 20

#: Planned cost in nanoseconds, measured on a 2-core x86-64 VM (NumPy 2.4,
#: OpenBLAS) by the fastest of 3-7 timed runs: one matrix entry densified
#: from bitset rows (0.9 ns at n = 40-2000); one flop of a batched ``@``
#: (0.025-0.05 ns on stacks of 40 x 40 to 100 x 100 matrices, 0.015-0.02
#: ns at n = 1000); one term of an einsum, per operand (0.4-1.2 ns); and
#: the Python and dispatch overhead of one step on a batch (at most 10-25
#: µs).  On that VM a product large enough for OpenBLAS's threads (n >=
#: about 108) may also wait 15-50 ms for them; the weights leave that out.
_DENSE_NS = 1.0
_FLOP_NS = 0.04
_TERM_NS = 0.8
_STEP_NS = 10_000.0

#: Relabellings tried in search of a quotient's canonical form: 6! covers
#: every quotient of a motif of up to 7 vertices.
_RELABELLINGS = 720

#: Planned nanoseconds of listing a motif's quotients, per partition and
#: relabelling that :func:`_canonical` may try (at most 720, or (v - 1)!
#: below 7 vertices): listing them took 225-255 ns per such relabelling for
#: cycle:8, cycle:10 and tree_path:10 (3.2-3.7 s for the latter two) on the
#: VM above, which tries about 30 of the 720 a partition.
_RELABEL_NS = 250.0

_MATMUL, _EINSUM, _TOTAL = range(3)


@lru_cache(maxsize=None)
def _plan(
    vertex_count: int, edges: tuple[Edge, ...]
) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """The steps of a vertex elimination over the graph's vertices, each
    the vertex it sums out, the positions of the live factors it takes and
    the sorted indices of the factor it leaves.

    The live factors start as one matrix per edge, in edge order.  Each
    step sums out the remaining vertex whose factors span the fewest
    indices (ties to the lower vertex) and takes every factor that holds
    it.  That leaves one factor on the rest of their span, appended to the
    live ones, or a scalar where that rest is empty, which is not live.
    The order and the spans depend only on the graph, so a caller can check
    what each step costs before any contraction runs.
    """
    scopes = [frozenset(e) for e in edges]
    steps = []
    for _ in range(vertex_count):
        spans = {
            u: frozenset().union(*(s for s in scopes if u in s))
            for u in frozenset().union(*scopes)
        }
        u = min(spans, key=lambda w: (len(spans[w]), w))
        rest = spans[u] - {u}
        took = tuple(i for i, s in enumerate(scopes) if u in s)
        steps.append((u, took, tuple(sorted(rest))))
        scopes = [s for s in scopes if u not in s] + ([rest] if rest else [])
    return tuple(steps)


def _contract(
    weights: np.ndarray, mat: np.ndarray, vertex_count: int, edges: tuple[Edge, ...]
) -> float:
    """Sum over all class tuples c of
    prod_u weights[c_u] * prod_{(u,w) in edges} mat[c_u, c_w], by the steps
    of :func:`_plan`, each step's q^span summed terms checked against the
    budget, or TooManyTerms raised, before any runs.  A step on at most two
    factors, or on fewer than ``_WIDE_TERMS`` terms, is one einsum of the
    vertex's weights and those factors; a wider one is :func:`_wide`, which
    sums the same products in the same order.  One scalar is left per
    connected component; they multiply in step order."""
    q = len(weights)
    steps = _plan(vertex_count, edges)
    for _, _, out in steps:
        if q ** (len(out) + 1) > _MAX_TERMS:
            raise TooManyTerms(
                f"a contraction step sums {q}^{len(out) + 1} terms, over the "
                f"{_MAX_TERMS} budget"
            )
    factors, scalars = [(mat, e) for e in edges], []
    for u, took, out in steps:
        taken = [factors[i] for i in took]
        factors = [f for i, f in enumerate(factors) if i not in took]
        if len(taken) <= 2 or q ** (len(out) + 1) < _WIDE_TERMS:
            value = np.einsum(weights, (u,), *(x for f in taken for x in f), out)
        else:
            value = _wide(weights, u, taken, out)
        if out:
            factors.append((value, out))
        else:
            scalars.append(float(value))
    return math.prod(scalars)


def _wide(
    weights: np.ndarray,
    u: int,
    taken: list[tuple[np.ndarray, tuple[int, ...]]],
    out: tuple[int, ...],
) -> np.ndarray:
    """One elimination step on three factors or more, as einsum's generic
    loop sums it: each term the vertex's weight times the factors in list
    order, added to its output entry, from zero, in ascending order of the
    vertex's index.  NumPy's loops for one to three operands sum in an
    unrolled order, which a broadcast sum does not follow, so steps on at
    most two factors stay einsums.

    The operands are broadcast over the axes (u, *out), u first, so the
    sum runs over axis 0 row by row.  The output is cut into slices of at
    most ``_SLICE_TERMS`` terms: all but the last of the leading output
    axes it takes are fixed, and that last one is cut into runs, so the
    products never take more than the slice's terms however many the step
    sums."""
    q, k = len(weights), len(out)
    ops = [weights.reshape((q,) + (1,) * k)]
    for x, idx in taken:
        # u's axis first; the others are in ascending order, as in ``out``
        a = idx.index(u)
        shape = (q, *(q if w in idx else 1 for w in out))
        ops.append(x.transpose(a, *range(a), *range(a + 1, x.ndim)).reshape(shape))
    # the fewest leading output axes whose slices fit the budget
    lead = next(d for d in range(k + 1) if d == k or q ** (1 + k - d) <= _SLICE_TERMS)
    run = max(1, _SLICE_TERMS // q ** (1 + k - lead))
    total = np.zeros((q,) * k)
    for prefix in np.ndindex(*(q,) * (lead - 1)):
        for lo in range(0, q if lead else 1, run):
            cut = (*(slice(i, i + 1) for i in prefix), slice(lo, lo + run))[:lead]
            terms = _part(ops[0], cut)
            for op in ops[1:]:
                terms = terms * _part(op, cut)
            acc = total[(*cut, ...)]
            for row in terms:
                acc += row
    return total


def _part(op: np.ndarray, cut: tuple[slice, ...]) -> np.ndarray:
    """The slice ``cut`` of the output axes of a broadcast operand, whole
    along the axes it has length 1 on."""
    if not cut:
        return op
    return op[(slice(None), *(c if n > 1 else slice(None) for c, n in zip(cut, op.shape[1:])))]


class _Step(NamedTuple):
    """One elimination step: its kind; the positions in the factor list of
    the factors it takes and of the vectors over its vertex that scale the
    first of those beforehand; that vertex's axis in the first factor; and
    what its kind needs (the transposes of a ``@``, the index lists of an
    einsum)."""

    kind: int
    used: tuple[int, ...]
    scale: tuple[int, ...]
    at: int
    arg: object


class _Quotient(NamedTuple):
    """A quotient F/P with its summed coefficient, and its planned steps.

    ``bound`` is the largest n-exponent of a factor held in floats,
    ``cost`` the (nanoseconds per term, n-exponent) pairs of the planned
    steps, and ``live`` the index counts of the factors alive, graph
    matrices aside, at each step's peak."""

    coef: int
    vertex_count: int
    edge_count: int
    steps: tuple[_Step, ...]
    bound: int
    cost: tuple[tuple[float, int], ...]
    live: tuple[tuple[int, ...], ...]


def _partitions(m: Motif) -> Iterator[tuple[int, ...]]:
    """The partitions of the motif's vertices into independent sets, each
    as its vertices' block numbers, blocks numbered by their least vertex."""
    v, adj = m.vertex_count, m.neighbor_masks()
    blocks: list[int] = []
    labels = [0] * v

    def extend(u: int) -> Iterator[tuple[int, ...]]:
        if u == v:
            yield tuple(labels)
            return
        for b, mask in enumerate(blocks):
            if not adj[u] & mask:
                blocks[b], labels[u] = mask | 1 << u, b
                yield from extend(u + 1)
                blocks[b] = mask
        blocks.append(1 << u)
        labels[u] = len(blocks) - 1
        yield from extend(u + 1)
        blocks.pop()

    return extend(0)


def _schedule(coef: int, k: int, edges: tuple[Edge, ...]) -> _Quotient:
    """The planned steps of hom(H, G) for the quotient H on ``k`` vertices,
    following :func:`_plan`.  Each factor is tracked by its indices and the
    exponent e of its bound n^e: the graph's matrices have e = 0, and a
    step's output sums one vertex more than all its inputs together."""
    factors: list[tuple[tuple[int, ...], int]] = [(e, 0) for e in edges]
    steps, cost, live, bound = [], [], [], 0
    for u, took, out in _plan(k, edges):
        exp = 1 + sum(factors[i][1] for i in took)
        held = [len(idx) for idx, e in factors if e]
        # a vector held by a step is over its vertex: it scales the step's
        # first larger factor, unless the step takes nothing larger
        used = tuple(i for i in took if len(factors[i][0]) > 1) or took
        scale = tuple(i for i in took if i not in used)
        taken = [factors[i] for i in used]
        idxs = [idx for idx, _ in taken]
        at = 1 + idxs[0].index(u)
        factors = [f for i, f in enumerate(factors) if i not in took]
        span = len(out) + 1
        if scale:
            held.append(len(idxs[0]))
            cost.append((_TERM_NS * len(scale), len(idxs[0])))
        if not out:
            steps.append(_Step(_TOTAL, used, scale, at, None))
            cost.append((_TERM_NS * len(used), span))
            continue
        if len(idxs) == 2 and all(len(i) == 2 for i in idxs) and span == 3:
            # x[a, u] @ y[u, b], or y[b, u] @ x[u, a] where that transposes
            # fewer operands held the other way; an unscaled graph matrix is
            # symmetric and never transposed
            (x, ex), (y, ey) = taken
            fixed = (ex == 0 and not scale, ey == 0)
            ab = (not fixed[0] and x[0] == u, not fixed[1] and y[1] == u)
            ba = (not fixed[0] and x[1] == u, not fixed[1] and y[0] == u)
            swap = sum(ba) < sum(ab)
            step = _Step(_MATMUL, used, scale, at, (swap, *(ba if swap else ab)))
            a, b = sum(x) - u, sum(y) - u
            out = (b, a) if swap else (a, b)
            cost.append((2 * _FLOP_NS, span))
        else:
            step = _Step(_EINSUM, used, scale, at, ([list(i) for i in idxs], list(out)))
            cost.append((_TERM_NS * len(used), span))
        steps.append(step)
        live.append((*held, len(out)))
        factors.append((out, exp))
        bound = max(bound, exp)
    return _Quotient(coef, k, len(edges), tuple(steps), bound, tuple(cost), tuple(live))


@lru_cache(maxsize=None)
def _own(m: Motif) -> _Quotient:
    """The motif's own hom plan, the quotient by its finest partition."""
    return _schedule(1, m.vertex_count, m.edges)


def _canonical(k: int, edges: set[Edge]) -> tuple[Edge, ...]:
    """The least sorted edge set of the graph over the relabellings that
    number its vertices by descending degree, where those number at most
    ``_RELABELLINGS``, so isomorphic graphs give the same one; else its
    own sorted edges."""
    deg = [0] * k
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    order = sorted(range(k), key=lambda x: -deg[x])
    classes = [tuple(c) for _, c in itertools.groupby(order, key=lambda x: deg[x])]
    if math.prod(math.factorial(len(c)) for c in classes) > _RELABELLINGS:
        return tuple(sorted(edges))
    best = None
    for perms in itertools.product(*map(itertools.permutations, classes)):
        new = {old: i for i, old in enumerate(itertools.chain(*perms))}
        key = tuple(sorted(tuple(sorted((new[a], new[b]))) for a, b in edges))
        best = key if best is None else min(best, key)
    return best


#: The quotients of each motif that :func:`_quotients` has listed.
_listed_quotients: dict[Motif, tuple[_Quotient, ...]] = {}


@lru_cache(maxsize=None)
def _listing_ns(m: Motif) -> float:
    """Planned nanoseconds of listing the motif's quotients: each partition
    but the finest canonicalised by as many relabellings as it may try."""
    partitions = sum(1 for _ in _partitions(m)) - 1
    tries = min(_RELABELLINGS, math.factorial(m.vertex_count - 1))
    return partitions * tries * _RELABEL_NS


def _quotients(m: Motif) -> tuple[_Quotient, ...]:
    """The motif's quotients with nonzero summed coefficient, isomorphic
    ones merged as far as :func:`_canonical` finds them, the motif itself
    first, then by fewer vertices; listed once per motif."""
    if m in _listed_quotients:
        return _listed_quotients[m]
    merged: Counter = Counter()
    for labels in _partitions(m):
        coef = math.prod(
            (-1) ** (s - 1) * math.factorial(s - 1) for s in Counter(labels).values()
        )
        k = max(labels) + 1
        edges = {tuple(sorted((labels[a], labels[b]))) for a, b in m.edges}
        merged[k, _canonical(k, edges) if k < m.vertex_count else m.edges] += coef
    keys = sorted((key for key, c in merged.items() if c), key=lambda kv: (-kv[0], kv[1]))
    _listed_quotients[m] = tuple(_schedule(merged[key], *key) for key in keys)
    return _listed_quotients[m]


def _ns(q: _Quotient, n: int, graphs: int) -> float:
    """Planned nanoseconds of hom(q, G) over a batch of ``graphs``."""
    return graphs * sum(w * float(n) ** e for w, e in q.cost) + _STEP_NS * len(q.steps)


class _Run(NamedTuple):
    """How a batch of n-vertex graphs is counted: the quotients, the float
    type their factors are held in, and the graphs densified at once."""

    quotients: tuple[_Quotient, ...]
    dtype: type
    graphs: int


@lru_cache(maxsize=64)
def _run(m: Motif, n: int) -> _Run | None:
    """The run of the motif on n-vertex graphs, or None where a factor
    could pass what its float type holds exactly, the inversion's sum what
    int64 holds, or one graph's arrays the byte budget."""
    quotients = _quotients(m)
    top = n ** max(q.bound for q in quotients)
    if top > 2**53:
        return None
    if sum(abs(q.coef) * n**q.vertex_count for q in quotients) >= 2**63:
        return None
    dtype = np.float32 if top <= 2**24 else np.float64
    size = np.dtype(dtype).itemsize
    # the unpacked bytes beside the matrix they become, then each step
    peak = n * 64 * row_words(n) + n * n * size
    for q in quotients:
        for held in q.live:
            peak = max(peak, size * (n * n + sum(n**d for d in held)))
    graphs = _DENSE_BYTES // peak
    return _Run(quotients, dtype, graphs) if graphs else None


def plan_within(m: Motif, n: int, graphs: int, limit: float) -> _Run | None:
    """The run of the motif on a batch of ``graphs`` n-vertex graphs if its
    planned cost, densifying included, is at most ``limit`` nanoseconds and
    it is exact and within the byte budget, or else None.  The quotients
    are listed only if the motif's own hom plan fits with the listing's
    planned cost added, until they are listed, and priced only until their
    running sum passes the limit."""
    spent = graphs * n * n * _DENSE_NS + _ns(_own(m), n, graphs)
    if spent <= limit and m not in _listed_quotients:
        spent += _listing_ns(m)
    if spent > limit:
        return None
    for q in _quotients(m)[1:]:
        spent += _ns(q, n, graphs)
        if spent > limit:
            return None
    return _run(m, n)


def _dense(rows: np.ndarray, n: int, dtype: type) -> np.ndarray:
    """The 0/1 adjacency matrices of the graphs whose bitset rows are
    stacked n rows a graph, as a (graphs, n, n) array."""
    return unpack_words(rows)[:, :n].astype(dtype).reshape(-1, n, n)


def _product(x: np.ndarray, y: np.ndarray, swap: bool, tx: bool, ty: bool) -> np.ndarray:
    """The batched ``@`` of a planned step, in its own frame, so that its
    operands go when the step's caller lets them go."""
    x, y = (x.mT if tx else x), (y.mT if ty else y)
    return y @ x if swap else x @ y


def _hom(a: np.ndarray, q: _Quotient) -> np.ndarray:
    """hom(q, G) for each matrix G of the stack ``a``, as int64."""
    factors = [a] * q.edge_count
    hom = np.ones(len(a), dtype=np.int64)
    for kind, used, scale, at, arg in q.steps:
        xs = [factors[i] for i in used]
        if scale:
            shape = [1] * xs[0].ndim
            shape[0], shape[at] = len(a), len(a[0])
            xs[0] = xs[0] * factors[scale[0]].reshape(shape)
            for i in scale[1:]:
                xs[0] *= factors[i].reshape(shape)
        factors = [x for i, x in enumerate(factors) if i not in used and i not in scale]
        if kind == _TOTAL:
            terms = xs[0].astype(np.int64)
            for i in range(1, len(xs)):
                terms *= xs[i].astype(np.int64)
            hom *= terms.sum(axis=1)
            continue
        if kind == _MATMUL:
            out = _product(*xs, *arg)
        else:
            idxs, res = arg
            operands = [z for x, idx in zip(xs, idxs) for z in (x, [..., *idx])]
            out = np.einsum(*operands, [..., *res])
        factors.append(out)
    return hom


def count_rows(rows: np.ndarray, n: int, graphs: int, m: Motif, run: _Run) -> np.ndarray:
    """Copies of ``m`` in each of the ``graphs`` graphs whose bitset rows
    are stacked in ``rows``, as an int64 array: the inversion's sum over
    the quotients of ``run``, on ``run.graphs`` dense matrices at a time."""
    total = np.zeros(graphs, dtype=np.int64)
    for lo in range(0, graphs, run.graphs):
        hi = min(graphs, lo + run.graphs)
        a = _dense(rows[lo * n : hi * n], n, run.dtype)
        for q in run.quotients:
            total[lo:hi] += q.coef * _hom(a, q)
        del a  # before the next sub-batch's matrices are formed
    return total // compute_stats(m).automorphism_count

"""Random-graph models: stochastic block model and graphon sampling.

Both models give each vertex a latent value (a class label or a uniform
variate), then flip one independent coin per vertex pair with probability
set by the two latents.  One sampler core, :func:`sample_batches`, draws
every model.  It groups the vertices into blocks whose pairs are one coin,
and skips from one success to the next by geometric gaps, so a graph with
m edges takes O(n + m) work beside its n^2/8 bytes of bitset rows.  A
graph keeps those rows (:mod:`~motif_poisson.bitrows`) as an
(n, ⌈n/64⌉) uint64 array, the form the counter reads; the latents are not
kept.
Block models use their classes; piecewise-constant graphons the blocks of
the latents; smooth graphons one block at the surface maximum h*, each
candidate pair then kept with probability h(U_i, U_j)/h*.

The graphs are drawn in batches of one counter run (:func:`sample_batches`),
each handed on as a :class:`~motif_poisson.bitrows.Batch`, its rows with the
nonzero words its check listed; ``sample_sbm`` and ``sample_graphon`` are
batches of one.

Below p = 1/3 NumPy draws a geometric gap as one standard exponential, so
a batch of several graphs of a sparse model draws each graph's gaps as one
run of exponentials and turns them into edges at once, as arrays
(:class:`_Sampler`).  The stream, and with it every graph of
``SAMPLER_VERSION`` 3, is the same as by geometric draws.

Each graph is drawn from the counter-based Philox generator keyed directly
by its seed, so a sampled graph is a pure function of ``(params, n, seed)``
regardless of how it is batched or how surrounding work is scheduled.
Replicate ensembles derive one independent key per replicate index via
:func:`substream_seed`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import bitrows
from .bitrows import BIT64, Batch, check_rows, empty_rows, set_bits, set_edges, words_of
from .errors import (
    InvalidParams,
    WrongFamily,
    instance,
    integer,
    known_keys,
    probability,
    real,
    sequence,
)
from .motif import parse_edge_lines

_PROPORTION_TOL = 1e-12
_SEED_MASK = (1 << 64) - 1
#: Candidate pairs drawn per chunk, and the most a batch holds before it
#: sets them as edges: bounds the int64 buffers of a dense graph.
_CHUNK = 1 << 18

#: Largest graph the samplers and the edge-list reader accept: its bitsets
#: take 128 MiB.
MAX_GRAPH_VERTICES = 2**15

#: Version of the random stream behind sampled graphs, stamped into every
#: manifest: a given seed gives other graphs under another version.
SAMPLER_VERSION = 3

GRAPHON_FAMILIES = ("product", "piecewise_constant", "affine_mean")


def _check_probability_matrix(rows, what: str) -> tuple[tuple[float, ...], ...]:
    mat = tuple(
        tuple(probability(x, what) for x in sequence(row, what))
        for row in sequence(rows, what)
    )
    q = len(mat)
    if q == 0 or any(len(row) != q for row in mat):
        raise InvalidParams(f"{what} must be a non-empty square matrix")
    for a in range(q):
        for b in range(q):
            if mat[a][b] != mat[b][a]:
                raise InvalidParams(f"{what} not symmetric at ({a}, {b})")
    return mat


@dataclass(frozen=True)
class SbmParams:
    """Block model on latent classes: class labels are drawn independently
    from ``proportions`` and each vertex pair is an independent coin whose
    probability depends only on the two class labels."""

    class_count: int
    proportions: tuple[float, ...]
    edge_probs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        q = integer(self.class_count, "SBM class count 'Q'")
        if q < 1:
            raise InvalidParams("class_count must be >= 1")
        f = sequence(self.proportions, "proportions")
        f = tuple(real(x, "proportions") for x in f)
        if len(f) != q:
            raise InvalidParams("proportions length must equal class_count")
        # written so that NaN fails each check
        if any(not x > 0.0 for x in f):
            raise InvalidParams("proportions must be strictly positive")
        if not abs(sum(f) - 1.0) <= _PROPORTION_TOL:
            raise InvalidParams(f"proportions sum to {sum(f)!r}, not 1")
        pi = _check_probability_matrix(self.edge_probs, "edge_probs")
        if len(pi) != q:
            raise InvalidParams("edge_probs must be class_count x class_count")
        object.__setattr__(self, "class_count", q)
        object.__setattr__(self, "proportions", f)
        object.__setattr__(self, "edge_probs", pi)

    @property
    def pi_star(self) -> float:
        """Maximum edge probability over all class pairs, diagonal
        included (diagonal entries enter the occurrence probability, so
        excluding them could understate the bound terms)."""
        return max(max(row) for row in self.edge_probs)

    def to_dict(self) -> dict:
        return {
            "Q": self.class_count,
            "f": list(self.proportions),
            "pi": [list(row) for row in self.edge_probs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SbmParams":
        known_keys(data, ("Q", "f", "pi"), "block model")
        return cls(data.get("Q"), data.get("f"), data.get("pi"))


def erdos_renyi(p: float) -> SbmParams:
    """Single-class block model, i.e. every edge an independent ``p`` coin."""
    return SbmParams(1, (1.0,), ((p,),))


@dataclass(frozen=True)
class GraphonSpec:
    """A symmetric edge-probability surface on [0,1]^2 from a closed family.

    ``product``: c*x*y.  ``affine_mean``: c*(x+y)/2.  ``piecewise_constant``:
    constant blocks on a grid of breakpoints, equivalent to a block model.
    A closed family keeps the surface maximum exact and the parameterisation
    serialisable; piecewise-constant surfaces approximate any graphon to any
    resolution.
    """

    family: str
    scale: float | None = None
    breakpoints: tuple[float, ...] | None = None
    values: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.family not in GRAPHON_FAMILIES:
            raise InvalidParams(
                f"unknown graphon family {self.family!r}; "
                f"expected one of {GRAPHON_FAMILIES}"
            )
        if self.family in ("product", "affine_mean"):
            if self.breakpoints is not None or self.values is not None:
                raise InvalidParams(f"{self.family} graphon takes only a scale 'c'")
            c = probability(self.scale, "graphon scale 'c'")
            object.__setattr__(self, "scale", c)
        else:
            bp = sequence(self.breakpoints, "breakpoints")
            bp = tuple(real(x, "breakpoints") for x in bp)
            if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
                raise InvalidParams("breakpoints must run 0 = s_1 < ... < s_{Q+1} = 1")
            if any(not a < b for a, b in zip(bp, bp[1:])):
                raise InvalidParams("breakpoints must be strictly increasing")
            vals = _check_probability_matrix(self.values, "values")
            if len(vals) != len(bp) - 1:
                raise InvalidParams("values must be Q x Q for Q+1 breakpoints")
            object.__setattr__(self, "breakpoints", bp)
            object.__setattr__(self, "values", vals)
            if self.scale is not None:
                raise InvalidParams("piecewise_constant graphon takes no scale 'c'")

    def evaluate(self, x, y):
        """Vectorised h(x, y); symmetric by construction in every family."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.family == "product":
            return self.scale * x * y
        if self.family == "affine_mean":
            return self.scale * 0.5 * (x + y)
        vals = np.asarray(self.values)
        return vals[self._block_of(x), self._block_of(y)]

    def _block_of(self, u):
        edges = np.asarray(self.breakpoints[1:-1])
        return edges.searchsorted(u, side="right")

    def to_dict(self) -> dict:
        out: dict = {"family": self.family}
        if self.family in ("product", "affine_mean"):
            out["c"] = self.scale
        else:
            out["breakpoints"] = list(self.breakpoints)
            out["values"] = [list(row) for row in self.values]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GraphonSpec":
        """The graphon of ``data``; which of 'c' or 'breakpoints' and
        'values' its family takes is checked by the constructor."""
        keys = ("family", "c", "breakpoints", "values")
        known_keys(data, keys, "graphon")
        return cls(*(data.get(k) for k in keys))


def h_star(spec: GraphonSpec) -> float:
    """Exact maximum of the graphon surface."""
    if instance(spec, "graphon", GraphonSpec).family in ("product", "affine_mean"):
        return spec.scale  # attained at (1, 1)
    return max(max(row) for row in spec.values)


def graphon_to_sbm(spec: GraphonSpec) -> SbmParams:
    """The block model equivalent to a piecewise-constant graphon: class
    proportions are the breakpoint interval lengths."""
    if instance(spec, "graphon", GraphonSpec).family != "piecewise_constant":
        raise WrongFamily(
            f"graphon_to_sbm requires piecewise_constant, got {spec.family}"
        )
    f = tuple(b - a for a, b in zip(spec.breakpoints, spec.breakpoints[1:]))
    return SbmParams(len(f), f, spec.values)


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """One realisation: a simple undirected graph on ``n`` vertices.

    ``adjacency`` holds one bitset row per vertex, an (n, ⌈n/64⌉) uint64
    array in which bit ``v % 64`` of word ``v // 64`` of row ``u`` is set
    when {u, v} is an edge.  The constructor checks it: the rows must be
    symmetric, with a zero diagonal and no bit past column n - 1, or
    InvalidParams is raised.  The graph keeps a read-only view of the
    array, and in ``words`` the nonzero words its check listed, as a
    :class:`~motif_poisson.bitrows.Batch` holds them, for the counter.
    """

    n: int
    adjacency: np.ndarray
    words: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n = integer(self.n, "graph vertex count")
        if n < 1:
            raise InvalidParams("graph has no vertices")
        rows = self.adjacency
        shape = (n, bitrows.row_words(n))
        if not (
            isinstance(rows, np.ndarray)
            and rows.dtype == np.uint64
            and rows.shape == shape
        ):
            raise InvalidParams(f"adjacency must be a uint64 array of shape {shape}")
        words = check_rows(rows, n)
        view = rows.view()
        view.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", view)
        object.__setattr__(self, "words", words)

    def __eq__(self, other):
        if not isinstance(other, SampledGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adjacency, other.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = integer(u, "vertex"), integer(v, "vertex")
        for x in (u, v):
            if not 0 <= x < self.n:
                raise InvalidParams(f"vertex {x} is outside 0..{self.n - 1}")
        return bool(self.adjacency[u, v >> 6] & BIT64[v & 63])

    @property
    def edge_count(self) -> int:
        return int(np.bitwise_count(self.adjacency).sum()) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        width = 64 * self.adjacency.shape[1]
        flat = self.adjacency.ravel()
        for at in set_bits(flat, bitrows.word_positions(flat)):
            u, v = np.divmod(at, width)
            upper = u < v
            yield from zip(u[upper].tolist(), v[upper].tolist())

    def to_edge_text(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.edges())


def graph_from_edge_text(text: str, n: int | None = None) -> SampledGraph:
    """Parse a graph from edge-list text (same format motifs use).

    ``n`` extends the vertex universe beyond the highest label seen, which
    unlike motifs is legal for sampled graphs (isolated vertices allowed).
    """
    labels = itertools.chain.from_iterable(parse_edge_lines(text, InvalidParams))
    try:
        ends = np.fromiter(labels, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise InvalidParams(
            f"graph has more than 2^63 vertices; cap is {MAX_GRAPH_VERTICES}"
        ) from None
    n = 0 if n is None else integer(n, "n")
    size = max(int(ends.max(initial=-1)) + 1, n)
    if size <= 0:
        raise InvalidParams("graph has no vertices")
    check_graph_size(size)
    bits = empty_rows(size)
    set_edges(bits, ends[:, 0], ends[:, 1], size)
    return SampledGraph(size, words_of(bits))


def check_graph_size(n: int) -> None:
    """InvalidParams unless ``n`` is within the vertex cap, so an oversize
    graph fails before any of its memory is allocated."""
    if n > MAX_GRAPH_VERTICES:
        raise InvalidParams(f"graph has {n} vertices; cap is {MAX_GRAPH_VERTICES}")


def substream_seed(seed: int, index):
    """Derive an independent 64-bit sub-seed for replicate ``index``, or a
    uint64 array of them for a uint64 array of indices, whose arithmetic
    wraps at 2^64 as the masks do.

    SplitMix64-style mixing: distinct (seed, index) pairs land on distinct
    Philox keys, making every replicate reproducible on its own no matter
    how replicates are partitioned across workers.
    """
    z = (seed ^ (index * 0x9E3779B97F4A7C15)) & _SEED_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _SEED_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _SEED_MASK
    return (z ^ (z >> 31)) & _SEED_MASK


#: Below this p, NumPy's ``Generator.geometric(p)`` turns one standard
#: exponential E of the stream into ``ceil(-E / log1p(-p))``, with libm's
#: ``log1p``; from it on, it searches with other draws.
_EXPONENTIAL_BELOW = 1 / 3


def _first_chunk(p, total):
    """Gaps drawn per chunk of a block of ``total`` ``p``-coins, a function
    of ``(p, total)`` alone, elementwise over arrays: the expected count of
    successes with room to spare, so a sparse block takes one chunk."""
    mean = p * total
    return np.minimum(_CHUNK, mean + 4.0 * np.sqrt(mean) + 16.0).astype(np.int64)


def _gap_bound(probs: list[float], n: int) -> int | None:
    """K, the exponentials that hold the first chunks of all the blocks of
    an n-vertex graph whose class pairs have the coins ``probs``, whatever
    its class sizes; None where a coin lies in [``_EXPONENTIAL_BELOW``, 1)
    or K reaches ``_CHUNK``.

    The P blocks with 0 < p < 1 hold at most C(n, 2) pairs, so with p*
    their largest coin their means m = p * total sum to at most
    M = p* C(n, 2), and the sum of their square roots is at most sqrt(P M)
    (Cauchy-Schwarz): their first chunks sum to at most
    M + 4 sqrt(P M) + 16 P.  Below 2^18, float rounding moves both sides by
    far less than 1, which the added 1 covers; where P = 1, K is the first
    chunk of C(n, 2) p*-coins, and each rounded step is monotone."""
    sparse = [p for p in probs if p < 1.0]
    if any(p >= _EXPONENTIAL_BELOW for p in sparse):
        return None
    if not sparse:
        return 0
    count, mean = len(sparse), max(sparse) * (n * (n - 1) // 2)
    bound = int(mean + 4.0 * math.sqrt(count * mean) + 16.0 * count) + (count > 1)
    return bound if bound < _CHUNK else None


def _positions(gaps: np.ndarray, total, lengths=None) -> np.ndarray:
    """Positions, from 0, of the successes after the gaps ``gaps`` among
    ``total`` coins, one size or one per gap: ``gaps``, integers or floats
    of integer value, overwritten.  With ``lengths``, the gaps are runs of
    that many, one block each, and each block's positions start from 0.

    Each gap is capped at ``total + 1``, which keeps the sums exact at tiny
    p, within int64 and within the integers of float64 (``_CHUNK`` gaps of
    at most 2^29 + 1), and still puts a gap that passes the block past its
    last position, so a block with no success gets none."""
    np.minimum(gaps, total + 1, out=gaps)
    np.cumsum(gaps, out=gaps)
    if lengths is None or len(lengths) == 1:
        gaps -= 1
    else:
        start = np.cumsum(lengths) - lengths
        gaps -= np.repeat(np.where(start > 0, gaps[start - 1], 0) + 1, lengths)
    return gaps


def _skip_positions(
    rng: np.random.Generator, p: float, total: int
) -> Iterator[np.ndarray]:
    """Ascending positions of the successes among ``total`` independent
    ``p``-coins, in chunks of ``_first_chunk(p, total)`` gaps.

    The gaps between successes are geometric (Batagelj & Brandes 2005), so
    the draws are proportional to the successes, not to ``total``.  Below
    ``_EXPONENTIAL_BELOW`` each gap is one standard exponential of the
    stream, so :class:`_Sampler` draws the first chunks of a sparse graph's
    blocks as one call of exponentials instead, and the stream is the same.
    """
    if p <= 0.0 or total == 0:
        return
    if p >= 1.0:
        for start in range(0, total, _CHUNK):
            yield np.arange(start, min(start + _CHUNK, total))
        return
    size, last = _first_chunk(p, total), -1
    while True:
        pos = _positions(rng.geometric(p, size), total)
        if last >= 0:
            pos += last + 1
        if pos[-1] >= total:
            if cut := pos.searchsorted(total):
                yield pos[:cut]
            return
        yield pos
        last = int(pos[-1])


def _row_start(i: np.ndarray, m) -> np.ndarray:
    """Row-major index of pair (i, i + 1) in the strict upper triangle of
    an m x m matrix, in one new array."""
    start = 2 * m - 1 - i
    start *= i
    start >>= 1
    return start


def _diagonal_pairs(k: np.ndarray, m) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) with i < j < m at row-major index ``k`` of the strict upper
    triangle of an m x m matrix, the order of ``np.triu_indices(m, 1)``;
    ``m`` is one size or one per element of ``k``, at most 2^15.

    The row is the floor of the smaller root (b - sqrt(D)) / 2 of
    ``_row_start(i, m) = k``, with b = 2m - 1 and D = b^2 - 8k, and the
    float root floors exactly: D < 2^32, so float64 holds it and its
    ``sqrt`` is exact where D is a square, and otherwise within 2^-37 of a
    root that lies more than 1 / (2 sqrt(D) + 1) > 2^-18 from any integer."""
    b = 2 * m - 1
    i = (b - np.sqrt(b * b - 8 * k)).astype(np.int64) >> 1
    return i, k - _row_start(i, m) + i + 1


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _per_element(values, lengths):
    """``values[c]`` for each element of chunk c: a scalar where every
    chunk has the same value."""
    values = np.asarray(values)
    if (values == values[0]).all():
        return values[0]
    return np.repeat(values, lengths)


def _at(values, index):
    """``values[index]``, or ``values`` itself where it is one value."""
    return values[index] if np.ndim(values) else values


class _Sampler:
    """The sampler of one model's graphs on n vertices, batch by batch:
    what the model's blocks are, found once, and, while a batch is drawn
    (:meth:`sample`), its graphs' latents, their byte rows stacked in n-row
    bands, one per graph, and the chunks of positions drawn but not yet set
    as edges.

    A graph's vertex pairs are blocks, one per class pair a <= b with
    p > 0, in that order: ``total`` ``p``-coins, the offsets of the block's
    row and column vertices in ``members``, the length of its rows (its
    column count, or its vertex count on the diagonal) and whether it is
    diagonal, whose positions map to pairs by another formula.
    :meth:`_blocks` finds them for a range of graphs at once, as one
    (graphs, pairs) array each.

    Where the model has a gap bound K (:func:`_gap_bound`), each graph of
    a batch of several makes three stream calls: the re-keying, its n
    latents and K standard exponentials, the first of which are its blocks'
    first chunks of gaps in order.  :meth:`_draw_runs` draws ⌊``_CHUNK``/K⌋
    graphs at a time so, and turns their runs into gaps, positions, vertex
    pairs and edges as arrays.  A graph one of whose blocks needs more than
    its first chunk, a rare event, is drawn again block by block from its
    seed.

    Block by block, for a lone graph, a thinned graphon or a coin in
    [1/3, 1), each block draws its chunks of positions from
    :func:`_skip_positions` and, if thinned, one uniform per position, held
    as ``(k, rows, cols, width, thin)`` with the other off-diagonal or
    diagonal chunks in ``held`` until ``_CHUNK`` positions are set at once.
    A p = 1 block takes every position this way on either path, and draws
    nothing.
    """

    def __init__(self, model: SbmParams | GraphonSpec, n: int):
        self.n = n
        self.thresholds, probs, self.keep = _layout(model)
        self.q = len(probs)
        pairs = itertools.combinations_with_replacement(range(self.q), 2)
        pairs = [(a, b) for a, b in pairs if probs[a][b] > 0.0]
        self.probs = [probs[a][b] for a, b in pairs]
        self.a, self.b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        self.diagonal = self.a == self.b
        self.coins = np.array(self.probs)
        self.sparse = self.coins < 1.0
        #: -log1p(-p) of each class pair with p < 1, by libm as NumPy's
        #: geometric takes it
        self.rates = np.array([-math.log1p(-p) if p < 1.0 else 0.0 for p in self.probs])
        self.gaps = None if self.keep else _gap_bound(self.probs, n)
        self.rng = np.random.Generator(np.random.Philox(key=0))
        # what re-keying leaves of this state is that of Philox(key=seed):
        # zero counter, empty buffer
        self.state = self.rng.bit_generator.state

    def sample(self, seeds: list[int]) -> Batch:
        """The batch of the graphs of ``seeds``, drawn and set as edges,
        its rows checked once and read-only."""
        seeds = [integer(seed, "seed") for seed in seeds]
        if not all(0 <= seed <= _SEED_MASK for seed in seeds):
            raise InvalidParams("seed must be an unsigned 64-bit integer")
        n, graphs = self.n, len(seeds)
        self.seeds, self.bits = seeds, empty_rows(n, graphs)
        self.latents = np.empty((graphs, n))
        #: with more than one class, the batch's vertices by graph, then
        #: class, then index; with one class, vertex i itself at index i
        self.members = np.empty(graphs * n, np.intp) if self.q > 1 else None
        self.held, self.count = ([], []), 0
        # a lone graph has no draws to batch, and is drawn block by block
        gaps = self.gaps if graphs > 1 else None
        if gaps is None:
            for g in range(graphs):
                rng = self._keyed(g)
                self._draw_blocks(rng, self._blocks(g, g + 1), 0)
        else:
            step = _CHUNK // gaps if gaps else graphs
            for lo in range(0, graphs, step):
                self._draw_runs(lo, min(lo + step, graphs))
        self.flush()
        rows = words_of(self.bits)
        # the next batch is drawn without this one's arrays
        self.bits = self.latents = self.members = None
        words = check_rows(rows, n)
        rows.flags.writeable = False
        return Batch(rows, n, graphs, words)

    def _keyed(self, g: int) -> np.random.Generator:
        """The generator re-keyed by graph g's seed, past the n latents
        that it has drawn into ``latents[g]``."""
        self.state["state"]["key"][0] = self.seeds[g]
        rng = self.rng
        rng.bit_generator.state = self.state
        rng.random(out=self.latents[g])
        return rng

    def _blocks(self, lo: int, hi: int) -> tuple[np.ndarray, ...]:
        """(total, rows, cols, width) of the blocks of graphs lo to hi - 1,
        each a (hi - lo, pairs) array, after their vertices are put in
        ``members`` by their latents."""
        n = self.n
        sizes = np.full((hi - lo, 1), n)
        if self.members is not None:
            # a vertex's class counts the thresholds at or below its latent;
            # keys of at most 16 bits sort stably by radix
            small = np.min_scalar_type((hi - lo) * self.q)
            key = np.repeat(np.arange(0, (hi - lo) * self.q, self.q, dtype=small), n)
            latents = self.latents[lo:hi].ravel()
            for t in self.thresholds.tolist():
                key += latents >= t
            sizes = np.bincount(key, minlength=(hi - lo) * self.q).reshape(-1, self.q)
            self.members[lo * n : hi * n] = key.argsort(kind="stable") + lo * n
        first = sizes.cumsum(axis=1) - sizes + n * np.arange(lo, hi)[:, None]
        width = sizes[:, self.b]
        total = np.where(self.diagonal, width * (width - 1) // 2, sizes[:, self.a] * width)
        return total, first[:, self.a], first[:, self.b], width

    def _draw_blocks(self, rng, blocks, i: int, dense: bool = False) -> None:
        """Hold the chunks of positions of the blocks in row i of
        ``blocks``, in order, drawn by ``rng``, each followed, if thinned,
        by its uniforms; with ``dense``, of the p = 1 blocks alone."""
        for p, diagonal, total, rows, cols, width in zip(
            self.probs, self.diagonal.tolist(), *(x[i].tolist() for x in blocks)
        ):
            if dense and p < 1.0:
                continue
            for k in _skip_positions(rng, p, total):
                thin = rng.random(len(k)) if self.keep else None
                self._hold(int(diagonal), len(k), (k, rows, cols, width, thin))

    def _hold(self, kind: int, count: int, item) -> None:
        """Hold ``item``, a chunk of ``count`` positions, with those of its
        kind, first setting all those held if the count would pass
        ``_CHUNK``, and then if it reaches it."""
        if self.count + count > _CHUNK:
            self.flush()
        self.held[kind].append(item)
        self.count += count
        if self.count >= _CHUNK:
            self.flush()

    def flush(self) -> None:
        """Map every held position to its vertex pair in one pass per kind
        of block, thin the pairs, and set the edges left."""
        held, self.held, self.count = self.held, ([], []), 0
        ends = []
        for chunks, diagonal in zip(held, (False, True)):
            if chunks:
                lengths = [len(c[0]) for c in chunks]
                k = _joined([c[0] for c in chunks])
                rows, cols, width = (
                    _per_element([c[i] for c in chunks], lengths) for i in (1, 2, 3)
                )
                thin = _joined([c[4] for c in chunks]) if self.keep else None
                ends.append(self._pairs(k, rows, cols, width, thin, diagonal))
        self._set(ends)

    def _draw_runs(self, lo: int, hi: int) -> None:
        """Draw graphs lo to hi - 1 as runs of ``gaps`` exponentials, one
        row each, set the edges at the positions they give, and draw again
        block by block each graph with a block whose first chunk ended
        short of its total: none of its positions is kept.

        The exponential E of a block of p-coins is the gap
        ``ceil(E / -log1p(-p))``, as NumPy's geometric computes it."""
        runs = np.empty((hi - lo, self.gaps))
        for g, run in enumerate(runs, lo):
            self._keyed(g).standard_exponential(out=run)
        blocks = self._blocks(lo, hi)
        total, pairs = blocks[0], len(self.probs)
        lengths = np.where(self.sparse & (total > 0), _first_chunk(self.coins, total), 0)
        # each graph's first chunks lead its run, block after block
        gaps = runs[np.arange(self.gaps) < lengths.sum(axis=1)[:, None]]
        del runs
        drew = np.flatnonzero(lengths)  # the blocks with gaps, graph-major
        lengths = lengths.ravel()[drew]
        short = []
        if len(drew):
            gaps /= _per_element(self.rates[drew % pairs], lengths)
            np.ceil(gaps, out=gaps)
            # float, as the gaps are: NumPy compares mixed types more slowly
            cap = _per_element(total.ravel()[drew].astype(float), lengths)
            pos = _positions(gaps, cap, lengths)
            keep = pos < cap
            last = np.cumsum(lengths) - 1
            short = sorted(set((drew[keep[last]] // pairs).tolist()))
            if short:
                keep &= np.repeat(~np.isin(drew // pairs, short), lengths)
            # a block's positions ascend, so those kept come first in it
            kept = np.add.reduceat(keep, last + 1 - lengths, dtype=np.intp)
            k = pos[keep].astype(np.int64)
            del gaps, pos, keep, cap
            on = _per_element(self.diagonal[drew % pairs], kept)
            rows, cols, width = (_per_element(x.ravel()[drew], kept) for x in blocks[1:])
            sides = [(on, True), (~on, False)] if np.ndim(on) else [(slice(None), on)]
            ends = [
                self._pairs(k[at], *(_at(x, at) for x in (rows, cols, width)), None, d)
                for at, d in sides
            ]
            del k, rows, cols, width, sides
            self._set(ends)
        for i in range(hi - lo) if not self.sparse.all() else short:
            if i in short:
                self._draw_blocks(self._keyed(lo + i), blocks, i)
            else:
                self._draw_blocks(None, blocks, i, dense=True)

    def _pairs(self, k, rows, cols, width, thin, diagonal: bool):
        """The batch's vertex pairs (u, v) at positions ``k`` of blocks
        with ``rows``, ``cols`` and ``width`` (each one value or one per
        position) that survive the thinning uniforms ``thin``."""
        u, v = _diagonal_pairs(k, width) if diagonal else np.divmod(k, width)
        del k
        u += rows
        v += rows if diagonal else cols
        if self.members is not None:
            u, v = self.members[u], self.members[v]
        if thin is not None:
            lat = self.latents.ravel()
            hit = thin < self.keep(lat[u], lat[v])
            u, v = u[hit], v[hit]
        return u, v

    def _set(self, ends: list) -> None:
        """Set the vertex pairs of ``ends``, a list of (u, v) arrays, as
        edges, in one scatter per direction."""
        if ends:
            u, v = (_joined(list(side)) for side in zip(*ends))
            ends.clear()
            set_edges(self.bits, u, v, self.n)


def _layout(model: SbmParams | GraphonSpec):
    """(thresholds, probs, keep) of a model.  A vertex's class is the
    number of thresholds at or below its latent uniform, the vertex pairs
    of classes a and b are coins of probability ``probs[a][b]``, and with
    ``keep`` a drawn pair {u, v} stays when one more uniform falls below
    ``keep(U_u, U_v)``."""
    if isinstance(model, SbmParams):
        # the last class takes every latent past the others, so one that
        # rounding puts above the summed proportions too
        cum = np.asarray(model.proportions).cumsum()
        return cum[:-1], model.edge_probs, None
    if model.family == "piecewise_constant":
        return np.asarray(model.breakpoints[1:-1]), model.values, None
    top = h_star(model)
    return np.empty(0), ((top,),), lambda x, y: model.evaluate(x, y) / top


def sample_batches(
    model: SbmParams | GraphonSpec, n: int, seeds: Iterable[int]
) -> Iterator[Batch]:
    """One graph of ``model`` on ``n`` vertices per seed, in order, in
    batches: each a :class:`~motif_poisson.bitrows.Batch` of the read-only,
    checked bitset rows of its graphs stacked n rows a graph, a
    (B * n, ⌈n/64⌉) uint64 array, and the nonzero words its check listed.

    Graph by graph, in the stream keyed by its seed: n latent uniforms,
    then each class pair's coins from :func:`_skip_positions` and, for a
    smooth graphon, the thinning uniforms of each chunk.  The seeds are
    taken in batches of ``run_length(n)``, the graphs one counter run
    holds, and a batch shares one Philox generator, re-keyed per seed, one
    mapping of positions to pairs and one edge scatter per ``_CHUNK``
    positions, and one check of its rows.  This generator keeps no batch
    once it has handed it on.
    """
    instance(model, "model", SbmParams, GraphonSpec)
    n = integer(n, "n")
    if n < 2:
        raise InvalidParams("n must be >= 2")
    check_graph_size(n)
    sampler, seeds = _Sampler(model, n), iter(seeds)
    while batch := list(itertools.islice(seeds, bitrows.run_length(n))):
        yield sampler.sample(batch)


def sample_sbm(params: SbmParams, n: int, seed: int) -> SampledGraph:
    """Draw one block-model graph: a batch of one for
    :func:`sample_batches`.

    Class labels first (n inverse-CDF draws), then the block coins, so the
    output is fully determined by the seed.
    """
    return _sampled(instance(params, "model", SbmParams), n, seed)


def sample_graphon(spec: GraphonSpec, n: int, seed: int) -> SampledGraph:
    """Draw one graphon graph, a batch of one for :func:`sample_batches`:
    i.i.d. uniforms per vertex, then one coin per pair with probability
    h(U_i, U_j).

    A piecewise-constant surface is a block model on the blocks of the
    latents.  A smooth one is one block at h*, thinned to h(U_i, U_j)/h*.
    """
    return _sampled(instance(spec, "graphon", GraphonSpec), n, seed)


def _sampled(model: SbmParams | GraphonSpec, n: int, seed: int) -> SampledGraph:
    """The graph of ``seed``, a batch of one, its read-only rows and their
    listed words kept as the sampler checked them."""
    (batch,) = sample_batches(model, n, [seed])
    graph = object.__new__(SampledGraph)
    object.__setattr__(graph, "n", batch.n)
    object.__setattr__(graph, "adjacency", batch.rows)
    object.__setattr__(graph, "words", batch.words)
    return graph

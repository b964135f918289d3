"""Random-graph models: stochastic block model and graphon sampling.

Both models give each vertex a latent value (a class label or a uniform
variate), then flip one independent coin per vertex pair with probability
set by the two latents.  The samplers share that second step,
:func:`_draw_pairs`.  It groups the vertices into blocks whose pairs are
one coin, and skips from one success to the next by geometric gaps, so a
graph with m edges takes O(n + m) work beside its n^2/8 bytes of bitset
rows.  A graph keeps those rows as an (n, ⌈n/64⌉) uint64 array, the form
the counter reads; the latents are not kept.
Block models use their classes; piecewise-constant graphons the blocks of
the latents; smooth graphons one block at the surface maximum h*, each
candidate pair then kept with probability h(U_i, U_j)/h*.  Candidates
come in fixed-size batches, so memory stays bounded for dense graphs too.

Sampling is driven by the counter-based Philox generator keyed directly by
the caller's seed, so a sampled graph is a pure function of
``(params, n, seed)`` regardless of how surrounding work is scheduled.
Replicate ensembles derive one independent key per replicate index via
:func:`substream_seed`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import (
    InvalidParams,
    WrongFamily,
    json_int,
    known_keys,
    probability,
    real,
    sequence,
)
from .motif import parse_edge_lines

_PROPORTION_TOL = 1e-12
_SEED_MASK = (1 << 64) - 1
#: Candidate pairs drawn per batch: bounds the int64 buffers a dense block
#: holds at once.
_CHUNK = 1 << 18
#: The byte with only bit b set, at index b.
_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)
#: The uint64 word with only bit b set, at index b.
_BIT64 = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
#: Nonzero words unpacked at once when a graph's set bits are listed: keeps
#: the index arrays to a few MiB however dense the graph.
_SCAN_WORDS = 1 << 11

#: Largest graph the samplers and the edge-list reader accept: its bitsets
#: take 128 MiB.
MAX_GRAPH_VERTICES = 2**15

#: Version of the random stream behind sampled graphs, stamped into every
#: manifest: a given seed gives other graphs under another version.
SAMPLER_VERSION = 2

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
        q = json_int(self.class_count, "SBM class count 'Q'")
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
    if spec.family in ("product", "affine_mean"):
        return spec.scale  # attained at (1, 1)
    return max(max(row) for row in spec.values)


def graphon_to_sbm(spec: GraphonSpec) -> SbmParams:
    """The block model equivalent to a piecewise-constant graphon: class
    proportions are the breakpoint interval lengths."""
    if spec.family != "piecewise_constant":
        raise WrongFamily(
            f"graphon_to_sbm requires piecewise_constant, got {spec.family}"
        )
    f = tuple(b - a for a, b in zip(spec.breakpoints, spec.breakpoints[1:]))
    return SbmParams(len(f), f, spec.values)


def row_words(n: int) -> int:
    """uint64 words in one bitset row of an n-vertex graph."""
    return -(-n // 64)


def bit_positions(words: np.ndarray) -> np.ndarray:
    """Flat positions 64 * i + b of the set bits b of ``words.ravel()[i]``,
    ascending."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.flatnonzero(np.unpackbits(octets, bitorder="little").view(bool))


def _set_bits(rows: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(u, v) of every set bit v of row u, in row-major order, in blocks of
    at most ``_SCAN_WORDS`` nonzero words."""
    width = 64 * rows.shape[1]
    flat = rows.ravel()
    if flat.size <= _SCAN_WORDS:  # one block: no need to find its nonzero words
        at = bit_positions(flat)
        yield at // width, at % width
        return
    nonzero = np.flatnonzero(flat != 0)
    for lo in range(0, len(nonzero), _SCAN_WORDS):
        word = nonzero[lo : lo + _SCAN_WORDS]
        bit = bit_positions(flat[word])
        at = word[bit >> 6] * 64 + (bit & 63)
        yield at // width, at % width


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """One realisation: a simple undirected graph on ``n`` vertices.

    ``adjacency`` holds one bitset row per vertex, an (n, ⌈n/64⌉) uint64
    array in which bit ``v % 64`` of word ``v // 64`` of row ``u`` is set
    when {u, v} is an edge.  The constructor checks it in one pass over the
    set bits: the rows must be symmetric, with a zero diagonal and no bit
    past column n - 1, or InvalidParams is raised.  The graph keeps a
    read-only view of the array.
    """

    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        if isinstance(self.n, bool) or not hasattr(self.n, "__index__"):
            raise InvalidParams(f"graph vertex count {self.n!r} is not an integer")
        n = operator.index(self.n)  # NumPy ints too, stored as int
        rows = self.adjacency
        shape = (n, row_words(n))
        if not (
            isinstance(rows, np.ndarray)
            and rows.dtype == np.uint64
            and rows.shape == shape
        ):
            raise InvalidParams(f"adjacency must be a uint64 array of shape {shape}")
        for u, v in _set_bits(rows):
            if not (v < n).all():
                raise InvalidParams(f"adjacency has bits past column {n - 1}")
            loop = u == v
            if loop.any():
                raise InvalidParams(f"self-loop at {u[loop][0]}")
            lone = (rows[v, u >> 6] & _BIT64[u & 63]) == 0
            if lone.any():
                raise InvalidParams(
                    f"adjacency not symmetric at ({u[lone][0]}, {v[lone][0]})"
                )
        view = rows.view()
        view.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", view)

    def __eq__(self, other):
        if not isinstance(other, SampledGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adjacency, other.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u, v >> 6] & _BIT64[v & 63])

    @property
    def edge_count(self) -> int:
        return int(np.bitwise_count(self.adjacency).sum()) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, v in _set_bits(self.adjacency):
            upper = u < v
            yield from zip(u[upper].tolist(), v[upper].tolist())

    def to_edge_text(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.edges())


def _empty_rows(n: int) -> np.ndarray:
    """Zero bitset rows of an n-vertex graph as bytes, padded to whole
    uint64 words."""
    return np.zeros((n, 8 * row_words(n)), dtype=np.uint8)


def _set_edges(bits: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Set the pairs {u[i], v[i]} in both rows of the byte rows ``bits``."""
    x, y = np.concatenate((u, v)), np.concatenate((v, u))
    np.bitwise_or.at(bits, (x, y >> 3), _BIT[y & 7])


def _words(octets: np.ndarray) -> np.ndarray:
    """The uint64 rows of byte rows whose length is a multiple of 8, little
    endian, without a copy on a little-endian machine."""
    return octets.view("<u8").astype(np.uint64, copy=False)


def pack_words(bits: np.ndarray) -> np.ndarray:
    """uint64 words of 0/1 values along the last axis, whose length must be
    a multiple of 64: value b of each run of 64 becomes bit b."""
    return _words(np.packbits(bits, axis=-1, bitorder="little"))


def graph_from_edge_text(text: str, n: int | None = None) -> SampledGraph:
    """Parse a graph from edge-list text (same format motifs use).

    ``n`` extends the vertex universe beyond the highest label seen, which
    unlike motifs is legal for sampled graphs (isolated vertices allowed).
    """
    pairs = parse_edge_lines(text, InvalidParams)
    top = max((max(e) for e in pairs), default=-1)
    size = max(top + 1, n or 0)
    if size <= 0:
        raise InvalidParams("graph has no vertices")
    check_graph_size(size)
    bits = _empty_rows(size)
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    _set_edges(bits, ends[:, 0], ends[:, 1])
    return SampledGraph(size, _words(bits))


def check_graph_size(n: int) -> None:
    """InvalidParams unless ``n`` is within the vertex cap, so an oversize
    graph fails before any of its memory is allocated."""
    if n > MAX_GRAPH_VERTICES:
        raise InvalidParams(f"graph has {n} vertices; cap is {MAX_GRAPH_VERTICES}")


def _generator(seed: int, n: int) -> np.random.Generator:
    if n < 2:
        raise InvalidParams("n must be >= 2")
    check_graph_size(n)
    if not 0 <= seed <= _SEED_MASK:
        raise InvalidParams("seed must be an unsigned 64-bit integer")
    return np.random.Generator(np.random.Philox(key=seed))


def substream_seed(seed: int, index: int) -> int:
    """Derive an independent 64-bit sub-seed for replicate ``index``.

    SplitMix64-style mixing: distinct (seed, index) pairs land on distinct
    Philox keys, making every replicate reproducible on its own no matter
    how replicates are partitioned across workers.
    """
    z = (seed ^ (index * 0x9E3779B97F4A7C15)) & _SEED_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _SEED_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _SEED_MASK
    return (z ^ (z >> 31)) & _SEED_MASK


def _skip_positions(
    rng: np.random.Generator, p: float, total: int
) -> Iterator[np.ndarray]:
    """Ascending positions of the successes among ``total`` independent
    ``p``-coins, in batches of at most ``_CHUNK``.

    The gaps between successes are geometric (Batagelj & Brandes 2005), so
    the draws are proportional to the successes, not to ``total``.  The
    first batch covers the expected count with room to spare, so a sparse
    block takes one batch; the batch sizes depend only on ``(p, total)``.
    """
    if p <= 0.0 or total == 0:
        return
    if p >= 1.0:
        for start in range(0, total, _CHUNK):
            yield np.arange(start, min(start + _CHUNK, total))
        return
    mean = p * total
    size = int(min(_CHUNK, mean + 4.0 * math.sqrt(mean) + 16.0))
    last = -1
    while True:
        # a gap above ``total`` ends the block either way; capping it keeps
        # the int64 cumulative sum from overflowing at tiny p
        pos = np.minimum(rng.geometric(p, size), total).cumsum()
        pos += last
        if pos[-1] >= total:
            yield pos[: pos.searchsorted(total)]
            return
        yield pos
        last = int(pos[-1])


def _row_start(i, m: int):
    """Row-major index of pair (i, i + 1) in the strict upper triangle of
    an m x m matrix."""
    return i * (2 * m - i - 1) // 2


def _triangle_pair(k: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) with i < j < m at row-major index ``k`` of the strict upper
    triangle of an m x m matrix, the order of ``np.triu_indices(m, 1)``.

    The row is found by binary search among the exact integer row starts,
    so no float root can land it in a neighbouring row."""
    starts = _row_start(np.arange(m), m)
    i = starts.searchsorted(k, side="right") - 1
    return i, k - starts[i] + i + 1


def _draw_pairs(
    rng: np.random.Generator,
    labels: np.ndarray,
    probs: tuple[tuple[float, ...], ...],
    keep: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Bitset rows of a graph on ``len(labels)`` vertices in which pair
    {u, v} is an independent coin of probability
    ``probs[labels[u]][labels[v]]``, thinned by ``keep(u, v)`` if given.

    Vertices are grouped by label.  For each label pair a <= b, the
    successful coins of that block are skip-sampled by
    :func:`_skip_positions` over the block's pairs: row-major strict upper
    triangle for a == b, and row-major |A| x |B| for a < b.  A candidate
    survives thinning when one more uniform falls below ``keep(u, v)``.
    Candidates come in batches of at most ``_CHUNK``, so the work is
    O(n + m) for m candidates and the int64 buffers stay bounded however
    dense the graph.  Edges are set straight into a packed byte buffer
    whose rows are padded to whole uint64 words, and its uint64 view is
    returned: (n, ⌈n/64⌉) bitset rows, with no copy.
    """
    n = len(labels)
    bits = _empty_rows(n)
    order = labels.argsort(kind="stable")
    cuts = labels[order].searchsorted(np.arange(len(probs) + 1))
    members = [order[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    for a, rows in enumerate(members):
        m = len(rows)
        for b in range(a, len(probs)):
            cols = members[b]
            total = m * (m - 1) // 2 if a == b else m * len(cols)
            for k in _skip_positions(rng, probs[a][b], total):
                i, j = _triangle_pair(k, m) if a == b else np.divmod(k, len(cols))
                u, v = rows[i], cols[j]
                if keep is not None:
                    hit = rng.random(len(k)) < keep(u, v)
                    u, v = u[hit], v[hit]
                _set_edges(bits, u, v)
    return _words(bits)


def sample_sbm(params: SbmParams, n: int, seed: int) -> SampledGraph:
    """Draw one block-model graph.

    Class labels first (n inverse-CDF draws), then the block coins of
    :func:`_draw_pairs`, so the output is fully determined by the seed.
    """
    rng = _generator(seed, n)
    cum = np.asarray(params.proportions).cumsum()
    labels = cum.searchsorted(rng.random(n), side="right")
    labels = np.minimum(labels, params.class_count - 1)
    return SampledGraph(n, _draw_pairs(rng, labels, params.edge_probs))


def sample_graphon(spec: GraphonSpec, n: int, seed: int) -> SampledGraph:
    """Draw one graphon graph: i.i.d. uniforms per vertex, then one coin per
    pair with probability h(U_i, U_j), drawn by the shared
    :func:`_draw_pairs`.

    A piecewise-constant surface is a block model on the blocks of the
    latents.  A smooth one is one block at h*, thinned to h(U_i, U_j)/h*.
    """
    rng = _generator(seed, n)
    latent = rng.random(n)
    if spec.family == "piecewise_constant":
        adjacency = _draw_pairs(rng, spec._block_of(latent), spec.values)
    else:
        top = h_star(spec)
        adjacency = _draw_pairs(
            rng,
            np.zeros(n, dtype=np.int64),
            ((top,),),
            keep=lambda u, v: spec.evaluate(latent[u], latent[v]) / top,
        )
    return SampledGraph(n, adjacency)

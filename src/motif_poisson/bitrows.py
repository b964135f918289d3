"""The bitset-row format that graphs take from the sampler to the counter.

A graph on n vertices is n rows of w = ⌈n/64⌉ uint64 words, bit v % 64 of
word v // 64 of row u set when {u, v} is an edge; graphs of one size are
stacked n rows a graph.  This module holds the kernels of that one format,
its one word budget (``BLOCK_WORDS``) and its row check
(:func:`check_rows`), and no model or motif types.  Every listing of set
bits or nonzero words goes through one kernel, :func:`_ones`, which
unpacks only the nonzero bytes of what it lists (or all of them, where
more than half are nonzero).  Set bits too many to list at once, those of
the row check, of ``SampledGraph.edges`` and of the counter's candidate
words, are listed in windows of at most ``BLOCK_WORDS`` of them
(:func:`windows`).  A :class:`Batch` carries stacked rows with the nonzero
words that the check's one scan listed, so the counter does not scan them
again.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InvalidParams

#: uint64 words of bitset rows that one batch of graphs takes (unless one
#: graph alone takes more), as do one band of the row check's transposes,
#: the set bits of one window (:func:`windows`) and the candidates and
#: images of one block of the counting search.
BLOCK_WORDS = 16384
#: Stacked rows with at most this share of their words nonzero are sparse:
#: the row check lists their set bits, and the counter, in wide rows, forms
#: candidates from their nonzero words.  Denser rows are checked by bit-block
#: transposes and counted as whole rows.
SPARSE_SHARE = 0.25
#: The byte with only bit b set, at index b.
_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)
#: The uint64 word with only bit b set, at index b.
BIT64 = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
#: The word with bits b+1..63 set, at index b.
HIGH = np.array([(1 << 64) - (2 << b) for b in range(64)], dtype=np.uint64)
ONES = ~np.uint64(0)
#: Bytes with more than this share nonzero are unpacked whole when their
#: set bits are listed: listing the nonzero bytes first would cost more
#: than it saves.
_DENSE_SHARE = 0.5
#: The shifts j = 32, 16, ..., 1 of the six delta swaps that transpose a
#: 64 x 64 bit block, each with the mask of the bits c with c & j == 0.
_SWAPS = tuple(
    (np.uint64(j), np.uint64(sum(1 << c for c in range(64) if not c & j)))
    for j in (32, 16, 8, 4, 2, 1)
)


class Batch(NamedTuple):
    """The bitset rows of ``graphs`` graphs on ``n`` vertices, stacked n
    rows a graph, and ``words``, the ascending flat positions of their
    nonzero words where :func:`nonzero_words` lists them, or else None."""

    rows: np.ndarray
    n: int
    graphs: int
    words: np.ndarray | None


def row_words(n: int) -> int:
    """uint64 words in one bitset row of an n-vertex graph."""
    return -(-n // 64)


def run_length(n: int) -> int:
    """Graphs of n vertices whose stacked bitset rows fit in
    ``BLOCK_WORDS`` words, one at least: a batch of the sampler and a run
    of the counter."""
    return max(1, BLOCK_WORDS // (n * row_words(n)))


def empty_rows(n: int, graphs: int = 1) -> np.ndarray:
    """Zero bitset rows of ``graphs`` n-vertex graphs, stacked, as bytes
    padded to whole uint64 words."""
    return np.zeros((graphs * n, 8 * row_words(n)), dtype=np.uint8)


def set_edges(bits: np.ndarray, u: np.ndarray, v: np.ndarray, n: int) -> None:
    """Set the pairs {u[i], v[i]} in both rows of the byte rows ``bits``
    of graphs stacked n rows a graph: vertex u is row u, column u % n."""
    for row, col in ((u, v), (v, u)):
        col = col % n
        bit = _BIT[col & 7]
        col >>= 3
        np.bitwise_or.at(bits, (row, col), bit)


def words_of(octets: np.ndarray) -> np.ndarray:
    """The uint64 rows of byte rows whose length is a multiple of 8, little
    endian, without a copy on a little-endian machine."""
    return octets.view("<u8").astype(np.uint64, copy=False)


def _octets(words: np.ndarray) -> np.ndarray:
    """The bytes of uint64 words along the last axis, little endian: byte k
    of word i, at index 8 * i + k, holds its bits 8k to 8k + 7."""
    return words.astype("<u8", copy=False).view(np.uint8)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Bytes of 0/1 values along the last axis, zero-padded to a multiple
    of 8: value b of each run of 8 becomes bit b."""
    return np.packbits(bits, axis=-1, bitorder="little")


def _unpack(octets: np.ndarray) -> np.ndarray:
    """The bits of bytes along the last axis as 0/1 uint8 values, bit b of
    byte i at index 8 * i + b: the inverse of :func:`_pack`."""
    return np.unpackbits(octets, axis=-1, bitorder="little")


def pack_words(bits: np.ndarray) -> np.ndarray:
    """uint64 words of 0/1 values along the last axis, whose length must be
    a multiple of 64: value b of each run of 64 becomes bit b."""
    return words_of(_pack(bits))


def unpack_words(words: np.ndarray) -> np.ndarray:
    """The bits of uint64 words along the last axis as 0/1 uint8 values,
    64 a word, bit b of word i at index 64 * i + b: the inverse of
    :func:`pack_words`."""
    return _unpack(_octets(words))


def _ones(octets: np.ndarray) -> np.ndarray:
    """Positions 8 * i + b of the set bits b of the bytes ``octets[i]``,
    ascending, from the unpacked bits of its nonzero bytes alone, or of all
    of them where more than ``_DENSE_SHARE`` are nonzero."""
    # int(): a NumPy int compared with a float costs about a microsecond,
    # a fifth of listing a few words
    if int(np.count_nonzero(octets)) > _DENSE_SHARE * octets.size:
        return np.flatnonzero(_unpack(octets).view(bool))
    byte = np.flatnonzero(octets != 0)
    bit = np.flatnonzero(_unpack(octets[byte]).view(bool))
    return byte[bit >> 3] * 8 + (bit & 7)


@lru_cache(maxsize=4)
def above(w: int) -> np.ndarray:
    """The rows of w words above each vertex, as a read-only (64, w, w)
    window over 64 strips: strip b is w - 1 zero words, the word with bits
    b+1..63 set, and w - 1 all-ones words, so entry
    ``[x & 63, w - 1 - (x >> 6)]`` has exactly bits x+1..64w-1 set."""
    strips = np.zeros((64, 2 * w - 1), dtype=np.uint64)
    strips[:, w - 1] = HIGH
    strips[:, w:] = ONES
    return np.lib.stride_tricks.sliding_window_view(strips, w, axis=1)


def bit_positions(words: np.ndarray) -> np.ndarray:
    """Flat positions 64 * i + b of the set bits b of ``words.ravel()[i]``,
    ascending."""
    return _ones(_octets(words.ravel()))


def word_positions(words: np.ndarray) -> np.ndarray:
    """Flat positions i of the nonzero words ``words.ravel()[i]``,
    ascending, listed from one flag a word packed into bits."""
    return _ones(_pack(words.ravel() != 0))


def windows(words: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(lo, positions)`` for consecutive runs ``words[lo:hi]`` that cover
    the 1-d array ``words``, each holding at most ``BLOCK_WORDS`` set bits
    or one word alone: the positions 64 * (i - lo) + b of the set bits b of
    ``words[i]``, ascending, so no listing outgrows one block's words."""
    # int64: a uint64 cumsum is copied whole by each searchsorted of an int
    ones = np.bitwise_count(words).cumsum(dtype=np.int64)
    lo = 0
    while lo < len(words):
        done = int(ones[lo - 1]) if lo else 0
        hi = max(lo + 1, int(ones.searchsorted(done + BLOCK_WORDS, "right")))
        yield lo, bit_positions(words[lo:hi])
        lo = hi


def set_bits(flat: np.ndarray, nonzero: np.ndarray) -> Iterator[np.ndarray]:
    """Flat positions 64 * i + b of the set bits b of ``flat[i]``,
    ascending, from its nonzero words, whose ascending positions are
    ``nonzero``, in the windows of :func:`windows`: at most
    ``BLOCK_WORDS`` of them at once.  The words are gathered whole, one
    for each of the positions the caller already holds."""
    for lo, bit in windows(flat[nonzero]):
        yield nonzero[lo:][bit >> 6] * 64 + (bit & 63)


def nonzero_words(rows: np.ndarray) -> np.ndarray | None:
    """The ascending flat positions of the nonzero words of ``rows`` if at
    most ``SPARSE_SHARE`` of its words are nonzero, or else None."""
    nonzero = rows.ravel() != 0
    if np.count_nonzero(nonzero) > SPARSE_SHARE * nonzero.size:
        return None
    # packed eight flags a byte, so the listing scans an eighth as many
    return _ones(_pack(nonzero))


def _transpose_blocks(blocks: np.ndarray) -> None:
    """Transpose in place the 64 x 64 bit blocks of a C-contiguous (64, k)
    uint64 array whose column i holds block i, one word a row: bit c of word
    r moves to bit r of word c (Warren, *Hacker's Delight*, §7-3).  Round j
    swaps bit c + j of each word r with bit c of word r + j, for the r and
    c without bit j, over runs of j * k words."""
    for j, mask in _SWAPS:
        pairs = blocks.reshape(64 // (2 * int(j)), 2, -1)
        low, high = pairs[:, 0], pairs[:, 1]
        swap = low >> j
        swap ^= high
        swap &= mask
        high ^= swap
        swap <<= j
        low ^= swap


def _asymmetric_from(rows: np.ndarray, n: int) -> int | None:
    """None if the bitset rows of graphs on n vertices, stacked n rows a
    graph, are each symmetric, tested by bit-block transposes; else the
    first stacked row of the first band whose blocks are not.

    Padded with zero rows to 64w rows, a graph of w words a row is w x w
    blocks of 64 x 64 bits, word J of rows 64I to 64I + 63 being block
    (I, J); it is symmetric when each block, transposed, equals block
    (J, I).  The graphs are taken ``run_length(n)`` at a time, a sampled
    batch at once, or a graph larger than that in bands of block rows of
    about ``BLOCK_WORDS`` words.  The bands before the one named are
    symmetric, so no bit of theirs lacks its mirror."""
    w = rows.shape[1]
    graphs = rows.reshape(-1, n, w)
    step, rows_per_band = run_length(n), w
    if n * w > BLOCK_WORDS:
        rows_per_band = max(1, BLOCK_WORDS // (64 * w))
    for g in range(0, len(graphs), step):
        for lo in range(0, w, rows_per_band):
            hi = min(lo + rows_per_band, w)
            if not _band_symmetric(graphs[g : g + step], n, lo, hi):
                return g * n + 64 * lo
    return None


def _band_symmetric(graphs: np.ndarray, n: int, lo: int, hi: int) -> bool:
    """Whether each block in block rows lo to hi - 1 of the (G, n, w)
    stacked rows ``graphs``, transposed, equals its mirror block.

    The blocks are laid out as one (64, G * (hi - lo) * w) array, so each
    round of :func:`_transpose_blocks` runs over long contiguous runs."""
    count, _, w = graphs.shape
    k = hi - lo
    band = np.zeros((count, 64 * k, w), dtype=np.uint64)
    part = graphs[:, 64 * lo : 64 * hi]
    band[:, : part.shape[1]] = part
    mirror = band
    if k < w:  # words lo to hi - 1 of every row: the blocks (J, I)
        mirror = np.zeros((count, 64 * w, k), dtype=np.uint64)
        mirror[:, :n] = graphs[:, :, lo:hi]
    blocks = band.reshape(count, k, 64, w).transpose(2, 0, 1, 3).copy()
    _transpose_blocks(blocks.reshape(64, -1))
    # entry [r, g, I, J]: word r of block (I, J) transposed, and of (J, I)
    mirror = mirror.reshape(count, w, 64, k).transpose(2, 0, 3, 1)
    return np.array_equal(blocks, mirror)


@lru_cache(maxsize=4)
def _diagonal(n: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The word positions of the diagonal bits in the n rows of w words of
    a graph on n vertices, and those bits, both read-only."""
    x = np.arange(n)
    at, bit = x * w + (x >> 6), BIT64[x & 63]
    at.flags.writeable = bit.flags.writeable = False
    return at, bit


def check_rows(rows: np.ndarray, n: int) -> np.ndarray | None:
    """InvalidParams unless the bitset rows of graphs on n vertices,
    stacked n rows a graph, are each symmetric, with a zero diagonal and
    no bit past column n - 1; the rows' nonzero words as
    :func:`nonzero_words` gives them, from its one scan.

    Padding is read in the last word of each row and the diagonal once a
    row, at positions cached per graph size (:func:`_diagonal`).  Where
    that scan finds more than ``SPARSE_SHARE`` of the words nonzero,
    symmetry is tested by bit-block transposes (:func:`_asymmetric_from`).
    Where fewer are, or to name a fault the transposes found, one pass over
    the listed set bits reads each one's mirror in its own graph: bit v of
    the row of vertex x, at flat bit position ``at``, has it at
    ``at + (v - x) * (width - 1)``, where ``width`` is the row's bits.  A
    fault the transposes found is listed from the first row of the first
    band they found asymmetric, where the first lone bit is or after it.
    Either way the fault named is the first lone bit in flat order."""
    if n % 64 and (rows[:, -1] >> np.uint64(n % 64)).any():
        raise InvalidParams(f"adjacency has bits past column {n - 1}")
    w = rows.shape[1]
    flat = rows.ravel()
    diagonal, bit = _diagonal(n, w)
    loop = np.flatnonzero(flat.reshape(-1, n * w)[:, diagonal] & bit)
    if len(loop):
        raise InvalidParams(f"self-loop at {loop[0] % n}")
    listed = nonzero_words(rows)
    if listed is None:
        start = _asymmetric_from(rows, n)
        if start is None:
            return None
        start *= w
        listed = start + word_positions(flat[start:])
    width = 64 * w
    for at in set_bits(flat, listed):
        u = at // width
        v = at - u * width
        x = u % n
        mirror = at + (v - x) * (width - 1)
        lone = np.flatnonzero((flat[mirror >> 6] & BIT64[mirror & 63]) == 0)
        if len(lone):
            i = lone[0]
            raise InvalidParams(f"adjacency not symmetric at ({x[i]}, {v[i]})")
    return listed

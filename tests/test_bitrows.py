"""The listings of the bitset-row kernels: set bits and nonzero words,
against full unpacking and a scan of every word."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motif_poisson import bitrows
from motif_poisson.bitrows import pack_words, unpack_words

#: Shares drawn for nonzero words and for the set bits within them, the
#: ends included: empty, a lone bit, byte-sparse, byte-dense and all ones.
SHARES = st.sampled_from([0.0, 0.002, 0.02, 0.2, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)


def words(shape, nonzero, density, seed) -> np.ndarray:
    """uint64 words of ``shape``, about ``nonzero`` of them drawn nonzero,
    each bit of those set with probability ``density``."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    bits = (rng.random((size, 64)) < density) & (rng.random((size, 1)) < nonzero)
    return pack_words(bits).reshape(shape)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.integers(0, 2100)),
        st.tuples(st.integers(1, 45), st.integers(1, 45)),
    ),
    nonzero=SHARES,
    density=SHARES,
    seed=st.integers(0, 2**32 - 1),
)
# a word count that is no multiple of 8, so the packed flags end in padding
@example(shape=(13,), nonzero=0.5, density=0.02, seed=1)
@example(shape=(0,), nonzero=1.0, density=1.0, seed=1)
# all ones over more than two blocks of the set-bit budget, and as rows
@example(shape=(2100,), nonzero=1.0, density=1.0, seed=1)
@example(shape=(45, 45), nonzero=1.0, density=0.9, seed=2)
def test_listings_match_full_unpacking(shape, nonzero, density, seed):
    rows = words(shape, nonzero, density, seed)
    flat = rows.ravel()
    bits = np.flatnonzero(unpack_words(rows).view(bool))
    listed = np.flatnonzero(rows.ravel() != 0)
    assert np.array_equal(bitrows.bit_positions(rows), bits)
    assert np.array_equal(bitrows.word_positions(rows), listed)
    sparse = len(listed) <= bitrows.SPARSE_SHARE * flat.size
    scanned = bitrows.nonzero_words(rows)
    assert np.array_equal(scanned, listed) if sparse else scanned is None
    blocks = list(bitrows.set_bits(flat, listed))
    assert all(0 < len(b) <= bitrows.BLOCK_WORDS for b in blocks)
    joined = np.concatenate(blocks) if blocks else np.zeros(0, np.int64)
    assert np.array_equal(joined, bits)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    count=st.integers(0, 600),
    nonzero=SHARES,
    density=SHARES,
    budget=st.sampled_from([None, 1, 63, 64, 65, 200]),
    seed=st.integers(0, 2**32 - 1),
)
# all-ones words, each alone past the budget or several to a window
@example(count=40, nonzero=1.0, density=1.0, budget=1, seed=1)
@example(count=40, nonzero=1.0, density=1.0, budget=200, seed=1)
# zero words inside and at the ends of windows
@example(count=300, nonzero=0.1, density=0.5, budget=64, seed=3)
def test_windows_cover_the_words_in_bounded_runs(count, nonzero, density, budget, seed):
    flat = words((count,), nonzero, density, seed)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(bitrows, "BLOCK_WORDS", budget)
        limit = bitrows.BLOCK_WORDS
        found = list(bitrows.windows(flat))
    lows = [lo for lo, _ in found]
    highs = lows[1:] + [count]
    # consecutive runs from word 0 that end at the last word
    assert lows == sorted(set(lows)) and lows[:1] == [0] * (count > 0)
    for (lo, bit), hi in zip(found, highs):
        assert lo < hi
        assert np.array_equal(bit, bitrows.bit_positions(flat[lo:hi]))
        assert len(bit) <= limit or hi - lo == 1
    joined = [lo * 64 + bit for lo, bit in found]
    joined = np.concatenate(joined) if joined else np.zeros(0, np.int64)
    assert np.array_equal(joined, bitrows.bit_positions(flat))

"""Model validation, seeded sampling and distributional frequency checks.

Frequency assertions use 3-standard-error bands around exact expectations;
all randomness is seeded, so each check is deterministic once written.
"""

import contextlib
import hashlib
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from motif_poisson import (
    MAX_GRAPH_VERTICES,
    GraphonSpec,
    InvalidParams,
    SampledGraph,
    SbmParams,
    WrongFamily,
    builtin_motif,
    erdos_renyi,
    graph_from_edge_text,
    graphon_to_sbm,
    h_star,
    sample_graphon,
    sample_sbm,
    substream_seed,
)
from motif_poisson import bitrows, counting, models, simulate
from motif_poisson.models import _diagonal_pairs

from conftest import replayed_labels, replayed_latents, scanned

K3 = builtin_motif("complete", 3)


def three_se(p: float, trials: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


class TestSbmParams:
    def test_valid(self):
        params = SbmParams(2, (0.5, 0.5), ((0.1, 0.01), (0.01, 0.1)))
        assert params.pi_star == 0.1

    def test_proportions_must_sum_to_one(self):
        with pytest.raises(InvalidParams):
            SbmParams(2, (0.5, 0.4), ((0.1, 0.1), (0.1, 0.1)))

    def test_proportions_strictly_positive(self):
        with pytest.raises(InvalidParams):
            SbmParams(2, (1.0, 0.0), ((0.1, 0.1), (0.1, 0.1)))

    def test_symmetry_enforced_exactly(self):
        with pytest.raises(InvalidParams):
            SbmParams(2, (0.5, 0.5), ((0.1, 0.02), (0.020001, 0.1)))

    def test_probability_range(self):
        with pytest.raises(InvalidParams):
            SbmParams(1, (1.0,), ((1.5,),))

    def test_shape(self):
        with pytest.raises(InvalidParams):
            SbmParams(2, (0.5, 0.5), ((0.1,),))

    def test_json_round_trip(self):
        params = SbmParams(2, (0.3, 0.7), ((0.2, 0.05), (0.05, 0.1)))
        assert SbmParams.from_dict(params.to_dict()) == params

    @pytest.mark.parametrize("q", [True, "1", 1.0])
    def test_from_dict_requires_json_integer_q(self, q):
        with pytest.raises(InvalidParams, match="'Q' must be an integer"):
            SbmParams.from_dict({"Q": q, "f": [1.0], "pi": [[0.1]]})

    def test_from_dict_refuses_unknown_keys(self):
        # a graphon key next to 'Q' was read as a block model and ignored
        data = {"Q": 1, "f": [1.0], "pi": [[0.1]], "family": "product"}
        with pytest.raises(InvalidParams, match="unknown key 'family'"):
            SbmParams.from_dict(data)

    @pytest.mark.parametrize("f", [(math.nan, 1.0), (math.nan, math.nan)])
    def test_nan_proportions_rejected(self, f):
        with pytest.raises(InvalidParams):
            SbmParams(2, f, ((0.1, 0.1), (0.1, 0.1)))


class TestGraphonSpec:
    def test_product_scale_range(self):
        with pytest.raises(InvalidParams):
            GraphonSpec(family="product", scale=1.2)

    def test_unknown_family(self):
        with pytest.raises(InvalidParams):
            GraphonSpec(family="gaussian", scale=0.5)

    def test_breakpoints_must_span(self):
        with pytest.raises(InvalidParams):
            GraphonSpec(
                family="piecewise_constant",
                breakpoints=(0.0, 0.5, 0.9),
                values=((0.1, 0.1), (0.1, 0.1)),
            )

    def test_nan_breakpoint_rejected(self):
        with pytest.raises(InvalidParams, match="strictly increasing"):
            GraphonSpec(
                family="piecewise_constant",
                breakpoints=(0.0, math.nan, 1.0),
                values=((0.1, 0.1), (0.1, 0.1)),
            )

    def test_values_symmetric(self):
        with pytest.raises(InvalidParams):
            GraphonSpec(
                family="piecewise_constant",
                breakpoints=(0.0, 0.5, 1.0),
                values=((0.1, 0.2), (0.3, 0.1)),
            )

    def test_evaluate_symmetry(self):
        spec = GraphonSpec(
            family="piecewise_constant",
            breakpoints=(0.0, 0.3, 1.0),
            values=((0.1, 0.05), (0.05, 0.2)),
        )
        xs = np.linspace(0.01, 0.99, 17)
        for x in xs:
            for y in xs:
                assert spec.evaluate(x, y) == spec.evaluate(y, x)

    def test_json_round_trip(self):
        spec = GraphonSpec(family="affine_mean", scale=0.8)
        assert GraphonSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"family": "product", "c": 0.5, "scale": 0.9}, "unknown key 'scale'"),
            ({"family": "product", "c": 0.5, "values": [[0.1]]}, "only a scale"),
            (
                {
                    "family": "piecewise_constant",
                    "breakpoints": [0, 1],
                    "values": [[0.5]],
                    "c": 0.5,
                },
                "no scale 'c'",
            ),
        ],
    )
    def test_from_dict_refuses_keys_of_other_families(self, data, message):
        # each was read as its family's keys alone, the rest ignored
        with pytest.raises(InvalidParams, match=message):
            GraphonSpec.from_dict(data)

    def test_h_star(self):
        assert h_star(GraphonSpec(family="product", scale=1.0)) == 1.0
        assert h_star(GraphonSpec(family="affine_mean", scale=1.0)) == 1.0
        assert (
            h_star(
                GraphonSpec(
                    family="piecewise_constant",
                    breakpoints=(0.0, 0.5, 1.0),
                    values=((0.1, 0.05), (0.05, 0.2)),
                )
            )
            == 0.2
        )


class TestGraphonToSbm:
    def test_single_block(self):
        spec = GraphonSpec(
            family="piecewise_constant", breakpoints=(0.0, 1.0), values=((0.3,),)
        )
        assert graphon_to_sbm(spec) == erdos_renyi(0.3)

    def test_interval_lengths(self):
        spec = GraphonSpec(
            family="piecewise_constant",
            breakpoints=(0.0, 0.3, 1.0),
            values=((0.1, 0.05), (0.05, 0.2)),
        )
        params = graphon_to_sbm(spec)
        assert params.proportions == pytest.approx((0.3, 0.7))
        assert params.edge_probs == spec.values

    def test_wrong_family(self):
        with pytest.raises(WrongFamily):
            graphon_to_sbm(GraphonSpec(family="product", scale=0.5))


class TestDeterminism:
    def test_same_seed_same_graph(self):
        params = SbmParams(2, (0.5, 0.5), ((0.3, 0.1), (0.1, 0.3)))
        a = sample_sbm(params, 50, seed=123)
        b = sample_sbm(params, 50, seed=123)
        assert a == b
        assert a.to_edge_text() == b.to_edge_text()

    def test_different_seeds_differ(self):
        params = erdos_renyi(0.5)
        assert sample_sbm(params, 40, seed=1) != sample_sbm(params, 40, seed=2)

    def test_graphon_same_seed(self):
        spec = GraphonSpec(family="product", scale=0.9)
        assert sample_graphon(spec, 30, seed=7) == sample_graphon(spec, 30, seed=7)

    def test_substream_seeds_distinct(self):
        seen = {substream_seed(42, i) for i in range(10_000)}
        assert len(seen) == 10_000

    def test_substream_seeds_of_arrays(self):
        # the array form wraps at 2^64 as the masks of the integer form do
        rng = np.random.default_rng(11)
        index = rng.integers(0, 2**64, 200, dtype=np.uint64)
        index[:4] = [0, 1, 2**63, 2**64 - 1]
        seeds = rng.integers(0, 2**64, 20, dtype=np.uint64).tolist()
        for seed in [0, 1, 2**63, 2**64 - 2, 2**64 - 1, *seeds]:
            expected = [substream_seed(seed, r) for r in index.tolist()]
            assert substream_seed(seed, index).tolist() == expected

    def test_seed_independence_edge_correlation(self):
        # paired replicate streams from two master seeds: the (0,1) edge
        # indicators should be uncorrelated (|corr| < 0.05 over 10^3 pairs)
        params = erdos_renyi(0.5)
        xs, ys = (
            [
                g.has_edge(0, 1)
                for g in batched(params, 6, [substream_seed(s, r) for r in range(1000)])
            ]
            for s in (1, 2)
        )
        corr = np.corrcoef(np.array(xs, float), np.array(ys, float))[0, 1]
        assert abs(corr) < 0.05


PIN_MODELS = {
    "sbm1": erdos_renyi(0.7),
    "sbm2": SbmParams(2, (0.4, 0.6), ((0.8, 0.3), (0.3, 0.6))),
    "sbm3": SbmParams(
        3, (0.2, 0.3, 0.5), ((0.9, 0.2, 0.4), (0.2, 0.7, 0.3), (0.4, 0.3, 0.5))
    ),
    "product": GraphonSpec(family="product", scale=1.0),
    "affine_mean": GraphonSpec(family="affine_mean", scale=0.9),
    "piecewise_constant": GraphonSpec(
        family="piecewise_constant",
        breakpoints=(0.0, 0.3, 1.0),
        values=((0.9, 0.3), (0.3, 0.6)),
    ),
    # every coin below 1/3 (or 0 or 1): drawn as one run of exponentials
    "er_sparse": erdos_renyi(0.05),
    "sbm2_sparse": SbmParams(2, (0.4, 0.6), ((0.3, 0.02), (0.02, 0.1))),
    "sbm3_sparse": SbmParams(
        3,
        (0.2, 0.3, 0.5),
        ((0.25, 0.01, 0.05), (0.01, 0.3, 0.002), (0.05, 0.002, 0.02)),
    ),
    "piecewise_sparse": GraphonSpec(
        family="piecewise_constant",
        breakpoints=(0.0, 0.25, 0.6, 1.0),
        values=((0.2, 0.01, 0.03), (0.01, 0.1, 0.0), (0.03, 0.0, 0.05)),
    ),
    "sbm_mixed": SbmParams(
        3, (0.3, 0.3, 0.4), ((1.0, 0.0, 0.1), (0.0, 0.05, 1.0), (0.1, 1.0, 0.0))
    ),
    # a block at exactly 1/3, where NumPy's geometric takes another path
    "sbm_third": SbmParams(2, (0.5, 0.5), ((1 / 3, 0.05), (0.05, 0.1))),
}

# sha256 prefixes of edge text + the reprs of the replayed class labels and
# latent uniforms (None where the model has none), recorded at sampler
# version 2 except those marked version 3: each of these graphs lost the
# edge that version 2 set in a block with no success, and no other graph
# changed; a change to the random stream must update these and bump
# SAMPLER_VERSION
PINNED_DIGESTS = {
    ("sbm1", 2): "7f5d981dd6e172db",  # version 3
    ("sbm1", 3): "e49253da979bf5bf",
    ("sbm1", 60): "2d5fb5b910ed65be",
    ("sbm1", 257): "7aac2b19fea74b66",
    ("sbm2", 2): "7b57f5e106cd84aa",  # version 3
    ("sbm2", 3): "22b243f1d6fea948",  # version 3
    ("sbm2", 60): "acceca258494ab0d",
    ("sbm2", 257): "d2afde35f1c7544b",
    ("sbm3", 2): "0f84b257fe56927a",  # version 3
    ("sbm3", 3): "54fbdc0c862b2f00",  # version 3
    ("sbm3", 60): "ca39f0c3ba765e65",
    ("sbm3", 257): "6e6b4bb4ba9b9813",
    ("product", 2): "0c87986cadf08ebf",
    ("product", 3): "e9792fdb7513ea4a",
    ("product", 60): "5ac86e0d910c6016",
    ("product", 257): "5e9dd9ab24d66070",
    ("affine_mean", 2): "0d082088544f15b7",
    ("affine_mean", 3): "399f1fdc695db5c1",
    ("affine_mean", 60): "e4248c6552869ca9",
    ("affine_mean", 257): "c77f420bde960b62",
    ("piecewise_constant", 2): "851f5e525bee01cf",
    ("piecewise_constant", 3): "3b4dd66d63a81c0e",
    ("piecewise_constant", 60): "e1370fa63e4dd969",
    ("piecewise_constant", 257): "1f299ad6c8a588e4",
    # recorded while every gap was a geometric draw, before sparse graphs
    # drew their gaps as one run of exponentials
    ("er_sparse", 2): "7f5d981dd6e172db",  # version 3
    ("er_sparse", 3): "e49253da979bf5bf",
    ("er_sparse", 60): "e81a851209fffa6c",
    ("er_sparse", 257): "5fd8025165352d21",
    ("er_sparse", 1000): "7fcf3000033a7eee",
    ("sbm2_sparse", 2): "3a4c501d7ae8c084",  # version 3
    ("sbm2_sparse", 3): "b1f4d9a1ba21ce46",
    ("sbm2_sparse", 60): "91c669ffbafb2e50",
    ("sbm2_sparse", 257): "d354d10bc1a5b983",
    ("sbm2_sparse", 1000): "9b50105b9f5be464",
    ("sbm3_sparse", 2): "f27e1439dd0601ed",  # version 3
    ("sbm3_sparse", 3): "d408fec294e0c6a0",  # version 3
    ("sbm3_sparse", 60): "5cfc157dcc509cc7",
    ("sbm3_sparse", 257): "ac43a58f10e7dcb9",
    ("sbm3_sparse", 1000): "73a9bc886fa75bc8",
    ("piecewise_sparse", 2): "de9359f9ed010939",
    ("piecewise_sparse", 3): "476140564c31cc61",  # version 3
    ("piecewise_sparse", 60): "ba4fa7f8d7b7d051",
    ("piecewise_sparse", 257): "ba7567affa31e5c2",
    ("piecewise_sparse", 1000): "773b335c9c9c52ee",
    ("sbm_mixed", 2): "be6946acdb28f09c",  # version 3
    ("sbm_mixed", 3): "0e952316e9af5bad",  # version 3
    ("sbm_mixed", 60): "0f32e6f7dd4c15f2",
    ("sbm_mixed", 257): "6aeb0e743ee72e44",
    ("sbm_mixed", 1000): "4c8f6de6f2694424",
    ("sbm_third", 2): "7f5d981dd6e172db",  # version 3
    ("sbm_third", 3): "5f041365e4d9cd8b",
    ("sbm_third", 60): "134ecbd70dd4ac7e",
    ("sbm_third", 257): "9dc8cb20caed4a0a",
    ("sbm_third", 1000): "781d0652db252e71",
}


@pytest.mark.parametrize("name,n", sorted(PINNED_DIGESTS))
def test_sampled_graphs_pinned(name, n, monkeypatch):
    # the graph drawn alone, block by block, and first in a batch of two,
    # where a sparse graph draws its gaps as one run of exponentials
    model = PIN_MODELS[name]
    seed = 1000 * list(PIN_MODELS).index(name) + n
    if isinstance(model, SbmParams):
        latents = (replayed_labels(model, n, seed), None)
    else:
        latents = (None, tuple(replayed_latents(n, seed).tolist()))
    monkeypatch.setattr(bitrows, "run_length", lambda n: 2)
    for g in (single(model, n, seed), batched(model, n, [seed, seed + 1])[0]):
        text = g.to_edge_text() + "".join(map(repr, latents))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest[:16] == PINNED_DIGESTS[name, n]


@pytest.mark.parametrize("p,n", [(0.05, 2), (0.05, 3), (0.3, 3)])
def test_small_block_edge_frequency_is_p(p, n):
    # a block with no success has no edge: at sampler version 2 it got one
    # at its last pair, so ER(0.05) at n = 2 had its edge in every seed;
    # drawn alone block by block, and in one batch as one run of
    # exponentials per graph
    model, seeds = erdos_renyi(p), [substream_seed(n, r) for r in range(4000)]
    assert bitrows.run_length(n) >= len(seeds)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    se = math.sqrt(p * (1 - p) / len(seeds))
    for graphs in ((single(model, n, s) for s in seeds), batched(model, n, seeds)):
        hits = np.array([[g.has_edge(u, v) for u, v in pairs] for g in graphs])
        assert np.all(np.abs(hits.mean(axis=0) - p) <= 5 * se), hits.mean(axis=0)


def test_block_with_no_success_yields_no_chunk():
    rng = np.random.Generator(np.random.Philox(key=5))
    chunks = [list(models._skip_positions(rng, 0.05, 3)) for _ in range(1000)]
    assert all(len(c) for block in chunks for c in block)
    assert 0 < sum(map(len, chunks)) < 400


#: How the row check tests symmetry: ``SPARSE_SHARE`` and, where set,
#: ``BLOCK_WORDS``.  Listing reads every set bit's mirror; a share below 0
#: leaves no batch sparse, so every one is transposed, in bands of one block
#: row of one graph where the block words are 1.
CHECKS = {"listing": (1.0, None), "transposes": (-1.0, None), "bands": (-1.0, 1)}


@contextlib.contextmanager
def checked_by(check):
    """Row checks that test symmetry by ``check`` whatever the rows' share
    of nonzero words."""
    share, block_words = CHECKS[check]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitrows, "SPARSE_SHARE", share)
        if block_words is not None:
            mp.setattr(bitrows, "BLOCK_WORDS", block_words)
        yield


def single(model, n, seed):
    sample = sample_sbm if isinstance(model, SbmParams) else sample_graphon
    return sample(model, n, seed)


def batched(model, n, seeds):
    """The graphs of ``sample_batches``, cut n rows at a time from each
    batch's stacked rows."""
    return [
        SampledGraph(n, batch.rows[lo : lo + n])
        for batch in models.sample_batches(model, n, seeds)
        for lo in range(0, len(batch.rows), n)
    ]


class TestBatches:
    """``sample_batches`` stacks every graph that ``sample_sbm`` and
    ``sample_graphon`` give for its seed, however the seeds are batched."""

    @pytest.mark.parametrize("n", [2, 3, 60, 257])
    @pytest.mark.parametrize("name", list(PIN_MODELS))
    def test_batch_equals_single(self, name, n):
        # the first graphs and those on either side of the first batch
        # boundary (batches of 8192, 5461, 273 and 12 graphs)
        model, size = PIN_MODELS[name], bitrows.run_length(n)
        seeds = [substream_seed(n, r) for r in range(size + 3)]
        batches = [batch.rows for batch in models.sample_batches(model, n, seeds)]
        assert [rows.shape for rows in batches] == [
            (size * n, bitrows.row_words(n)),
            (3 * n, bitrows.row_words(n)),
        ]
        assert not any(rows.flags.writeable for rows in batches)
        for r in sorted({0, 1, 2, *range(size - 3, size + 3)}):
            rows = batches[r // size][r % size * n : (r % size + 1) * n]
            assert SampledGraph(n, rows) == single(model, n, seeds[r])

    @pytest.mark.parametrize("n", [2, 60, 257])
    @pytest.mark.parametrize("name", list(PIN_MODELS))
    def test_batch_length_changes_nothing(self, monkeypatch, name, n):
        model = PIN_MODELS[name]
        seeds = [substream_seed(7, r) for r in range(9)]
        reference = batched(model, n, seeds)
        for length in (1, 2, 7):
            monkeypatch.setattr(bitrows, "run_length", lambda n, length=length: length)
            assert batched(model, n, seeds) == reference
        assert reference == [single(model, n, seed) for seed in seeds]

    def test_positions_flush_across_graphs(self, monkeypatch):
        # with 64-position chunks, one flush holds chunks of several graphs
        # and blocks, and one graph's chunks span several flushes (the
        # chunk size is part of the stream, so the singles use it too)
        model, n = PIN_MODELS["sbm3"], 40
        seeds = [substream_seed(9, r) for r in range(20)]
        monkeypatch.setattr(models, "_CHUNK", 64)
        reference = [single(model, n, seed) for seed in seeds]
        assert batched(model, n, seeds) == reference

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(InvalidParams, match="unsigned 64-bit"):
            list(models.sample_batches(erdos_renyi(0.5), 10, [3, seed]))

    def test_check_reads_each_graph_own_rows(self):
        # three graphs stacked as one batch; each fault is planted in graph
        # 2 alone, where a check that did not keep to the graph's own rows
        # would find the mirror bit in graph 0
        n = 70  # two words a row: columns 70..127 are padding
        graphs = [sample_sbm(erdos_renyi(0.3), n, seed) for seed in (1, 2, 3)]
        stacked = np.concatenate([g.adjacency for g in graphs])
        u, v = next(
            (u, v) for u, v in graphs[0].edges() if not graphs[2].has_edge(u, v)
        )
        faults = [
            ("not symmetric", (2 * n + u, v)),
            ("self-loop at 5", (2 * n + 5, 5)),
            ("past column 69", (2 * n + 5, 100)),
        ]
        for check in CHECKS:
            with checked_by(check):
                bitrows.check_rows(stacked, n)
                for problem, (row, col) in faults:
                    bad = stacked.copy()
                    bad[row, col >> 6] |= np.uint64(1 << (col & 63))
                    with pytest.raises(InvalidParams, match=problem):
                        bitrows.check_rows(bad, n)

    @pytest.mark.parametrize("p", [0.5, "2/n"])
    def test_each_batch_scanned_once(self, monkeypatch, p):
        # two batches of one graph at n = 2048: the row check's one scan for
        # nonzero words is the only one, whether it lists them (ER(2/n),
        # under 2 % of its words nonzero) or finds them too many (ER(0.5))
        n = 2048
        p = 2 / n if p == "2/n" else p
        assert bitrows.run_length(n) == 1
        scans, scan = [], bitrows.nonzero_words

        def spy(rows):
            scans.append(rows.shape)
            return scan(rows)

        monkeypatch.setattr(bitrows, "nonzero_words", spy)
        plan = simulate.SimulationPlan(erdos_renyi(p), K3, n=n, replicates=2, seed=5)
        simulate.run(plan)
        assert scans == [(n, bitrows.row_words(n))] * 2

    @pytest.mark.parametrize(
        "p,n,graphs,listed",
        [
            ("2/n", 4000, 1, True),
            (0.02, 4000, 1, False),
            (0.5, 2048, 1, False),
            (1.5 / 60, 60, 20, False),
            (0.002, 60, 20, True),
        ],
    )
    def test_batch_words_are_its_own(self, p, n, graphs, listed):
        # sparse wide, dense wide (by share and by density) and small-n
        # batches carry exactly what a fresh scan of their rows gives
        model = erdos_renyi(2 / n if p == "2/n" else p)
        batch = next(models.sample_batches(model, n, range(1, graphs + 1)))
        assert batch.n == n and batch.graphs == graphs
        assert batch.graphs * batch.n == len(batch.rows)
        fresh = bitrows.nonzero_words(batch.rows)
        if fresh is None:
            assert batch.words is None
        else:
            assert np.array_equal(batch.words, fresh)
        assert (batch.words is not None) == listed

    def test_copy_of_a_sparse_batch_counts_alike(self):
        # the copy's words come from its own scan, not from the batch it
        # was copied from
        n = 4000
        batch = next(models.sample_batches(erdos_renyi(3 / n), n, [3]))
        assert batch.words is not None
        copy = scanned(batch.rows.copy(), n)
        assert copy.words is not batch.words
        for motif in (K3, builtin_motif("cycle", 4)):
            counts = counting._count_rows(batch, motif).tolist()
            assert counting._count_rows(copy, motif).tolist() == counts
            assert counts[0] > 0, motif

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 127, 128, 129, 200])
    def test_checks_agree_on_every_block(self, n):
        # one fault at a time in each 64 x 64 block of each graph of
        # batches of 1 to 3 graphs, diagonal and last partial blocks
        # included: every check names the one lone bit, and the transposes
        # alone find it
        rng = np.random.default_rng(n)
        w = bitrows.row_words(n)
        for count in (1, 2, 3):
            graphs = [
                sample_sbm(erdos_renyi(p), n, seed=count).adjacency
                for p in (0.5, 0.05, 0.9)[:count]
            ]
            stacked = np.concatenate(graphs)
            assert bitrows._asymmetric_from(stacked, n) is None
            faults = []
            for g, block in itertools.product(range(count), range(w * w)):
                lo = 64 * np.array(divmod(block, w))
                x, v = map(int, rng.integers(lo, np.minimum(lo + 64, n)))
                if x == v:
                    v ^= 1
                if v < n:
                    set_now = not graphs[g][x, v >> 6] & bitrows.BIT64[v & 63]
                    lone = (x, v) if set_now else (v, x)
                    problem = f"not symmetric at {lone}"
                    faults.append(((g * n + x, v), problem, g * n + lone[0]))
            x = int(rng.integers(n))
            faults.append((((count - 1) * n + x, x), f"self-loop at {x}", None))
            if n % 64:
                faults.append(((count * n - 1, 64 * w - 1), "bits past column", None))
            for (row, col), problem, lone_row in faults:
                bad = stacked.copy()
                bad[row, col >> 6] ^= bitrows.BIT64[col & 63]
                if lone_row is not None:
                    # the transposes find the band at or before the lone bit
                    start = bitrows._asymmetric_from(bad, n)
                    assert start is not None and start <= lone_row
                for check in CHECKS:
                    with checked_by(check):
                        with pytest.raises(InvalidParams) as fault:
                            bitrows.check_rows(bad, n)
                        assert problem in str(fault.value), check
            for check in CHECKS:
                with checked_by(check):
                    bitrows.check_rows(stacked, n)

    @pytest.mark.parametrize("count", [1, 3])
    def test_fault_in_late_band_listed_from_it(self, monkeypatch, count):
        # bands of one block row of one graph: a mirror bit cleared in the
        # last block row of the last graph is found in that band, and the
        # listing starts there and names the lone bit as a listing of every
        # set bit from row 0 does
        n, w = 200, bitrows.row_words(200)
        stacked = np.concatenate(
            [sample_sbm(erdos_renyi(0.5), n, seed).adjacency for seed in range(count)]
        )
        last = (count - 1) * n
        u, v = next(
            (u, v)
            for u in range(192, n)
            for v in range(u + 1, n)
            if stacked[last + u, v >> 6] & bitrows.BIT64[v & 63]
        )
        bad = stacked.copy()
        bad[last + v, u >> 6] ^= bitrows.BIT64[u & 63]
        message = f"adjacency not symmetric at ({u}, {v})"
        with checked_by("listing"), pytest.raises(InvalidParams) as fault:
            bitrows.check_rows(bad, n)
        assert str(fault.value) == message
        listings = []
        set_bits = bitrows.set_bits
        monkeypatch.setattr(
            bitrows,
            "set_bits",
            lambda flat, listed: listings.append(listed) or set_bits(flat, listed),
        )
        with checked_by("bands"):
            assert bitrows._asymmetric_from(bad, n) == last + 192
            with pytest.raises(InvalidParams) as fault:
                bitrows.check_rows(bad, n)
        assert str(fault.value) == message
        assert listings[-1][0] >= (last + 192) * w


@pytest.mark.parametrize(
    "p",
    # tiny coins, the criterion-6 coins, the last float below 1/3, and 1/3
    [1e-12, 1e-8, 0.0277, 0.01385, 1.5 / 60, 0.02, 0.005]
    + [math.nextafter(1 / 3, 0), 1 / 3],
)
def test_geometric_is_one_exponential_below_a_third(p):
    # sparse graphs draw their gaps as standard exponentials and keep the
    # stream of geometric draws only while NumPy's geometric is this
    # inversion of one exponential, which it is below 1/3 alone
    geometric = np.random.Generator(np.random.Philox(key=99))
    exponential = np.random.Generator(np.random.Philox(key=99))
    gaps = geometric.geometric(p, 500)
    inverted = np.ceil(-exponential.standard_exponential(500) / math.log1p(-p))
    below = p < models._EXPONENTIAL_BELOW
    assert below == (p < 1 / 3)
    assert np.array_equal(gaps, inverted) == below
    if below:
        assert geometric.random() == exponential.random()


class TestOneCall:
    """A sparse graph draws its blocks' first chunks of gaps as one run of
    standard exponentials.  Each graph equals the one drawn block by block
    by geometric draws, which ``_EXPONENTIAL_BELOW = 0`` forces."""

    @staticmethod
    def assert_per_block(model, n, seeds):
        """Assert that the graphs of ``seeds``, batched and single, equal
        those drawn block by block, and that the single ones, with no draws
        to batch, are; return the graphs of each call of ``_draw_runs``
        of the batch and the graphs it drew again."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "_EXPONENTIAL_BELOW", 0.0)
            reference = [single(model, n, seed) for seed in seeds]
        runs, keyed = [], []
        draw_runs, key = models._Sampler._draw_runs, models._Sampler._keyed

        def spy_runs(batch, lo, hi):
            runs.append(list(range(lo, hi)))
            draw_runs(batch, lo, hi)

        def spy_keyed(batch, g):
            keyed.append(g)
            return key(batch, g)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models._Sampler, "_draw_runs", spy_runs)
            patch.setattr(models._Sampler, "_keyed", spy_keyed)
            assert [single(model, n, seed) for seed in seeds] == reference
            assert not runs
            keyed.clear()
            assert batched(model, n, seeds) == reference
        redrawn = sorted(g for g, count in Counter(keyed).items() if count > 1)
        return runs, redrawn

    def test_short_first_chunk_draws_the_graph_again(self, monkeypatch):
        # first chunks one standard deviation past the mean: some blocks
        # need a second chunk, so their graphs are drawn again
        def first_chunk(p, total):
            return (p * total + np.sqrt(p * total)).astype(np.int64) + 1

        monkeypatch.setattr(models, "_first_chunk", first_chunk)
        seeds = [substream_seed(3, r) for r in range(20)]
        runs, redrawn = self.assert_per_block(PIN_MODELS["sbm2_sparse"], 60, seeds)
        assert runs == [list(range(20))]
        assert 0 < len(redrawn) < 20

    def test_runs_drawn_in_sub_batches(self, monkeypatch):
        # with room for three graphs' runs in _CHUNK, the runs are drawn
        # three graphs at a time
        model, n = PIN_MODELS["sbm2_sparse"], 30
        gaps = models._gap_bound([0.3, 0.02, 0.1], n)
        monkeypatch.setattr(models, "_CHUNK", 3 * gaps + 2)
        seeds = [substream_seed(3, r) for r in range(20)]
        runs, redrawn = self.assert_per_block(model, n, seeds)
        assert runs == [list(range(lo, min(lo + 3, 20))) for lo in range(0, 20, 3)]
        assert not redrawn

    def test_runs_flush_across_chunks(self, monkeypatch):
        # runs of several graphs and the chunks of their p = 1 blocks held
        # together, and flushed every 200 positions
        monkeypatch.setattr(models, "_CHUNK", 200)
        seeds = [substream_seed(3, r) for r in range(20)]
        runs, redrawn = self.assert_per_block(PIN_MODELS["sbm_mixed"], 12, seeds)
        assert len(runs) > 1 and max(map(len, runs)) > 1 and not redrawn

    def test_first_chunk_cut_to_chunk_is_drawn_by_blocks(self, monkeypatch):
        # ER(0.3) at n = 20 wants 103-gap first chunks, cut to 64: its gap
        # bound passes _CHUNK, so every graph is drawn block by block
        monkeypatch.setattr(models, "_CHUNK", 64)
        seeds = [substream_seed(3, r) for r in range(20)]
        runs, redrawn = self.assert_per_block(erdos_renyi(0.3), 20, seeds)
        assert not runs and not redrawn

    def test_first_chunk_of_arrays_is_elementwise(self):
        # one definition for scalars and arrays, with the float steps of
        # int(min(_CHUNK, mean + 4 sqrt(mean) + 16))
        rng = np.random.default_rng(27)
        p = np.exp(rng.uniform(math.log(1e-12), 0.0, 2000))
        total = rng.integers(0, MAX_GRAPH_VERTICES**2 // 2, 2000)
        total[:20] = np.arange(20)
        chunks = models._first_chunk(p, total).tolist()
        for x, t, chunk in zip(p.tolist(), total.tolist(), chunks):
            mean = x * t
            expected = int(min(models._CHUNK, mean + 4.0 * math.sqrt(mean) + 16.0))
            assert models._first_chunk(x, t) == expected == chunk

    @staticmethod
    def first_chunks(probs, sizes) -> int:
        """The first chunks of the blocks of a graph with these class sizes,
        summed over the class pairs with 0 < p < 1."""
        q, chunks = len(sizes), 0
        for a, b in itertools.combinations_with_replacement(range(q), 2):
            p = probs[a][b]
            total = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            if 0 < p < 1 and total:
                chunks += int(models._first_chunk(p, total))
        return chunks

    def test_gap_bound_holds_every_composition(self):
        # every split of n <= 12 vertices into Q <= 3 classes, empty ones
        # included, under coins equal (where Cauchy-Schwarz is tightest),
        # mixed with 0 and 1, and at random below 1/3
        rng = np.random.default_rng(5)
        for q in (1, 2, 3):
            grids = [np.full((q, q), x) for x in (0.3, 0.05, 1e-6)]
            mixed = rng.choice([0.0, 1.0, 0.2, 0.01], (q, q))
            grids += [mixed, np.maximum(rng.uniform(0, 1 / 3, (q, q)), 1e-9)]
            for grid in grids:
                probs = np.triu(grid) + np.triu(grid, 1).T
                coins = [probs[a][b] for a in range(q) for b in range(a, q)]
                for n in range(2, 13):
                    bound = models._gap_bound([x for x in coins if x > 0], n)
                    for cut in itertools.combinations(range(n + q - 1), q - 1):
                        bars = (-1, *cut, n + q - 1)
                        sizes = [hi - lo - 1 for lo, hi in zip(bars, bars[1:])]
                        assert self.first_chunks(probs, sizes) <= bound
                    if q == 1 and 0 < grid[0, 0] < 1:
                        full = models._first_chunk(grid[0, 0], n * (n - 1) // 2)
                        assert bound == full

    def test_gap_bound_holds_at_random(self):
        # Q <= 6 at 13 <= n <= 2^15, the bound checked where it is below
        # _CHUNK (2,281 of the 3,000)
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(3000):
            q = int(rng.integers(1, 7))
            n = int(np.exp(rng.uniform(math.log(13), math.log(MAX_GRAPH_VERTICES))))
            grid = np.exp(rng.uniform(math.log(1e-9), math.log(1 / 3), (q, q)))
            grid[rng.random((q, q)) < 0.2] = 0.0
            probs = np.triu(grid) + np.triu(grid, 1).T
            coins = [probs[a][b] for a in range(q) for b in range(a, q)]
            bound = models._gap_bound([x for x in coins if x > 0], n)
            if bound is not None:
                sizes = rng.multinomial(n, rng.dirichlet(np.ones(q)))
                assert self.first_chunks(probs, sizes.tolist()) <= bound
                checked += 1
        assert checked == 2281


class TestSampling:
    def test_zero_probability_empty_graph(self):
        params = SbmParams(2, (0.5, 0.5), ((0.0, 0.0), (0.0, 0.0)))
        for seed in (0, 5, 99):
            assert sample_sbm(params, 25, seed).edge_count == 0

    def test_product_scale_zero_empty(self):
        spec = GraphonSpec(family="product", scale=0.0)
        assert sample_graphon(spec, 25, seed=3).edge_count == 0

    def test_no_self_loops_and_symmetry(self):
        g = sample_sbm(erdos_renyi(0.5), 30, seed=9)
        for u in range(g.n):
            assert not g.has_edge(u, u)
            for v in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_er_reduction_edge_density(self):
        # Q=1 is exactly the independent-coin model; pooled edge frequency
        # over many samples sits in the 3-SE band around p
        p, n, reps = 0.2, 40, 150
        pairs = n * (n - 1) // 2
        total = sum(
            sample_sbm(erdos_renyi(p), n, substream_seed(77, r)).edge_count
            for r in range(reps)
        )
        freq = total / (reps * pairs)
        assert abs(freq - p) < three_se(p, reps * pairs)

    def test_constant_pi_marginal_ignores_proportions(self):
        # with all entries equal, any fixed edge is a p-coin whatever f is
        p = 0.3
        params = SbmParams(2, (0.9, 0.1), ((p, p), (p, p)))
        seeds = [substream_seed(5, r) for r in range(4000)]
        hits = sum(g.has_edge(2, 7) for g in batched(params, 10, seeds))
        assert abs(hits / 4000 - p) < three_se(p, 4000)

    def test_within_and_between_class_frequencies(self):
        params = SbmParams(2, (0.5, 0.5), ((0.1, 0.01), (0.01, 0.1)))
        n = 100
        within_hits = within_pairs = 0
        between_hits = between_pairs = 0
        for r in range(60):
            g = sample_sbm(params, n, substream_seed(11, r))
            labels = replayed_labels(params, n, substream_seed(11, r))
            for u in range(n):
                for v in range(u + 1, n):
                    if labels[u] == labels[v]:
                        within_pairs += 1
                        within_hits += g.has_edge(u, v)
                    else:
                        between_pairs += 1
                        between_hits += g.has_edge(u, v)
        assert abs(within_hits / within_pairs - 0.1) < three_se(0.1, within_pairs)
        assert abs(between_hits / between_pairs - 0.01) < three_se(
            0.01, between_pairs
        )

    def test_product_graphon_density_quarter(self):
        # h(x,y) = xy integrates to 1/4
        spec = GraphonSpec(family="product", scale=1.0)
        n, reps = 40, 120
        pairs = n * (n - 1) // 2
        total = sum(
            sample_graphon(spec, n, substream_seed(13, r)).edge_count
            for r in range(reps)
        )
        freq = total / (reps * pairs)
        assert abs(freq - 0.25) < three_se(0.25, reps * pairs)

    def test_piecewise_block_frequencies(self):
        spec = GraphonSpec(
            family="piecewise_constant",
            breakpoints=(0.0, 0.5, 1.0),
            values=((0.3, 0.05), (0.05, 0.15)),
        )
        hits = {}
        trials = {}
        for r in range(80):
            g = sample_graphon(spec, 60, substream_seed(17, r))
            latents = replayed_latents(60, substream_seed(17, r))
            blocks = [0 if u < 0.5 else 1 for u in latents]
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    key = tuple(sorted((blocks[u], blocks[v])))
                    trials[key] = trials.get(key, 0) + 1
                    hits[key] = hits.get(key, 0) + g.has_edge(u, v)
        for key, expected in {(0, 0): 0.3, (0, 1): 0.05, (1, 1): 0.15}.items():
            freq = hits[key] / trials[key]
            assert abs(freq - expected) < three_se(expected, trials[key])

    def test_piecewise_matches_converted_sbm_marginals(self):
        spec = GraphonSpec(
            family="piecewise_constant",
            breakpoints=(0.0, 0.5, 1.0),
            values=((0.3, 0.05), (0.05, 0.15)),
        )
        params = graphon_to_sbm(spec)
        n, reps = 40, 200
        pairs = n * (n - 1) // 2
        t_g, t_s = (
            sum(
                g.edge_count
                for g in batched(model, n, [substream_seed(s, r) for r in range(reps)])
            )
            for model, s in ((spec, 19), (params, 23))
        )
        # both estimate the same marginal edge probability
        mean_p = 0.25 * 0.3 + 0.5 * 0.05 + 0.25 * 0.15
        for total in (t_g, t_s):
            assert abs(total / (reps * pairs) - mean_p) < three_se(
                mean_p, reps * pairs
            )

    def test_n_too_small(self):
        with pytest.raises(InvalidParams):
            sample_sbm(erdos_renyi(0.5), 1, seed=0)


class TestSkipSampler:
    @pytest.mark.parametrize("m", [2, 3, 4, 17, 1000])
    def test_pair_index_matches_triu_indices(self, m):
        i, j = _diagonal_pairs(np.arange(m * (m - 1) // 2), m)
        ti, tj = np.triu_indices(m, 1)
        assert np.array_equal(i, ti) and np.array_equal(j, tj)

    def test_pair_index_with_one_size_per_element(self):
        # diagonal blocks of several sizes mapped in one call: every index
        # of the small ones, and the first and last index of every row at
        # m = 10^4
        sizes, ks, rows, cols = [], [], [], []
        for m in (2, 3, 4, 17, 40):
            ti, tj = np.triu_indices(m, 1)
            sizes.append(np.full(len(ti), m))
            ks.append(np.arange(len(ti)))
            rows.append(ti)
            cols.append(tj)
        m, row = 10**4, np.arange(10**4 - 1)
        first = row * (2 * m - row - 1) // 2
        for k, col in ((first, row + 1), (first + m - 2 - row, np.full(m - 1, m - 1))):
            sizes.append(np.full(m - 1, m))
            ks.append(k)
            rows.append(row)
            cols.append(col)
        i, j = _diagonal_pairs(np.concatenate(ks), np.concatenate(sizes))
        assert np.array_equal(i, np.concatenate(rows))
        assert np.array_equal(j, np.concatenate(cols))

    def test_pair_index_row_ends_at_ten_thousand(self):
        # the first and last index of every row, where a float root that
        # rounds the wrong way would land in the neighbouring row
        m = 10**4
        rows = np.arange(m - 1)
        first = rows * (2 * m - rows - 1) // 2
        last = first + (m - 2 - rows)
        for k, col in ((first, rows + 1), (last, np.full(m - 1, m - 1))):
            i, j = _diagonal_pairs(k, m)
            assert np.array_equal(i, rows) and np.array_equal(j, col)

    def test_pair_index_row_boundaries_up_to_the_cap(self):
        # every row start, its two neighbours and every row end, for every
        # m <= 2000 and every m within 64 of the vertex cap: the float root
        # lands in the right row with no correction
        def check(m, rows):
            start = models._row_start(rows, m)
            end = models._row_start(rows + 1, m) - 1
            k = np.stack([start, start + 1, end, end - 1])
            m = np.broadcast_to(m, k.shape)
            inside = (k >= 0) & (k < m * (m - 1) // 2)
            k, m = k[inside], m[inside]
            i, j = _diagonal_pairs(k, m)
            assert np.all(models._row_start(i, m) <= k)
            assert np.all(k < models._row_start(i + 1, m))
            assert np.array_equal(j, k - models._row_start(i, m) + i + 1)
            assert np.all((i < j) & (j < m))

        for lo in range(2, 2001, 100):
            sizes = np.arange(lo, min(lo + 100, 2001))
            first = np.cumsum(sizes - 1) - (sizes - 1)
            m = np.repeat(sizes, sizes - 1)
            check(m, np.arange(len(m)) - np.repeat(first, sizes - 1))
        for m in range(MAX_GRAPH_VERTICES - 64, MAX_GRAPH_VERTICES + 1):
            check(m, np.arange(m - 1))

    def test_identity_block_matrix_gives_two_cliques(self):
        params = SbmParams(2, (0.5, 0.5), ((1, 0), (0, 1)))
        for seed in range(5):
            g = sample_sbm(params, 30, seed)
            labels = replayed_labels(params, 30, seed)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert g.has_edge(u, v) == (labels[u] == labels[v])

    @pytest.mark.parametrize("family", ["product", "affine_mean"])
    def test_thinning_conditional_on_latents(self, family):
        # given the latents, the edge count is a sum of independent
        # h(U_i, U_j) coins; pooled over graphs it sits within 3 SE of the
        # summed probabilities
        spec = GraphonSpec(family=family, scale=1.0)
        n = 40
        iu, ju = np.triu_indices(n, 1)
        edges = expected = variance = 0.0
        for r in range(100):
            g = sample_graphon(spec, n, substream_seed(31, r))
            u = replayed_latents(n, substream_seed(31, r))
            h = spec.evaluate(u[iu], u[ju])
            edges += g.edge_count
            expected += h.sum()
            variance += (h * (1.0 - h)).sum()
        assert abs(edges - expected) <= 3.0 * math.sqrt(variance)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda: sample_sbm(erdos_renyi(2e-4), 10**4, seed=3),
            lambda: sample_graphon(
                GraphonSpec(family="product", scale=8e-4), 10**4, seed=3
            ),
            # guards the batching: unchunked, p = 1/2 peaks near 400 MiB
            lambda: sample_sbm(erdos_renyi(0.5), 4000, seed=3),
        ],
        ids=["er_sparse_1e4", "product_sparse_1e4", "er_dense_4000"],
    )
    def test_sampler_memory_bounded(self, draw):
        tracemalloc.start()
        try:
            draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize(
        "draw, mib",
        [
            (lambda: sample_sbm(erdos_renyi(0.5), 4000, seed=3), 29.2),
            (
                lambda: sample_sbm(
                    SbmParams(
                        3,
                        (0.2, 0.3, 0.5),
                        ((0.5, 0.1, 0.9), (0.1, 0.5, 0.2), (0.9, 0.2, 0.05)),
                    ),
                    4000,
                    seed=3,
                ),
                28.5,
            ),
            (
                lambda: sample_graphon(
                    GraphonSpec(family="product", scale=0.9), 4000, seed=3
                ),
                22.5,
            ),
        ],
        ids=["er_half", "sbm3_dense", "product_dense"],
    )
    def test_dense_sampler_peak_pinned(self, draw, mib):
        # tracemalloc peaks of one dense graph at n = 4000 as measured at
        # sampler version 2 with per-batch edge setting, plus a 10 % margin:
        # batching changes must keep the _CHUNK bound on the buffers
        tracemalloc.start()
        try:
            draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * mib * 2**20


def rows(*words, width=1):
    """(len(words) // width, width) uint64 bitset rows from word values."""
    return np.array(words, dtype=np.uint64).reshape(-1, width)


class TestSampledGraph:
    @pytest.mark.parametrize(
        "adjacency, problem",
        [
            # edge {0, 1} and {0, 2} stored in row 0 only: the methods
            # used to disagree (edge_count 1, two edges listed)
            (rows(0b110, 0, 0), "not symmetric at \\(0, 1\\)"),
            # a self-loop at 0 beside the edge {0, 1}
            (rows(0b011, 0b001, 0), "self-loop at 0"),
            # bit 3 of row 0 is past the last vertex
            (rows(0b1000, 0, 0), "past column 2"),
            ((0b110, 0b101, 0b011), "uint64 array of shape \\(3, 1\\)"),
            (rows(0, 0, 0).astype(np.int64), "uint64 array"),
            (rows(0, 0, 0, 0, 0, 0, width=2), "shape \\(3, 1\\)"),
        ],
        ids=["one_way", "self_loop", "padding", "int_tuple", "int64", "wide"],
    )
    def test_rows_checked(self, adjacency, problem):
        with pytest.raises(InvalidParams, match=problem):
            SampledGraph(3, adjacency)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_vertices(self, n):
        # refused before the rows are read, as the edge-list reader does
        with pytest.raises(InvalidParams, match="graph has no vertices"):
            SampledGraph(n, np.zeros((0, 0), np.uint64))
        with pytest.raises(InvalidParams, match="graph has no vertices"):
            graph_from_edge_text("", n)

    def test_vertex_count_is_an_integer(self):
        assert SampledGraph(np.int64(3), rows(0, 0, 0)).n == 3
        for n in (3.0, True, "3"):
            with pytest.raises(InvalidParams, match="must be an integer"):
                SampledGraph(n, rows(0, 0, 0))

    def test_checks_reach_every_word(self):
        # 7 words a row, and more set bits than two listing windows: the
        # listing reads them in several, from row 0 whether it checks the
        # whole graph or names a fault the transposes found in its one band
        n = 400
        g = sample_sbm(erdos_renyi(0.9), n, seed=2)
        assert np.bitwise_count(g.adjacency).sum() > 2 * bitrows.BLOCK_WORDS
        for check in ("listing", "transposes"):
            with checked_by(check):
                assert SampledGraph(n, g.adjacency.copy()) == g
                for u, v in ((0, 399), (399, 0), (398, 64)):
                    bad = g.adjacency.copy()
                    bad[u, v >> 6] ^= np.uint64(1 << (v & 63))
                    with pytest.raises(InvalidParams, match="not symmetric"):
                        SampledGraph(n, bad)
        loop = g.adjacency.copy()
        loop[399, 6] |= np.uint64(1 << 15)
        with pytest.raises(InvalidParams, match="self-loop at 399"):
            SampledGraph(n, loop)
        pad = g.adjacency.copy()
        pad[5, 6] |= np.uint64(1 << 16)
        with pytest.raises(InvalidParams, match="past column 399"):
            SampledGraph(n, pad)

    def test_methods_agree_and_rows_read_only(self):
        g = sample_sbm(erdos_renyi(0.3), 70, seed=4)
        edges = list(g.edges())
        assert len(edges) == g.edge_count
        degrees = np.bitwise_count(g.adjacency).sum(axis=1)
        assert np.array_equal(degrees, np.bincount(np.ravel(edges), minlength=g.n))
        assert all(g.has_edge(u, v) and g.has_edge(v, u) for u, v in edges)
        assert not any(g.has_edge(u, u) for u in range(g.n))
        with pytest.raises(ValueError):
            g.adjacency[0, 0] = 0

    @pytest.mark.parametrize(
        "u, v", [(-1, 0), (0, -1), (0, 10), (10, 0), (0, 63), (0, 64)]
    )
    def test_has_edge_checks_vertices(self, u, v):
        # -1 used to answer for vertex 9, 63 to read a padding bit and 64
        # to raise NumPy's IndexError
        g = sample_sbm(erdos_renyi(1.0), 10, seed=1)
        bad = u if not 0 <= u < 10 else v
        with pytest.raises(InvalidParams, match=f"vertex {bad} is outside 0..9"):
            g.has_edge(u, v)
        assert g.has_edge(0, 9) and g.has_edge(9, 0)


class TestEdgeText:
    def test_round_trip(self):
        g = sample_sbm(erdos_renyi(0.4), 12, seed=31)
        parsed = graph_from_edge_text(g.to_edge_text(), n=12)
        assert np.array_equal(parsed.adjacency, g.adjacency)

    def test_comments_and_isolated(self):
        g = graph_from_edge_text("# header\n0 1\n2 3\n", n=6)
        assert g.n == 6 and g.edge_count == 2
        assert np.bitwise_count(g.adjacency[5]).sum() == 0

    @pytest.mark.parametrize(
        "text, n",
        [
            ("0 1\n", MAX_GRAPH_VERTICES + 1),
            (f"0 {MAX_GRAPH_VERTICES}\n", None),
            # past what an int64 holds
            (f"0 1\n2 {2**63}\n", None),
        ],
    )
    def test_vertex_cap(self, text, n):
        with pytest.raises(InvalidParams, match="cap"):
            graph_from_edge_text(text, n=n)

    @pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1e", "\x85", "\u2028"])
    def test_every_line_separator(self, sep):
        # the lines are read one at a time, split where str.splitlines splits
        text = sep.join(["# a 4-cycle", "0 1", "", "1 2  # comment", "2 3", "3 0", ""])
        g = graph_from_edge_text(text)
        assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
        with pytest.raises(InvalidParams, match="bad edge line: '1 x'"):
            graph_from_edge_text(sep.join(["0 1", "1 x", "2 3"]))


class TestVertexCap:
    """An oversize graph is refused before its bitsets are allocated."""

    N = MAX_GRAPH_VERTICES + 1

    def test_sbm_sampler(self):
        with pytest.raises(InvalidParams, match="cap"):
            sample_sbm(erdos_renyi(0.0), self.N, seed=1)

    def test_graphon_samplers(self):
        for spec in (
            GraphonSpec(family="product", scale=0.0),
            GraphonSpec(
                family="piecewise_constant", breakpoints=(0.0, 1.0), values=((0.0,),)
            ),
        ):
            with pytest.raises(InvalidParams, match="cap"):
                sample_graphon(spec, self.N, seed=1)

    def test_cap_itself_is_allowed(self):
        g = graph_from_edge_text("0 1\n", n=MAX_GRAPH_VERTICES)
        assert g.n == MAX_GRAPH_VERTICES and g.edge_count == 1

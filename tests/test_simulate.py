"""Replicate ensembles: determinism, statistical consistency, bootstrap."""

import gc
import hashlib
from collections import Counter
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from motif_poisson import (
    MAX_GRAPH_VERTICES,
    GraphonSpec,
    InvalidMotifError,
    InvalidParams,
    SbmParams,
    SimulationPlan,
    TooManyTerms,
    builtin_motif,
    count_copies,
    erdos_renyi,
    histogram_csv,
    motif_from_edge_list,
    poisson_pmf,
    run,
    sample_sbm,
    substream_seed,
    tv_standard_error,
)
from motif_poisson import bitrows, counting, models, simulate
from motif_poisson.bitrows import row_words

from conftest import poisson_tail

K3 = builtin_motif("complete", 3)


def er_plan(p=0.05, n=40, replicates=400, seed=99) -> SimulationPlan:
    return SimulationPlan(
        model=erdos_renyi(p), motif=K3, n=n, replicates=replicates, seed=seed
    )


class TestDeterminism:
    def test_identical_across_runs(self):
        plan = er_plan()
        assert run(plan).to_dict() == run(plan).to_dict()

    def test_identical_across_thread_counts(self):
        # 3 replicates: fewer than the workers, and not a multiple of 2
        for plan in (er_plan(), er_plan(replicates=3)):
            reference = run(plan, threads=1).to_dict()
            for threads in (2, 4):
                assert run(plan, threads=threads).to_dict() == reference

    def test_threads_start_no_thread(self, monkeypatch):
        seen, count_rows = [], counting._count_rows

        def spy(batch, motif):
            seen.append((batch.graphs, threading.active_count()))
            return count_rows(batch, motif)

        monkeypatch.setattr(counting, "_count_rows", spy)
        before = threading.active_count()
        run(er_plan(replicates=8), threads=4)
        assert sum(size for size, _ in seen) == 8
        assert max(active for _, active in seen) <= before

    @pytest.mark.parametrize("threads", ["2", 1.5, True, None])
    def test_threads_is_an_integer(self, threads):
        with pytest.raises(InvalidParams, match="threads must be an integer"):
            run(er_plan(replicates=2), threads=threads)
        with pytest.raises(InvalidParams, match="threads must be >= 1"):
            run(er_plan(replicates=2), threads=0)

    def test_each_batch_counted_before_the_next_is_drawn(self, monkeypatch):
        # batches of two 40-vertex graphs, so seven replicates end with a
        # batch of one; each batch reaches the search as the sampler's own
        # checked, read-only array, not a copy, and is counted before the
        # next batch is drawn
        monkeypatch.setattr(bitrows, "BLOCK_WORDS", 2 * 40)
        events = []
        sample_batches, count_rows = models.sample_batches, counting._count_rows

        def batches(*args):
            for batch in sample_batches(*args):
                events.append(("drawn", batch.rows))
                yield batch

        def spy(batch, motif):
            events.append(("counted", batch.rows))
            return count_rows(batch, motif)

        monkeypatch.setattr(models, "sample_batches", batches)
        monkeypatch.setattr(counting, "_count_rows", spy)
        plan = SimulationPlan(
            erdos_renyi(0.3), builtin_motif("cycle", 4), n=40, replicates=7, seed=3
        )
        summary = run(plan)
        assert [what for what, _ in events] == ["drawn", "counted"] * 4
        drawn, counted = events[::2], events[1::2]
        assert [len(rows) // 40 for _, rows in drawn] == [2, 2, 2, 1]
        assert all(a is b for (_, a), (_, b) in zip(drawn, counted))
        assert not any(rows.flags.writeable for _, rows in drawn)
        counts = [
            count_copies(sample_sbm(plan.model, 40, substream_seed(3, r)), plan.motif)
            for r in range(7)
        ]
        assert summary.histogram == {
            w: c / 7 for w, c in sorted(Counter(counts).items())
        }

    @pytest.mark.parametrize(
        "plan",
        [
            er_plan(replicates=101),
            er_plan(p=0.3, n=20, replicates=50, seed=7),
            SimulationPlan(
                model=GraphonSpec(family="product", scale=0.5),
                motif=builtin_motif("cycle", 4),
                n=70,
                replicates=45,
                seed=3,
            ),
        ],
        ids=["er_sparse", "er_dense", "graphon_c4"],
    )
    def test_batch_size_changes_nothing(self, monkeypatch, plan):
        # by default one batch samples and one search counts every
        # replicate of these plans; with one-word runs each graph has its
        # own batch and its own search, cut after every candidate word
        searches, count_rows = [], counting._count_rows

        def spy(batch, motif):
            searches.append(batch.graphs)
            return count_rows(batch, motif)

        monkeypatch.setattr(counting, "_count_rows", spy)
        batched = json.dumps(run(plan).to_dict())
        assert searches == [plan.replicates]
        monkeypatch.setattr(bitrows, "BLOCK_WORDS", 1)
        searches.clear()
        assert json.dumps(run(plan).to_dict()) == batched
        assert searches == [1] * plan.replicates

    def test_replicate_seeds_derived_in_blocks(self, monkeypatch):
        # seeds derived 7 at a time as uint64 arrays are those of
        # substream_seed one replicate at a time, as Python ints
        seen, sample_batches = [], models.sample_batches

        def spy(model, n, seeds):
            seeds = list(seeds)
            seen.extend(seeds)
            return sample_batches(model, n, seeds)

        monkeypatch.setattr(models, "sample_batches", spy)
        monkeypatch.setattr(simulate, "_SEED_BLOCK", 7)
        plan = er_plan(replicates=30, seed=(1 << 64) - 2)
        run(plan)
        assert seen == [substream_seed(plan.seed, r) for r in range(30)]
        assert {type(seed) for seed in seen} == {int}

    def test_run_leaves_no_garbage(self):
        # runs are counted without reference cycles, so no graph of a
        # run waits for the cyclic collector
        plan = er_plan(p=0.2, n=70, replicates=30)
        run(plan)  # warm-up: builds and caches the search plan and the bound
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            run(plan)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_replicates_keep_no_rows(self):
        # a batch of 2000-vertex graphs holds one graph (0.49 MiB of rows),
        # and one of 100-vertex graphs holds 81 (0.12 MiB); a batch's rows
        # must go before the next batch is drawn, so four batches peak no
        # higher than one
        def peak(n, replicates):
            plan = er_plan(p=2 / n, n=n, replicates=replicates, seed=5)
            tracemalloc.start()
            try:
                run(plan)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for n in (2000, 100):
            batch = bitrows.run_length(n)
            peak(n, batch)  # warm-up: caches the search plan and the bound
            rows = batch * n * row_words(n) * 8
            assert peak(n, 4 * batch) - peak(n, batch) <= rows // 4, n

    def test_seed_changes_results(self):
        a = run(er_plan(seed=1)).histogram
        b = run(er_plan(seed=2)).histogram
        assert a != b


# one plan per sampler path: the three criterion-6 plans, a block model
# whose first class is often empty or a single vertex at n = 12, one with
# p = 1 and p = 0 blocks, and the two smooth graphons
PINNED_PLANS = {
    "crit6_a": SimulationPlan(
        SbmParams(2, (0.5, 0.5), ((0.0277, 0.01385), (0.01385, 0.0277))),
        K3, 100, 1000, 7,
    ),
    "crit6_b": SimulationPlan(
        erdos_renyi(1.5 / 60), builtin_motif("cycle", 4), 60, 1000, 7
    ),
    "crit6_c": SimulationPlan(
        GraphonSpec(
            family="piecewise_constant",
            breakpoints=(0.0, 0.5, 1.0),
            values=((0.02, 0.005), (0.005, 0.02)),
        ),
        K3, 120, 1000, 7,
    ),
    "sbm3_sparse_class": SimulationPlan(
        SbmParams(
            3, (0.04, 0.16, 0.8), ((0.9, 0.5, 0.2), (0.5, 0.7, 0.3), (0.2, 0.3, 0.4))
        ),
        K3, 12, 500, 7,
    ),
    "sbm_p1_p0": SimulationPlan(
        SbmParams(2, (0.5, 0.5), ((1.0, 0.0), (0.0, 0.3))), K3, 15, 300, 7
    ),
    "product": SimulationPlan(GraphonSpec(family="product", scale=0.8), K3, 40, 300, 7),
    "affine_mean": SimulationPlan(
        GraphonSpec(family="affine_mean", scale=0.3), K3, 40, 300, 7
    ),
}

# sha256 prefixes of json.dumps(run(plan).to_dict()), recorded with
# replicates sampled one graph at a time at sampler version 2, except the
# one marked version 3, whose small blocks are often empty
PINNED_RUN_DIGESTS = {
    "crit6_a": "e33c226077d3b835",
    "crit6_b": "c502b85944f80304",
    "crit6_c": "c882c3006dc50310",
    "sbm3_sparse_class": "6ebab6031c148e2e",  # version 3
    "sbm_p1_p0": "71ea7dd5d196f3b3",
    "product": "2880833200696f51",
    "affine_mean": "652d0d1f4103e8e1",
}


@pytest.mark.parametrize("name", sorted(PINNED_RUN_DIGESTS))
def test_run_pinned(name):
    text = json.dumps(run(PINNED_PLANS[name]).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_RUN_DIGESTS[name]


class TestDegenerate:
    def test_zero_model_point_mass(self):
        plan = er_plan(p=0.0, replicates=200)
        summary = run(plan)
        assert summary.histogram == {0: 1.0}
        assert summary.lam == 0.0
        assert summary.empirical_tv == 0.0  # 1 - e^0
        assert summary.sample_variance == 0.0

    def test_unbalanced_motif_has_no_bound(self):
        plan = SimulationPlan(
            model=erdos_renyi(0.3),
            motif=motif_from_edge_list([(0, 1), (2, 3)]),
            n=12,
            replicates=50,
            seed=4,
        )
        summary = run(plan)
        assert summary.theoretical_bound is None
        assert summary.empirical_tv >= 0

    def test_unevaluable_mu_fails_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled a graph before checking mu")

        monkeypatch.setattr(models, "sample_batches", no_sampling)
        plan = SimulationPlan(
            model=SbmParams(10, (0.1,) * 10, ((0.5,) * 10,) * 10),
            motif=builtin_motif("complete", 10),
            n=20,
            replicates=1000,
            seed=5,
        )
        with pytest.raises(TooManyTerms):
            run(plan)


class TestSummaryInvariants:
    def test_histogram_normalised(self):
        summary = run(er_plan(replicates=700))
        assert abs(math.fsum(summary.histogram.values()) - 1.0) < 1e-12
        assert summary.sample_mean >= 0

    def test_moments_equal_fsum_over_every_replicate(self, monkeypatch):
        # counts past 2**53 lose bits in a running float sum; the moments
        # from the histogram must still equal fsum over the replicate list
        counts = [2**53 + 2, 1, 2**53, 7, 3]
        drawn = iter(counts)
        def fake_count(batch, motif):
            return np.array([next(drawn) for _ in range(batch.graphs)])

        monkeypatch.setattr(counting, "_count_rows", fake_count)
        summary = run(er_plan(replicates=len(counts)))
        mean = math.fsum(counts) / len(counts)
        var = math.fsum((w - mean) ** 2 for w in counts) / (len(counts) - 1)
        assert summary.sample_mean == mean and summary.sample_variance == var

    def test_mean_within_clt_band(self):
        # lambda ~ 1.23 at these settings
        summary = run(er_plan(p=0.05, n=40, replicates=3000, seed=12))
        se = math.sqrt(summary.sample_variance / summary.replicates)
        assert abs(summary.sample_mean - summary.lam) <= 3 * se

    def test_variance_within_clt_band(self):
        # exact Var W for triangles in ER(p): single copies plus pairs of
        # copies sharing one edge; the SE of s^2 comes from the sample's
        # fourth central moment
        n, p, r = 40, 0.1, 2000
        summary = run(er_plan(p=p, n=n, replicates=r, seed=31))
        exact = math.comb(n, 3) * (p**3 * (1 - p**3) + 3 * (n - 3) * (p**5 - p**6))
        mean, s2 = summary.sample_mean, summary.sample_variance
        m4 = math.fsum(f * (k - mean) ** 4 for k, f in summary.histogram.items())
        se = math.sqrt((m4 - s2**2) / r)
        assert abs(s2 - exact) <= 5 * se

    def test_mean_consistency_across_scenarios(self):
        # the 3-SE band should hold in >= 95% of seeded repetitions
        failures = 0
        for rep in range(20):
            summary = run(er_plan(p=0.06, n=36, replicates=400, seed=1000 + rep))
            se = math.sqrt(summary.sample_variance / summary.replicates)
            if abs(summary.sample_mean - summary.lam) > 3 * se:
                failures += 1
        assert failures <= 1

    def test_ten_thousand_vertices(self):
        # the README's largest graphs: ER(2/n) triangles, lambda about 4/3;
        # the variance is floored at lambda so equal counts cannot shrink
        # the standard error to zero
        n = 10**4
        plan = SimulationPlan(
            model=erdos_renyi(2.0 / n), motif=K3, n=n, replicates=3, seed=17
        )
        summary = run(plan)
        se = math.sqrt(max(summary.sample_variance, summary.lam) / 3)
        assert abs(summary.sample_mean - summary.lam) <= 5 * se

    def test_graphon_plan(self):
        plan = SimulationPlan(
            model=GraphonSpec(
                family="piecewise_constant",
                breakpoints=(0.0, 0.5, 1.0),
                values=((0.08, 0.02), (0.02, 0.08)),
            ),
            motif=K3,
            n=40,
            replicates=300,
            seed=5,
        )
        summary = run(plan)
        assert summary.theoretical_bound is not None
        assert summary.lam > 0


class TestBootstrap:
    def test_reproducible(self):
        summary = run(er_plan())
        se1 = tv_standard_error(summary.histogram, 400, summary.lam, seed=123)
        se2 = tv_standard_error(summary.histogram, 400, summary.lam, seed=123)
        assert se1 == se2

    def test_point_mass_near_zero(self):
        assert tv_standard_error({0: 1.0}, 500, 0.0, seed=7) < 1e-12

    @pytest.mark.parametrize("lam", [1.5, 50.0, 500.0])
    def test_matches_direct_half_l1_per_resample(self, lam):
        # rebuild the 200 multinomial resamples from the same Philox key and
        # score each by the half-L1 distance up to the largest observed
        # count plus the Poisson mass above it
        replicates, seed = 600, 4242
        sample = np.random.default_rng(int(lam)).poisson(0.96 * lam, replicates)
        keys, counts = np.unique(sample, return_counts=True)
        histogram = {int(k): c / replicates for k, c in zip(keys, counts)}
        probs = counts / replicates
        probs = probs / probs.sum()
        rng = np.random.Generator(np.random.Philox(key=seed))
        draws = rng.multinomial(replicates, probs, size=200)
        top = int(keys[-1])
        pmf = [poisson_pmf(lam, k) for k in range(top + 1)]
        tail = poisson_tail(lam, top)
        tvs = []
        for row in draws:
            freq = dict(zip(keys.tolist(), (row / replicates).tolist()))
            body = math.fsum(abs(freq.get(k, 0.0) - pmf[k]) for k in range(top + 1))
            tvs.append(0.5 * (body + tail))
        expected = float(np.std(tvs, ddof=1))
        got = tv_standard_error(histogram, replicates, lam, seed=seed)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got > 0

    def test_quarter_rate_scaling(self):
        # SE of the TV statistic shrinks like 1/sqrt(R): quadrupling R
        # roughly halves it
        small = run(er_plan(replicates=1000, seed=21))
        large = run(er_plan(replicates=4000, seed=21))
        ratio = large.tv_standard_error / small.tv_standard_error
        assert 0.4 <= ratio <= 0.6


class TestHistogramCsv:
    def test_rfc4180(self):
        text = histogram_csv({0: 0.5, 2: 0.25, 1: 0.25})
        lines = text.split("\r\n")
        assert lines[0] == "count,frequency"
        assert lines[1].startswith("0,")
        assert lines[2].startswith("1,")
        assert text.endswith("\r\n")


class TestPlanValidation:
    def test_replicates_positive(self):
        with pytest.raises(Exception):
            SimulationPlan(
                model=erdos_renyi(0.1), motif=K3, n=10, replicates=0, seed=1
            )

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 5 + 3 * (1 << 64)])
    def test_seed_outside_64_bits_rejected(self, seed):
        # substream_seed masks to 64 bits, so -1 would alias 2**64 - 1
        with pytest.raises(InvalidParams):
            SimulationPlan(
                model=erdos_renyi(0.1), motif=K3, n=10, replicates=10, seed=seed
            )

    @pytest.mark.parametrize(
        "field, value", [("n", 60.0), ("replicates", 2.0), ("seed", True)]
    )
    def test_integer_fields_must_be_ints(self, field, value):
        fields = dict(model=erdos_renyi(0.1), motif=K3, n=60, replicates=2, seed=1)
        fields[field] = value
        with pytest.raises(InvalidParams, match=f"simulate {field} must be an integer"):
            SimulationPlan(**fields)

    def test_model_of_another_type_rejected(self):
        model = {"Q": 1, "f": [1.0], "pi": [[0.1]]}
        with pytest.raises(InvalidParams, match="must be SbmParams or GraphonSpec"):
            SimulationPlan(model=model, motif=K3, n=10, replicates=10, seed=1)

    def test_motif_of_another_type_rejected(self):
        with pytest.raises(InvalidMotifError, match="must be a Motif"):
            SimulationPlan(
                model=erdos_renyi(0.1), motif="complete:3", n=10, replicates=10, seed=1
            )

    def test_seed_bounds_accepted(self):
        for seed in (0, (1 << 64) - 1):
            assert SimulationPlan(
                model=erdos_renyi(0.1), motif=K3, n=10, replicates=10, seed=seed
            ).seed == seed

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(InvalidParams):
            run(er_plan(replicates=2), threads=threads)

    def test_n_at_least_motif(self):
        with pytest.raises(Exception):
            SimulationPlan(
                model=erdos_renyi(0.1), motif=K3, n=2, replicates=10, seed=1
            )

    def test_n_above_vertex_cap_rejected(self):
        with pytest.raises(InvalidParams, match="cap"):
            er_plan(p=0.0, n=MAX_GRAPH_VERTICES + 1, replicates=1)

"""Exact counting against the brute-force oracle and closed-form cases."""

import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motif_poisson import (
    CopyCount,
    GraphTooLargeForOracle,
    MotifLargerThanGraph,
    SampledGraph,
    automorphism_count,
    builtin_motif,
    copies_on_vertices,
    copy_indicators,
    count_copies,
    count_copies_bruteforce,
    erdos_renyi,
    lambda_value,
    max_copy_capacity,
    motif_from_edge_list,
    mu_sbm,
    sample_graphon,
    sample_sbm,
    substream_seed,
    GraphonSpec,
)
from motif_poisson.motif import BUILTIN_FAMILIES

from conftest import complete_graph, graph_from_edges, random_motif

P3 = builtin_motif("tree_path", 3)
K3 = builtin_motif("complete", 3)

FOUR_CYCLE = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


class TestWorkedExample:
    def test_path_copies_in_four_cycle(self):
        # each vertex of the cycle is the centre of exactly one path
        assert count_copies(FOUR_CYCLE, P3).count == 4
        assert count_copies_bruteforce(FOUR_CYCLE, P3).count == 4

    def test_three_indicators_on_fixed_position(self):
        # the three distinct path placements on {0,1,2}: only the one
        # centred at 1 is present in the cycle
        placements = copies_on_vertices(P3, (0, 1, 2))
        assert placements == [
            ((0, 1), (0, 2)),
            ((0, 1), (1, 2)),
            ((0, 2), (1, 2)),
        ]
        assert copy_indicators(FOUR_CYCLE, P3, (0, 1, 2)) == [0, 1, 0]


class TestClosedForms:
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_triangles_in_complete_graph(self, n):
        assert count_copies(complete_graph(n), K3).count == math.comb(n, 3)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_hamilton_cycles_in_complete_graph(self, n):
        m = builtin_motif("cycle", n)
        expected = math.factorial(n - 1) // 2
        assert count_copies(complete_graph(n), m).count == expected
        assert count_copies_bruteforce(complete_graph(n), m).count == expected

    def test_empty_graph(self):
        g = SampledGraph(6, (0,) * 6)
        assert count_copies(g, K3).count == 0
        assert count_copies(g, P3).count == 0

    def test_single_edge_has_no_paths(self):
        g = graph_from_edges(4, [(0, 1)])
        assert count_copies(g, P3).count == 0
        assert count_copies_bruteforce(g, P3).count == 0

    def test_paths_in_k4(self):
        assert count_copies(complete_graph(4), P3).count == 12
        assert count_copies(complete_graph(4), P3).count == max_copy_capacity(
            P3, 4
        )

    @pytest.mark.parametrize("n", [5, 9, 16])
    def test_five_cliques_and_cycles_in_complete_graph(self, n):
        k5, c5 = builtin_motif("complete", 5), builtin_motif("cycle", 5)
        copies = math.comb(n, 5)
        assert count_copies(complete_graph(n), k5) == CopyCount(copies, copies * 120)
        assert count_copies(complete_graph(n), c5) == CopyCount(
            12 * copies, 12 * copies * 10
        )


def adjacency_matrix(g: SampledGraph) -> np.ndarray:
    """The 0/1 int64 adjacency matrix of ``g``, unpacked from its bitsets."""
    row_bytes = (g.n + 7) // 8
    packed = b"".join(a.to_bytes(row_bytes, "little") for a in g.adjacency)
    bits = np.unpackbits(
        np.frombuffer(packed, np.uint8).reshape(g.n, row_bytes),
        axis=1,
        bitorder="little",
    )
    return bits[:, : g.n].astype(np.int64)


class TestDenseTraceFormulas:
    """Dense graphs far past the oracle's cap, where the last position's
    popcount does nearly all the work, against closed walk counts:
    K3 = tr(A^3)/6 and C4 = (tr(A^4) - 2 sum d^2 + 2m)/8."""

    @pytest.fixture(scope="class", params=[200, 400])
    def dense(self, request):
        n = request.param
        g = sample_sbm(erdos_renyi(0.5), n, seed=n)
        a = adjacency_matrix(g)
        a2 = a @ a
        return g, a, a2

    def test_triangles(self, dense):
        g, a, a2 = dense
        tr3 = int((a2 * a).sum())  # tr(A^3), A symmetric
        assert tr3 % 6 == 0
        assert count_copies(g, K3) == CopyCount(tr3 // 6, tr3)

    def test_four_cycles(self, dense):
        g, a, a2 = dense
        tr4 = int((a2 * a2).sum())  # tr(A^4), A symmetric
        d = a.sum(axis=1)
        closed = tr4 - 2 * int((d * d).sum()) + int(d.sum())  # 2m = sum d
        assert closed % 8 == 0
        c4 = builtin_motif("cycle", 4)
        assert count_copies(g, c4) == CopyCount(closed // 8, closed)


def test_count_leaves_no_garbage():
    # the search must not leave a reference cycle per call: one would keep
    # the graph's bitsets alive until the cyclic collector ran
    g = sample_sbm(erdos_renyi(0.3), 40, seed=5)
    count_copies(g, K3)  # warm-up: builds and caches the search plan
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        count_copies(g, K3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


class TestErrors:
    def test_motif_larger_than_graph(self):
        with pytest.raises(MotifLargerThanGraph):
            count_copies(graph_from_edges(3, [(0, 1)]), builtin_motif("cycle", 4))

    def test_oracle_cap(self):
        with pytest.raises(GraphTooLargeForOracle):
            count_copies_bruteforce(SampledGraph(15, (0,) * 15), K3)


class TestOracleEquivalence:
    def test_random_instances(self, rng):
        for i in range(40):
            m = random_motif(rng, v_max=5)
            n = int(rng.integers(m.vertex_count, 12))
            if i % 2 == 0:
                g = sample_sbm(erdos_renyi(0.4), n, substream_seed(100, i))
            else:
                g = sample_graphon(
                    GraphonSpec(family="product", scale=0.9),
                    n,
                    substream_seed(200, i),
                )
            fast = count_copies(g, m)
            slow = count_copies_bruteforce(g, m)
            assert fast == slow

    def test_disconnected_motif(self, rng):
        two_edges = motif_from_edge_list([(0, 1), (2, 3)])
        assert automorphism_count(two_edges) == 8
        for i in range(12):
            g = sample_sbm(erdos_renyi(0.5), 8, substream_seed(300, i))
            assert count_copies(g, two_edges) == count_copies_bruteforce(
                g, two_edges
            )

    def test_injection_divisibility(self, rng):
        for i in range(15):
            m = random_motif(rng, v_max=5)
            g = sample_sbm(erdos_renyi(0.5), 10, substream_seed(400, i))
            cc = count_copies(g, m)
            aut = automorphism_count(m)
            assert cc.injections == cc.count * aut


class TestStructuredMotifs:
    # shapes that stress the search order: hubs, pendants, mixed components
    CASES = {
        "star": [(0, 1), (0, 2), (0, 3), (0, 4)],
        "triangle_pendant": [(0, 1), (0, 2), (1, 2), (2, 3)],
        "path_plus_edge": [(0, 1), (1, 2), (3, 4)],
        "two_triangles": [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
        "paw_and_tail": [(0, 1), (1, 2), (2, 3), (1, 3)],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_oracle_agreement(self, name):
        m = motif_from_edge_list(self.CASES[name])
        tag = sorted(self.CASES).index(name)
        for i in range(8):
            g = sample_sbm(erdos_renyi(0.55), 10, substream_seed(7000 + tag, i))
            assert count_copies(g, m) == count_copies_bruteforce(g, m)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=4, max_value=9),
)
def test_counter_equals_oracle_property(seed, n):
    rng = np.random.default_rng(seed)
    m = random_motif(rng, v_max=4)
    g = sample_sbm(erdos_renyi(0.5), n, seed)
    if g.n < m.vertex_count:
        return
    assert count_copies(g, m) == count_copies_bruteforce(g, m)


class TestSymmetryBreaking:
    # a motif inside a copy of itself has one copy, so exactly one injection
    # may survive the symmetry-breaking conditions
    @pytest.mark.parametrize("family", BUILTIN_FAMILIES)
    def test_builtin_self_count(self, family):
        for v in range(3, 11):
            m = builtin_motif(family, v)
            own = graph_from_edges(v, m.edges)
            assert count_copies(own, m) == CopyCount(1, automorphism_count(m))

    def test_random_self_count(self, rng):
        # every other motif is the disjoint union of two random ones
        for i in range(200):
            m = random_motif(rng, v_max=10 if i % 2 else 5)
            if i % 2 == 0:
                shift, other = m.vertex_count, random_motif(rng, v_max=5)
                m = motif_from_edge_list(
                    m.edges + tuple((a + shift, b + shift) for a, b in other.edges)
                )
            own = graph_from_edges(m.vertex_count, m.edges)
            assert count_copies(own, m) == CopyCount(1, automorphism_count(m))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    edges=st.sets(
        st.sampled_from(list(itertools.combinations(range(5), 2))),
        min_size=2,
        max_size=8,
    ),
    n=st.integers(min_value=3, max_value=12),
    p=st.sampled_from([0.3, 0.6, 0.9]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_symmetry_broken_counter_equals_oracle_property(edges, n, p, seed):
    # five labels, so disconnected motifs of four and five vertices are drawn too
    m = motif_from_edge_list(sorted(edges))
    if n < m.vertex_count:
        return
    g = sample_sbm(erdos_renyi(p), n, seed)
    assert count_copies(g, m) == count_copies_bruteforce(g, m)


class TestProperties:
    def test_monotone_in_edges(self, rng):
        for i in range(10):
            g = sample_sbm(erdos_renyi(0.3), 10, substream_seed(500, i))
            before = count_copies(g, K3).count
            absent = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ]
            if not absent:
                continue
            u, v = absent[int(rng.integers(len(absent)))]
            adj = list(g.adjacency)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            after = count_copies(SampledGraph(g.n, tuple(adj)), K3).count
            assert after >= before

    def test_capacity_bound_and_tightness(self, rng):
        for i in range(10):
            m = random_motif(rng, v_max=4)
            n = int(rng.integers(m.vertex_count, 10))
            g = sample_sbm(erdos_renyi(0.6), n, substream_seed(600, i))
            assert count_copies(g, m).count <= max_copy_capacity(m, n)
            assert count_copies(complete_graph(n), m).count == max_copy_capacity(
                m, n
            )

    def test_label_invariance(self, rng):
        g = sample_sbm(erdos_renyi(0.4), 12, seed=41)
        reference = count_copies(g, K3).count
        for _ in range(20):
            perm = rng.permutation(g.n)
            adj = [0] * g.n
            for u, v in g.edges():
                pu, pv = int(perm[u]), int(perm[v])
                adj[pu] |= 1 << pv
                adj[pv] |= 1 << pu
            assert count_copies(SampledGraph(g.n, tuple(adj)), K3).count == reference

    def test_empirical_mean_matches_expected_count(self):
        # CLT band: the ensemble average of W sits within 3 std errors of
        # the exact expectation
        params = erdos_renyi(0.08)
        n, reps = 30, 1500
        counts = [
            count_copies(sample_sbm(params, n, substream_seed(550, r)), K3).count
            for r in range(reps)
        ]
        lam = lambda_value(K3, n, mu_sbm(params, K3))
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(reps)
        assert abs(mean - lam) <= 3 * se

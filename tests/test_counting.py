"""Exact counting against the brute-force oracle and closed-form cases."""

import contextlib
import gc
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motif_poisson import (
    GraphTooLargeForOracle,
    MotifLargerThanGraph,
    SampledGraph,
    automorphism_count,
    builtin_motif,
    copy_indicators,
    count_copies,
    count_copies_bruteforce,
    erdos_renyi,
    compute_stats,
    lambda_value,
    motif_from_edge_list,
    motif_from_string,
    mu_sbm,
    sample_graphon,
    sample_sbm,
    substream_seed,
    GraphonSpec,
    InvalidParams,
    SimulationPlan,
    bound_scaled,
)
from motif_poisson import bitrows, counting, homs, models
from motif_poisson.cli import main
from motif_poisson.bitrows import pack_words, unpack_words
from motif_poisson.motif import BUILTIN_FAMILIES

from conftest import complete_graph, graph_from_edges, random_motif, scanned

P3 = builtin_motif("tree_path", 3)
K3 = builtin_motif("complete", 3)

FOUR_CYCLE = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


#: The two ways the search forms candidates: whole rows, or the nonzero
#: words of each pivot row.
SEARCH = ["rows", "words"]
#: Every way the counter counts: the search's two, and the homomorphism
#: counts.
PATHS = [*SEARCH, "hom"]


@contextlib.contextmanager
def forced(path):
    """Counting by ``path`` whatever the planned costs, and for the search
    whatever the rows' width and share of nonzero words."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "hom":
            mp.setattr(homs, "plan_within", lambda m, n, graphs, limit: homs._run(m, n))
        else:
            mp.setattr(homs, "plan_within", lambda m, n, graphs, limit: None)
            mp.setattr(counting, "_SPARSE_WIDTH", 0 if path == "words" else math.inf)
            mp.setattr(bitrows, "SPARSE_SHARE", 1.0)
            # a graph made before this keeps the words its own check listed
            listed = counting._row_words
            mp.setattr(counting, "_row_words", lambda b: listed(scanned(b.rows, b.n)))
        yield mp


def count_stacked(graphs, m) -> list[int]:
    """Copies of ``m`` in each of ``graphs``, of one size, by one search
    over their stacked rows, as the sampler hands on a batch."""
    rows = np.concatenate([g.adjacency for g in graphs])
    return counting._count_rows(scanned(rows, graphs[0].n), m).tolist()


class TestWorkedExample:
    def test_path_copies_in_four_cycle(self):
        # each vertex of the cycle is the centre of exactly one path
        assert count_copies(FOUR_CYCLE, P3) == 4
        assert count_copies_bruteforce(FOUR_CYCLE, P3) == 4

    def test_three_indicators_on_fixed_position(self):
        # the three distinct path placements on {0,1,2}, in the order of
        # their edge sets: only the one centred at 1 is present in the cycle
        placements = [((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2))]
        present = [int(all(FOUR_CYCLE.has_edge(*e) for e in p)) for p in placements]
        assert present == [0, 1, 0]
        assert copy_indicators(FOUR_CYCLE, P3, (0, 1, 2)) == present


class TestClosedForms:
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_triangles_in_complete_graph(self, n):
        assert count_copies(complete_graph(n), K3) == math.comb(n, 3)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_hamilton_cycles_in_complete_graph(self, n):
        m = builtin_motif("cycle", n)
        expected = math.factorial(n - 1) // 2
        assert count_copies(complete_graph(n), m) == expected
        assert count_copies_bruteforce(complete_graph(n), m) == expected

    def test_empty_graph(self):
        g = graph_from_edges(6, [])
        assert count_copies(g, K3) == 0
        assert count_copies(g, P3) == 0

    def test_single_edge_has_no_paths(self):
        g = graph_from_edges(4, [(0, 1)])
        assert count_copies(g, P3) == 0
        assert count_copies_bruteforce(g, P3) == 0

    def test_paths_in_k4(self):
        # every position holds all 3 of its paths
        assert count_copies(complete_graph(4), P3) == math.comb(4, 3) * 3 == 12

    @pytest.mark.parametrize("n", [5, 9, 16])
    def test_five_cliques_and_cycles_in_complete_graph(self, n):
        k5, c5 = builtin_motif("complete", 5), builtin_motif("cycle", 5)
        copies = math.comb(n, 5)
        assert count_copies(complete_graph(n), k5) == copies
        assert count_copies(complete_graph(n), c5) == 12 * copies


def adjacency_matrix(g: SampledGraph) -> np.ndarray:
    """The 0/1 int64 adjacency matrix of ``g``, unpacked from its bitsets."""
    return unpack_words(g.adjacency)[:, : g.n].astype(np.int64)


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
        assert count_copies(g, K3) == tr3 // 6

    def test_four_cycles(self, dense):
        g, a, a2 = dense
        tr4 = int((a2 * a2).sum())  # tr(A^4), A symmetric
        d = a.sum(axis=1)
        closed = tr4 - 2 * int((d * d).sum()) + int(d.sum())  # 2m = sum d
        assert closed % 8 == 0
        c4 = builtin_motif("cycle", 4)
        assert count_copies(g, c4) == closed // 8


def test_count_leaves_no_garbage():
    # the search must not leave a reference cycle per call: one would keep
    # the graphs' bitsets alive until the cyclic collector ran
    graphs = [sample_sbm(erdos_renyi(0.3), 40, seed=s) for s in range(5)]
    c4 = builtin_motif("cycle", 4)
    for path in PATHS:
        with forced(path):
            # warm-up: builds and caches the search plans
            count_copies(graphs[0], K3)
            count_stacked(graphs, c4)
            enabled = gc.isenabled()
            gc.disable()
            try:
                gc.collect()
                count_copies(graphs[0], K3)
                count_stacked(graphs, c4)
                assert gc.collect() == 0, path
            finally:
                if enabled:
                    gc.enable()


def test_counting_memory_is_the_rows_plus_a_fixed_budget():
    # 2000 vertices take 32 words a row, and about 10^6 frontier rows pass
    # through the last level: expanded whole, that level alone would take
    # hundreds of MiB
    g = sample_sbm(erdos_renyi(0.5), 2000, seed=2000)
    count_copies(graph_from_edges(3, [(0, 1)]), K3)  # caches the search plan
    tracemalloc.start()
    try:
        got = count_copies(g, K3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= g.adjacency.nbytes + 2 * 2**20
    a = adjacency_matrix(g).astype(float)
    tr3 = ((a @ a) * a).sum()  # exact: every partial sum is below 2**53
    assert got == tr3 / 6


@pytest.mark.parametrize("source", ["edge text", "sampler"])
def test_rows_scanned_once_from_graph_to_count(monkeypatch, source):
    # the graph keeps the nonzero words that its check listed, outside its
    # repr and equality, and the counter reads them
    n = 10**4
    scans, scan = [], bitrows.nonzero_words

    def spy(rows):
        scans.append(rows.shape)
        return scan(rows)

    monkeypatch.setattr(bitrows, "nonzero_words", spy)
    if source == "sampler":
        g = sample_sbm(erdos_renyi(3 / n), n, seed=2)
    else:
        g = graph_from_edges(n, zip(range(n - 1), range(1, n)))
        assert count_copies(g, motif_from_string("tree_path:3")) == n - 2
    count_copies(g, motif_from_string("complete:3"))
    assert scans == [(n, bitrows.row_words(n))]
    assert g.words is not None and "words" not in repr(g)
    assert g == SampledGraph(n, g.adjacency.copy())


@pytest.mark.parametrize("motif", ["complete:3", "cycle:4"])
def test_sparse_counting_memory_grows_with_the_edges(motif):
    # 10^4 vertices take 157 words a row, about 1 % of them nonzero in
    # ER(2/n): the nonzero words are listed once, and no temporary as large
    # as the rows is built; the flags of the nonzero words take an eighth
    g = sample_sbm(erdos_renyi(2 / 10**4), 10**4, seed=4)
    m = motif_from_string(motif)
    assert counting._row_words(scanned(g.adjacency, g.n))[0] is not None
    count_copies(graph_from_edges(4, [(0, 1)]), m)  # caches the search plan
    tracemalloc.start()
    try:
        got = count_copies(g, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= g.adjacency.nbytes // 8 + 2**20 + 64 * g.edge_count
    with forced("rows"):
        assert got == count_copies(g, m)


def oracle_memory(v: int) -> tuple[int, int, int]:
    """The size of the copy family of a v-vertex path as int masks (ints
    and list), and the traced peak and remainder of one oracle call on the
    path itself, above what was allocated before it."""
    m = builtin_motif("tree_path", v)
    g = graph_from_edges(v, m.edges)
    family = counting._copy_masks(m)  # also caches the invariants
    family_bytes = sum(map(sys.getsizeof, family)) + sys.getsizeof(family)
    del family
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert count_copies_bruteforce(g, m) == 1
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return family_bytes, peak - before, after - before


def test_oracle_keeps_no_family_after_the_call():
    # the 8!/2 copies of an 8-vertex path on fixed slots take about 0.7 MiB
    # as int masks; the call builds them, and they must go when it returns
    family_bytes, peak, after = oracle_memory(8)
    assert peak > family_bytes
    assert after < family_bytes // 8


def test_oracle_family_memory_is_bounded():
    # each copy is one int mask of about 28 bytes; the set that dedupes
    # them has at most 8 slots of 16 bytes per mask (CPython quadruples a
    # small set's table), so the peak stays below 6 times the family's own
    # size; a tuple of edge tuples per copy takes about 17 times it
    family_bytes, peak, _ = oracle_memory(8)
    assert peak < 6 * family_bytes


class TestErrors:
    def test_motif_larger_than_graph(self):
        with pytest.raises(MotifLargerThanGraph):
            count_copies(graph_from_edges(3, [(0, 1)]), builtin_motif("cycle", 4))

    def test_one_fits_check_everywhere(self, tmp_path, capsys):
        # K4 does not fit in 3 vertices: every entry point raises the same
        # error, an InvalidParams, so the CLI exits 2
        k4, g = builtin_motif("complete", 4), complete_graph(3)
        calls = [
            lambda: SimulationPlan(erdos_renyi(0.5), k4, 3, 1, 0),
            lambda: lambda_value(k4, 3, 0.5),
            lambda: bound_scaled(k4, 3, 0.5, 1.0),
            lambda: count_copies(g, k4),
            lambda: count_copies_bruteforce(g, k4),
        ]
        for call in calls:
            with pytest.raises(MotifLargerThanGraph, match="n=3 smaller than motif"):
                call()
        assert issubclass(MotifLargerThanGraph, InvalidParams)
        graph = tmp_path / "k3.txt"
        graph.write_text("0 1\n1 2\n0 2\n")
        assert main(["count", "--motif", "complete:4", "--graph", str(graph)]) == 2
        assert "smaller than motif" in capsys.readouterr().err

    def test_oracle_cap(self):
        with pytest.raises(GraphTooLargeForOracle):
            count_copies_bruteforce(graph_from_edges(15, []), K3)


#: Criterion 3's oracle tests run through the search and the homomorphism
#: counts alike.
COUNTERS = ["rows", "hom"]


@pytest.fixture
def by_path(request):
    """Counting by the ``PATH`` of the test's class."""
    with forced(request.cls.PATH):
        yield


@pytest.mark.usefixtures("by_path")
class TestOracleEquivalence:
    #: the path that counts; a subclass runs the same tests through the other
    PATH = "rows"

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
        # the injective edge-preserving maps, listed one by one, number the
        # copies times the automorphisms, which `count` reports as injections
        for i in range(15):
            m = random_motif(rng, v_max=5)
            g = sample_sbm(erdos_renyi(0.5), 10, substream_seed(400, i))
            a = adjacency_matrix(g).tolist()
            maps = sum(
                all(a[f[x]][f[y]] for x, y in m.edges)
                for f in itertools.permutations(range(g.n), m.vertex_count)
            )
            assert maps == count_copies(g, m) * automorphism_count(m)


class TestOracleEquivalenceByHoms(TestOracleEquivalence):
    PATH = "hom"


@pytest.mark.usefixtures("by_path")
class TestStructuredMotifs:
    # shapes that stress the search order: hubs, pendants, mixed components
    CASES = {
        "star": [(0, 1), (0, 2), (0, 3), (0, 4)],
        "triangle_pendant": [(0, 1), (0, 2), (1, 2), (2, 3)],
        "path_plus_edge": [(0, 1), (1, 2), (3, 4)],
        "two_triangles": [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
        "paw_and_tail": [(0, 1), (1, 2), (2, 3), (1, 3)],
    }

    PATH = "rows"

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_oracle_agreement(self, name):
        m = motif_from_edge_list(self.CASES[name])
        tag = sorted(self.CASES).index(name)
        for i in range(8):
            g = sample_sbm(erdos_renyi(0.55), 10, substream_seed(7000 + tag, i))
            assert count_copies(g, m) == count_copies_bruteforce(g, m)


class TestStructuredMotifsByHoms(TestStructuredMotifs):
    PATH = "hom"


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
    oracle = count_copies_bruteforce(g, m)
    for path in COUNTERS:
        with forced(path):
            assert count_copies(g, m) == oracle, path


class TestSymmetryBreaking:
    # a motif inside a copy of itself has one copy, so exactly one injection
    # may survive the symmetry-breaking conditions
    @pytest.mark.parametrize("family", BUILTIN_FAMILIES)
    def test_builtin_self_count(self, family):
        for v in range(3, 11):
            m = builtin_motif(family, v)
            own = graph_from_edges(v, m.edges)
            assert count_copies(own, m) == 1

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
            assert count_copies(own, m) == 1


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
    oracle = count_copies_bruteforce(g, m)
    for path in COUNTERS:
        with forced(path):
            assert count_copies(g, m) == oracle, path


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    edges=st.sets(
        st.sampled_from(list(itertools.combinations(range(5), 2))),
        min_size=2,
        max_size=8,
    ),
    n=st.integers(min_value=5, max_value=11),
    densities=st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.9]), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    one_word_blocks=st.booleans(),
)
def test_batch_equals_single_counts_and_oracle(
    edges, n, densities, seed, one_word_blocks
):
    # five labels, so disconnected motifs are drawn too; p = 0 graphs have
    # no copies, so batches mix zero and nonzero counts
    m = motif_from_edge_list(sorted(edges))
    graphs = [
        sample_sbm(erdos_renyi(p), n, substream_seed(seed, i))
        for i, p in enumerate(densities)
    ]
    oracle = [count_copies_bruteforce(g, m) for g in graphs]
    for path in PATHS:
        with forced(path) as mp:
            if one_word_blocks:
                # every block is cut after one candidate word, inside one
                # search over all the graphs
                mp.setattr(bitrows, "BLOCK_WORDS", 1)
            batch = count_stacked(graphs, m)
            assert batch == [count_copies(g, m) for g in graphs], path
        assert batch == oracle, path


@pytest.mark.parametrize("block_rows", [1, 64, 1024])
def test_multi_word_batch_against_trace_formulas(block_rows):
    # 130 vertices take three words a row; the counts of a mixed batch,
    # counted by one search, must each equal their graph's closed-walk count
    densities = (0.3, 0.0, 0.05, 0.6, 0.01)
    graphs = [sample_sbm(erdos_renyi(p), 130, seed=i) for i, p in enumerate(densities)]
    c4 = builtin_motif("cycle", 4)
    triangles, squares, pentagons = [], [], []
    for g in graphs:
        a = adjacency_matrix(g)
        a2, d = a @ a, a.sum(axis=1)
        a3 = a2 @ a
        triangles.append(int((a2 * a).sum()) // 6)
        closed = int((a2 * a2).sum()) - 2 * int((d * d).sum()) + int(d.sum())
        squares.append(closed // 8)
        tr3, tr5 = int(np.trace(a3)), int((a2 * a3).sum())
        pentagons.append((tr5 - 5 * tr3 - 5 * int(((d - 2) * np.diag(a3)).sum())) // 10)
    assert triangles[1] == 0 and min(triangles[0], triangles[3]) > 0
    # C5 has about 10^8 copies in ER(0.6), too many to list here, and
    # one-word blocks make one search call per candidate word, so they
    # leave out ER(0.3) too
    below = 0.3 if block_rows == 1 else 0.6
    some = [i for i, p in enumerate(densities) if p < below]
    c5 = builtin_motif("cycle", 5)
    assert pentagons[0] > 10**6 and pentagons[2] > 0
    cases = [
        (K3, graphs, triangles),
        (c4, graphs, squares),
        (c5, [graphs[i] for i in some], [pentagons[i] for i in some]),
    ]
    for path in PATHS:
        with forced(path) as mp:
            for m, batch, expected in cases:
                # blocks of block_rows children, each with at most three
                # candidate words and v images
                mp.setattr(bitrows, "BLOCK_WORDS", block_rows * (3 + m.vertex_count))
                assert count_stacked(batch, m) == expected, (path, m)


def closed_forms(g: SampledGraph) -> tuple[int, int, int]:
    """K3, C4 and two disjoint edges in ``g``: tr(A^3)/6,
    (tr(A^4) - 2 sum d^2 + 2m)/8, and C(m, 2) - sum C(d, 2)."""
    a = adjacency_matrix(g)
    a2, d = a @ a, a.sum(axis=1)
    m = int(d.sum()) // 2
    squares = int((a2 * a2).sum()) - 2 * int((d * d).sum()) + 2 * m
    return int((a2 * a).sum()) // 6, squares // 8, math.comb(m, 2) - int((d * (d - 1) // 2).sum())


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_word_boundaries_against_closed_forms(n, path):
    # one word a row at 63 and 64 vertices, a second word holding one
    # vertex at 65, and three words at 129; empty graphs between the others
    # in one batch; two disjoint edges restart the search at its third
    # position, with no back neighbour
    densities = (0.0, 0.1, 0.0, 0.0, 0.4, 0.02, 0.0)
    graphs = [sample_sbm(erdos_renyi(p), n, seed=i) for i, p in enumerate(densities)]
    expected = list(zip(*map(closed_forms, graphs)))
    motifs = (K3, builtin_motif("cycle", 4), motif_from_edge_list([(0, 1), (2, 3)]))
    with forced(path):
        assert [count_stacked(graphs, m) for m in motifs] == [list(e) for e in expected]
    assert max(expected[0]) > 0 and expected[2][0] == 0


def test_path_follows_the_batch_shape():
    # a large_n graph (ER(2/n) at n = 4000, 63 words a row, about 3 % of
    # them nonzero) lists its nonzero words; a batch of the ensemble plans
    # (ER(1.5/60), one word a row) and of the dense counts forms whole rows
    n = 4000
    (sparse,) = models.sample_batches(erdos_renyi(2 / n), n, [3])
    words, degrees = counting._row_words(sparse)
    rows = sparse.rows
    assert words is not None and np.count_nonzero(rows) < rows.size / 16
    assert np.array_equal(degrees, np.bitwise_count(rows).sum(axis=1))
    assert np.array_equal(words.word, rows.ravel()[words.at])
    for model, n in ((erdos_renyi(1.5 / 60), 60), (erdos_renyi(0.3), 60)):
        batch = next(models.sample_batches(model, n, range(1, 51)))
        assert counting._row_words(batch)[0] is None
    # a 4000-vertex graph with more than a quarter of its words nonzero
    (wide,) = models.sample_batches(erdos_renyi(0.02), n, [3])
    assert counting._row_words(wide)[0] is None


@pytest.mark.parametrize("w", [1, 2, 3, 63, 512])
def test_above_window_sets_exactly_the_bits_above(w):
    window = bitrows.above(w)
    assert window.shape == (64, w, w)
    last = 64 * w - 1
    for x in range(64 * w) if w <= 3 else [0, 1, 63, 64, 65, last - 64, last - 1, last]:
        bits = np.zeros(64 * w, dtype=bool)
        bits[x + 1 :] = True
        got = window[x & 63, w - 1 - (x >> 6)]
        assert np.array_equal(got, pack_words(bits[None])[0]), x


@pytest.mark.parametrize(
    "motif",
    # floors mostly off the back neighbours (the floor's row is not among
    # the rows ANDed), then all or mostly on them
    ["cycle:5", "tree_path:5", "complete:4", "almost_complete:5"],
)
def test_multi_word_floors_survive_relabelling(motif, rng):
    # 200 vertices take four words a row, so floors fall in every word
    m = motif_from_string(motif)
    g = sample_sbm(erdos_renyi(0.1), 200, seed=17)
    reference = count_copies(g, m)
    assert reference > 0
    for _ in range(5):
        perm = rng.permutation(g.n)
        relabelled = graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        for path in SEARCH:
            with forced(path):
                assert count_copies(relabelled, m) == reference, path


class TestProperties:
    def test_monotone_in_edges(self, rng):
        for i in range(10):
            g = sample_sbm(erdos_renyi(0.3), 10, substream_seed(500, i))
            before = count_copies(g, K3)
            absent = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ]
            if not absent:
                continue
            u, v = absent[int(rng.integers(len(absent)))]
            after = count_copies(graph_from_edges(g.n, [*g.edges(), (u, v)]), K3)
            assert after >= before

    def test_capacity_bound_and_tightness(self, rng):
        for i in range(10):
            m = random_motif(rng, v_max=4)
            n = int(rng.integers(m.vertex_count, 10))
            g = sample_sbm(erdos_renyi(0.6), n, substream_seed(600, i))
            capacity = math.comb(n, m.vertex_count) * compute_stats(m).rho
            assert count_copies(g, m) <= capacity
            assert count_copies(complete_graph(n), m) == capacity

    def test_label_invariance(self, rng):
        g = sample_sbm(erdos_renyi(0.4), 12, seed=41)
        reference = count_copies(g, K3)
        for _ in range(20):
            perm = rng.permutation(g.n)
            relabelled = graph_from_edges(
                g.n, [(perm[u], perm[v]) for u, v in g.edges()]
            )
            assert count_copies(relabelled, K3) == reference

    def test_empirical_mean_matches_expected_count(self):
        # CLT band: the ensemble average of W sits within 3 std errors of
        # the exact expectation
        params = erdos_renyi(0.08)
        n, reps = 30, 1500
        counts = [
            count_copies(sample_sbm(params, n, substream_seed(550, r)), K3)
            for r in range(reps)
        ]
        lam = lambda_value(K3, n, mu_sbm(params, K3))
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(reps)
        assert abs(mean - lam) <= 3 * se

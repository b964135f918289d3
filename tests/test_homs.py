"""Copy counts from homomorphism counts: the quotient list, the batched
elimination against the search and the oracle, its byte budget, and the
path the planned costs choose; and mu's contraction, bit for bit against
one einsum a step, with its slices' memory."""

import ast
import itertools
import math
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motif_poisson import (
    GraphonSpec,
    GraphTooLargeForOracle,
    SbmParams,
    builtin_motif,
    count_copies_bruteforce,
    erdos_renyi,
    motif_from_edge_list,
    motif_from_string,
    sample_sbm,
    substream_seed,
)
from motif_poisson import bounds, counting, homs, models
from motif_poisson.motif import BUILTIN_FAMILIES

from conftest import scanned


def falling(n: int, k: int) -> int:
    return math.prod(range(n - k + 1, n + 1))


def chromatic(family: str, v: int, n: int) -> int:
    """The chromatic polynomial of a builtin motif at n: a complete graph
    n(n-1)...(n-v+1), one less edge adds the colourings that give its two
    ends one colour, a tree n(n-1)^(v-1), a cycle (n-1)^v + (-1)^v (n-1)."""
    if family == "complete":
        return falling(n, v)
    if family == "almost_complete":
        return falling(n, v) + falling(n, v - 1)
    if family == "tree_path":
        return n * (n - 1) ** (v - 1)
    return (n - 1) ** v + (-1) ** v * (n - 1)


@pytest.mark.parametrize("family", BUILTIN_FAMILIES)
@pytest.mark.parametrize("v", range(3, 8))
def test_partitions_count_the_proper_colourings(family, v):
    # a proper colouring with n colours is a partition into independent
    # sets, its colour classes, with distinct colours on the blocks
    m = builtin_motif(family, v)
    sizes = [max(labels) + 1 for labels in homs._partitions(m)]
    for n in (0, 1, 2, 3, 5, 8, 13):
        assert sum(falling(n, k) for k in sizes) == chromatic(family, v, n), n


def test_partitions_are_into_independent_sets():
    for family, v in itertools.product(BUILTIN_FAMILIES, range(3, 8)):
        m = builtin_motif(family, v)
        listed = list(homs._partitions(m))
        assert len(set(listed)) == len(listed)
        for labels in listed:
            assert all(labels[a] != labels[b] for a, b in m.edges)
            # blocks numbered by their least vertex
            assert [labels.index(b) for b in range(max(labels) + 1)] == sorted(
                labels.index(b) for b in range(max(labels) + 1)
            )


@pytest.mark.parametrize(
    "motif, partitions",
    [*((f"complete:{v}", 1) for v in range(3, 11)), ("almost_complete:10", 2), ("cycle:5", 11)],
)
def test_partition_counts(motif, partitions):
    assert sum(1 for _ in homs._partitions(motif_from_string(motif))) == partitions


def test_isomorphic_quotients_are_merged():
    # C5's eleven partitions give C5 itself, five triangles with a pendant
    # (one pair merged) and five triangles (two pairs merged)
    quotients = homs._quotients(motif_from_string("cycle:5"))
    assert [(q.vertex_count, q.coef) for q in quotients] == [(5, 1), (4, -5), (3, 5)]


def test_quotients_beyond_the_relabelling_cap_count_alike(monkeypatch):
    # one quotient of the 8-vertex path has more degree-class relabellings
    # than _canonical tries, so it is kept by its own sorted edges, unmerged;
    # the counts are the search's all the same
    m = motif_from_string("tree_path:8")
    calls = {"canonical": 0, "product": 0}
    canonical, product = homs._canonical, itertools.product

    def counted(name, f):
        def spy(*args):
            calls[name] += 1
            return f(*args)

        return spy

    spied = types.SimpleNamespace(**vars(itertools))
    spied.product = counted("product", product)
    monkeypatch.setattr(homs, "itertools", spied)
    monkeypatch.setattr(homs, "_canonical", counted("canonical", canonical))
    monkeypatch.setattr(homs, "_listed_quotients", {})
    homs._run.cache_clear()
    try:
        batch = [sample_sbm(erdos_renyi(0.6), 11, seed=s) for s in range(3)]
        search, hom = both_paths(batch, m)
    finally:
        homs._run.cache_clear()
    # every relabelling search but one ran
    assert calls["canonical"] - calls["product"] == 1
    assert search == hom and min(search) > 0


def test_inversion_sum_alone_refuses_two_triangles():
    # at n = 1500 the floats hold every factor (n^4 <= 2^53) and no factor
    # spans more than two indices, so the dense arrays of a graph take
    # 2.25 times those at n = 1000, where three graphs fit the budget; but
    # the motif's own term, n^6, passes 2^63
    m = motif_from_edge_list([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    run = homs._run(m, 1000)
    assert run is not None and run.dtype is np.float64 and run.graphs >= 3
    quotients = run.quotients
    assert 1500 ** max(q.bound for q in quotients) <= 2**53
    assert max(d for q in quotients for held in q.live for d in held) <= 2
    assert sum(abs(q.coef) * 1000**q.vertex_count for q in quotients) < 2**63
    assert sum(abs(q.coef) * 1500**q.vertex_count for q in quotients) >= 2**63
    assert homs._run(m, 1500) is None


def test_homs_imports_no_model_bound_or_counting_module():
    # the elimination serves mu and the counter alike, so it depends on
    # neither, nor on what samples or runs them
    tree = ast.parse(Path(homs.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {"." * node.level + (node.module or a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    for name in ("bounds", "models", "counting", "simulate"):
        assert not {f".{name}", f"motif_poisson.{name}"} & imported, name


def stack(graphs) -> np.ndarray:
    return np.concatenate([g.adjacency for g in graphs])


def both_paths(graphs, m) -> tuple[list[int], list[int]]:
    """The copies in each graph of one size by the search and by the
    homomorphism counts, each over the stacked rows."""
    rows, n = stack(graphs), graphs[0].n
    words, degrees = counting._row_words(scanned(rows, n))
    search = counting._search_rows(rows, n, len(graphs), m, words, degrees)
    run = homs._run(m, n)
    return search.tolist(), homs.count_rows(rows, n, len(graphs), m, run).tolist()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    edges=st.sets(
        st.sampled_from(list(itertools.combinations(range(6), 2))),
        min_size=2,
        max_size=15,
    ),
    size=st.floats(min_value=0.0, max_value=1.0),
    p=st.sampled_from([0.1, 0.3, 0.6, 0.9]),
    graphs=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_search_equals_homs_and_oracle_property(edges, size, p, graphs, seed):
    # six labels, so disconnected motifs are drawn too; n runs up to 40,
    # less where either path would take long: the homomorphism counts by
    # their planned cost, the search by its expected frontier
    m = motif_from_edge_list(sorted(edges))
    v = m.vertex_count

    def quick(n: int) -> bool:
        levels = enumerate(counting._search_plan(m).levels)
        frontier = sum(falling(n, k) * p**e / hook for k, (e, hook, _) in levels)
        planned = sum(homs._ns(q, n, 1) for q in homs._quotients(m))
        return frontier < 10**5 and planned < 10**7

    top = max([v] + [n for n in range(v, 41) if quick(n)])
    n = v + round(size * (top - v))
    batch = [sample_sbm(erdos_renyi(p), n, substream_seed(seed, i)) for i in range(graphs)]
    search, hom = both_paths(batch, m)
    assert search == hom
    try:
        oracle = [count_copies_bruteforce(g, m) for g in batch]
    except GraphTooLargeForOracle:
        return
    assert search == oracle


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5)],
        [(0, 1), (1, 2), (1, 4), (2, 3), (3, 4), (3, 5)],
        [(0, 1), (0, 3), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)],
    ],
)
def test_products_keep_their_orientation(edges):
    # these eliminations multiply factors that are not symmetric, so a
    # product whose indices were recorded the other way round, or an
    # operand transposed where it should not be, would give other counts
    m = motif_from_edge_list(edges)
    batch = [sample_sbm(erdos_renyi(0.4), 10, seed=s) for s in range(3)]
    search, hom = both_paths(batch, m)
    assert search == hom == [count_copies_bruteforce(g, m) for g in batch]


def test_sparse_batches_list_no_quotients(monkeypatch):
    # in ER(1.5/60), as in the ensemble plans, C10's own elimination
    # already costs more than the search, so its 17,722 partitions are
    # never listed
    def listed(m):
        raise AssertionError("quotients listed")

    monkeypatch.setattr(homs, "_quotients", listed)
    m = motif_from_string("cycle:10")
    batch = next(models.sample_batches(erdos_renyi(1.5 / 60), 60, range(20)))
    counting._count_rows(batch, m)


def test_quotient_listing_is_priced(monkeypatch):
    # C10 in ER(0.5) at n = 12: its own elimination (0.1 ms) is planned far
    # below the search (16 ms), but listing its 17,722 partitions takes
    # seconds; priced, it keeps the batch on the search, counted as the
    # quotients counted it (the graphs of sampler version 4)
    m, n, graphs = motif_from_string("cycle:10"), 12, 3
    monkeypatch.setattr(homs, "_listed_quotients", {})
    batch = next(models.sample_batches(erdos_renyi(0.5), n, range(1, graphs + 1)))
    own = graphs * n * n * homs._DENSE_NS + homs._ns(homs._own(m), n, graphs)
    start = time.perf_counter()
    assert homs.plan_within(m, n, graphs, own + homs._listing_ns(m) / 2) is None
    counts = counting._count_rows(batch, m)
    assert time.perf_counter() - start < 0.5
    assert counts.tolist() == [8589, 2782, 5677] and not homs._listed_quotients
    assert homs.plan_within(m, n, graphs, own) is None
    assert homs._listing_ns(m) == 17721 * 720 * homs._RELABEL_NS


@pytest.mark.parametrize("motif", ["cycle:5", "tree_path:4", "almost_complete:4"])
def test_hom_batch_keeps_to_the_byte_budget(motif, monkeypatch):
    # a budget of 256 KiB holds the dense arrays of a few 60-vertex graphs
    # at a time, so the batch is counted in several sub-batches
    m, n, budget = motif_from_string(motif), 60, 2**18
    batch = [sample_sbm(erdos_renyi(0.2), n, seed=s) for s in range(40)]
    rows = stack(batch)
    monkeypatch.setattr(homs, "_DENSE_BYTES", budget)
    homs._run.cache_clear()
    try:
        run = homs._run(m, n)
        assert 1 < run.graphs < len(batch) // 3
        homs.count_rows(rows[: n * run.graphs], n, run.graphs, m, run)  # warm-up
        tracemalloc.start()
        try:
            got = homs.count_rows(rows, n, len(batch), m, run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        homs._run.cache_clear()
    # beyond the budget, which covers the arrays, NumPy's iterators buffer
    # up to 8192 elements an operand, four operands at most here
    assert peak <= budget + 4 * 8192 * 4 + 2**12
    words, degrees = counting._row_words(scanned(rows, n))
    assert got.tolist() == counting._search_rows(rows, n, len(batch), m, words, degrees).tolist()


@pytest.mark.parametrize("motif, singles", [("tree_path:5", 14), ("almost_complete:5", 0)])
@pytest.mark.parametrize("n, dtype", [(64, np.float32), (65, np.float64)])
def test_counts_exact_on_both_sides_of_the_float32_bound(motif, singles, n, dtype):
    # factors up to n^4: float32 holds them up to n = 64, where n^4 = 2^24;
    # in a dense batch the partial sums of each step, the einsums on one
    # factor among them, come near that bound and stay exact in any order
    m = motif_from_string(motif)
    run = homs._run(m, n)
    assert run.dtype is dtype and max(q.bound for q in run.quotients) == 4
    steps = [s for q in run.quotients for s in q.steps if s.kind == homs._EINSUM]
    assert sum(len(s.used) == 1 for s in steps) == singles
    batch = [sample_sbm(erdos_renyi(0.9), n, seed=s) for s in range(2)]
    search, hom = both_paths(batch, m)
    assert search == hom


def test_exactness_and_budget_limit_the_run():
    c5, k3 = motif_from_string("cycle:5"), motif_from_string("complete:3")
    # factors up to n^4: float32 holds them at n = 40, float64 at n = 2000
    assert homs._run(c5, 40).dtype is np.float32
    assert homs._run(c5, 2000).dtype is np.float64
    # a 7-vertex path's vectors count walks of up to 6 vertices, at most
    # n^6, which passes 2^53 between n = 450 and 460; its homomorphisms,
    # at most n^7, stay below 2^63 there
    p7 = builtin_motif("tree_path", 7)
    assert homs._run(p7, 450).dtype is np.float64
    assert homs._run(p7, 460) is None
    # two 64 MB float32 matrices for K3 at n = 4000 pass the byte budget
    assert homs._run(k3, 2000) is not None
    assert homs._run(k3, 4000) is None


def chosen(model, n: int, motif: str, graphs: int) -> str:
    """The path that a sampled batch of the plan takes."""
    m = motif_from_string(motif)
    batch = next(models.sample_batches(model, n, range(1, graphs + 1)))
    graphs, w = batch.graphs, batch.rows.shape[1]
    words, degrees = counting._row_words(batch)
    limit = counting._search_ns(m, n, graphs, w, words, degrees)
    return "hom" if homs.plan_within(m, n, graphs, limit) else "search"


def piecewise(low: float, high: float) -> GraphonSpec:
    return GraphonSpec(
        family="piecewise_constant",
        breakpoints=(0.0, 0.5, 1.0),
        values=((high, low), (low, high)),
    )


@pytest.mark.parametrize(
    "model, n, motif, graphs, path",
    [
        # the ensemble plans: sparse, a few copies a graph
        (
            SbmParams(2, (0.5, 0.5), ((0.0277, 0.01385), (0.01385, 0.0277))),
            100,
            "complete:3",
            1000,
            "search",
        ),
        (piecewise(0.005, 0.02), 120, "complete:3", 1000, "search"),
        (erdos_renyi(1.5 / 60), 60, "cycle:4", 1000, "search"),
        # the dense counts: K4's elimination sums n^4 terms a graph, C5's
        # takes three small products
        (erdos_renyi(0.3), 60, "complete:4", 50, "search"),
        (erdos_renyi(0.12), 40, "cycle:5", 50, "hom"),
        # the large-n plans: one triangle or so a graph
        (erdos_renyi(2 / 4000), 4000, "complete:3", 1, "search"),
        (piecewise(1 / 4000, 3 / 4000), 4000, "complete:3", 1, "search"),
        # dense, but its matrices pass the byte budget
        (erdos_renyi(0.5), 4000, "complete:3", 1, "search"),
    ],
)
def test_chosen_path(model, n, motif, graphs, path):
    assert chosen(model, n, motif, graphs) == path


def contract_by_einsums(weights, mat, vertex_count, edges) -> float:
    """mu's contraction as one einsum a step on :func:`homs._plan`, the
    reference whose bits ``homs._contract`` keeps."""
    factors, scalars = [(mat, e) for e in edges], []
    for u, took, out in homs._plan(vertex_count, edges):
        operands = [weights, (u,), *(x for i in took for x in factors[i])]
        factors = [f for i, f in enumerate(factors) if i not in took]
        value = np.einsum(*operands, out)
        if out:
            factors.append((value, out))
        else:
            scalars.append(float(value))
    return math.prod(scalars)


@st.composite
def class_graphs(draw):
    """Class weights and a symmetric matrix over them: a block model's
    proportions and edge probabilities, Q in 1..6, or a smooth graphon at
    its 1..5 Gauss-Legendre nodes and weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        q = draw(st.integers(1, 6))
        f = rng.random(q) + 0.05
        raw = np.triu(rng.random((q, q)))
        return f / f.sum(), raw + np.triu(raw, 1).T
    x, weights = bounds._legendre(draw(st.integers(1, 5)))
    spec = GraphonSpec(draw(st.sampled_from(["product", "affine_mean"])), rng.uniform(0.1, 1.0))
    return weights, spec.evaluate(x[:, None], x[None, :])


@st.composite
def small_motifs(draw):
    """Motifs of up to 7 vertices: each pair of K_v an edge with a drawn
    chance, renumbered densely, or a path where fewer than two are."""
    v = draw(st.integers(3, 7))
    share = draw(st.sampled_from([0.3, 0.6, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [p for p in itertools.combinations(range(v), 2) if rng.random() < share]
    return motif_from_edge_list(pairs if len(pairs) > 1 else [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "wide_terms, slice_terms",
    [
        (homs._WIDE_TERMS, homs._SLICE_TERMS),
        # every step on three factors or more broadcast, whole or in slices
        # that cut runs across 1-3 leading output axes
        (0, homs._SLICE_TERMS),
        (0, 1000),
    ],
    ids=["as_set", "broadcast", "sliced"],
)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(m=small_motifs(), graph=class_graphs())
def test_contract_keeps_the_bits_of_one_einsum_a_step(wide_terms, slice_terms, m, graph):
    weights, mat = graph
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homs, "_WIDE_TERMS", wide_terms)
        patch.setattr(homs, "_SLICE_TERMS", slice_terms)
        got = homs._contract(weights, mat, m.vertex_count, m.edges)
    assert got.hex() == contract_by_einsums(weights, mat, m.vertex_count, m.edges).hex()


def test_wide_step_temporaries_keep_to_the_slice_budget(monkeypatch):
    # K6's first step on 10 classes sums 10^6 terms into 10^5 values; its
    # products, formed 2^12 terms (32 KiB) at a time, keep the peak within
    # a few slices of the output, where all of them at once take 8 MB
    monkeypatch.setattr(homs, "_SLICE_TERMS", 1 << 12)
    q, out = 10, (1, 2, 3, 4, 5)
    weights, mat = np.full(q, 0.1), np.full((q, q), 0.5)
    tracemalloc.start()
    try:
        value = homs._wide(weights, 0, [(mat, (0, w)) for w in out], out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(value, 0.5**5)
    assert peak < value.nbytes + 8 * 8 * (1 << 12), peak

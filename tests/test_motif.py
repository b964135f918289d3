"""Motif construction, invariants and exact statistics."""

import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motif_poisson import (
    DuplicateEdge,
    EmptyEdgeSet,
    InvalidMotifError,
    IsolatedVertex,
    Motif,
    SelfLoop,
    SingleEdge,
    TooLarge,
    automorphism_count,
    builtin_motif,
    compute_stats,
    count_copies,
    count_copies_bruteforce,
    erdos_renyi,
    motif_from_edge_list,
    motif_from_string,
    motif_from_text,
    sample_sbm,
)
from motif_poisson.cli import main
from motif_poisson.motif import (
    BUILTIN_FAMILIES,
    _stabiliser_chain,
    _subgraph_minima_by_vertex_sets,
    stabiliser_orbits,
    stats_to_dict,
)

from conftest import (
    automorphisms_oracle,
    random_motif,
    subgraph_minima_oracle,
    subgraph_minima_reference,
)

F = Fraction


def labelled_motifs(v_max: int):
    """Every labelled motif on 3..v_max vertices: each edge subset of K_v
    with at least two edges and no isolated vertex."""
    for v in range(3, v_max + 1):
        pairs = list(itertools.combinations(range(v), 2))
        for r in range(2, len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                if len({x for e in edges for x in e}) == v:
                    yield motif_from_edge_list(edges)


class TestConstruction:
    def test_path_three(self):
        m = motif_from_edge_list([(0, 1), (1, 2)])
        assert m.vertex_count == 3
        assert m.edges == ((0, 1), (1, 2))

    def test_triangle(self):
        m = motif_from_edge_list([(0, 1), (0, 2), (1, 2)])
        assert (m.vertex_count, m.edge_count) == (3, 3)

    def test_single_edge_rejected(self):
        with pytest.raises(SingleEdge):
            motif_from_edge_list([(0, 1)])

    def test_empty_rejected(self):
        with pytest.raises(EmptyEdgeSet):
            motif_from_edge_list([])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            motif_from_edge_list([(0, 0), (0, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdge):
            motif_from_edge_list([(0, 1), (1, 0)])

    def test_isolated_vertex_via_explicit_count(self):
        with pytest.raises(IsolatedVertex):
            Motif(4, ((0, 1), (1, 2)))

    def test_too_large(self):
        with pytest.raises(TooLarge):
            motif_from_edge_list([(i, i + 1) for i in range(11)])

    def test_dense_renumbering(self):
        m = motif_from_edge_list([(10, 20), (20, 30)])
        assert m == motif_from_edge_list([(0, 1), (1, 2)])

    def test_canonical_edge_storage(self):
        m = motif_from_edge_list([(2, 1), (1, 0)])
        assert m.edges == ((0, 1), (1, 2))
        assert Motif(3, ((1, 0), (2, 1))) == builtin_motif("tree_path", 3)

    @pytest.mark.parametrize(
        "edges, error, message",
        [
            (((0, 1), (1, 1), (1, 2)), SelfLoop, "self-loop at vertex 1"),
            (((0, 1), (0, 1), (1, 2)), DuplicateEdge, r"edge \(0, 1\) listed twice"),
            (((0, 1), (1, 5)), InvalidMotifError, r"vertex 5 outside 0\.\.2"),
        ],
    )
    def test_constructor_checks_itself(self, edges, error, message):
        # built directly, these once counted 60 and 120 copies in K_6 and
        # raised an IndexError
        with pytest.raises(error, match=message):
            Motif(3, edges)

    @pytest.mark.parametrize(
        "v, edges",
        [
            (True, ((0, 1), (1, 2))),
            (3.0, ((0, 1), (1, 2))),
            ("3", ((0, 1), (1, 2))),
            (3, ((0, 1), (1, 2.0))),
            (3, ((0, True), (1, 2))),
            (3, ((0, 1), (1, "2"))),
            (3, ((0, 1), (0, 1, 2))),
            (3, ((0, 1), 2)),
        ],
    )
    def test_labels_must_be_integers(self, v, edges):
        with pytest.raises(InvalidMotifError):
            Motif(v, edges)

    def test_numpy_integers_accepted(self):
        m = Motif(np.int64(3), ((np.int32(1), np.int64(0)), (2, np.uint8(1))))
        assert m == builtin_motif("tree_path", 3)
        assert all(type(x) is int for e in m.edges for x in (m.vertex_count, *e))


@st.composite
def vertex_pairs(draw):
    """A vertex count ``v`` and an edge set on ``0..v-1``, each pair in
    either order, with at most one flaw added: a self-loop, a repeated
    pair, an endpoint at -1 or ``v``, or one vertex more than the labels
    (an isolated vertex).  Sparse draws also leave vertices isolated."""
    v = draw(st.integers(min_value=2, max_value=6))
    pairs = list(itertools.combinations(range(v), 2))
    edges = [draw(st.sampled_from([e, e[::-1]])) for e in pairs if draw(st.booleans())]
    vertex = st.integers(min_value=0, max_value=v - 1)
    flaw = draw(st.sampled_from(["none", "loop", "repeat", "outside", "isolated"]))
    if flaw == "loop":
        x = draw(vertex)
        edges.append((x, x))
    elif flaw == "repeat" and edges:
        edges.append(draw(st.sampled_from(edges))[::-1])
    elif flaw == "outside":
        edges.append((draw(vertex), draw(st.sampled_from([-1, v]))))
    elif flaw == "isolated":
        v += 1
    return v, draw(st.permutations(edges))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    drawn=vertex_pairs(),
    n=st.integers(min_value=6, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_constructor_refuses_or_builds_a_countable_motif(drawn, n, seed):
    v, edges = drawn
    try:
        m = Motif(v, edges)
    except InvalidMotifError:
        return
    assert m == motif_from_edge_list(edges)
    g = sample_sbm(erdos_renyi(0.5), n, seed)
    assert count_copies(g, m) == count_copies_bruteforce(g, m)


class TestBuiltins:
    def test_cycle3_equals_triangle(self):
        assert builtin_motif("cycle", 3) == builtin_motif("complete", 3)

    def test_complete4(self):
        m = builtin_motif("complete", 4)
        assert (m.vertex_count, m.edge_count) == (4, 6)

    def test_almost_complete4(self):
        m = builtin_motif("almost_complete", 4)
        assert (m.vertex_count, m.edge_count) == (4, 5)

    def test_almost_complete3_is_path(self):
        assert builtin_motif("almost_complete", 3) == builtin_motif("tree_path", 3)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            builtin_motif("cycle", 11)

    def test_small_v_rejected(self):
        with pytest.raises(ValueError):
            builtin_motif("cycle", 2)

    def test_from_string(self):
        assert motif_from_string("cycle:5").edge_count == 5
        assert motif_from_string("tree:4") == builtin_motif("tree_path", 4)
        with pytest.raises(ValueError):
            motif_from_string("pentagon:5")

    def test_from_text(self):
        m = motif_from_text("# a triangle\n0 1\n1 2 # last\n0 2\n")
        assert m == builtin_motif("complete", 3)

    def test_negative_label_file_exits_2(self, capsys, tmp_path):
        # motif and graph files share one line parser and its message
        path = tmp_path / "motif.txt"
        path.write_text("0 1\n-1 2\n")
        assert main(["motif", str(path)]) == 2
        assert "bad edge line: '-1 2'" in capsys.readouterr().err


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "family,v,expected",
        [
            ("complete", 3, 6),  # all 3! permutations
            ("tree_path", 3, 2),
            ("cycle", 4, 8),  # dihedral group; brute-force oracle agrees
            ("complete", 10, math.factorial(10)),
            ("almost_complete", 10, 2 * math.factorial(8)),
        ],
    )
    def test_known_groups(self, family, v, expected):
        assert automorphism_count(builtin_motif(family, v)) == expected

    @pytest.mark.parametrize(
        "edges,expected",
        [
            pytest.param(
                [(i, (i + 1) % 5) for i in range(5)]
                + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
                120,
                id="petersen",
            ),
            pytest.param(
                [(a, b) for a in range(3) for b in range(3, 6)], 72, id="k33"
            ),
            pytest.param(
                [(i, (i + 1) % 5) for i in range(5)]
                + [(5 + i, 5 + (i + 1) % 5) for i in range(5)],
                200,  # 10 * 10 within the cycles, times the component swap
                id="two_c5",
            ),
            pytest.param(
                [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 5)], 1, id="asymmetric"
            ),
        ],
    )
    def test_named_groups(self, edges, expected):
        m = motif_from_edge_list(edges)
        assert automorphism_count(m) == expected
        if m.vertex_count <= 6:  # the oracle lists all v! permutations
            assert automorphisms_oracle(m) == expected

    def test_every_labelled_motif_up_to_five_vertices(self):
        for m in labelled_motifs(5):
            assert automorphism_count(m) == automorphisms_oracle(m)

    def test_two_disjoint_edges(self):
        m = motif_from_edge_list([(0, 1), (2, 3)])
        assert automorphism_count(m) == automorphisms_oracle(m) == 8

    def test_against_oracle_random(self, rng):
        for _ in range(25):
            m = random_motif(rng, v_max=5)
            assert automorphism_count(m) == automorphisms_oracle(m)

    def test_rho_times_aut_is_factorial(self, rng):
        for _ in range(25):
            m = random_motif(rng, v_max=6)
            st_ = compute_stats(m)
            assert st_.automorphism_count * st_.rho == math.factorial(
                m.vertex_count
            )


def is_automorphism(m, p) -> bool:
    es = set(m.edges)
    return all(tuple(sorted((p[a], p[b]))) in es for a, b in m.edges)


class TestStabiliserOrbits:
    @staticmethod
    def motifs(rng):
        """Random motifs and every builtin, all of up to 7 vertices."""
        drawn = [random_motif(rng, v_max=7) for _ in range(40)]
        return drawn + [builtin_motif(f, v) for f in BUILTIN_FAMILIES for v in range(3, 8)]

    def test_orbits_match_permutation_enumeration(self, rng):
        for m in self.motifs(rng):
            v = m.vertex_count
            auts = [p for p in itertools.permutations(range(v)) if is_automorphism(m, p)]
            expected = tuple(
                sum(1 << w for w in {p[k] for p in auts if p[:k] == tuple(range(k))})
                for k in range(v)
            )
            orbits = stabiliser_orbits(m)
            assert orbits == expected
            assert math.prod(o.bit_count() for o in orbits) == len(auts)

    def test_each_search_is_for_a_vertex_not_yet_reached(self, rng):
        # an automorphism is kept only where a search found it, and a search
        # runs only for a w that the ones kept before it do not map k to:
        # each kept one moves k, its first moved vertex, out of their orbit
        for m in self.motifs(rng):
            _, kept = _stabiliser_chain(m)
            for i, g in enumerate(kept):
                assert is_automorphism(m, g)
                k = next(x for x in range(m.vertex_count) if g[x] != x)
                reached, todo = {k}, [k]
                while todo:
                    x = todo.pop()
                    new = {h[x] for h in kept[:i]} - reached
                    reached |= new
                    todo.extend(new)
                assert g[k] not in reached, (m, i)


class TestStats:
    def test_triangle(self):
        st_ = compute_stats(builtin_motif("complete", 3))
        assert (st_.density, st_.alpha, st_.gamma) == (F(1), F(2), F(1))
        assert st_.strictly_balanced

    def test_path(self):
        st_ = compute_stats(builtin_motif("tree_path", 3))
        assert (st_.density, st_.alpha, st_.gamma) == (F(2, 3), F(1), F(1, 3))

    def test_almost_complete_v3_gamma(self):
        assert compute_stats(builtin_motif("almost_complete", 3)).gamma == F(1, 3)

    def test_almost_complete_v4(self):
        # gamma is set by the triangle inside K_4 - e: 3 * (5/4 - 1) = 3/4
        m = builtin_motif("almost_complete", 4)
        st_ = compute_stats(m)
        assert (st_.density, st_.alpha, st_.gamma) == (F(5, 4), F(2), F(3, 4))
        assert (st_.alpha, st_.gamma) == subgraph_minima_oracle(m)
        assert st_.gamma_witness == ((0, 1), (0, 2), (1, 2))

    def test_kappa_formula(self, rng):
        for _ in range(20):
            m = random_motif(rng)
            st_ = compute_stats(m)
            v, e = m.vertex_count, m.edge_count
            for s in range(2, v):
                expected = max(
                    e - s * st_.density + st_.gamma, (v - s) * st_.alpha
                )
                assert st_.kappa[s] == expected

    def test_kappa_dominates_alpha_term(self, rng):
        # strictly balanced: kappa(s) >= (v-s) alpha > (v-s) d, exact
        for _ in range(40):
            m = random_motif(rng, v_max=6)
            st_ = compute_stats(m)
            if not st_.strictly_balanced:
                continue
            v = m.vertex_count
            for s in range(2, v):
                assert st_.kappa[s] >= (v - s) * st_.alpha
                assert (v - s) * st_.alpha > (v - s) * st_.density

    def test_against_direct_enumeration_oracle(self, rng):
        for _ in range(30):
            m = random_motif(rng, v_max=5)
            alpha, gamma = subgraph_minima_oracle(m)
            st_ = compute_stats(m)
            assert (st_.alpha, st_.gamma) == (alpha, gamma)

    def test_balance_flag_definitions_agree(self, rng):
        # strictly balanced <=> gamma > 0 <=> alpha > d, checked against the
        # direct d(H) < d(G) definition
        for _ in range(40):
            m = random_motif(rng, v_max=6)
            st_ = compute_stats(m)
            assert st_.strictly_balanced == (st_.gamma > 0) == (
                st_.alpha > st_.density
            )

    def test_direct_density_definition(self, rng):
        import itertools

        for _ in range(12):
            m = random_motif(rng, v_max=5)
            d = Fraction(m.edge_count, m.vertex_count)
            balanced = True
            for r in range(1, m.edge_count):
                for sub in itertools.combinations(m.edges, r):
                    vh = len({x for ed in sub for x in ed})
                    if Fraction(len(sub), vh) >= d:
                        balanced = False
            assert compute_stats(m).strictly_balanced == balanced

    def test_not_strictly_balanced_example(self):
        m = motif_from_edge_list([(0, 1), (2, 3)])
        st_ = compute_stats(m)
        assert st_.gamma == 0 and not st_.strictly_balanced

    def test_vertex_set_reduction_matches_oracle(self, rng):
        for _ in range(25):
            m = random_motif(rng, v_max=6)
            alpha, _, gamma, _ = _subgraph_minima_by_vertex_sets(m)
            assert (alpha, gamma) == subgraph_minima_oracle(m)

    def test_recurrence_matches_reference_on_every_small_motif(self):
        for m in labelled_motifs(5):
            assert _subgraph_minima_by_vertex_sets(m) == subgraph_minima_reference(m)

    def test_recurrence_matches_reference_on_random_and_builtin_motifs(self, rng):
        motifs = [random_motif(rng, v_max=10) for _ in range(200)]
        motifs += [
            builtin_motif(f, v) for f in BUILTIN_FAMILIES for v in range(3, 11)
        ]
        for m in motifs:
            assert _subgraph_minima_by_vertex_sets(m) == subgraph_minima_reference(m)

    def test_builtin_stats_pinned(self):
        # the CLI's rationals and witnesses for every builtin, as rendered
        # by the Fraction loop that the integer recurrence replaced
        rendered = [
            stats_to_dict(compute_stats(builtin_motif(f, v)))
            for f in BUILTIN_FAMILIES
            for v in range(3, 11)
        ]
        digest = hashlib.sha256(json.dumps(rendered, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "6f326894d3950cec7793c1020bb9ce952b380eb5258db4d261ddc2822e651d05"
        )

    def test_witnesses_attain_minima(self, rng):
        motifs = [random_motif(rng, v_max=6) for _ in range(40)]
        motifs += [builtin_motif(f, 10) for f in ("tree_path", "cycle", "complete")]
        for m in motifs:
            st_ = compute_stats(m)
            v, e = m.vertex_count, m.edge_count
            # an edge tuple has no isolated vertex: its vertices are endpoints
            for witness in (st_.alpha_witness, st_.gamma_witness):
                assert 0 < len(witness) < e and set(witness) <= set(m.edges)
            v_a = len({x for ed in st_.alpha_witness for x in ed})
            e_a = len(st_.alpha_witness)
            assert v_a < v and F(e - e_a, v - v_a) == st_.alpha
            v_g = len({x for ed in st_.gamma_witness for x in ed})
            assert st_.density * v_g - len(st_.gamma_witness) == st_.gamma

    def test_dense_fallback_closed_forms(self):
        # the densest builtins, pinned by closed forms
        st8 = compute_stats(builtin_motif("complete", 8))
        assert (st8.density, st8.alpha, st8.gamma) == (F(7, 2), F(9, 2), F(1))
        assert st8.automorphism_count == math.factorial(8)
        ac9 = compute_stats(builtin_motif("almost_complete", 9))
        assert (ac9.density, ac9.alpha, ac9.gamma) == (
            F(10 * 7, 18),
            F(81 - 9 - 4, 14),
            F(1),
        )
        assert ac9.automorphism_count == 2 * math.factorial(7)
        assert ac9.rho == math.comb(9, 2)  # one copy per choice of missing edge
        st10 = compute_stats(builtin_motif("complete", 10))
        assert (st10.density, st10.alpha, st10.gamma) == (F(9, 2), F(11, 2), F(1))
        assert st10.automorphism_count == math.factorial(10)

    @staticmethod
    def _label_free(stats):
        # everything except the labelling of the degree vector
        return (
            stats.density,
            stats.alpha,
            stats.gamma,
            stats.automorphism_count,
            stats.rho,
            stats.strictly_balanced,
            dict(stats.kappa),
            tuple(sorted(stats.degrees)),
        )

    def test_relabelling_invariance(self, rng):
        m = random_motif(rng, v_max=6)
        reference = self._label_free(compute_stats(m))
        for _ in range(20):
            perm = list(rng.permutation(m.vertex_count))
            assert self._label_free(compute_stats(m.relabelled(perm))) == reference

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_stats_relabel_property(self, seed):
        rng = np.random.default_rng(seed)
        m = random_motif(rng, v_max=5)
        perm = list(rng.permutation(m.vertex_count))
        assert self._label_free(
            compute_stats(m.relabelled(perm))
        ) == self._label_free(compute_stats(m))

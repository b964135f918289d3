"""Bound evaluation: frozen hand-computed cases, cross-variant identities
and the exact-rational rate exponents."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motif_poisson import (
    GraphonSpec,
    IncompleteNuTable,
    InvalidParams,
    NotStrictlyBalanced,
    NuTable,
    SbmParams,
    TooManyTerms,
    UnnormalizedHistogram,
    bound_graphon,
    bound_independent_edges,
    bound_nu,
    bound_sbm,
    bound_scaled,
    builtin_motif,
    compute_stats,
    erdos_renyi,
    graphon_to_sbm,
    lambda_value,
    motif_from_edge_list,
    motif_from_string,
    mu_graphon,
    mu_sbm,
    poisson_pmf,
    rate_exponent,
    tv_distance_empirical,
    tv_standard_error,
)
from motif_poisson import bounds

from conftest import poisson_tail, random_motif

F = Fraction
K3 = builtin_motif("complete", 3)
P3 = builtin_motif("tree_path", 3)
C4 = builtin_motif("cycle", 4)
NOT_BALANCED = motif_from_edge_list([(0, 1), (2, 3)])


def single_block(p: float) -> GraphonSpec:
    return GraphonSpec(
        family="piecewise_constant", breakpoints=(0.0, 1.0), values=((p,),)
    )


PINNED_MODELS = {
    "sbm2": SbmParams(2, (0.3, 0.7), ((0.5, 0.1), (0.1, 0.2))),
    "sbm3": SbmParams(
        3, (0.2, 0.3, 0.5), ((0.9, 0.5, 0.2), (0.5, 0.7, 0.3), (0.2, 0.3, 0.4))
    ),
    "product": GraphonSpec("product", 0.8),
    "affine_mean": GraphonSpec("affine_mean", 0.3),
    "piecewise": GraphonSpec(
        "piecewise_constant",
        breakpoints=(0.0, 0.5, 1.0),
        values=((0.02, 0.005), (0.005, 0.02)),
    ),
}
#: ``float.hex`` of mu_sbm or mu_graphon of each model and builtin motif
PINNED_MU = {
    "sbm2": {
        "tree_path:4": "0x1.af4adbc664d3ap-8",
        "cycle:5": "0x1.1525e14dfeb49p-12",
        "almost_complete:6": "0x1.8281a140b3fbbp-25",
        "complete:7": "0x1.cb212d05690f7p-34",
        "cycle:10": "0x1.1753c95c99faep-24",
        "complete:10": "0x1.8c469f1d8675cp-63",
    },
    "sbm3": {
        "tree_path:4": "0x1.fc95e83431600p-5",
        "cycle:5": "0x1.587d1dc5b541dp-7",
        "almost_complete:6": "0x1.95b99b31f33eap-15",
        "complete:7": "0x1.3d8c0fd164031p-19",
        "cycle:10": "0x1.cc74f58995e98p-14",
        "complete:10": "0x1.0a63459db8bb0p-30",
    },
    "product": {
        "tree_path:4": "0x1.d208a5a912e31p-7",
        "cycle:5": "0x1.617ec8bff60dbp-10",
        "almost_complete:6": "0x1.6c6150309e82ep-20",
        "complete:7": "0x1.80d0ef7ade8b3p-27",
        "cycle:10": "0x1.e81ee46b9ef47p-20",
        "complete:10": "0x1.39dae6f76d883p-48",
    },
    "affine_mean": {
        "tree_path:4": "0x1.020c49ba5e354p-8",
        "cycle:5": "0x1.ce4649906cca2p-14",
        "almost_complete:6": "0x1.d3087efc56fb2p-35",
        "complete:7": "0x1.16518bac4e90ep-50",
        "cycle:10": "0x1.a1614ac6ee538p-27",
        "complete:10": "0x1.da403cb1c7a0ap-103",
    },
    "piecewise": {
        "tree_path:4": "0x1.0624dd2f1a9fcp-19",
        "cycle:5": "0x1.69a2e109fe584p-32",
        "almost_complete:6": "0x1.00addb770c1d9p-84",
        "complete:7": "0x1.656dfa3b3133fp-125",
        "cycle:10": "0x1.ba76c7806f724p-64",
        "complete:10": "0x1.04c0245182773p-263",
    },
}


class TestMuSbm:
    def test_single_class_power(self):
        for p in (0.0, 0.2, 0.7, 1.0):
            assert mu_sbm(erdos_renyi(p), K3) == pytest.approx(p**3, rel=1e-14)

    def test_constant_matrix_collapses(self):
        params = SbmParams(2, (0.5, 0.5), ((0.2, 0.2), (0.2, 0.2)))
        assert mu_sbm(params, K3) == pytest.approx(0.008, rel=1e-13)

    def test_diagonal_blocks_hand_enumeration(self):
        # 8 class tuples; only the two monochromatic ones contribute:
        # 2 * (1/2)^3 * 0.2^3 = 0.002
        params = SbmParams(2, (0.5, 0.5), ((0.2, 0.0), (0.0, 0.2)))
        assert mu_sbm(params, K3) == pytest.approx(0.002, rel=1e-13)

    def test_term_budget(self):
        # the budget bounds each contraction step, not Q^v: a 9-cycle
        # (10^9 class tuples) contracts in small steps, while any path
        # through K_10 has a step summing 10^10 terms
        params = SbmParams(10, (0.1,) * 10, ((0.5,) * 10,) * 10)
        assert mu_sbm(params, builtin_motif("cycle", 9)) == pytest.approx(
            0.5**9, rel=1e-13
        )
        with pytest.raises(TooManyTerms):
            mu_sbm(params, builtin_motif("complete", 10))

    def test_budget_checked_before_any_contraction(self, monkeypatch):
        # the pendant vertex goes first and fits the budget; the K_9 step
        # after it sums 10^9 terms, so the plan is refused before einsum runs
        def no_einsum(*args, **kwargs):
            raise AssertionError("einsum ran before the budget check")

        monkeypatch.setattr(np, "einsum", no_einsum)
        k9 = builtin_motif("complete", 9)
        m = motif_from_edge_list(list(k9.edges) + [(0, 9)])
        params = SbmParams(10, (0.1,) * 10, ((0.5,) * 10,) * 10)
        # the plan is cached, and checked on each call: the second call is
        # refused too
        for _ in range(2):
            with pytest.raises(TooManyTerms):
                mu_sbm(params, m)

    @pytest.mark.parametrize("model", sorted(PINNED_MU))
    def test_mu_bits_pinned(self, model):
        # the elimination's einsum calls and the order in which its
        # components' scalars multiply fix every bit of mu
        f = mu_sbm if isinstance(PINNED_MODELS[model], SbmParams) else mu_graphon
        got = {
            spec: f(PINNED_MODELS[model], motif_from_string(spec)).hex()
            for spec in PINNED_MU[model]
        }
        assert got == PINNED_MU[model]

    def test_mu_at_most_one(self):
        # proportions may sum to 1 + 1e-12; with every probability 1 the
        # sum of the weights' products would pass 1, which no bound reads
        params = SbmParams(2, (0.5, 0.5 + 1e-13), ((1.0, 1.0), (1.0, 1.0)))
        assert sum(params.proportions) > 1.0
        assert mu_sbm(params, K3) == 1.0
        assert bound_sbm(params, K3, 10).lam == 120.0

    @staticmethod
    def _random_sbm(rng, q: int) -> SbmParams:
        raw = np.triu(rng.random((q, q)))
        pi = raw + np.triu(raw, 1).T
        f = rng.random(q) + 0.05
        f /= f.sum()
        return SbmParams(q, tuple(f), tuple(map(tuple, pi)))

    @staticmethod
    def _direct_mu(params: SbmParams, m) -> float:
        f, pi, q = params.proportions, params.edge_probs, params.class_count
        return math.fsum(
            math.prod(f[c] for c in cs)
            * math.prod(pi[cs[a]][cs[b]] for a, b in m.edges)
            for cs in itertools.product(range(q), repeat=m.vertex_count)
        )

    def test_matches_sum_over_class_tuples(self, rng):
        for _ in range(50):
            m = random_motif(rng, v_max=6)
            params = self._random_sbm(rng, int(rng.integers(1, 4)))
            assert mu_sbm(params, m) == pytest.approx(
                self._direct_mu(params, m), rel=1e-12
            )

    def test_one_plan_serves_every_parameter_set(self, rng):
        # the elimination plan depends on the motif and Q alone: two
        # parameter sets of equal Q run the same steps, and each gets its
        # own direct sum
        m = motif_from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        first, second = (self._random_sbm(rng, 3) for _ in range(2))
        for params in (first, second):
            assert mu_sbm(params, m) == pytest.approx(
                self._direct_mu(params, m), rel=1e-12
            )

    def test_mu_ceiling(self, rng):
        # mu never exceeds (max edge probability)^e
        for _ in range(100):
            m = random_motif(rng, v_max=5)
            q = int(rng.integers(1, 4))
            raw = rng.random((q, q))
            pi = tuple(
                tuple(float(raw[min(a, b), max(a, b)]) for b in range(q))
                for a in range(q)
            )
            f = rng.random(q) + 0.05
            f = tuple(float(x) for x in f / f.sum())
            params = SbmParams(q, f, pi)
            assert (
                mu_sbm(params, m)
                <= params.pi_star ** m.edge_count * (1 + 1e-12) + 1e-300
            )


class TestMuGraphon:
    def test_product_triangle(self):
        spec = GraphonSpec(family="product", scale=1.0)
        assert abs(mu_graphon(spec, K3) - 1 / 27) < 1e-6

    def test_product_path(self):
        # degrees 2,1,1: closed form 1/(3*2*2)
        spec = GraphonSpec(family="product", scale=1.0)
        assert abs(mu_graphon(spec, P3) - 1 / 12) < 1e-6

    def test_affine_closed_forms(self):
        # hand integration: E[(X+Y)(Y+Z)]/4 = 13/48 and
        # E[(X+Y)(Y+Z)(X+Z)]/8 = 5/32
        spec = GraphonSpec(family="affine_mean", scale=1.0)
        assert abs(mu_graphon(spec, P3) - 13 / 48) < 1e-6
        assert abs(mu_graphon(spec, K3) - 5 / 32) < 1e-6

    def test_piecewise_exact(self):
        p = 0.37
        assert mu_graphon(single_block(p), K3) == pytest.approx(
            p**3, rel=1e-15
        )

    def test_exact_closed_forms(self):
        # Gauss-Legendre at ceil((max degree + 1)/2) nodes integrates the
        # polynomial integrand exactly: product gives 1/prod(deg + 1)
        spec = GraphonSpec(family="product", scale=1.0)
        for fam, v in [("complete", 3), ("cycle", 4), ("complete", 4),
                       ("complete", 6), ("cycle", 7), ("complete", 10),
                       ("almost_complete", 10), ("tree_path", 10)]:
            m = builtin_motif(fam, v)
            exact = 1 / math.prod(d + 1 for d in m.degrees)
            assert mu_graphon(spec, m) == pytest.approx(exact, rel=1e-14)
        spec = GraphonSpec(family="affine_mean", scale=1.0)
        assert mu_graphon(spec, P3) == pytest.approx(13 / 48, rel=1e-14)
        assert mu_graphon(spec, K3) == pytest.approx(5 / 32, rel=1e-14)

    def test_five_vertex_bounds(self):
        # 64^5 midpoint-rule terms used to exceed the budget here
        spec = GraphonSpec(family="product", scale=0.5)
        for m, exact in [(builtin_motif("cycle", 5), 0.5**5 / 3**5),
                         (builtin_motif("complete", 5), 0.5**10 / 5**5)]:
            report = bound_graphon(spec, m, 200)
            assert report.mu == pytest.approx(exact, rel=1e-14)
            assert report.bound > 0


class TestLambda:
    def test_triangle_at_ten(self):
        assert lambda_value(K3, 10, 0.008) == pytest.approx(0.96, rel=1e-12)

    def test_zero_mu(self):
        assert lambda_value(K3, 50, 0.0) == 0.0

    def test_capacity_cross_check(self):
        # every pair present: the C(4, 3) positions times 3 paths on each
        assert lambda_value(P3, 4, 1.0) == pytest.approx(
            math.comb(4, 3) * 3, rel=1e-12
        )


class TestBoundSbm:
    def test_hand_assembled_triangle(self):
        # independent spreadsheet-style evaluation, n=100, p=0.01
        n, p = 100, 0.01
        lam = math.comb(n, 3) * 1 * p**3
        pair = 2 * (9 / 6) * n**2 * p**3
        same = p
        overlap = 3 * n * p**2  # kappa(K3, 2) = 2
        expected = -math.expm1(-lam) * 1 * (pair + same + overlap)
        report = bound_sbm(erdos_renyi(p), K3, n)
        assert report.bound == pytest.approx(expected, rel=1e-12)
        assert report.pair_term == pytest.approx(pair, rel=1e-12)
        assert report.same_position_term == same
        assert report.overlap_terms[2] == pytest.approx(overlap, rel=1e-12)
        assert report.lam == pytest.approx(lam, rel=1e-12)

    def test_zero_probability(self):
        report = bound_sbm(erdos_renyi(0.0), K3, 50)
        assert report.bound == 0.0 and report.lam == 0.0

    def test_requires_strict_balance(self):
        with pytest.raises(NotStrictlyBalanced):
            bound_sbm(erdos_renyi(0.1), NOT_BALANCED, 50)

    def test_monotone_in_each_entry(self):
        base = SbmParams(2, (0.5, 0.5), ((0.05, 0.02), (0.02, 0.04)))
        b0 = bound_sbm(base, K3, 200).bound
        for a, b in ((0, 0), (0, 1), (1, 1)):
            pi = [list(row) for row in base.edge_probs]
            pi[a][b] += 0.01
            pi[b][a] = pi[a][b]
            bumped = SbmParams(2, (0.5, 0.5), tuple(map(tuple, pi)))
            assert bound_sbm(bumped, K3, 200).bound >= b0

    def test_prefactor_never_exceeds_min_one_lambda(self, rng):
        for _ in range(20):
            p = float(rng.random() * 0.2)
            report = bound_sbm(erdos_renyi(p), K3, 80)
            assert report.prefactor <= min(1.0, report.lam) + 1e-15
            assert report.prefactor <= 1.0
            assert report.to_dict()["prefactor_used"] == "1-exp(-lambda)"

    @settings(derandomize=True, max_examples=300)
    @given(st.floats(min_value=0.0, max_value=1e300) | st.just(math.inf))
    @example(5e-324)
    @example(2.2250738585072014e-308)
    @example(1e-16)
    @example(1.0)
    @example(745.2)
    @example(1e300)
    def test_one_minus_exp_is_the_smaller_prefactor(self, lam):
        # 1 - e^-lam <= min(1, lam) for every lam >= 0, in floats too, so
        # the bound takes 1 - e^-lam alone
        assert -math.expm1(-lam) <= min(1.0, lam)

    def test_report_reassembles_from_own_terms(self, rng):
        # bound = prefactor * rho * factor * (pair + same + sum of overlaps)
        for _ in range(10):
            m = random_motif(rng, v_max=5)
            if not compute_stats(m).strictly_balanced:
                continue
            report = bound_sbm(erdos_renyi(0.04), m, 300)
            rebuilt = (
                report.prefactor
                * report.rho
                * report.dependence_factor
                * math.fsum(
                    [
                        report.pair_term,
                        report.same_position_term,
                        *report.overlap_terms.values(),
                    ]
                )
            )
            assert rebuilt == report.bound
            assert report.bound >= 0 and 0 <= report.mu <= 1

    def test_lambda_sandwich_under_critical_scaling(self, rng):
        # with every entry in [c n^{-1/d}, C n^{-1/d}] the expected count is
        # pinched between rho/v^v c^e and rho/v! C^e
        for _ in range(20):
            m = random_motif(rng, v_max=5)
            stats = compute_stats(m)
            if not stats.strictly_balanced:
                continue
            c = 0.2 + 0.8 * float(rng.random())
            C = c + float(rng.random())
            n = int(rng.integers(50, 5000))
            scale = float(n) ** (-1.0 / float(stats.density))
            if C * scale > 1.0:
                continue
            q = int(rng.integers(1, 4))
            raw = c * scale + (C - c) * scale * rng.random((q, q))
            pi = tuple(
                tuple(float(raw[min(a, b), max(a, b)]) for b in range(q))
                for a in range(q)
            )
            f = rng.random(q) + 0.1
            f = tuple(float(x) for x in f / f.sum())
            lam = lambda_value(m, n, mu_sbm(SbmParams(q, f, pi), m))
            v, e = m.vertex_count, m.edge_count
            lo = stats.rho / v**v * c**e
            hi = stats.rho / math.factorial(v) * C**e
            assert lo * (1 - 1e-9) <= lam <= hi * (1 + 1e-9)


class TestScaled:
    def test_triangle_envelopes(self):
        # c = C = 1: both envelopes reduce to 4/n
        for n in (100, 10_000):
            report = bound_scaled(K3, n, 1.0, 1.0)
            assert report.A == pytest.approx(4.0 / n, rel=1e-12)
            assert report.B == pytest.approx(4.0 / n, rel=1e-12)
            assert report.lambda_lower == pytest.approx(1 / 27, rel=1e-12)
            assert report.lambda_upper == pytest.approx(1 / 6, rel=1e-12)

    def test_decreasing_in_n(self):
        assert (
            bound_scaled(K3, 10**6, 0.5, 2.0).bound
            < bound_scaled(K3, 10**3, 0.5, 2.0).bound
        )

    def test_cycle_rate_one_decade(self):
        # four-cycle decays like 1/n: one decade in n is a factor ~10
        ratio = (
            bound_scaled(C4, 10**5, 1.0, 1.0).bound
            / bound_scaled(C4, 10**4, 1.0, 1.0).bound
        )
        assert abs(ratio - 0.1) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            bound_scaled(K3, 100, 2.0, 1.0)
        with pytest.raises(NotStrictlyBalanced):
            bound_scaled(NOT_BALANCED, 100, 1.0, 1.0)


class TestNuTable:
    def test_power_table_matches_constant_sbm(self):
        p, n = 0.03, 150
        table = NuTable.from_power(p, C4)
        via_nu = bound_nu(C4, n, 1, p**4, table)
        via_sbm = bound_sbm(erdos_renyi(p), C4, n)
        assert via_nu.bound == pytest.approx(via_sbm.bound, rel=1e-14)

    def test_all_ones_degenerate_ceiling(self):
        m = C4
        n, mu = 40, 0.01
        table = NuTable.from_power(1.0, m)
        report = bound_nu(m, n, 1, mu, table)
        lam = lambda_value(m, n, mu)
        v = 4
        expected = -math.expm1(-lam) * 3 * (
            2 * v**2 / math.factorial(v) * n ** (v - 1)
            + 1
            + sum(
                math.comb(v, s) * n ** (v - s) / math.factorial(v - s)
                for s in (2, 3)
            )
        )
        assert report.bound == pytest.approx(expected, rel=1e-12)

    def test_missing_entry(self):
        table = NuTable({(F(4), 4, 1): 0.1})
        with pytest.raises(IncompleteNuTable):
            bound_nu(C4, 100, 1, 0.001, table)

    def test_fractional_exponent_keys(self):
        # kappa can be a non-integer rational; the table is keyed exactly
        ac5 = builtin_motif("almost_complete", 5)
        stats = compute_stats(ac5)
        assert stats.kappa[3] == F(16, 3)  # (v-s) * alpha with alpha = 8/3
        triples = NuTable.required_triples(ac5)
        assert (F(16, 3), 9, 3) in triples

    def test_json_round_trip(self):
        table = NuTable.from_power(0.2, builtin_motif("tree_path", 4))
        again = NuTable.from_dict(table.to_dict())
        assert again == table

    def test_from_dict_refuses_unknown_keys(self):
        data = NuTable.from_power(0.2, builtin_motif("tree_path", 4)).to_dict()
        data["entries"][0]["vv"] = 3
        with pytest.raises(InvalidParams, match="nu-table row has unknown key 'vv'"):
            NuTable.from_dict(data)
        with pytest.raises(InvalidParams, match="nu-table has unknown key 'entry'"):
            NuTable.from_dict({"entry": []})

    def test_value_range(self):
        with pytest.raises(ValueError):
            NuTable({(F(1), 2, 1): 1.5})

    @pytest.mark.parametrize("k", [True, "1e9999999", 1.0, "1/0", None])
    def test_exponent_key_read_once(self, k):
        # Fraction("1e9999999") would first build a ten-million-digit integer
        start = time.perf_counter()
        with pytest.raises(InvalidParams, match="nu-table k"):
            NuTable({(k, 3, 1): 0.1})
        assert time.perf_counter() - start < 1.0

    def test_exponent_key_forms(self):
        table = NuTable({(F(16, 3), 9, 3): 0.1, (4, 4, 1): 0.2, ("5/2", 4, 2): 0.3})
        assert table.lookup(F(16, 3), 9, 3) == 0.1
        assert table.lookup(F(4), 4, 1) == 0.2
        assert table.lookup(F(5, 2), 4, 2) == 0.3

    @pytest.mark.parametrize("mu", [-1.0, math.nan, 5.0])
    def test_mu_outside_unit_interval_rejected(self, mu):
        table = NuTable.from_power(0.05, C4)
        with pytest.raises(ValueError, match="mu"):
            bound_nu(C4, 100, 1, mu, table)


class TestConsistencyWeb:
    def test_four_paths_agree(self, rng):
        # constant-p block model, the independent-edge form, the table form
        # and the graphon form are one formula
        for _ in range(10):
            m = random_motif(rng, v_max=5)
            stats = compute_stats(m)
            if not stats.strictly_balanced:
                continue
            p = float(0.01 + rng.random() * 0.3)
            n = int(rng.integers(m.vertex_count, 4000))
            via_sbm = bound_sbm(erdos_renyi(p), m, n)
            via_ind = bound_independent_edges(m, n, p)
            via_nu = bound_nu(m, n, 1, p**m.edge_count, NuTable.from_power(p, m))
            assert via_ind.bound == pytest.approx(via_sbm.bound, rel=1e-12)
            assert via_nu.bound == pytest.approx(via_sbm.bound, rel=1e-12)
            via_graphon = bound_graphon(single_block(p), m, n)
            assert via_graphon.bound == pytest.approx(2 * via_sbm.bound, rel=1e-12)
            assert via_graphon.lam == pytest.approx(via_sbm.lam, rel=1e-12)

    def test_independent_via_nu_identity(self):
        p, n = 0.07, 500
        a = bound_independent_edges(C4, n, p)
        b = bound_nu(C4, n, 1, p**4, NuTable.from_power(p, C4))
        assert a.bound == pytest.approx(b.bound, rel=1e-15)

    def test_graphon_equals_nu_with_width_two(self):
        spec = GraphonSpec(family="product", scale=0.4)
        n = 300
        mu = mu_graphon(spec, K3)
        direct = bound_graphon(spec, K3, n)
        via_nu = bound_nu(K3, n, 2, mu, NuTable.from_power(0.4, K3))
        assert direct.bound == pytest.approx(via_nu.bound, rel=1e-14)

    def test_piecewise_lambda_equals_converted_sbm(self):
        spec = GraphonSpec(
            family="piecewise_constant",
            breakpoints=(0.0, 0.4, 1.0),
            values=((0.05, 0.01), (0.01, 0.03)),
        )
        params = graphon_to_sbm(spec)
        n = 120
        lam_g = bound_graphon(spec, K3, n).lam
        lam_s = bound_sbm(params, K3, n).lam
        assert lam_g == pytest.approx(lam_s, rel=1e-12)


class TestBoundGraphon:
    def test_zero_surface(self):
        report = bound_graphon(single_block(0.0), K3, 60)
        assert report.bound == 0.0

    def test_unscaled_product_is_vacuous(self):
        # h* = 1 makes the bound grow with n; the report flags it
        report = bound_graphon(GraphonSpec(family="product", scale=1.0), K3, 50)
        assert report.bound > 1.0 and report.vacuous

    def test_requires_strict_balance(self):
        with pytest.raises(NotStrictlyBalanced):
            bound_graphon(single_block(0.1), NOT_BALANCED, 50)


def test_balance_is_checked_before_mu(monkeypatch):
    # run() evaluates mu itself after NotStrictlyBalanced, so a bound that
    # evaluated it first would make it twice
    def refuse(*args):
        raise AssertionError("mu evaluated before the balance check")

    monkeypatch.setattr(bounds, "mu_sbm", refuse)
    monkeypatch.setattr(bounds, "mu_graphon", refuse)
    with pytest.raises(NotStrictlyBalanced):
        bound_sbm(erdos_renyi(0.1), NOT_BALANCED, 50)
    for spec in (single_block(0.1), GraphonSpec(family="product", scale=0.5)):
        with pytest.raises(NotStrictlyBalanced):
            bound_graphon(spec, NOT_BALANCED, 50)


class TestIndependentEdges:
    def test_zero(self):
        assert bound_independent_edges(K3, 100, 0.0).bound == 0.0

    def test_range(self):
        with pytest.raises(ValueError):
            bound_independent_edges(K3, 100, 1.5)


class TestRateExponent:
    @pytest.mark.parametrize("v", range(3, 8))
    def test_cycle_is_one(self, v):
        assert rate_exponent(builtin_motif("cycle", v)) == F(1)

    @pytest.mark.parametrize("v", range(3, 8))
    def test_tree(self, v):
        assert rate_exponent(builtin_motif("tree_path", v)) == F(1, v - 1)

    @pytest.mark.parametrize("v", range(3, 8))
    def test_complete(self, v):
        assert rate_exponent(builtin_motif("complete", v)) == F(2, v - 1)

    @pytest.mark.parametrize("v", range(3, 8))
    def test_almost_complete(self, v):
        # gamma / d: 1/3 over 2/3 at v=3, the triangle's 3/4 over 5/4 at
        # v=4, then gamma = 1 over d = (v+1)(v-2)/(2v)
        if v == 3:
            want = F(1, 2)
        elif v == 4:
            want = F(3, 5)
        else:
            want = F(2 * v, (v + 1) * (v - 2))
        assert rate_exponent(builtin_motif("almost_complete", v)) == want

    def test_requires_strict_balance(self):
        with pytest.raises(NotStrictlyBalanced):
            rate_exponent(NOT_BALANCED)

    @pytest.mark.parametrize(
        "motif",
        [
            K3,
            builtin_motif("tree_path", 4),
            builtin_motif("cycle", 5),
            builtin_motif("almost_complete", 4),
        ],
        ids=["K3", "tree4", "cycle5", "almost_complete4"],
    )
    def test_matches_numerical_slope(self, motif):
        stats = compute_stats(motif)
        d = float(stats.density)

        def bound_at(n):
            return bound_sbm(erdos_renyi(float(n) ** (-1.0 / d)), motif, n).bound

        slope = math.log10(bound_at(10**6) / bound_at(10**7))
        assert abs(slope - float(rate_exponent(motif))) < 0.05


class TestPoissonUtilities:
    def test_pmf_at_zero(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    def test_pmf_closed_form(self):
        assert poisson_pmf(1.0, 1) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_normalisation(self):
        total = math.fsum(poisson_pmf(5.0, k) for k in range(201))
        assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_rate_must_be_finite_and_not_negative(self, lam):
        # NaN passed a lam < 0 check, and NaN or inf gave NaN back
        hist = {0: 0.5, 1: 0.5}
        for call in (
            lambda: poisson_pmf(lam, 1),
            lambda: tv_distance_empirical(hist, lam),
            lambda: tv_standard_error(hist, 100, lam, seed=7),
            lambda: tv_standard_error(hist, 1, lam, seed=7),
        ):
            with pytest.raises(InvalidParams, match="must be finite and >= 0"):
                call()

    @pytest.mark.parametrize("lam", [True, False, "1.5", "1", None, np.float32(1.0)])
    def test_rate_must_be_a_number(self, lam):
        # True read as 1 and a string raised a bare TypeError; a float32 is
        # refused as everywhere a real number is read
        hist = {0: 0.5, 1: 0.5}
        for call in (
            lambda: poisson_pmf(lam, 1),
            lambda: tv_distance_empirical({0: 1.0}, lam),
            lambda: tv_standard_error(hist, 10, lam, seed=3),
            lambda: tv_standard_error(hist, 1, lam, seed=3),
        ):
            with pytest.raises(InvalidParams, match="lam must be a number"):
                call()


class TestTvDistance:
    def test_exact_pmf_is_zero(self):
        lam = 2.5
        hist = {k: poisson_pmf(lam, k) for k in range(80)}
        hist[0] += 1.0 - sum(hist.values())  # absorb truncation remainder
        assert tv_distance_empirical(hist, lam) < 1e-9

    def test_point_mass_at_zero(self):
        for lam in (0.3, 1.0, 4.0):
            assert tv_distance_empirical({0: 1.0}, lam) == pytest.approx(
                -math.expm1(-lam), abs=1e-12
            )

    def test_matches_direct_half_l1(self):
        # histogram = a different Poisson law, truncated far out; the second
        # case puts the whole histogram mass far from k = 0
        for lam_hist, lam_ref, support, cutoff in (
            (2.0, 3.5, 60, 400),
            (480.0, 500.0, 1000, 1400),
        ):
            hist = {k: poisson_pmf(lam_hist, k) for k in range(support)}
            hist[0] += 1.0 - math.fsum(hist.values())
            direct = 0.5 * (
                math.fsum(
                    abs(hist.get(k, 0.0) - poisson_pmf(lam_ref, k))
                    for k in range(cutoff)
                )
                + poisson_tail(lam_ref, cutoff - 1)
            )
            assert tv_distance_empirical(hist, lam_ref) == pytest.approx(
                direct, abs=1e-12
            )

    def test_unnormalised_rejected(self):
        with pytest.raises(UnnormalizedHistogram):
            tv_distance_empirical({0: 0.5, 1: 0.4}, 1.0)

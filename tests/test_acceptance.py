"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them).

Criteria 1 and 2 hold hand-written closed forms for the builtin families.
The almost-complete entries (K_v minus one edge) differ from the published
table, which gives them the complete graph's gamma = 1 and exponent
2/(v-1).  Both follow here from the definitions instead.  At v=4 the
triangle inside K_4 - e has gamma-term 3 * (5/4 - 1) = 3/4 < 1.  The
block-model bound decays at gamma/d under critical scaling, as it does for
every other family in the table, which gives 3/5 at v=4 and
2v/((v+1)(v-2)) at v>=5 rather than 2/(v-1).
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from motif_poisson import (
    GraphonSpec,
    NuTable,
    SbmParams,
    SimulationPlan,
    bound_graphon,
    bound_independent_edges,
    bound_nu,
    bound_sbm,
    builtin_motif,
    compute_stats,
    copy_indicators,
    count_copies,
    count_copies_bruteforce,
    erdos_renyi,
    mu_graphon,
    rate_exponent,
    run,
    sample_graphon,
    sample_sbm,
    substream_seed,
)

from conftest import graph_from_edges, random_motif

F = Fraction
FAMILIES = ("tree_path", "cycle", "almost_complete", "complete")
V_RANGE = range(3, 8)


def _report(criterion: str, failures: list[str], elapsed: float, limit: float):
    ok = not failures and elapsed < limit
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion} ({elapsed:.2f}s)"
    if failures:
        line += f": {len(failures)} mismatch(es): " + "; ".join(failures)
    if elapsed >= limit:
        line += f": exceeded {limit:.0f}s runtime limit"
    print(line)
    assert ok, line


def closed_form_table(family: str, v: int) -> tuple[Fraction, Fraction, Fraction]:
    """The (d, alpha, gamma) closed forms."""
    if family == "tree_path":
        return F(v - 1, v), F(1), F(1, v)
    if family == "cycle":
        return F(1), F(v - 1, v - 2), F(1)
    if family == "almost_complete":
        # gamma = min over proper subgraphs H of v_H * (d - d_H),
        # with d = (v+1)(v-2)/(2v)
        if v == 3:
            # the path P_3: a single edge gives 2 * (2/3 - 1/2) = 1/3
            gamma = F(1, 3)
        elif v == 4:
            # the triangle inside K_4 - e: 3 * (5/4 - 1) = 3/4
            gamma = F(3, 4)
        else:
            # the spanning subgraph missing one more edge: v * (1/v) = 1;
            # K_{v-1} gives (v-1)(v-2)/(2v) >= 6/5, one edge (v^2-2v-2)/v
            gamma = F(1)
        return F((v + 1) * (v - 2), 2 * v), F(v * v - v - 4, 2 * (v - 2)), gamma
    return F(v - 1, 2), F(v + 1, 2), F(1)


def closed_form_exponent(family: str, v: int) -> Fraction:
    """The rate-of-convergence exponents under critical scaling."""
    if family == "tree_path":
        return F(1, v - 1)
    if family == "cycle":
        return F(1)
    if family == "almost_complete":
        # gamma / d, as for every other family: each overlap term is
        # kappa(s)/d - (v-s) >= gamma/d, with equality where the gamma
        # witness sets kappa(s), and gamma/d <= min(1, 1/d)
        if v == 3:
            # (1/3) / (2/3)
            return F(1, 2)
        if v == 4:
            # (3/4) / (5/4), from the triangle witness
            return F(3, 5)
        # gamma = 1 over d = (v+1)(v-2)/(2v)
        return F(2 * v, (v + 1) * (v - 2))
    return F(2, v - 1)


def test_criterion_1_table_of_invariants():
    start = time.perf_counter()
    failures = []
    for family in FAMILIES:
        for v in V_RANGE:
            stats = compute_stats(builtin_motif(family, v))
            got = (stats.density, stats.alpha, stats.gamma)
            want = closed_form_table(family, v)
            if got != want:
                failures.append(
                    f"{family} v={v}: computed (d,a,g)={tuple(map(str, got))} "
                    f"stated {tuple(map(str, want))}"
                )
    _report("criterion 1: invariant table", failures, time.perf_counter() - start, 1.0)


def test_criterion_2_rate_exponents_and_slopes():
    start = time.perf_counter()
    failures = []
    for family in FAMILIES:
        for v in V_RANGE:
            m = builtin_motif(family, v)
            stats = compute_stats(m)
            got = rate_exponent(m)
            want = closed_form_exponent(family, v)
            if got != want:
                failures.append(
                    f"{family} v={v}: computed exponent {got} stated {want}"
                )
            # numerical slope of the block-model bound under critical scaling
            d = float(stats.density)

            def bound_at(n):
                return bound_sbm(erdos_renyi(float(n) ** (-1.0 / d)), m, n).bound

            slope = math.log10(bound_at(10**6) / bound_at(10**7))
            if abs(slope - float(got)) >= 0.05:
                failures.append(
                    f"{family} v={v}: slope {slope:.4f} vs exponent {float(got):.4f}"
                )
    _report("criterion 2: rate exponents", failures, time.perf_counter() - start, 1.0)


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(30303)
    for i in range(200):
        m = random_motif(rng, v_max=5)
        n = int(rng.integers(m.vertex_count, 13))
        seed = substream_seed(30303, i)
        if i % 2 == 0:
            p = float(0.2 + 0.5 * rng.random())
            g = sample_sbm(erdos_renyi(p), n, seed)
        else:
            g = sample_graphon(GraphonSpec(family="product", scale=0.9), n, seed)
        fast = count_copies(g, m)
        slow = count_copies_bruteforce(g, m)
        if fast != slow:
            failures.append(f"instance {i}: fast {fast} oracle {slow}")
    _report(
        "criterion 3: counting oracle equivalence (200 instances)",
        failures,
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_4_graphon_product_example():
    start = time.perf_counter()
    failures = []
    spec = GraphonSpec(family="product", scale=1.0)
    cases = {
        "K_3": (builtin_motif("complete", 3), 1 / 27),
        "P_3": (builtin_motif("tree_path", 3), 1 / 12),
        "C_4": (builtin_motif("cycle", 4), 1 / 81),
        "K_4": (builtin_motif("complete", 4), (1 / 4) ** 4),
    }
    for name, (m, exact) in cases.items():
        # exact value is the product of 1/(degree+1) over vertices
        assert exact == math.prod(1 / (d + 1) for d in m.degrees)
        got = mu_graphon(spec, m)
        if abs(got - exact) >= 1e-6:
            failures.append(f"{name}: |{got!r} - {exact!r}| = {abs(got - exact):.2e}")
    p = 0.37
    block = GraphonSpec(
        family="piecewise_constant", breakpoints=(0.0, 1.0), values=((p,),)
    )
    got = mu_graphon(block, builtin_motif("complete", 3))
    if not math.isclose(got, p**3, rel_tol=1e-15):
        failures.append(f"piecewise path not exact: {got!r} vs {p**3!r}")
    _report(
        "criterion 4: product-graphon occurrence probability",
        failures,
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_5_consistency_web():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(50505)
    produced = 0
    while produced < 50:
        m = random_motif(rng, v_max=5)
        stats = compute_stats(m)
        if not stats.strictly_balanced:
            continue
        produced += 1
        p = float(0.01 + 0.4 * rng.random())
        n = int(rng.integers(m.vertex_count, 5000))
        e = m.edge_count
        via_sbm = bound_sbm(erdos_renyi(p), m, n)
        via_ind = bound_independent_edges(m, n, p)
        via_nu = bound_nu(m, n, 1, p**e, NuTable.from_power(p, m))
        block = GraphonSpec(
            family="piecewise_constant", breakpoints=(0.0, 1.0), values=((p,),)
        )
        via_graphon = bound_graphon(block, m, n)
        checks = [
            ("independent", via_ind.bound, via_sbm.bound),
            ("nu-table", via_nu.bound, via_sbm.bound),
            ("graphon 2x bracket", via_graphon.bound, 2.0 * via_sbm.bound),
            ("graphon lambda", via_graphon.lam, via_sbm.lam),
        ]
        for label, got, want in checks:
            if want == 0.0:
                agree = got == 0.0
            else:
                agree = abs(got - want) <= 1e-12 * abs(want)
            if not agree:
                failures.append(
                    f"triple {produced} ({label}): {got!r} vs {want!r}"
                )
    _report(
        "criterion 5: bound-path consistency web (50 triples)",
        failures,
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_6_empirical_soundness():
    start = time.perf_counter()
    failures = []
    scenarios = {
        # triangle in a two-block model scaled so the mean count is ~1.5
        "a": SimulationPlan(
            model=SbmParams(
                2, (0.5, 0.5), ((0.0277, 0.01385), (0.01385, 0.0277))
            ),
            motif=builtin_motif("complete", 3),
            n=100,
            replicates=10_000,
            seed=2024001,
        ),
        # four-cycle at the critical scaling p = c/n
        "b": SimulationPlan(
            model=erdos_renyi(1.5 / 60),
            motif=builtin_motif("cycle", 4),
            n=60,
            replicates=10_000,
            seed=2024002,
        ),
        # triangle in a two-block piecewise-constant graphon
        "c": SimulationPlan(
            model=GraphonSpec(
                family="piecewise_constant",
                breakpoints=(0.0, 0.5, 1.0),
                values=((0.02, 0.005), (0.005, 0.02)),
            ),
            motif=builtin_motif("complete", 3),
            n=120,
            replicates=10_000,
            seed=2024003,
        ),
    }
    assert 0.5 <= 1.5036 <= 3.0  # scenario (a) mean documented in range
    for name, plan in scenarios.items():
        summary = run(plan)
        slack = 3 * summary.tv_standard_error
        if not summary.empirical_tv <= summary.theoretical_bound + slack:
            failures.append(
                f"{name}: tv {summary.empirical_tv:.4f} > bound "
                f"{summary.theoretical_bound:.4f} + {slack:.4f}"
            )
        se_mean = math.sqrt(summary.sample_variance / summary.replicates)
        if not abs(summary.sample_mean - summary.lam) <= 3 * se_mean:
            failures.append(
                f"{name}: |mean-lambda| = "
                f"{abs(summary.sample_mean - summary.lam):.4f} > {3 * se_mean:.4f}"
            )
    _report(
        "criterion 6: empirical TV soundness (3 scenarios, R=10^4)",
        failures,
        time.perf_counter() - start,
        600.0,
    )


def test_criterion_7_worked_example():
    start = time.perf_counter()
    failures = []
    four_cycle = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p3 = builtin_motif("tree_path", 3)
    indicators = copy_indicators(four_cycle, p3, (0, 1, 2))
    if indicators != [0, 1, 0]:
        failures.append(f"indicators {indicators} != [0, 1, 0]")
    total = count_copies(four_cycle, p3)
    if total != 4:
        failures.append(f"count {total} != 4")
    _report(
        "criterion 7: worked path-in-cycle example",
        failures,
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_8_cli_determinism(tmp_path):
    start = time.perf_counter()
    failures = []
    model = json.dumps({"Q": 1, "f": [1.0], "pi": [[0.05]]})
    outputs = []
    runs = [("r1", 1), ("r2", 1), ("r3", 1), ("t4", 4)]
    for tag, threads in runs:
        out = tmp_path / f"{tag}.json"
        cmd = [
            sys.executable,
            "-m",
            "motif_poisson.cli",
            "simulate",
            "--model",
            model,
            "--motif",
            "complete:3",
            "-n",
            "40",
            "-R",
            "500",
            "--seed",
            "123",
            "--threads",
            str(threads),
            "--out",
            str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True)
        if proc.returncode != 0:
            failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr[:200]}")
            continue
        outputs.append((tag, out.read_bytes()))
    for tag, blob in outputs[1:]:
        if blob != outputs[0][1]:
            failures.append(f"{tag} differs from {outputs[0][0]}")
    _report(
        "criterion 8: byte-identical simulate output",
        failures,
        time.perf_counter() - start,
        120.0,
    )

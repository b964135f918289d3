"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import motif_poisson as mp  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=cwd,
    )


def result(done) -> dict:
    return json.loads(done.stdout.splitlines()[-1])


def test_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    done = bench("--workload", "ensemble", "--seed", "5", "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    out = result(done)
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    printed = {name: m["unit"] for name, m in out["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[key]}


def test_gate_rejects_a_wrong_expected_invariant():
    key = "almost_complete:4"
    outcome = workloads.Outcome(f"stats/{key}", mp.compute_stats(mp.builtin_motif("almost_complete", 4)))
    expected = json.loads(workloads.EXPECTED_INVARIANTS.read_text())
    assert workloads.check_invariants(workloads.invariant_inputs(1, expected), [outcome]) == []
    # the published table's gamma, which exact enumeration refutes (it is 3/4)
    expected[key]["gamma"] = "1"
    failures = workloads.check_invariants(workloads.invariant_inputs(1, expected), [outcome])
    assert [k for k, _ in failures] == [f"stats/{key}"]


def test_gate_rejects_a_wrong_graphon_mu():
    inp = workloads.invariant_inputs(2)
    report = mp.bound_graphon(inp.graphons["product"], inp.bound_motifs["cycle:4"], 200)
    outcome = workloads.Outcome("bound/product/cycle:4", report)
    assert workloads.check_invariants(inp, [outcome]) == []
    inp.graphons["product"] = mp.GraphonSpec(family="product", scale=inp.graphons["product"].scale * 1.001)
    assert len(workloads.check_invariants(inp, [outcome])) == 1


def test_failed_check_exits_nonzero_without_metrics(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("*.egg-info"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    path = tmp_path / "perfbench" / "expected_invariants.json"
    expected = json.loads(path.read_text())
    expected["cycle:3"]["rho"] += 1
    path.write_text(json.dumps(expected))
    done = bench("--workload", "invariants", "--seed", "1", "--seconds", "0", cwd=tmp_path)
    assert done.returncode == 1
    out = result(done)
    assert out["correct"] is False and out["failed"] == 1 and out["metrics"] == {}
    assert "stats/cycle:3" in done.stderr


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "ensemble", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_times_subtract_the_union_of_children():
    s = [
        spans.Span(0, None, "simulate.run", 0.0, 10.0),
        spans.Span(1, 0, "models.sample_sbm", 1.0, 4.0),
        spans.Span(2, 0, "counting.count_copies", 3.0, 6.0),  # overlaps span 1
        spans.Span(3, 2, "motif.automorphism_count", 5.0, 5.5),
    ]
    selfs = spans.self_times(s)
    assert selfs == {0: 5.0, 1: 3.0, 2: 2.5, 3: 0.5}


def test_tracing_changes_no_result():
    plan = workloads.ensemble_plans(3)[1]
    tracer = spans.Tracer()
    plain = mp.simulate.run(plan)
    with tracer.installed():
        traced = mp.simulate.run(plan)
    assert traced.to_dict() == plain.to_dict()
    assert mp.simulate.run is not None and not hasattr(mp.simulate.run, "__wrapped__")
    selfs = spans.self_times(tracer.spans)
    assert spans.unaccounted(tracer.spans, selfs) == []
    totals = spans.layer_totals(tracer.spans, selfs)
    assert totals["models.graphs"] == totals["motif.automorphism_calls"] == plan.replicates
    assert totals["simulate.plans"] == 1

"""CLI surface: subcommands, exit codes, deterministic JSON."""

import json
import math
import time
from itertools import combinations

import pytest

from motif_poisson import MAX_GRAPH_VERTICES
from motif_poisson.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMotifCommand:
    def test_cycle5_text(self, capsys):
        code, out, _ = run_cli(capsys, "motif", "cycle:5")
        assert code == 0
        assert "density            1" in out
        assert "alpha              4/3" in out
        assert "gamma              1" in out

    def test_complete4(self, capsys):
        code, out, _ = run_cli(capsys, "motif", "complete:4")
        assert code == 0
        assert "density            3/2" in out and "alpha              5/2" in out
        assert "alpha_witness      0-1\n" in out
        assert "gamma_witness      0-2 0-3 1-2 1-3 2-3\n" in out

    def test_tree4(self, capsys):
        code, out, _ = run_cli(capsys, "motif", "tree:4")
        assert code == 0
        assert "density            3/4" in out
        assert "alpha              1" in out
        assert "gamma              1/4" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "motif", "cycle:4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["stats"]["gamma"] == "1"
        assert payload["stats"]["rho"] == 3
        assert payload["manifest"]["timestamp"] is None

    def test_complete10_json(self, capsys):
        code, out, _ = run_cli(capsys, "motif", "complete:10", "--format", "json")
        assert code == 0
        stats = json.loads(out)["stats"]
        assert [stats[k] for k in ("density", "alpha", "gamma")] == ["9/2", "11/2", "1"]
        assert stats["automorphism_count"] == math.factorial(10)
        assert stats["rho"] == 1
        assert stats["alpha_witness"] == [[0, 1]]
        all_pairs = [[a, b] for a in range(10) for b in range(a + 1, 10)]
        assert stats["gamma_witness"] == all_pairs[1:]  # K_10 minus edge 0-1

    def test_motif_file(self, capsys, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        code, out, _ = run_cli(capsys, "motif", str(path))
        assert code == 0 and "automorphisms      6" in out

    def test_invalid_motif_exits_2(self, capsys, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("0 1\n")
        code, _, err = run_cli(capsys, "motif", str(path))
        assert code == 2 and "edge" in err.lower()

    def test_unknown_family_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "motif", "heptagon:7")
        assert code == 2

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--motif", "cycle:4"])  # missing -n
        assert exc.value.code == 1


class TestBoundCommand:
    def test_sbm_report(self, capsys):
        model = json.dumps({"Q": 1, "f": [1.0], "pi": [[0.01]]})
        code, out, _ = run_cli(
            capsys, "bound", "--motif", "complete:3", "--model", model, "-n", "100"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["variant"] == "sbm"
        assert payload["report"]["bound"] == pytest.approx(0.0104512537, rel=1e-8)

    def test_auto_variant_follows_model(self, capsys):
        argv = ["bound", "--motif", "complete:3", "-n", "100", "--model"]
        for model, variant in (
            ('{"Q": 1, "f": [1.0], "pi": [[0.01]]}', "sbm"),
            ('{"family": "product", "c": 0.5}', "graphon"),
        ):
            code, out, _ = run_cli(capsys, *argv, model)
            payload = json.loads(out)
            assert code == 0 and payload["inputs"]["variant"] == variant
            assert payload["report"]["variant"] == variant
            with pytest.raises(SystemExit) as exc:
                main([*argv, model, "--variant", variant])
            assert exc.value.code == 1

    def test_takes_no_seed(self, capsys):
        model = json.dumps({"Q": 1, "f": [1.0], "pi": [[0.01]]})
        argv = ["bound", "--motif", "complete:3", "--model", model, "-n", "100"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 1
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["manifest"]["seed"] is None

    def test_constant_sbm_matches_independent_variant(self, capsys):
        model = json.dumps({"Q": 1, "f": [1.0], "pi": [[0.02]]})
        _, out_sbm, _ = run_cli(
            capsys, "bound", "--motif", "cycle:4", "--model", model, "-n", "200"
        )
        _, out_ind, _ = run_cli(
            capsys,
            "bound",
            "--motif",
            "cycle:4",
            "--variant",
            "independent",
            "--nu-max",
            "0.02",
            "-n",
            "200",
        )
        b1 = json.loads(out_sbm)["report"]["bound"]
        b2 = json.loads(out_ind)["report"]["bound"]
        assert b1 == pytest.approx(b2, rel=1e-12)

    def test_piecewise_graphon_lambda_equals_converted_sbm(self, capsys):
        graphon = json.dumps(
            {
                "family": "piecewise_constant",
                "breakpoints": [0.0, 0.5, 1.0],
                "values": [[0.05, 0.01], [0.01, 0.05]],
            }
        )
        sbm = json.dumps(
            {"Q": 2, "f": [0.5, 0.5], "pi": [[0.05, 0.01], [0.01, 0.05]]}
        )
        _, out_g, _ = run_cli(
            capsys, "bound", "--motif", "complete:3", "--model", graphon, "-n", "80"
        )
        _, out_s, _ = run_cli(
            capsys, "bound", "--motif", "complete:3", "--model", sbm, "-n", "80"
        )
        lam_g = json.loads(out_g)["report"]["lambda"]
        lam_s = json.loads(out_s)["report"]["lambda"]
        assert lam_g == pytest.approx(lam_s, rel=1e-12)

    def test_scaled_variant(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bound",
            "--motif",
            "complete:3",
            "--variant",
            "scaled",
            "--c",
            "1.0",
            "--C",
            "1.0",
            "-n",
            "1000",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["A"] == pytest.approx(0.004, rel=1e-12)

    @pytest.mark.parametrize("C", ["1e300", "1e120", "inf"])
    def test_scaled_variant_huge_C_exits_2(self, capsys, C):
        code, out, err = run_cli(
            capsys,
            "bound",
            "--motif",
            "complete:3",
            "--variant",
            "scaled",
            "--c",
            "1e-300",
            "--C",
            C,
            "-n",
            "100",
        )
        assert code == 2 and out == ""
        assert f"C={float(C)!r}" in err and "3 vertices and 3 edges" in err

    def test_nu_variant_with_table_file(self, capsys, tmp_path):
        from motif_poisson import NuTable, builtin_motif

        table = NuTable.from_power(0.05, builtin_motif("complete", 3))
        path = tmp_path / "nu.json"
        path.write_text(json.dumps(table.to_dict()))
        code, out, _ = run_cli(
            capsys,
            "bound",
            "--motif",
            "complete:3",
            "--variant",
            "nu",
            "--nu-table",
            str(path),
            "--g",
            "1",
            "--mu",
            str(0.05**3),
            "-n",
            "100",
        )
        assert code == 0
        assert json.loads(out)["report"]["dependence_factor"] == 1.0

    def test_malformed_nu_table_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"entries": [{"k": "3", "value": 0.1}]}))
        code, _, err = run_cli(
            capsys,
            "bound",
            "--motif",
            "complete:3",
            "--variant",
            "nu",
            "--nu-table",
            str(path),
            "--mu",
            "0.001",
            "-n",
            "100",
        )
        assert code == 2 and "malformed" in err

    @pytest.mark.parametrize(
        "model",
        [
            {"Q": 1, "f": 1.0, "pi": [[0.1]]},
            {"Q": 1, "f": [1.0], "pi": [0.1]},
            {"family": "piecewise_constant", "breakpoints": [0, 1], "values": [0.5]},
            {"Q": 1, "f": "1", "pi": ["1"]},
            {"family": "piecewise_constant", "breakpoints": "01", "values": [[0.5]]},
            {"family": "product", "c": True},
            {"family": "product", "c": "0.5"},
        ],
    )
    def test_malformed_model_exits_2(self, capsys, model):
        argv = ["bound", "--motif", "complete:3", "--model", json.dumps(model)]
        code, _, err = run_cli(capsys, *argv, "-n", "50")
        assert code == 2 and err.startswith("motif-poisson: ")

    @pytest.mark.parametrize(
        "model",
        [
            '{"Q": true, "f": [1.0], "pi": [[0.1]]}',
            '{"Q": "1", "f": [1.0], "pi": [[0.1]]}',
            '{"Q": 2, "f": [NaN, 1.0], "pi": [[0.1, 0.1], [0.1, 0.1]]}',
            '{"family": "piecewise_constant", "breakpoints": [0, NaN, 1],'
            ' "values": [[0.1, 0.1], [0.1, 0.1]]}',
            pytest.param(
                '{"Q": 1, "f": [1.0], "pi": [[0.1]], "x": '
                + "[" * 10**5 + "]" * 10**5 + "}",
                id="nested-1e5-deep",
            ),
        ],
    )
    def test_non_integer_q_or_nan_model_exits_2(self, capsys, model):
        argv = ["bound", "--motif", "complete:3", "--model", model]
        code, out, err = run_cli(capsys, *argv, "-n", "100")
        assert code == 2 and out == "" and err.startswith("motif-poisson: ")

    @pytest.mark.parametrize("mu", ["-1", "nan", "5"])
    def test_nu_variant_mu_outside_unit_interval_exits_2(self, capsys, tmp_path, mu):
        from motif_poisson import NuTable, builtin_motif

        path = tmp_path / "nu.json"
        table = NuTable.from_power(0.05, builtin_motif("complete", 3))
        path.write_text(json.dumps(table.to_dict()))
        argv = ["bound", "--motif", "complete:3", "--variant", "nu", "--g", "1"]
        argv += ["--nu-table", str(path), f"--mu={mu}", "-n", "100"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "mu" in err

    @pytest.mark.parametrize(
        "field, value", [("v", 3.7), ("s", True), ("value", "0.1"), ("k", "1e0")]
    )
    def test_nu_table_field_types_exit_2(self, capsys, tmp_path, field, value):
        from motif_poisson import NuTable, builtin_motif

        table = NuTable.from_power(0.1, builtin_motif("complete", 3)).to_dict()
        table["entries"][0][field] = value
        path = tmp_path / "nu.json"
        path.write_text(json.dumps(table))
        argv = ["bound", "--motif", "complete:3", "--variant", "nu", "--mu", "0.001"]
        code, out, err = run_cli(capsys, *argv, "-n", "100", "--nu-table", str(path))
        assert code == 2 and out == "" and err.startswith("motif-poisson: ")

    @pytest.mark.parametrize(
        "extra",
        [
            ["-n", str(10**120), "--model", '{"Q": 1, "f": [1.0], "pi": [[0.1]]}'],
            ["-n", str(10**400), "--model", '{"family": "product", "c": 0.5}'],
            ["-n", str(10**400), "--variant", "independent", "--nu-max", "0.1"],
        ],
    )
    def test_overflowing_bound_exits_2(self, capsys, extra):
        code, out, err = run_cli(capsys, "bound", "--motif", "complete:3", *extra)
        assert code == 2 and out == "" and "bound" in err

    def test_dependence_width_overflow_exits_2(self, capsys, tmp_path):
        from motif_poisson import NuTable, builtin_motif

        path = tmp_path / "nu.json"
        table = NuTable.from_power(0.05, builtin_motif("complete", 3))
        path.write_text(json.dumps(table.to_dict()))
        argv = ["bound", "--motif", "complete:3", "--variant", "nu", "--mu", "0.001"]
        argv += ["-n", "100", "--nu-table", str(path), "--g", str(10**310)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "g=" in err

    def test_nu_table_not_an_object_exits_2(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        argv = ["bound", "--motif", "complete:3", "--variant", "nu", "--mu", "0.001"]
        code, _, err = run_cli(capsys, *argv, "-n", "100", "--nu-table", str(path))
        assert code == 2 and err.startswith("motif-poisson: ")

    def test_not_strictly_balanced_exits_3(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("0 1\n2 3\n")
        model = json.dumps({"Q": 1, "f": [1.0], "pi": [[0.1]]})
        code, _, err = run_cli(
            capsys, "bound", "--motif", str(path), "--model", model, "-n", "50"
        )
        assert code == 3 and "balanced" in err


class TestCountCommand:
    def test_four_cycle_paths(self, capsys, tmp_path):
        graph = tmp_path / "cycle.txt"
        graph.write_text("0 1\n1 2\n2 3\n0 3\n")
        code, out, _ = run_cli(
            capsys, "count", "--motif", "tree:3", "--graph", str(graph)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 4 and payload["injections"] == 8

    def test_bruteforce_flag_agrees(self, capsys, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 3\n0 3\n0 2\n")
        _, fast, _ = run_cli(
            capsys, "count", "--motif", "complete:3", "--graph", str(graph)
        )
        _, slow, _ = run_cli(
            capsys,
            "count",
            "--motif",
            "complete:3",
            "--graph",
            str(graph),
            "--bruteforce",
        )
        assert json.loads(fast)["count"] == json.loads(slow)["count"] == 2

    def test_n_above_vertex_cap_exits_2(self, capsys, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n")
        argv = ["count", "--motif", "complete:3", "--graph", str(graph)]
        code, out, err = run_cli(capsys, *argv, "-n", str(MAX_GRAPH_VERTICES + 1))
        assert code == 2 and out == "" and "cap" in err

    @pytest.mark.parametrize("motif", ["tree:8", "complete:10"])
    def test_oracle_work_cap_exits_2_fast(self, capsys, tmp_path, motif):
        graph = tmp_path / "k14.txt"
        graph.write_text("".join(f"{a} {b}\n" for a, b in combinations(range(14), 2)))
        argv = ["count", "--bruteforce", "--motif", motif, "--graph", str(graph)]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == "" and "oracle work" in err

    @pytest.mark.parametrize("line", ["-1 2", "0 1 2"])
    def test_bad_edge_line_exits_2(self, capsys, tmp_path, line):
        graph = tmp_path / "g.txt"
        graph.write_text(f"0 1\n{line}\n")
        code, _, err = run_cli(
            capsys, "count", "--motif", "complete:3", "--graph", str(graph)
        )
        assert code == 2
        assert err.startswith("motif-poisson: bad edge line") and repr(line) in err


class TestSimulateCommand:
    MODEL = json.dumps({"Q": 1, "f": [1.0], "pi": [[0.05]]})

    def test_reruns_identical(self, capsys):
        argv = [
            "simulate",
            "--model",
            self.MODEL,
            "--motif",
            "complete:3",
            "-n",
            "30",
            "-R",
            "150",
            "--seed",
            "7",
        ]
        code, out1, _ = run_cli(capsys, *argv)
        assert code == 0
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_threads_do_not_change_output(self, capsys):
        base = [
            "simulate",
            "--model",
            self.MODEL,
            "--motif",
            "complete:3",
            "-n",
            "30",
            "-R",
            "120",
            "--seed",
            "3",
        ]
        _, out1, _ = run_cli(capsys, *base, "--threads", "1")
        _, out4, _ = run_cli(capsys, *base, "--threads", "4")
        assert out1 == out4

    def test_config_file_wins(self, capsys, tmp_path):
        cfg = tmp_path / "plan.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"Q": 1, "f": [1.0], "pi": [[0.04]]},
                    "motif": "complete:3",
                    "n": 25,
                    "replicates": 80,
                    "seed": 11,
                }
            )
        )
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "-n", "999"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["manifest"]["seed"] == 11
        assert payload["summary"]["replicates"] == 80

    def test_histogram_csv_written(self, capsys, tmp_path):
        hist = tmp_path / "hist.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--model",
            self.MODEL,
            "--motif",
            "complete:3",
            "-n",
            "20",
            "-R",
            "60",
            "--seed",
            "1",
            "--hist-csv",
            str(hist),
        )
        assert code == 0
        text = hist.read_bytes().decode()
        assert text.startswith("count,frequency\r\n")

    def test_unwritable_histogram_csv_leaves_stdout_empty(self, capsys):
        argv = ["simulate", "--model", self.MODEL, "--motif", "complete:3"]
        argv += ["-n", "20", "-R", "5", "--hist-csv", "/nonexistent/dir/h.csv"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "h.csv" in err

    def test_env_var_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("MOTIF_POISSON_SEED", "42")
        argv = [
            "simulate",
            "--model",
            self.MODEL,
            "--motif",
            "complete:3",
            "-n",
            "20",
            "-R",
            "50",
        ]
        _, out, _ = run_cli(capsys, *argv)
        assert json.loads(out)["manifest"]["seed"] == 42

    def test_missing_plan_field_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--model", self.MODEL, "--motif", "complete:3"
        )
        assert code == 2 and "requires" in err

    def test_config_not_an_object_exits_2(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2 and err.startswith("motif-poisson: ")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", [25]),
            ("seed", [11]),
            ("n", 25.9),
            ("replicates", 80.0),
            ("replicates", True),
            ("seed", False),
        ],
    )
    def test_config_integer_fields_checked(self, capsys, tmp_path, key, value):
        plan = {"model": {"Q": 1, "f": [1.0], "pi": [[0.04]]}, "motif": "complete:3"}
        plan.update(n=25, replicates=80, seed=11)
        plan[key] = value
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps(plan))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith(f"motif-poisson: simulate {key} must be an integer")

    def test_config_unknown_key_exits_2(self, capsys, tmp_path):
        # a misspelt seed ran at seed 0
        plan = {"model": {"Q": 1, "f": [1.0], "pi": [[0.04]]}, "motif": "complete:3"}
        plan.update(n=25, replicates=80, seeed=3)
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps(plan))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("motif-poisson: simulate config has unknown key 'seeed'")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("model", [1], "model must be a JSON object"),
            ("model", 5, "model must be a JSON object"),
            ("motif", 5, "motif must be a family:v string"),
            ("motif", ["complete:3"], "motif must be a family:v string"),
        ],
    )
    def test_config_model_and_motif_read_as_written(
        self, capsys, tmp_path, key, value, message
    ):
        plan = {"model": {"Q": 1, "f": [1.0], "pi": [[0.04]]}, "motif": "complete:3"}
        plan.update(n=25, replicates=80, seed=11)
        plan[key] = value
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps(plan))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith(f"motif-poisson: {message}")

    def test_n_above_vertex_cap_exits_2(self, capsys):
        argv = ["simulate", "--model", '{"Q": 1, "f": [1.0], "pi": [[0.0]]}']
        argv += ["--motif", "complete:3", "-n", str(MAX_GRAPH_VERTICES + 1)]
        code, out, err = run_cli(capsys, *argv, "-R", "1")
        assert code == 2 and out == "" and "cap" in err

    def test_seed_outside_64_bits_exits_2(self, capsys):
        argv = ["simulate", "--model", self.MODEL, "--motif", "complete:3"]
        argv += ["-n", "20", "-R", "10", "--seed"]
        for seed in ("-1", str(1 << 64)):
            code, out, err = run_cli(capsys, *argv, seed)
            assert code == 2 and out == "" and "seed" in err

    def test_abbreviated_flag_exits_1(self, capsys):
        # a prefix of --threads would escape the manifest's flag stripping
        argv = ["simulate", "--model", self.MODEL, "--motif", "complete:3"]
        argv += ["-n", "20", "-R", "10", "--seed", "3"]
        for flag in ("--thread", "--thr"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, "2"])
            assert exc.value.code == 1

    def test_nan_proportions_exit_2(self, capsys):
        model = '{"Q": 2, "f": [NaN, NaN], "pi": [[0.1, 0.1], [0.1, 0.1]]}'
        argv = ["simulate", "--model", model, "--motif", "complete:3"]
        code, out, err = run_cli(capsys, *argv, "-n", "20", "-R", "2", "--seed", "3")
        assert code == 2 and out == "" and "proportions" in err

    def test_threads_below_one_exits_2(self, capsys):
        argv = ["simulate", "--model", self.MODEL, "--motif", "complete:3"]
        argv += ["-n", "20", "-R", "10", "--seed", "3", "--threads", "0"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "threads" in err

    def test_manifest_records_parsed_argv(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.argv", ["-c", "extra-arg"])
        argv = ["motif", "complete:3", "--format", "json"]
        _, out, _ = run_cli(capsys, *argv)
        assert json.loads(out)["manifest"]["command"] == argv
        # operational flags and their values are still stripped
        dest = tmp_path / "sim.json"
        argv = ["simulate", "--model", self.MODEL, "--motif", "complete:3"]
        argv += ["-n", "20", "-R", "10", "--seed", "3"]
        steering = ["--threads=2", "--out", str(dest)]
        steering += ["--hist-csv", str(tmp_path / "hist.csv")]
        code, _, _ = run_cli(capsys, *argv, *steering)
        assert code == 0
        assert json.loads(dest.read_text())["manifest"]["command"] == argv

    def test_sampler_version_in_every_manifest(self, capsys):
        sim = ["simulate", "--model", self.MODEL, "--motif", "complete:3"]
        sim += ["-n", "20", "-R", "10", "--seed", "3"]
        bound = ["bound", "--motif", "complete:3", "--model", self.MODEL]
        for argv in (
            [*sim, "--threads", "1"],
            [*sim, "--threads", "3"],
            [*bound, "-n", "20"],
            ["motif", "complete:3", "--format", "json"],
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert json.loads(out)["manifest"]["versions"]["sampler"] == 3

    def test_graphon_model_end_to_end(self, capsys):
        graphon = json.dumps(
            {
                "family": "piecewise_constant",
                "breakpoints": [0.0, 0.5, 1.0],
                "values": [[0.1, 0.02], [0.02, 0.1]],
            }
        )
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--model",
            graphon,
            "--motif",
            "complete:3",
            "-n",
            "30",
            "-R",
            "100",
            "--seed",
            "9",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["lambda"] > 0
        assert payload["summary"]["theoretical_bound"] is not None


class TestTablesCommand:
    def test_default_range(self, capsys):
        code, out, _ = run_cli(capsys, "tables")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split()[:3] == ["family", "v", "d"]
        assert len(lines) == 1 + 4 * 5  # four families, v = 3..7

    def test_almost_complete_v3_gamma_third(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "--v-range", "3..3")
        row = [l for l in out.splitlines() if l.startswith("almost_complete")][0]
        assert row.split() == ["almost_complete", "3", "2/3", "1", "1/3", "1/2"]

    def test_tree_exponent_column(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "--v-range", "3..7")
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] == "tree_path":
                v = int(parts[1])
                assert parts[5] == f"1/{v - 1}"

    def test_ten_vertex_rows(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--v-range", "3..10")
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert len(rows) == 1 + 4 * 8
        assert ["complete", "10", "9/2", "11/2", "1", "2/9"] in rows

    @pytest.mark.parametrize("v_range", ["5..3", "3..x"])
    def test_bad_v_range_exits_2(self, capsys, v_range):
        code, out, err = run_cli(capsys, "tables", "--v-range", v_range)
        assert code == 2 and out == "" and "--v-range" in err

    def test_diff_stable(self, capsys):
        _, out1, _ = run_cli(capsys, "tables")
        _, out2, _ = run_cli(capsys, "tables")
        assert out1 == out2

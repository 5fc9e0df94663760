"""Command-line interface: formats, determinism, exit codes."""

from __future__ import annotations

import gc
import hashlib
import math
import warnings
from pathlib import Path

import pytest

from probflow import VARIANTS
from probflow.cli import _build_parser, main


def run(capsys, *argv) -> tuple[int, str]:
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def write_instance(tmp_path: Path, edges: str, weights: str | None = None) -> dict[str, str]:
    paths = {"edges": str(tmp_path / "g.edges")}
    (tmp_path / "g.edges").write_text(edges, encoding="utf-8")
    if weights is not None:
        paths["weights"] = str(tmp_path / "g.weights")
        (tmp_path / "g.weights").write_text(weights, encoding="utf-8")
    return paths


PATH_EDGES = "Q a 0.5\na b 0.5\n"
PATH_WEIGHTS = "Q 0\na 1\nb 1\n"

TRIANGLE_EDGES = "Q a 0.5\nQ b 0.5\na b 0.5\n"
TRIANGLE_WEIGHTS = "Q 0\na 1\nb 1\n"


class TestGenerate:
    def test_erdos_counts(self, tmp_path, capsys):
        out = tmp_path / "er"
        rc, _ = run(capsys, "generate", "erdos", "--n", "100", "--deg", "6",
                    "--seed", "7", "--out", str(out))
        assert rc == 0
        edges = Path(f"{out}.edges").read_text().splitlines()
        weights = Path(f"{out}.weights").read_text().splitlines()
        assert len(edges) == 300
        assert len(weights) == 100

    def test_wsn_writes_coords(self, tmp_path, capsys):
        out = tmp_path / "wsn"
        rc, _ = run(capsys, "generate", "wsn", "--n", "50", "--eps", "0.2",
                    "--seed", "1", "--out", str(out))
        assert rc == 0
        coords = Path(f"{out}.coords").read_text().splitlines()
        assert len(coords) == 50

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc, _ = run(capsys, "generate", "partitioned", "--n", "24", "--deg", "4",
                        "--seed", "3", "--out", str(out))
            assert rc == 0
        assert Path(f"{a}.edges").read_bytes() == Path(f"{b}.edges").read_bytes()
        assert Path(f"{a}.weights").read_bytes() == Path(f"{b}.weights").read_bytes()

    def test_decay_probabilities(self, tmp_path, capsys):
        out = tmp_path / "road"
        rc, _ = run(capsys, "generate", "wsn", "--n", "30", "--eps", "0.4",
                    "--seed", "2", "--decay", "--world-size-m", "1000", "--out", str(out))
        assert rc == 0
        for line in Path(f"{out}.edges").read_text().splitlines():
            p = float(line.split()[2])
            assert math.exp(-0.001 * 1000 * 0.4) - 1e-9 <= p <= 1.0

    @pytest.mark.parametrize("flag, value", [
        ("--decay-lambda", "-1"),
        ("--decay-lambda", "nan"),
        ("--decay-lambda", "inf"),
        ("--world-size-m", "-5"),
        ("--world-size-m", "0"),
    ], ids=["lambda-negative", "lambda-nan", "lambda-inf", "size-negative", "size-zero"])
    def test_bad_decay_flag_rejected_by_name(self, tmp_path, capsys, flag, value):
        out = tmp_path / "wsn"
        rc = main(["generate", "wsn", "--n", "50", "--eps", "0.3", "--seed", "1",
                   "--decay", flag, value, "--out", str(out)])
        assert rc == 2
        assert f"{flag} must be" in capsys.readouterr().err
        assert not Path(f"{out}.edges").exists()

    def test_decay_underflow_rejected_by_flag_names(self, tmp_path, capsys):
        # Valid flags whose probabilities exp(-lam * distance) underflow to 0.0.
        out = tmp_path / "wsn"
        rc = main(["generate", "wsn", "--n", "40", "--eps", "0.3", "--decay",
                   "--decay-lambda", "1e6", "--world-size-m", "1e4", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--decay-lambda" in err and "--world-size-m" in err and "underflow" in err
        assert not Path(f"{out}.edges").exists()

    @pytest.mark.parametrize("argv, message", [
        (["erdos", "--n", "10", "--deg", "2", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["wsn", "--n", "10", "--eps", "0.3", "--close-friends", "-1"], "f must be non-negative, got -1"),
    ], ids=["seed", "close-friends"])
    def test_negative_seed_or_count_rejected_by_name(self, tmp_path, capsys, argv, message):
        out = tmp_path / "g"
        rc = main(["generate", *argv, "--out", str(out)])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not Path(f"{out}.edges").exists()

    def test_decay_with_close_friends_rejected(self, tmp_path, capsys):
        # --close-friends redraws every probability, so the decay would
        # leave no trace in the output.
        out = tmp_path / "wsn"
        rc = main(["generate", "wsn", "--n", "50", "--eps", "0.3", "--seed", "1",
                   "--decay", "--close-friends", "3", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--decay" in err and "--close-friends" in err
        assert not Path(f"{out}.edges").exists()


class TestMaxflow:
    def test_star_exact_flow(self, tmp_path, capsys):
        paths = write_instance(
            tmp_path, "Q a 0.9\nQ b 0.5\nQ c 0.1\n", "Q 0\na 1\nb 1\nc 1\n"
        )
        out = tmp_path / "run.csv"
        rc = main(["maxflow", "--edges", paths["edges"],
                   "--weights", paths["weights"], "--query", "Q",
                   "--variant", "ft", "--k", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("iter,edge_u,edge_v,flow_mean")
        assert len(lines) == 3
        assert lines[1].split(",")[:4] == ["1", "Q", "a", "0.9"]
        assert lines[2].split(",")[3] == "1.4"
        stderr = capsys.readouterr().err
        assert "final flow 1.4" in stderr
        assert "own weight 0" in stderr

    def test_stdout_without_out_is_pure_csv(self, tmp_path, capsys):
        # The summary goes to stderr, so `maxflow ... > run.csv` holds the
        # header and one row per committed edge, the bytes --out writes.
        paths = write_instance(
            tmp_path, "Q a 0.9\nQ b 0.5\nQ c 0.1\n", "Q 0\na 1\nb 1\nc 1\n"
        )
        argv = ["maxflow", "--edges", paths["edges"], "--weights", paths["weights"],
                "--query", "Q", "--variant", "ft_m", "--k", "3", "--seed", "4"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("iter,edge_u,edge_v,flow_mean")
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]
        assert captured.err.startswith("selected 3 edges; final flow ")
        out = tmp_path / "run.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == captured.out
        assert capsys.readouterr().out == ""

    def test_dijkstra_triangle_two_rows(self, tmp_path, capsys):
        paths = write_instance(tmp_path, TRIANGLE_EDGES, TRIANGLE_WEIGHTS)
        out = tmp_path / "d.csv"
        rc, _ = run(capsys, "maxflow", "--edges", paths["edges"],
                    "--weights", paths["weights"], "--query", "Q",
                    "--variant", "dijkstra", "--k", "3", "--out", str(out))
        assert rc == 0
        assert len(out.read_text().splitlines()) == 3  # header + 2 edges

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        paths = write_instance(tmp_path, TRIANGLE_EDGES, TRIANGLE_WEIGHTS)
        outputs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            rc, _ = run(capsys, "maxflow", "--edges", paths["edges"],
                        "--weights", paths["weights"], "--query", "Q",
                        "--variant", "ft_m", "--k", "3", "--seed", "9",
                        "--out", str(out))
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_unknown_query_is_validation_error(self, tmp_path, capsys):
        paths = write_instance(tmp_path, PATH_EDGES)
        rc = main(["maxflow", "--edges", paths["edges"], "--query", "zz",
                   "--variant", "ft", "--k", "1"])
        assert rc == 2


class TestEvaluate:
    def test_exact_full_graph(self, tmp_path, capsys):
        paths = write_instance(tmp_path, PATH_EDGES, PATH_WEIGHTS)
        edge_set = tmp_path / "sel.txt"
        edge_set.write_text("Q a\na b\n", encoding="utf-8")
        rc, stdout = run(capsys, "evaluate", "--edges", paths["edges"],
                         "--weights", paths["weights"], "--query", "Q",
                         "--edge-set", str(edge_set), "--mode", "exact")
        assert rc == 0
        assert "flow=0.75" in stdout

    def test_empty_edge_set_gives_query_weight(self, tmp_path, capsys):
        paths = write_instance(tmp_path, PATH_EDGES, "Q 2.5\n")
        rc, stdout = run(capsys, "evaluate", "--edges", paths["edges"],
                         "--weights", paths["weights"], "--query", "Q")
        assert rc == 0
        assert "flow=2.5" in stdout

    def test_mc_close_to_exact(self, tmp_path, capsys):
        paths = write_instance(tmp_path, PATH_EDGES, PATH_WEIGHTS)
        edge_set = tmp_path / "sel.txt"
        edge_set.write_text("Q a\na b\n", encoding="utf-8")
        rc, stdout = run(capsys, "evaluate", "--edges", paths["edges"],
                         "--weights", paths["weights"], "--query", "Q",
                         "--edge-set", str(edge_set), "--mode", "mc",
                         "--samples", "100000")
        assert rc == 0
        flow = float(stdout.split("flow=")[1].split()[0])
        assert flow == pytest.approx(0.75, abs=0.02)

    def test_alpha_too_small_rejected_by_name(self, tmp_path, capsys):
        # 1 - alpha/2 rounds to 1.0: the sampler config names alpha before
        # any world is drawn.
        paths = write_instance(tmp_path, PATH_EDGES, PATH_WEIGHTS)
        rc = main(["evaluate", "--edges", paths["edges"], "--weights", paths["weights"],
                   "--query", "Q", "--mode", "mc", "--alpha", "1e-17"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: alpha must be above 2**-53" in err and "quantile argument" not in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "5", "error: alpha must be in (0,1)\n"),
        ("--samples", "0", "error: samples must be >= 1\n"),
    ], ids=["alpha", "samples"])
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_bad_sampler_flag_rejected_in_every_mode(self, tmp_path, capsys, mode, flag, value, message):
        # Exact mode samples nothing, but a bad sampler flag is still an
        # error, with the text mc mode and maxflow give.
        paths = write_instance(tmp_path, PATH_EDGES, PATH_WEIGHTS)
        rc = main(["evaluate", "--edges", paths["edges"], "--weights", paths["weights"],
                   "--query", "Q", "--mode", mode, flag, value])
        assert rc == 2
        assert capsys.readouterr().err == message

    def test_missing_input_file_leaks_no_handle(self, tmp_path, capsys):
        paths = write_instance(tmp_path, PATH_EDGES, PATH_WEIGHTS)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["evaluate", "--edges", paths["edges"], "--weights", paths["weights"],
                       "--coords", str(tmp_path / "missing.coords"), "--query", "Q"])
            gc.collect()
        assert rc == 2
        assert "missing.coords" in capsys.readouterr().err
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_exact_mode_respects_enumeration_limit(self, tmp_path, capsys):
        lines = [f"v{i} v{i+1} 0.5" for i in range(22)]
        paths = write_instance(tmp_path, "\n".join(lines) + "\n")
        edge_set = tmp_path / "sel.txt"
        edge_set.write_text("\n".join(f"v{i} v{i+1}" for i in range(22)) + "\n")
        rc = main(["evaluate", "--edges", paths["edges"], "--query", "v0",
                   "--edge-set", str(edge_set), "--mode", "exact"])
        assert rc == 3

    def test_exact_mode_enumerates_only_uncertain_edges(self, tmp_path, capsys):
        # 25 edges, 3 of them uncertain: 8 worlds, within the limit.
        lines = [f"v{i} v{i+1} {0.5 if i in (3, 11, 20) else 1.0}" for i in range(25)]
        paths = write_instance(tmp_path, "\n".join(lines) + "\n")
        edge_set = tmp_path / "sel.txt"
        edge_set.write_text("\n".join(f"v{i} v{i+1}" for i in range(25)) + "\n")
        rc, stdout = run(capsys, "evaluate", "--edges", paths["edges"], "--query", "v0",
                         "--edge-set", str(edge_set), "--mode", "exact")
        assert rc == 0
        assert "flow=10.875" in stdout

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_repeated_edge_is_validation_error(self, tmp_path, capsys, mode):
        paths = write_instance(tmp_path, PATH_EDGES, PATH_WEIGHTS)
        edge_set = tmp_path / "sel.txt"
        edge_set.write_text("Q a\na Q\na b\n", encoding="utf-8")
        rc = main(["evaluate", "--edges", paths["edges"], "--weights", paths["weights"],
                   "--query", "Q", "--edge-set", str(edge_set), "--mode", mode])
        assert rc == 2
        assert "edge-set line 2: duplicate edge a Q" in capsys.readouterr().err

    def test_invalid_probability_is_validation_error(self, tmp_path):
        paths = write_instance(tmp_path, "a b 1.5\n")
        rc = main(["evaluate", "--edges", paths["edges"], "--query", "a"])
        assert rc == 2

    @pytest.mark.parametrize("token", ["nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["evaluate", "--mode", "exact"],
        ["evaluate", "--mode", "mc"],
        ["maxflow", "--variant", "ft_m", "--k", "3"],
    ], ids=["exact", "mc", "maxflow"])
    def test_non_finite_weight_is_validation_error(self, tmp_path, capsys, command, token):
        paths = write_instance(tmp_path, "0 1 0.5\n0 2 0.5\n1 2 0.5\n", f"0 1\n1 {token}\n2 1\n")
        edge_set = tmp_path / "sel.txt"
        edge_set.write_text("0 1\n0 2\n1 2\n", encoding="utf-8")
        if command[0] == "evaluate":
            command = [*command, "--edge-set", str(edge_set)]
        rc = main([*command, "--edges", paths["edges"], "--weights", paths["weights"],
                   "--query", "0"])
        assert rc == 2
        assert "weights line 2: non-finite weight" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, text, message", [
        ("--weights", "Q 0\na 1\nQ 5\nb 1\n", "weights line 3: repeated weight for 'Q'"),
        ("--coords", "Q 0 0\na 1 0\nb 2 0\nb 2 1\n", "coords line 4: repeated coordinates for 'b'"),
    ], ids=["weights", "coords"])
    def test_repeated_vertex_line_is_validation_error(self, tmp_path, capsys, flag, text, message):
        paths = write_instance(tmp_path, PATH_EDGES)
        extra = tmp_path / "g.extra"
        extra.write_text(text, encoding="utf-8")
        rc = main(["evaluate", "--edges", paths["edges"], flag, str(extra), "--query", "Q"])
        assert rc == 2
        assert message in capsys.readouterr().err


class TestBench:
    def test_sweep_shape_and_order(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc, _ = run(capsys, "bench", "--family", "erdos", "--n", "30", "--deg", "4",
                    "--variants", "ft,dijkstra", "--sweep", "k=2,4", "--repeat", "2",
                    "--samples", "200", "--ref-samples", "2000", "--seed", "5",
                    "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "axis,value,variant,repeat,flow_ref,ref_lb,ref_ub,flow_self,selected,"
            "elapsed_ms,flow_ref_mean,flow_ref_var"
        )
        assert len(lines) == 1 + 2 * 2 * 2
        assert [l.split(",")[2] for l in lines[1:5]] == ["ft", "ft", "dijkstra", "dijkstra"]

    def test_repeat_fills_variance_columns(self, tmp_path, capsys):
        out = tmp_path / "var.csv"
        rc, _ = run(capsys, "bench", "--family", "erdos", "--n", "24", "--deg", "4",
                    "--variants", "ft", "--k", "3", "--repeat", "3", "--samples", "200",
                    "--ref-samples", "2000", "--seed", "6", "--out", str(out))
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert len(rows) == 3
        variances = {r[-1] for r in rows}
        assert len(variances) == 1
        assert float(variances.pop()) > 0.0

    def test_byte_identical_reruns(self, tmp_path, capsys):
        outs = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            rc, _ = run(capsys, "bench", "--family", "erdos", "--n", "24", "--deg", "4",
                        "--variants", "ft,naive", "--k", "4", "--samples", "200",
                        "--ref-samples", "1000", "--seed", "8", "--out", str(out))
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("repeat", ["0", "-1"])
    def test_repeat_below_one_rejected(self, tmp_path, repeat):
        out = tmp_path / "x.csv"
        rc = main(["bench", "--family", "erdos", "--n", "24", "--deg", "4",
                   "--variants", "dijkstra", "--k", "2", "--repeat", repeat,
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("sweep", ["k=2,2.7", "n=20.5", "deg=3.5", "k=inf"])
    def test_fractional_integer_sweep_rejected(self, tmp_path, sweep):
        out = tmp_path / "x.csv"
        rc = main(["bench", "--family", "erdos", "--n", "24", "--deg", "4",
                   "--variants", "dijkstra", "--sweep", sweep, "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("variants, message", [
        (",", "names no variant"),
        (" , ", "names no variant"),
        ("ft,ft", "'ft' listed twice"),
        ("ft,dijkstra, ft", "'ft' listed twice"),
    ], ids=["comma", "blank", "twice", "twice-apart"])
    def test_empty_or_repeated_variants_rejected(self, tmp_path, capsys, variants, message):
        out = tmp_path / "x.csv"
        rc = main(["bench", "--family", "erdos", "--n", "24", "--deg", "4",
                   "--variants", variants, "--k", "2", "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family, sweep, message", [
        ("erdos", "k=2,2", "sweep value 2 listed twice"),
        ("erdos", "k=2,2.0", "sweep value 2 listed twice"),
        ("wsn", "eps=0.1,0.10", "sweep value 0.1 listed twice"),
    ], ids=["twice", "int-and-float", "trailing-zero"])
    def test_repeated_sweep_value_rejected(self, tmp_path, capsys, family, sweep, message):
        out = tmp_path / "x.csv"
        rc = main(["bench", "--family", family, "--n", "24", "--deg", "4",
                   "--variants", "ft", "--sweep", sweep, "--samples", "200",
                   "--ref-samples", "1000", "--seed", "5", "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--samples", "0", "--samples must be >= 1"),
        ("--ref-samples", "0", "--ref-samples must be >= 1"),
        ("--alpha", "1.5", "--alpha must be in (0,1)"),
        ("--alpha", "nan", "--alpha must be in (0,1)"),
        ("--alpha", "1e-17", "--alpha must be above 2**-53"),
        ("--seed", "-1", "seed must be non-negative, got -1"),
    ], ids=["samples", "ref-samples", "alpha", "alpha-nan", "alpha-too-small", "seed-negative"])
    def test_bad_sampler_flag_rejected_before_selecting(
        self, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("run_strategy called before the flags were checked")

        monkeypatch.setattr("probflow.cli.run_strategy", never)
        out = tmp_path / "x.csv"
        rc = main(["bench", "--family", "partitioned", "--n", "40", "--deg", "4",
                   "--variants", "ft,ft_m", "--k", "3", flag, value, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family, sweep, message", [
        ("partitioned", "c=2,0.5", "ds_c must be > 1"),
        ("partitioned", "k=20,0", "budget must be >= 1"),
        ("erdos", "n=40,1", "n must be >= 2"),
        ("partitioned", "deg=4,5", "degree must be a positive even number"),
        ("wsn", "eps=0.3,2", "epsilon must be in (0, sqrt(2)]"),
    ], ids=["c", "k", "n", "deg", "eps"])
    def test_bad_sweep_point_rejected_before_selecting(
        self, tmp_path, capsys, monkeypatch, family, sweep, message
    ):
        # A sweep whose later point is invalid runs no selection at all.
        calls = []
        monkeypatch.setattr("probflow.cli.run_strategy", lambda *args: calls.append(args))
        out = tmp_path / "x.csv"
        rc = main(["bench", "--family", family, "--n", "40", "--deg", "4",
                   "--variants", "ft,ft_m_ds", "--sweep", sweep, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("family, sweep", [
        ("erdos", "eps=0.1,0.3"),
        ("partitioned", "eps=0.1,0.3"),
        ("wsn", "deg=2,4"),
    ])
    def test_sweep_of_an_axis_the_family_never_reads_rejected(
        self, tmp_path, capsys, monkeypatch, family, sweep
    ):
        # erdos and partitioned read no epsilon and wsn no degree, so every
        # point of such a sweep would be the same instance.
        calls = []
        monkeypatch.setattr("probflow.cli.run_strategy", lambda *args: calls.append(args))
        out = tmp_path / "x.csv"
        rc = main(["bench", "--family", family, "--n", "40", "--deg", "4",
                   "--variants", "ft", "--sweep", sweep, "--out", str(out)])
        assert rc == 2
        axis = sweep.split("=")[0]
        assert capsys.readouterr().err == f"error: sweep axis {axis!r} is not read by family {family!r}\n"
        assert calls == []
        assert not out.exists()

    def test_unknown_variant_rejected(self, tmp_path):
        rc = main(["bench", "--variants", "bogus", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_file_input_instance(self, tmp_path, capsys):
        paths = write_instance(tmp_path, TRIANGLE_EDGES, TRIANGLE_WEIGHTS)
        out = tmp_path / "file.csv"
        rc, _ = run(capsys, "bench", "--edges", paths["edges"], "--weights",
                    paths["weights"], "--query", "Q", "--variants", "ft,dijkstra",
                    "--sweep", "k=1,2", "--samples", "500", "--ref-samples", "5000",
                    "--seed", "2", "--out", str(out))
        assert rc == 0
        assert len(out.read_text().splitlines()) == 5

    def test_file_input_rejects_structural_sweep(self, tmp_path):
        paths = write_instance(tmp_path, TRIANGLE_EDGES, TRIANGLE_WEIGHTS)
        rc = main(["bench", "--edges", paths["edges"], "--query", "Q",
                   "--sweep", "n=10,20", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestDumpFtree:
    def test_triangle_dump(self, tmp_path, capsys):
        paths = write_instance(tmp_path, TRIANGLE_EDGES, TRIANGLE_WEIGHTS)
        rc, stdout = run(capsys, "dump-ftree", "--edges", paths["edges"],
                         "--weights", paths["weights"], "--query", "Q")
        assert rc == 0
        assert stdout.strip() == "0 BI AV=Q V={a,b} children=[]"

    def test_explicit_insert_order(self, tmp_path, capsys):
        paths = write_instance(tmp_path, PATH_EDGES, PATH_WEIGHTS)
        order = tmp_path / "order.txt"
        order.write_text("Q a\na b\n", encoding="utf-8")
        rc, stdout = run(capsys, "dump-ftree", "--edges", paths["edges"],
                         "--weights", paths["weights"], "--query", "Q",
                         "--insert", str(order))
        assert rc == 0
        assert stdout.strip() == "0 MONO AV=Q V={a,b} children=[]"

    def test_repeated_insert_is_validation_error(self, tmp_path, capsys):
        paths = write_instance(tmp_path, PATH_EDGES, PATH_WEIGHTS)
        order = tmp_path / "order.txt"
        order.write_text("Q a\na b\nb a\n", encoding="utf-8")
        rc = main(["dump-ftree", "--edges", paths["edges"], "--weights", paths["weights"],
                   "--query", "Q", "--insert", str(order)])
        assert rc == 2
        assert "edge-set line 3: duplicate edge b a" in capsys.readouterr().err

    def test_detached_insert_is_validation_error(self, tmp_path):
        paths = write_instance(tmp_path, PATH_EDGES, PATH_WEIGHTS)
        order = tmp_path / "order.txt"
        order.write_text("a b\nQ a\n", encoding="utf-8")
        rc = main(["dump-ftree", "--edges", paths["edges"], "--weights", paths["weights"],
                   "--query", "Q", "--insert", str(order)])
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--samples", "5"), ("--alpha", "0.5")])
    def test_sampler_flag_rejected(self, tmp_path, capsys, flag, value):
        # The dump samples no reach table, so it takes no sampler flags.
        paths = write_instance(tmp_path, PATH_EDGES, PATH_WEIGHTS)
        with pytest.raises(SystemExit) as info:
            main(["dump-ftree", "--edges", paths["edges"], "--query", "Q", flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def readme_cli_commands() -> list[str]:
    """The ``probflow ...`` commands of README's code block under ``## CLI``,
    backslash continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line.split(maxsplit=1)[1] for line in lines if line.startswith("probflow ")]


def test_readme_cli_examples_parse():
    commands = readme_cli_commands()
    assert len(commands) == 6
    parser = _build_parser()
    for command in commands:
        # argparse exits 2 on a flag the CLI does not have.
        parser.parse_args(command.split())


@pytest.mark.pinned
class TestPinnedBytes:
    # One sha256 over the files three generators write, the iteration CSV
    # of every variant on each instance, and the default-order dump of the
    # erdos instance.  A change that keeps results bit-identical leaves it
    # as it is; one that changes results re-pins it and says why.
    DIGEST = "31f33cad4682df8264dd8421b0b3c27444b91165debf08e4cc14e88c933696f7"

    INSTANCES = (
        ("er", ["erdos", "--n", "60", "--deg", "6"]),
        ("pt", ["partitioned", "--n", "48", "--deg", "8"]),
        ("wsn", ["wsn", "--n", "80", "--eps", "0.2", "--decay"]),
    )

    def test_cli_outputs_match_pinned_digest(self, tmp_path, capsys):
        digest = hashlib.sha256()
        for name, argv in self.INSTANCES:
            prefix = tmp_path / name
            assert main(["generate", *argv, "--seed", "3", "--out", str(prefix)]) == 0
            inputs = ["--edges", f"{prefix}.edges", "--weights", f"{prefix}.weights", "--query", "0"]
            outputs = [Path(f"{prefix}.edges"), Path(f"{prefix}.weights")]
            for variant in VARIANTS:
                out = tmp_path / f"{name}-{variant}.csv"
                assert main(["maxflow", *inputs, "--variant", variant, "--k", "12",
                             "--samples", "300", "--seed", "7", "--out", str(out)]) == 0
                outputs.append(out)
            if name == "er":
                out = tmp_path / "er.dump"
                assert main(["dump-ftree", *inputs, "--out", str(out)]) == 0
                outputs.append(out)
            for path in outputs:
                digest.update(path.read_bytes())
        capsys.readouterr()
        assert digest.hexdigest() == self.DIGEST

    # One sha256 over the Monte-Carlo estimator's CLI outputs: an
    # `evaluate --mode mc` run on an edge set given out of order with its
    # endpoints swapped, its printed line included, and a small `bench`
    # sweep whose reference flows are whole-subgraph estimates.
    ESTIMATOR_DIGEST = "905a44b85f4d2a82254aedb97520c485328e7d5cba118203284c856b4f466697"

    def test_estimator_outputs_match_pinned_digest(self, tmp_path, capsys):
        digest = hashlib.sha256()
        prefix = tmp_path / "er"
        assert main(["generate", "erdos", "--n", "40", "--deg", "5", "--seed", "3",
                     "--out", str(prefix)]) == 0
        lines = Path(f"{prefix}.edges").read_text(encoding="utf-8").splitlines()
        edge_set = tmp_path / "sel.txt"
        edge_set.write_text("".join(f"{l.split()[1]} {l.split()[0]}\n" for l in lines[::-3]),
                            encoding="utf-8")
        evaluated = tmp_path / "eval.csv"
        capsys.readouterr()
        assert main(["evaluate", "--edges", f"{prefix}.edges", "--weights", f"{prefix}.weights",
                     "--query", "0", "--edge-set", str(edge_set), "--mode", "mc",
                     "--samples", "3000", "--seed", "11", "--out", str(evaluated)]) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
        digest.update(evaluated.read_bytes())
        swept = tmp_path / "bench.csv"
        assert main(["bench", "--family", "partitioned", "--n", "32", "--deg", "4",
                     "--variants", "ft_m,naive,dijkstra", "--sweep", "k=3,6", "--repeat", "2",
                     "--samples", "200", "--ref-samples", "2000", "--seed", "4",
                     "--out", str(swept)]) == 0
        digest.update(swept.read_bytes())
        capsys.readouterr()
        assert digest.hexdigest() == self.ESTIMATOR_DIGEST

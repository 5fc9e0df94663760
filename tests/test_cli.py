"""Command-line interface: formats, determinism, exit codes."""

from __future__ import annotations

import gc
import math
import warnings
from pathlib import Path

import pytest

from probflow.cli import main


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


class TestMaxflow:
    def test_star_exact_flow(self, tmp_path, capsys):
        paths = write_instance(
            tmp_path, "Q a 0.9\nQ b 0.5\nQ c 0.1\n", "Q 0\na 1\nb 1\nc 1\n"
        )
        out = tmp_path / "run.csv"
        rc, stdout = run(capsys, "maxflow", "--edges", paths["edges"],
                         "--weights", paths["weights"], "--query", "Q",
                         "--variant", "ft", "--k", "2", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("iter,edge_u,edge_v,flow_mean")
        assert len(lines) == 3
        assert lines[1].split(",")[:4] == ["1", "Q", "a", "0.9"]
        assert lines[2].split(",")[3] == "1.4"
        assert "final flow 1.4" in stdout
        assert "own weight 0" in stdout

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

    @pytest.mark.parametrize("sweep, message", [
        ("k=2,2", "sweep value 2 listed twice"),
        ("k=2,2.0", "sweep value 2 listed twice"),
        ("eps=0.1,0.10", "sweep value 0.1 listed twice"),
    ], ids=["twice", "int-and-float", "trailing-zero"])
    def test_repeated_sweep_value_rejected(self, tmp_path, capsys, sweep, message):
        out = tmp_path / "x.csv"
        rc = main(["bench", "--family", "erdos", "--n", "24", "--deg", "4",
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
    ], ids=["samples", "ref-samples", "alpha", "alpha-nan"])
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

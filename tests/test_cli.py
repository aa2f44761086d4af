"""End-to-end CLI behavior: every subcommand, every exit code, and the
thin-adapter promise that CLI output equals the library call's output."""

import inspect
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hitlab
from hitlab import analysis
from hitlab.cli import build_parser, dispatch, main
from hitlab.analysis import resolve_schedule
from hitlab.graph import Graph, gen_c4_free_process, gen_cluster, gen_cycle, gen_path
from hitlab.hitting import certificate_to_text, construct_hitting_set
from hitlab.io import format_edge_list, load_graph
from helpers import address_space_cap

# `hitlab schedule` reports, each under its `$ hitlab ...` command line
SCHEDULE_REPORTS = Path(__file__).parent / "golden" / "schedule_reports.txt"


def cli(capsys, *argv):
    code = dispatch(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def src_env():
    """os.environ with this checkout's src first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(hitlab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def python_dash_m(module, *argv, timeout=60):
    return subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=src_env(), timeout=timeout
    )


def write_graph(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(format_edge_list(g))
    return str(p)


@pytest.fixture
def c5_path(tmp_path):
    return write_graph(tmp_path, "c5.el", gen_cycle(5))


@pytest.fixture
def c4_path(tmp_path):
    return write_graph(tmp_path, "c4.el", gen_cycle(4))


@pytest.fixture
def k4_path(tmp_path):
    return write_graph(tmp_path, "k4.el", gen_cluster([4]))


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        code, _, err = cli(capsys)
        assert code == 1
        assert err.startswith("error:usage:")

    def test_help_exits_zero(self, capsys):
        code, out, _ = cli(capsys, "--help")
        assert code == 0
        assert "SUBCOMMAND" in out

    def test_subcommand_help(self, capsys):
        code, out, _ = cli(capsys, "hit", "--help")
        assert code == 0
        assert "--theta" in out

    def test_unknown_subcommand(self, capsys):
        code, _, err = cli(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("error:usage:")

    def test_main_wires_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "argv", ["hitlab", "prob", "--i-size", "4", "--d", "2", "--k", "2", "--s", "2"]
        )
        with pytest.raises(SystemExit) as ex:
            main()
        assert ex.value.code == 0
        assert "exact:" in capsys.readouterr().out

    def test_python_dash_m_runs_the_cli(self):
        proc = python_dash_m("hitlab.cli", "verify", "--graph", "/nonexistent", "--set", "0")
        assert proc.returncode != 0
        assert proc.stderr.startswith("error:parse:")

    def test_python_dash_m_hitlab_runs_the_cli(self):
        proc = python_dash_m("hitlab", "verify", "--graph", "/nonexistent", "--set", "0")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:parse:")

    def test_a_reader_that_stops_early_gets_one_error_line(self, tmp_path):
        # 3^8 maximum independent sets, about 130 KB: more than a pipe holds,
        # so the command is still writing when the reader closes its end
        graph = write_graph(tmp_path, "cluster.el", gen_cluster([3] * 8))
        argv = [sys.executable, "-X", "dev", "-m", "hitlab", "mis", "--graph", graph, "--mode", "enumerate"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env()) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert first == b"alpha: 8\n"
        assert (proc.returncode, err) == (1, b"error:output: stdout was closed before the output was written\n")

    def test_one_parser_serves_every_call(self, capsys, c5_path, tmp_path):
        # a flag given to one call must not leak into the next
        cert = str(tmp_path / "c5.cert")
        runs = [
            ["hit", "--graph", c5_path, "--theta", "1:2", "--delta", "0.5", "--seed", "7", "--out", cert],
            ["hit", "--graph", c5_path, "--delta", "0.5", "--seed", "7"],
            ["hit", "--graph", c5_path, "--theta", "1:2", "--theta", "0:1", "--delta", "0.5"],
            ["verify", "--graph", c5_path, "--cert", cert],
            ["verify", "--graph", c5_path, "--set", "0,1,2"],
            ["verify", "--graph", c5_path, "--set", "0"],
        ]
        fresh = []
        for argv in runs:
            build_parser.cache_clear()
            fresh.append(cli(capsys, *argv))
        build_parser.cache_clear()
        assert [cli(capsys, *argv) for argv in runs] == fresh
        assert [code for code, _, _ in fresh] == [0, 1, 0, 0, 0, 4]
        assert build_parser() is build_parser()


class TestGen:
    def test_cycle_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "g.el"
        code, out, _ = cli(capsys, "gen", "--family", "cycle", "--n", "5", "--out", str(out_path))
        assert code == 0 and out == ""
        assert load_graph(str(out_path)) == gen_cycle(5)

    def test_cluster_to_stdout(self, capsys):
        code, out, _ = cli(capsys, "gen", "--family", "cluster", "--sizes", "3,3,3")
        assert code == 0
        assert out == format_edge_list(gen_cluster([3, 3, 3]))

    def test_dimacs_format(self, capsys):
        code, out, _ = cli(capsys, "gen", "--family", "cycle", "--n", "5", "--format", "dimacs")
        assert code == 0
        assert out.splitlines()[0] == "p edge 5 5"

    def test_gnp_deterministic(self, capsys):
        args = ("gen", "--family", "gnp", "--n", "12", "--p", "0.4", "--seed", "9")
        _, first, _ = cli(capsys, *args)
        _, second, _ = cli(capsys, *args)
        assert first == second

    def test_c4free_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "free.el"
        code, _, _ = cli(
            capsys, "gen", "--family", "c4free", "--n", "8", "--m", "5",
            "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        assert load_graph(str(out_path)).m == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--family", "cluster"),
            ("gen", "--family", "gnp", "--n", "5"),
            ("gen", "--family", "path"),
            ("gen", "--family", "nosuch", "--n", "5"),
            # a size list of separators only is as missing as an empty one
            ("gen", "--family", "cluster", "--sizes", " "),
            ("gen", "--family", "cluster", "--sizes", ","),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error:usage:")


class TestCheckFree:
    def test_c5_is_free(self, capsys, c5_path):
        code, out, _ = cli(capsys, "check-free", "--graph", c5_path, "--s", "2", "--t", "2")
        assert code == 0
        assert out == "free: no induced K_{2,2}\n"

    def test_c4_witness_and_exit_2(self, capsys, c4_path):
        code, out, err = cli(capsys, "check-free", "--graph", c4_path, "--s", "2", "--t", "2")
        assert code == 2
        assert out == "side_a: 0 2\nside_b: 1 3\n"
        assert err.startswith("error:freeness:")

    def test_missing_file(self, capsys):
        code, _, err = cli(capsys, "check-free", "--graph", "/nope.el", "--s", "2", "--t", "2")
        assert code == 1
        assert err.startswith("error:parse:")

    def test_large_t_on_a_star_stays_within_the_recursion_limit(self, capsys, tmp_path):
        star = write_graph(tmp_path, "star.el", Graph.from_edges(301, [(0, v) for v in range(1, 301)]))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            code, out, err = cli(capsys, "check-free", "--graph", star, "--s", "1", "--t", "250")
        finally:
            sys.setrecursionlimit(limit)
        assert code == 2
        assert out == "side_a: 0\nside_b: " + " ".join(str(v) for v in range(1, 251)) + "\n"
        assert err == "error:freeness: graph contains an induced K_{1,250}\n"


class TestMis:
    def test_alpha(self, capsys, c5_path):
        code, out, _ = cli(capsys, "mis", "--graph", c5_path)
        assert code == 0
        assert out == "alpha: 2\nwitness: 0 2\n"

    def test_enumerate(self, capsys, c5_path):
        code, out, _ = cli(capsys, "mis", "--graph", c5_path, "--mode", "enumerate")
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["alpha: 2", "count: 5"]
        assert lines[2:] == ["0 2", "0 3", "1 3", "1 4", "2 4"]

    def test_kernel(self, capsys, tmp_path):
        from hitlab.graph import Graph

        path = tmp_path / "star.el"
        path.write_text(format_edge_list(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])))
        code, out, _ = cli(capsys, "mis", "--graph", str(path), "--mode", "kernel")
        assert code == 0
        assert out == "kernel: 1 2 3\n"

    def test_kernel_beyond_the_enumeration_cap(self, capsys, tmp_path):
        path = write_graph(tmp_path, "k3x20.el", gen_cluster([3] * 20))
        code, out, _ = cli(capsys, "mis", "--graph", path, "--mode", "kernel")
        assert code == 0
        assert out == "kernel: -\n"

    def test_kernel_of_the_empty_graph_is_a_precondition(self, capsys, tmp_path):
        path = tmp_path / "empty.el"
        path.write_text("0 0\n")
        code, _, err = cli(capsys, "mis", "--graph", str(path), "--mode", "kernel")
        assert code == 2
        assert err.startswith("error:precondition:")

    def test_cap_is_a_precondition(self, capsys, tmp_path):
        path = write_graph(tmp_path, "p10.el", gen_path(10))
        code, _, err = cli(capsys, "mis", "--graph", path, "--mode", "enumerate", "--cap", "3")
        assert code == 2
        assert err.startswith("error:cap:")


class TestHit:
    def test_low_degree_shortcut(self, capsys, c5_path):
        code, out, _ = cli(
            capsys, "hit", "--graph", c5_path, "--s", "2", "--t", "2",
            "--k", "2", "--theta", "1:2", "--delta", "0.9", "--seed", "7",
        )
        assert code == 0
        assert "mode: low-degree" in out
        assert "T: 0 1 4" in out

    def test_sampled_core_matches_library(self, capsys, c5_path):
        code, out, _ = cli(
            capsys, "hit", "--graph", c5_path, "--theta", "1:2", "--delta", "0.5", "--seed", "7",
        )
        assert code == 0
        g = load_graph(c5_path)
        sched = resolve_schedule(g, {"mode": "explicit", "s": 2, "t": 2, "k": 2,
                                     "delta": 0.5, "bins": [[1.0, 2.0]]})
        assert out == certificate_to_text(construct_hitting_set(g, sched, 7))
        assert "mode: sampled-core" in out

    def test_out_file_matches_stdout(self, capsys, tmp_path, c5_path):
        args = ("hit", "--graph", c5_path, "--theta", "1:2", "--delta", "0.5", "--seed", "7")
        _, stdout_text, _ = cli(capsys, *args)
        cert_path = tmp_path / "cert.txt"
        code, out, _ = cli(capsys, *args, "--out", str(cert_path))
        assert code == 0 and out == ""
        assert cert_path.read_text() == stdout_text

    def test_repeat_is_byte_identical(self, capsys, c5_path):
        args = ("hit", "--graph", c5_path, "--theta", "1:2", "--delta", "0.5", "--seed", "3")
        _, first, _ = cli(capsys, *args)
        _, second, _ = cli(capsys, *args)
        assert first == second

    def test_explicit_needs_theta(self, capsys, c5_path):
        code, _, err = cli(capsys, "hit", "--graph", c5_path, "--delta", "0.5")
        assert code == 1
        assert "explicit schedule needs" in err

    def test_bad_theta_syntax(self, capsys, c5_path):
        code, _, err = cli(capsys, "hit", "--graph", c5_path, "--theta", "1-2")
        assert code == 1
        assert "--theta expects" in err

    def test_asymptotic_is_infeasible(self, capsys, c5_path):
        code, _, err = cli(capsys, "hit", "--graph", c5_path, "--schedule", "asymptotic")
        assert code == 3
        assert err.startswith("error:infeasible:")

    def test_oversized_k_infeasible_then_trivial(self, capsys, c5_path):
        args = ("hit", "--graph", c5_path, "--k", "3", "--theta", "1:2", "--delta", "0.5")
        code, _, err = cli(capsys, *args)
        assert code == 3
        assert err.startswith("error:infeasible:")
        code, out, _ = cli(capsys, *args, "--allow-trivial")
        assert code == 0
        assert "mode: trivial" in out

    @pytest.mark.parametrize(
        "k,s,t,shown",
        [
            (100, 2, 2, "|H|=4951 and k=100 inside alpha=2"),
            (14278, 7139, 7139, "and k=14278 inside alpha=2"),  # |H| has 4300 digits
            (14280, 7140, 7140, "|H| above alpha=2: (t-1)*C(k,s)+1 has too many digits to print"),
            (10**8, 5 * 10**7, 5 * 10**7, "|H| above alpha=2: (t-1)*C(k,s)+1 has too many digits to print"),
        ],
    )
    def test_infeasible_h_is_sized_before_it_is_printed(self, capsys, c5_path, k, s, t, shown):
        code, _, err = cli(
            capsys, "hit", "--graph", c5_path, "--schedule", "auto", "--k", str(k), "--s", str(s), "--t", str(t)
        )
        assert code == 3
        assert err.startswith("error:infeasible: schedule needs |H|")
        assert err.endswith(shown + "\n")

    def test_freeness_violation_surfaces(self, capsys, c4_path):
        code, _, err = cli(
            capsys, "hit", "--graph", c4_path, "--theta", "1:2", "--delta", "0.4", "--seed", "0",
        )
        assert code == 2
        assert err.startswith("error:freeness:")


class TestVerify:
    def test_explicit_set_passes(self, capsys, c5_path):
        code, out, _ = cli(capsys, "verify", "--graph", c5_path, "--set", "0,2,3,4")
        assert code == 0
        assert out == "verified: true (every maximum independent set hit)\n"

    def test_explicit_set_fails_with_witness(self, capsys, c5_path):
        code, out, err = cli(capsys, "verify", "--graph", c5_path, "--set", "0,1")
        assert code == 4
        assert out == "missed: 2 4\n"
        assert err.startswith("error:verification:")

    def test_cert_round_trip(self, capsys, tmp_path, c5_path):
        cert_path = tmp_path / "cert.txt"
        cli(capsys, "hit", "--graph", c5_path, "--theta", "1:2", "--delta", "0.5",
            "--seed", "7", "--out", str(cert_path))
        code, out, _ = cli(capsys, "verify", "--graph", c5_path, "--cert", str(cert_path))
        assert code == 0
        assert "verified: true" in out

    def test_tampered_cert_is_invalid(self, capsys, tmp_path, c5_path):
        cert_path = tmp_path / "cert.txt"
        cli(capsys, "hit", "--graph", c5_path, "--theta", "1:2", "--delta", "0.5",
            "--seed", "7", "--out", str(cert_path))
        cert_path.write_text(cert_path.read_text().replace("T: 0 2 3 4", "T: 0 2 3"))
        code, _, err = cli(capsys, "verify", "--graph", c5_path, "--cert", str(cert_path))
        assert code == 4
        assert err.startswith("error:verification: certificate invalid")

    def test_garbage_cert_is_a_parse_error(self, capsys, tmp_path, c5_path):
        cert_path = tmp_path / "cert.txt"
        cert_path.write_text("not a certificate\n")
        code, _, err = cli(capsys, "verify", "--graph", c5_path, "--cert", str(cert_path))
        assert code == 1
        assert err.startswith("error:parse:")

    def test_cap_is_no_longer_an_option(self, capsys, c5_path):
        code, _, err = cli(capsys, "verify", "--graph", c5_path, "--set", "0", "--cap", "60")
        assert code == 1
        assert err.startswith("error:usage:")

    def test_answers_beyond_the_enumeration_cap(self, capsys, tmp_path):
        # 20 disjoint triangles: n = 60 and 3^20 maximum independent sets
        path = write_graph(tmp_path, "k3x20.el", gen_cluster([3] * 20))
        code, out, _ = cli(capsys, "verify", "--graph", path, "--set", "0,1,2")
        assert code == 0
        assert out == "verified: true (every maximum independent set hit)\n"
        code, out, err = cli(capsys, "verify", "--graph", path, "--set", "0")
        assert code == 4 and err.startswith("error:verification:")
        assert out == "missed: 1 " + " ".join(str(3 * i) for i in range(1, 20)) + "\n"
        # one vertex per triangle leaves the next vertex of each free
        one_per_triangle = ",".join(str(3 * i) for i in range(20))
        code, out, _ = cli(capsys, "verify", "--graph", path, "--set", one_per_triangle)
        assert code == 4
        assert out == "missed: " + " ".join(str(3 * i + 1) for i in range(20)) + "\n"

    def test_needs_exactly_one_source(self, capsys, tmp_path, c5_path):
        code, _, err = cli(capsys, "verify", "--graph", c5_path)
        assert code == 1 and "exactly one" in err
        cert_path = tmp_path / "cert.txt"
        cert_path.write_text("x\n")
        code, _, err = cli(
            capsys, "verify", "--graph", c5_path, "--cert", str(cert_path), "--set", "0",
        )
        assert code == 1 and "exactly one" in err

    def test_set_id_validation(self, capsys, c5_path):
        code, _, err = cli(capsys, "verify", "--graph", c5_path, "--set", "0,x")
        assert code == 1
        code, _, err = cli(capsys, "verify", "--graph", c5_path, "--set", "0,9")
        assert code == 2
        assert err.startswith("error:precondition:")


class TestMinhit:
    def test_k4_needs_everything(self, capsys, k4_path):
        code, out, _ = cli(capsys, "minhit", "--graph", k4_path)
        assert code == 0
        assert out == "4\nwitness: 0 1 2 3\n"

    def test_c5(self, capsys, c5_path):
        code, out, _ = cli(capsys, "minhit", "--graph", c5_path)
        assert code == 0
        assert out == "3\nwitness: 0 1 2\n"

    def test_answers_beyond_the_enumeration_cap(self, capsys, tmp_path):
        # 20 disjoint triangles (3^20 maximum independent sets) and C_61
        for name, g in (("k3x20.el", gen_cluster([3] * 20)), ("c61.el", gen_cycle(61))):
            code, out, _ = cli(capsys, "minhit", "--graph", write_graph(tmp_path, name, g))
            assert code == 0
            assert out == "3\nwitness: 0 1 2\n"

    def test_cap_is_no_longer_an_option(self, capsys, c5_path):
        code, _, err = cli(capsys, "minhit", "--graph", c5_path, "--cap", "5")
        assert code == 1
        assert err.startswith("error:usage:")


class TestSampleHit:
    def test_full_set_always_hits(self, capsys, c5_path):
        code, out, _ = cli(
            capsys, "sample-hit", "--graph", c5_path, "--p", "5", "--trials", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p: 5"
        assert lines[1] == "trials: 3"
        assert lines[2] == "fail_rate: 0.0"
        assert lines[3] == "union_bound: 0.0"
        assert lines[4] == "hit_trial: 0"
        assert lines[5] == "hit: 0 1 2 3 4"

    def test_empty_sample_never_hits(self, capsys, c5_path):
        code, out, _ = cli(capsys, "sample-hit", "--graph", c5_path, "--p", "0")
        assert code == 0
        lines = out.splitlines()
        assert "fail_rate: 1.0" in lines
        assert lines[-2] == "hit_trial: -"
        assert lines[-1] == "hit: -"

    def test_certificate_out_verifies(self, capsys, tmp_path, c5_path):
        cert_path = tmp_path / "sample.cert"
        code, _, _ = cli(
            capsys, "sample-hit", "--graph", c5_path, "--p", "4", "--trials", "20",
            "--seed", "1", "--out", str(cert_path),
        )
        assert code == 0
        assert "mode: uniform-sample" in cert_path.read_text()
        code, out, _ = cli(capsys, "verify", "--graph", c5_path, "--cert", str(cert_path))
        assert code == 0

    def test_oversized_p(self, capsys, c5_path):
        code, _, err = cli(capsys, "sample-hit", "--graph", c5_path, "--p", "6")
        assert code == 2
        assert err.startswith("error:precondition:")


class TestDrc:
    def test_clique_trace(self, capsys, k4_path):
        code, out, _ = cli(capsys, "drc", "--graph", k4_path, "--alpha-density", "0.9")
        assert code == 0
        assert "branch: argmax" in out
        assert "clique: 0 1 2 3" in out

    def test_density_unmet(self, capsys, c5_path):
        code, _, err = cli(capsys, "drc", "--graph", c5_path, "--alpha-density", "0.9")
        assert code == 2
        assert err.startswith("error:precondition:")

    def test_induced_c4_rejected(self, capsys, c4_path):
        code, _, err = cli(capsys, "drc", "--graph", c4_path, "--alpha-density", "0.3")
        assert code == 2
        assert err.startswith("error:freeness:")

    def test_out_file(self, capsys, tmp_path, k4_path):
        trace_path = tmp_path / "trace.txt"
        code, out, _ = cli(
            capsys, "drc", "--graph", k4_path, "--alpha-density", "0.9", "--out", str(trace_path),
        )
        assert code == 0 and out == ""
        assert "branch: argmax" in trace_path.read_text()


class TestSchedule:
    def test_report_shape(self, capsys):
        code, out, _ = cli(capsys, "schedule", "--n", "1000000", "--s", "2")
        assert code == 0
        lines = out.splitlines()
        assert "feasible: false" in lines
        assert "bins: 4" in lines
        assert any(line.startswith("bin 1: log_k=") for line in lines)
        assert any(line.startswith("bin 1: log_bound_small=") for line in lines)

    def test_tiny_n_rejected(self, capsys):
        code, _, err = cli(capsys, "schedule", "--n", "2")
        assert code == 2
        assert err.startswith("error:precondition:")

    def test_bad_c_prints_no_part_of_the_report(self, capsys):
        code, out, err = cli(capsys, "schedule", "--n", "100", "--c", "0")
        assert (code, out) == (2, "")
        assert err == "error:precondition: c must lie in (0,1], got 0.0\n"

    def test_bins_past_the_float_range_read_minus_inf(self, capsys):
        # from bin 105, ln k is past the float range and so is k*q: the bound
        # is -inf, not the nan of 0 * inf or inf - inf
        code, out, _ = cli(capsys, "schedule", "--n", "1000", "--s", "3", "--t", "3", "--delta", "0.01")
        assert code == 0 and "nan" not in out
        large = [line.rsplit("=", 1)[1] for line in out.splitlines() if "log_bound_large=" in line]
        assert len(large) == 200 and set(large[104:]) == {"-inf"}

    def test_a_huge_s_takes_only_the_terms_that_count(self):
        # only the terms within float reach of a bin's last one are summed;
        # all 10^11 of them, about 0.55 us each, would take days
        run = python_dash_m("hitlab", "schedule", "--n", "3", "--s", "100000000000", "--t", "100000000000",
                            timeout=2)
        assert run.returncode == 0 and run.stderr == ""
        assert "bin 4: log_bound_small=" in run.stdout

    def test_an_s_past_the_float_range_saturates(self):
        # 10*s does not fit a float: the base of the powers is inf, as the
        # powers themselves become once they leave the float range
        s = "1" + "0" * 400
        run = python_dash_m("hitlab", "schedule", "--n", "3", "--s", s, "--t", s, timeout=2)
        assert run.returncode == 0 and run.stderr == ""
        assert "feasible: false" in run.stdout.splitlines()
        bins = [line for line in run.stdout.splitlines() if "log_k=" in line]
        assert bins == [f"bin {j}: log_k=inf log_lo=-inf log_hi=-inf" for j in range(1, 5)]

    def test_reports_keep_their_bytes(self, capsys):
        blocks = SCHEDULE_REPORTS.read_text(encoding="utf-8").split("$ hitlab ")[1:]
        assert len(blocks) == 12
        for block in blocks:
            command, _, want = block.partition("\n")
            assert cli(capsys, *command.split()) == (0, want, "")


class TestProb:
    def test_pinned_values(self, capsys):
        code, out, _ = cli(
            capsys, "prob", "--i-size", "10", "--d", "4", "--k", "3", "--s", "2",
        )
        assert code == 0
        assert out == "exact: 0.6666666666666666\nbinomial_form: 0.648\n"

    def test_precondition(self, capsys):
        code, _, err = cli(capsys, "prob", "--i-size", "4", "--d", "5", "--k", "2", "--s", "1")
        assert code == 2
        assert err.startswith("error:precondition:")

    def test_s_past_k_adds_nothing(self, capsys):
        # C(k, x) = 0 for x > k; those terms raised OverflowError at a huge s
        # and ZeroDivisionError at d = |I| (0.0 to a negative power)
        args = ["prob", "--i-size", "10", "--d", "2", "--k", "3", "--s"]
        want = (0, "exact: 1.0\nbinomial_form: 1.0000000000000002\n", "")
        for s in ("4", "5", "100000000"):
            assert cli(capsys, *args, s) == want
        assert cli(capsys, "prob", "--i-size", "1", "--d", "1", "--k", "0", "--s", "2") == (
            0, "exact: 1.0\nbinomial_form: 1.0\n", "")

    def test_binomial_coefficient_past_the_float_range(self, capsys):
        # C(2000, 1000) has 600 digits; the term is taken in log form
        code, out, err = cli(capsys, "prob", "--i-size", "4000", "--d", "2000", "--k", "2000", "--s", "1001")
        assert code == 0 and err == ""
        exact = sum(Fraction(math.comb(2000, x), 2 ** 2000) for x in range(1001))
        assert abs(float(out.split("binomial_form: ")[1]) - float(exact)) < 1e-12

    @pytest.mark.parametrize(
        "argv,exact",
        [
            (["--i-size", "1000000", "--d", "5", "--k", "500000", "--s", "2"], "0.1874993749984375"),
            # one term, P[X = 50000] = 1/C(100000, 50000); the tail rounds to 1.0
            (["--i-size", "100000", "--d", "50000", "--k", "50000", "--s", "50000"], "1.0"),
            # 1/C(10^6, 5*10^5) rounds to 0.0; that binomial alone took 6 s
            (["--i-size", "1000000", "--d", "500000", "--k", "500000", "--s", "1"], "0.0"),
            # C(500000, x) leaves the float range at x = 73 and the terms fall
            # below a quarter ulp of the sum 2,769 past the mode at 250000
            (["--i-size", "1000000", "--d", "500000", "--k", "500000", "--s", "300000"], "1.0"),
        ],
    )
    def test_large_inputs_take_the_short_tail(self, argv, exact):
        # the sum of binomials took 30 s on the first, over 60 s on the
        # second and 37 s on the last, carrying C(k, x) as an integer
        run = python_dash_m("hitlab", "prob", *argv, timeout=2)
        assert run.returncode == 0 and run.stderr == ""
        assert run.stdout.startswith(f"exact: {exact}\n")


class TestMcE:
    def test_c5_is_deterministic(self, capsys, c5_path):
        code, out, _ = cli(capsys, "mc-e", "--graph", c5_path, "--trials", "5")
        assert code == 0
        assert out == "trials: 5\nmean: 2.0\nstd_error: 0.0\n"

    def test_std_error_digits_pinned(self, capsys, tmp_path):
        # statistics.stdev on Python 3.10 printed 0.2330181020810098 here
        path = write_graph(tmp_path, "c4free40.el", gen_c4_free_process(40, 78, 1))
        code, out, _ = cli(
            capsys, "mc-e", "--graph", path, "--schedule", "auto", "--k", "9", "--seed", "5", "--trials", "300"
        )
        assert code == 0
        assert out == "trials: 300\nmean: 28.72\nstd_error: 0.23301810208100973\n"

    def test_output_is_the_same_on_one_cpu_and_two(self, capsys, tmp_path, monkeypatch):
        path = write_graph(tmp_path, "c4free40.el", gen_c4_free_process(40, 78, 1))
        argv = ("mc-e", "--graph", path, "--schedule", "auto", "--seed", "5", "--trials", "3000")
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        runs = []
        for cpus in (1, 2, 2):
            monkeypatch.setattr(analysis, "_cpus", lambda: cpus)
            runs.append(cli(capsys, *argv))
        # the second run forked one helper, and the third reused it
        assert runs[0] == runs[1] == runs[2] and runs[0][0] == 0 and len(forks) == 1
        analysis._stop_helpers()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_explicit_needs_theta(self, capsys, c5_path):
        code, _, err = cli(capsys, "mc-e", "--graph", c5_path, "--schedule", "explicit")
        assert (code, err) == (1, "error:usage: explicit schedule needs at least one --theta lo:hi\n")

    def test_k_must_fit_alpha(self, capsys, c5_path):
        code, _, err = cli(capsys, "mc-e", "--graph", c5_path, "--k", "3")
        assert code == 2
        assert "exceeds alpha" in err


class TestExperiment:
    CONFIG = {
        "families": [{"kind": "cluster", "sizes": [2, 2]}, {"kind": "path"}],
        "n_values": [6],
        "seeds": [1, 2],
        "schedule": {"mode": "auto", "s": 2, "t": 2, "k": 2},
    }

    @pytest.fixture
    def config_path(self, tmp_path):
        import json

        p = tmp_path / "exp.json"
        p.write_text(json.dumps(self.CONFIG))
        return str(p)

    def test_csv_to_stdout(self, capsys, config_path):
        code, out, _ = cli(capsys, "experiment", "--config", config_path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("schema,family,n,seed")
        assert len(lines) == 5
        assert all(line.endswith(",") for line in lines[1:])  # timings off

    def test_repeat_and_out_file_agree(self, capsys, tmp_path, config_path):
        _, first, _ = cli(capsys, "experiment", "--config", config_path)
        out_path = tmp_path / "rows.csv"
        code, out, _ = cli(capsys, "experiment", "--config", config_path, "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text() == first

    def test_include_timings(self, capsys, config_path):
        code, out, _ = cli(capsys, "experiment", "--config", config_path, "--include-timings")
        assert code == 0
        assert not any(line.endswith(",") for line in out.splitlines()[1:])

    def test_refused_cells_are_named_on_stderr(self, capsys, tmp_path):
        # the row stays as it was; stderr says why it is blank, under a
        # prefix that is not the `error:<kind>:` of a failed run
        path = tmp_path / "x.json"
        path.write_text(SWEEP_CONFIG.replace("[6]", "[1, 6]") % '{"mode": "auto", "s": 2, "t": 2, "k": 2}')
        code, out, err = cli(capsys, "experiment", "--config", str(path))
        assert code == 0
        assert out.splitlines()[1:] == ["1,path,1,1,1,,,1,,", "1,path,6,1,3,2,4,2,5,"]
        assert err == "refused cell: path n=1 seed=1: infeasible: schedule needs |H|=2 and k=2 inside alpha=1\n"

    def test_missing_config(self, capsys, tmp_path):
        code, _, err = cli(capsys, "experiment", "--config", str(tmp_path / "none.json"))
        assert code == 1
        assert err.startswith("error:config:")


C5_CERT = certificate_to_text(
    construct_hitting_set(
        gen_cycle(5),
        resolve_schedule(gen_cycle(5), {"mode": "explicit", "delta": 0.5, "bins": [[1.0, 2.0]]}),
        7,
    )
)


C7_TEXT = format_edge_list(gen_cycle(7))

# one path cell, so a bad schedule field is met inside a cell
SWEEP_CONFIG = '{"families": [{"kind": "path"}], "n_values": [6], "seeds": [1], "schedule": %s}'


def _cert_with(key, value):
    lines = [f"{key}: {value}" if line.split(":")[0] == key else line for line in C5_CERT.splitlines()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "argv,files",
    [
        (["verify", "--graph", "{c5}", "--cert", "{dir}/absent.cert"], {}),
        (["verify", "--graph", "{c5}", "--cert", "{dir}/x.cert"], {"x.cert": _cert_with("T", "-1 1 4")}),
        (["verify", "--graph", "{c5}", "--cert", "{dir}/x.cert"], {"x.cert": _cert_with("T", "1 9")}),
        (["verify", "--graph", "{c5}", "--cert", "{dir}/x.cert"], {"x.cert": _cert_with("center", "9")}),
        (["verify", "--graph", "{c5}", "--cert", "{dir}/x.cert"], {"x.cert": _cert_with("seed", "x")}),
        (["verify", "--graph", "{c5}", "--cert", "{dir}/x.cert"], {"x.cert": _cert_with("n", "-5")}),
        (["verify", "--graph", "{c5}", "--cert", "{dir}"], {}),
        (["hit", "--graph", "{c5}", "--theta", "1:2", "--delta", "0.5", "--out", "{dir}/no/such/dir/x"], {}),
        (["gen", "--family", "cluster", "--sizes", "3,x"], {}),
        (["gen", "--family", "cluster", "--sizes", " , "], {}),
        (["gen", "--family", "gnp", "--n", "-5", "--p", "0.5"], {}),
        (["gen", "--family", "c4free", "--n", "5", "--m", "-1"], {}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"n_values": ["abc"]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"caps": {"enum_n": "x"}}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"caps": [1]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"families": [{"kind": "cluster", "sizes": ["x"]}]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"families": [{"kind": "gnp", "p": "x"}]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"families": [{"kind": "c4free", "m_frac": "x"}]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": SWEEP_CONFIG % '{"s": "x"}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": SWEEP_CONFIG % '{"delta": "x"}'}),
        (["experiment", "--config", "{dir}/x.json"],
         {"x.json": SWEEP_CONFIG % '{"mode": "explicit", "k": "x", "bins": [[1, 2]]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"n_values": [1e999]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": b'\xff\xfe{}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"seeds": [1.5]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"seeds": [true]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"n_values": [5.7]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"caps": {"enum_n": 1.9}}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": SWEEP_CONFIG % '{"mode": "auto", "s": 2.5}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"families": [{"kind": "cluster", "q": 2.7}]}'}),
        (["experiment", "--config", "{dir}/x.json"],
         {"x.json": '{"families": [{"kind": "cluster", "sizes": [3.9, 3]}]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"seeds": ["1"]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"n_values": ["6"]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"families": [{"kind": "cluster", "q": "3"}]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"caps": {"enum_n": " 4 "}}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"seeds": ["1_000"]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"families": [{"kind": "cluster", "sizes": "33"}]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"families": [{"kind": "gnp", "p": true}]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"families": [{"kind": "c4free", "m_frac": "0.1"}]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": SWEEP_CONFIG % '{"mode": "auto", "delta": "0.3"}'}),
        (["experiment", "--config", "{dir}/x.json"],
         {"x.json": SWEEP_CONFIG % '{"mode": "explicit", "bins": [["1", "2"]]}'}),
        (["experiment", "--config", "{dir}/x.json"],
         {"x.json": SWEEP_CONFIG % ('{"mode": "explicit", "bins": [[1, 1%s]]}' % ("0" * 400))}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": SWEEP_CONFIG % '{"mode": "foo"}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": SWEEP_CONFIG % '{"mode": "explicit", "bins": [[1]]}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": '{"caps": {"minhit": 10}}'}),
        (["experiment", "--config", "{dir}/x.json"], {"x.json": SWEEP_CONFIG % "[]"}),
        (["hit", "--graph", "{c5}", "--theta", "1:x", "--delta", "0.5"], {}),
        (["schedule", "--n", "100", "--s", "3", "--t", "2"], {}),
        (["drc", "--graph", "{dir}/empty.el", "--alpha-density", "0.5"], {"empty.el": "0 0\n"}),
        (["drc", "--graph", "{c5}", "--alpha-density", "1e-17", "--sharp-beta"], {}),
        (["mis", "--graph", "{dir}/short.dimacs"], {"short.dimacs": "p edge 3\n"}),
        (["hit", "--graph", "{dir}/c7.el", "--schedule", "auto", "--delta", "1e-8"], {"c7.el": C7_TEXT}),
        (["mc-e", "--graph", "{dir}/c7.el", "--delta", "1e-8"], {"c7.el": C7_TEXT}),
        (["schedule", "--n", "100", "--delta", "1e-8"], {}),
        (["mis", "--graph", "{dir}/huge.el"], {"huge.el": "3000000000 0\n"}),
        (["mis", "--graph", "{dir}/huge.dimacs"], {"huge.dimacs": "p edge 3000000000 0\n"}),
        (["gen", "--family", "path", "--n", "100000000"], {}),
        (["gen", "--family", "gnp", "--n", "100000000", "--p", "0"], {}),
        (["gen", "--family", "cluster", "--sizes", "100000000"], {}),
        (["gen", "--family", "c4free", "--n", "40000", "--m", "0"], {}),
        (["hit", "--graph", "{c5}", "--schedule", "auto", "--k", "30000", "--s", "15000", "--t", "15000"], {}),
        (["hit", "--graph", "{c5}", "--schedule", "auto", "--k", "100000000", "--s", "50000000", "--t", "50000000"],
         {}),
        (["prob", "--i-size", "100000000", "--d", "5", "--k", "50000000", "--s", "2"], {}),
    ],
    ids=[
        "missing-cert", "negative-id", "id-above-n", "center-above-n", "seed-not-int", "negative-n",
        "cert-is-dir", "unwritable-out", "sizes-not-int", "sizes-blank", "gnp-negative-n", "c4free-negative-m",
        "n-values-not-int", "cap-not-int", "caps-not-object",
        "cluster-sizes-not-int", "gnp-p-not-numeric", "c4free-m-frac-not-numeric", "schedule-s-not-int",
        "schedule-delta-not-numeric", "schedule-k-not-int", "n-values-infinite",
        "config-not-utf-8", "seeds-fractional", "seeds-boolean", "n-values-fractional", "cap-fractional",
        "schedule-s-fractional", "cluster-q-fractional", "cluster-sizes-fractional", "seeds-string", "n-values-string",
        "cluster-q-string", "cap-string", "seeds-underscored-string", "cluster-sizes-string",
        "gnp-p-boolean", "c4free-m-frac-string", "schedule-delta-string", "schedule-bins-strings",
        "schedule-bins-past-the-float-range", "schedule-mode-unknown", "schedule-bins-malformed", "caps-key-unknown",
        "schedule-not-object", "hit-theta-not-numeric", "schedule-s-above-t", "drc-empty-graph",
        "drc-beta-underflow", "dimacs-short-problem-line",
        "hit-tiny-delta", "mc-e-tiny-delta", "schedule-tiny-delta", "edge-list-huge-n", "dimacs-huge-n",
        "path-huge-n", "gnp-huge-n", "cluster-huge-n", "c4free-huge-pairs", "hit-h-over-digit-limit",
        "hit-h-astronomical", "prob-i-size-above-the-ceiling",
    ],
)
def test_bad_input_exits_with_an_error_kind(capsys, tmp_path, c5_path, argv, files):
    for name, text in files.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    argv = [arg.format(c5=c5_path, dir=tmp_path) for arg in argv]
    with address_space_cap():
        code, _, err = cli(capsys, *argv)
    assert code in {1, 2, 3, 4}
    assert err.startswith("error:")
    assert "Traceback" not in err

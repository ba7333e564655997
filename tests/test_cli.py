import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellip1d import QuadratureRule, builtin_problem, cli, fem_solve
from ellip1d.cli import (
    FINE_GRID_ELEMS,
    REPORT_CSV_HEADER,
    build_parser,
    main,
    table_reports,
    table_sci,
)
from ellip1d.decompose import Method, solve_improved, solve_original
from ellip1d.norms import field_errors, fine_grid_errors, fine_grid_h1_error, fine_grid_l2_error
from ellip1d.problems import ScalarField

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTableSci:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (1.2839e-2, "1.2839(-02)"),
            (5.0756e-5, "5.0756(-05)"),
            (0.0, "0.0000(+00)"),
            (2.5, "2.5000(+00)"),
            (-3.2e-4, "-3.2000(-04)"),
            (9.99996e-3, "1.0000(-02)"),
        ],
    )
    def test_format(self, value, expected):
        assert table_sci(value) == expected


class TestSolve:
    def test_csv_row_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--problem", "ex1", "--N", "64", "--M", "2",
            "--method", "improved",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == REPORT_CSV_HEADER
        fields = lines[1].split(",")
        assert fields[:4] == ["ex1", "64", "2", "improved"]
        assert float(fields[4]) > 0.0
        assert fields[6] == "closed_form"

    def test_direct_method_baseline_accuracy(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--problem", "ex1", "--N", "512", "--M", "4",
            "--method", "direct",
        )
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[4]) <= 5e-6

    def test_ex4_uses_flux_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--problem", "ex4", "--N", "32", "--M", "2",
        )
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[6] == "flux_oracle"

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--problem", "ex1", "--N", "64", "--M", "2",
            "--format", "text",
        )
        assert code == 0
        assert "(-0" in out  # d.dddd(-ee) exponent notation

    def test_deterministic_output(self, capsys):
        args = ("solve", "--problem", "ex3", "--N", "128", "--M", "3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestTable:
    def test_csv_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--problem", "ex1",
            "--N-list", "8,16", "--M-list", "1,2,3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == REPORT_CSV_HEADER
        assert len(lines) == 1 + 2 * 3
        n_seen = [int(line.split(",")[1]) for line in lines[1:]]
        assert n_seen == [8, 8, 8, 16, 16, 16]

    def test_lists_sorted_before_execution(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--problem", "ex1",
            "--N-list", "16,8", "--M-list", "2,1",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [(int(r[1]), int(r[2])) for r in rows] == [
            (8, 1), (8, 2), (16, 1), (16, 2)
        ]

    def test_text_layout(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--problem", "ex1", "--format", "text",
            "--N-list", "8,16", "--M-list", "1,2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1].split() == ["M=1", "M=2"]
        assert lines[2].startswith("N=8")
        assert lines[3].startswith("N=16")

    def test_out_file_lf_endings(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run_cli(
            capsys, "table", "--problem", "ex1",
            "--N-list", "8", "--M-list", "1", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").startswith(REPORT_CSV_HEADER)

    def test_byte_identical_reruns(self, capsys):
        args = ("table", "--problem", "ex1", "--N-list", "8,16",
                "--M-list", "1,2")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_full_double_precision(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--problem", "ex1", "--N-list", "8", "--M-list", "2",
        )
        value = out.strip().split("\n")[1].split(",")[4]
        assert len(value.split("e")[0].replace(".", "").lstrip("-").lstrip("0")) >= 15


class TestTableRowsFromOneRun:
    """Each table row comes from one u_0 per N; every cell must still equal
    the per-cell solve of its (N, M), scored the same way, bit for bit."""

    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    @pytest.mark.parametrize("method", list(Method))
    def test_cells_equal_per_cell_runs(self, pid, method):
        problem = builtin_problem(pid)
        rule = QuadratureRule.gauss(3)
        fine = fem_solve(problem, FINE_GRID_ELEMS, rule) if pid == "ex4" else None
        # the fine-grid reference needs nested meshes; closed forms take any N
        n_list = [16, 8, 16] if fine is not None else [16, 7, 30, 100, 8, 30]
        m_list = [6, 2, 6, 3]
        reports = table_reports(problem, method, n_list, m_list)
        assert [(r.n_elems, r.truncation) for r in reports] == [
            (n, m) for n in n_list for m in m_list]
        for r in reports:
            if method is Method.DIRECT:
                approx = fem_solve(problem, r.n_elems, rule)
            else:
                solver = solve_original if method is Method.ORIGINAL else solve_improved
                approx = solver(problem, r.n_elems, r.truncation, rule).U_M
            if fine is None:
                [expected] = field_errors(approx.mesh, [approx], problem.exact)
            else:
                expected = (fine_grid_l2_error(approx, fine),
                            fine_grid_h1_error(approx, fine))
            assert (r.l2_error, r.h1_error) == expected, (r.n_elems, r.truncation)
            assert r.method == method.value


class TestFineGridRows:
    @pytest.mark.parametrize("method", list(Method))
    def test_ex4_scores_each_row_in_one_call(self, method, monkeypatch):
        calls = []

        def counted(mesh, functions, fine):
            calls.append((mesh.n_elems, len(functions), fine.mesh.n_elems))
            return fine_grid_errors(mesh, functions, fine)

        monkeypatch.setattr(cli, "fine_grid_errors", counted)
        reports = table_reports(builtin_problem("ex4"), method, [8, 16, 32], [2, 4, 6])
        assert len(reports) == 9
        per_row = 1 if method is Method.DIRECT else 3
        assert calls == [(n, per_row, FINE_GRID_ELEMS) for n in (8, 16, 32)]


class TestBench:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--problem", "ex1", "--N", "64", "--M", "2",
            "--reps", "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("problem,N,M,method,solves")
        methods = [line.split(",")[3] for line in lines[1:]]
        assert methods == ["original", "improved", "direct"]
        solves = [int(line.split(",")[4]) for line in lines[1:]]
        assert solves == [3, 2, 1]

    def test_reps_below_minimum_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bench", "--problem", "ex1", "--N", "16", "--M", "2",
                  "--reps", "2"])
        assert info.value.code == 2
        assert ("argument --reps: need at least 3 repetitions, got 2"
                in capsys.readouterr().err)


class TestVerify:
    def test_all_suites_pass_on_ex1(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--problem", "ex1", "--M-list", "1,2,3,4",
        )
        assert code == 0
        for suite in ("tail-bound", "theorem-bound", "equivalence",
                      "factorial-decay", "convergence-order"):
            assert f"PASS {suite}" in out
        assert "FAIL" not in out

    def test_theorem_bound_triples_printed(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--problem", "ex2", "--M-list", "1,2,4",
            "--suite", "theorem-bound",
        )
        assert code == 0
        assert "M=1:" in out and "M=4:" in out and "M=3:" not in out
        assert "<= bound" in out

    @staticmethod
    def kappa_samples(monkeypatch, capsys, pid, *argv) -> int:
        """Points at which `verify --problem pid *argv` samples kappa, once the
        Problem is built and validated."""
        samples = [0]
        problem = builtin_problem(pid)
        kappa = problem.kappa

        def counted(x):
            samples[0] += x.size
            return kappa(x)

        problem = dataclasses.replace(problem, kappa=ScalarField(counted, kappa.description))
        samples[0] = 0
        monkeypatch.setattr(cli, "builtin_problem", lambda _: problem)
        assert run_cli(capsys, "verify", "--problem", pid, *argv)[0] == 0
        return samples[0]

    @pytest.mark.parametrize("pid", ["ex1", "ex2"])
    def test_suites_share_one_psi_sup_grid(self, monkeypatch, capsys, pid):
        # theorem-bound and factorial-decay both need ||psi||_inf: they read it
        # off the Problem's validation sample, so no suite samples a psi grid
        # and one run samples kappa exactly as often as the suites one by one
        one_run = self.kappa_samples(monkeypatch, capsys, pid)
        suite_by_suite = sum(self.kappa_samples(monkeypatch, capsys, pid, "--suite", name)
                             for name in cli.VERIFY_SUITES)
        assert one_run == suite_by_suite

    def test_single_suite_equivalence(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--problem", "ex3", "--suite", "equivalence",
        )
        assert code == 0
        assert "max nodal |improved - original|" in out
        gap = float(out.split("| = ")[1].split(" at ")[0])
        assert gap <= 1e-12


class TestUsageErrors:
    def test_unknown_problem_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--problem", "ex9", "--N", "8", "--M", "1"])
        assert info.value.code == 2

    def test_malformed_list_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table", "--problem", "ex1", "--N-list", "8,banana"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_zero_truncation_for_decomposition_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--problem", "ex1", "--N", "16", "--M", "0",
                  "--method", "improved"])
        assert info.value.code == 2

    def test_zero_truncation_for_direct_is_allowed(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--problem", "ex1", "--N", "16", "--M", "0",
            "--method", "direct",
        )
        assert code == 0

    def test_table_sizes_the_fine_grid_cannot_nest_exit_two_before_any_work(
            self, capsys, monkeypatch):
        # ex4 is scored against a direct solve on FINE_GRID_ELEMS elements
        def refuse(*args, **kwargs):
            raise AssertionError("a solve ran before the nesting check")

        monkeypatch.setattr(cli, "fem_solve", refuse)
        with pytest.raises(SystemExit) as info:
            main(["table", "--problem", "ex4", "--N-list", f"7,16,30,{2 * FINE_GRID_ELEMS}"])
        assert info.value.code == 2
        assert f"does not nest N = 7, 30, {2 * FINE_GRID_ELEMS}" in capsys.readouterr().err

    # the nesting check reads the problem that the table then runs on
    @pytest.mark.parametrize("pid, n_list", [("ex1", "7,30"), ("ex4", "8,16")])
    def test_table_builds_its_problem_once(self, pid, n_list, capsys, monkeypatch):
        builds = []

        def counted(problem_id):
            builds.append(problem_id)
            return builtin_problem(problem_id)

        monkeypatch.setattr(cli, "builtin_problem", counted)
        code, out, _ = run_cli(capsys, "table", "--problem", pid, "--N-list", n_list,
                               "--M-list", "2")
        assert code == 0
        assert len(out.splitlines()) == 3
        assert builds == [pid]

    def test_table_sizes_off_the_fine_grid_run_with_a_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--problem", "ex1", "--method", "improved",
                               "--N-list", "7,30", "--M-list", "2")
        assert code == 0
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize("out", [lambda d: d / "missing" / "x.csv", lambda d: d],
                             ids=["missing-directory", "directory"])
    def test_unwritable_out_is_one_line_usage_error(self, out, tmp_path, capsys):
        code, stdout, err = run_cli(capsys, "solve", "--N", "8", "--out", str(out(tmp_path)))
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: cannot write --out {out(tmp_path)}: ")
        assert err.count("\n") == 1

    def test_nonpositive_elements_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--problem", "ex1", "--N", "0", "--M", "1"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--method", "original", "--M", "0"],
            ["bench", "--M", "0"],
            ["solve", "--method", "direct", "--M", "-1"],
            ["solve", "--method", "direct", "--N", "-3"],
            # assembly always uses fem.ASSEMBLY_RULE, and verify prints text only
            ["solve", "--quad", "3"],
            ["table", "--quad", "3"],
            ["bench", "--quad", "3"],
            ["verify", "--quad", "3"],
            ["verify", "--format", "csv"],
        ],
    )
    def test_sizes_below_limits_exit_two_before_any_work(self, argv, monkeypatch):
        def refuse(args):
            raise AssertionError("a run started below the size limits")

        for name in ("cmd_solve", "cmd_table", "cmd_bench", "cmd_verify"):
            monkeypatch.setattr(cli, name, refuse)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv, dest, expected",
        [
            (["solve", "--N", "1048576"], "n_elems", 2**20),
            (["solve", "--M", "64"], "truncation", 64),
            (["bench", "--N", "1048576"], "n_elems", 2**20),
            (["bench", "--M", "64"], "truncation", 64),
            (["table", "--N-list", "8,1048576"], "n_list", [8, 2**20]),
            (["table", "--M-list", "64,2"], "m_list", [2, 64]),
            (["verify", "--M-list", "1,64"], "m_list", [1, 64]),
            (["bench", "--reps", "1000"], "reps", 1000),
        ],
    )
    def test_sizes_at_limits_parse(self, argv, dest, expected):
        # parse only: a run at the limits is far too large for a test
        assert getattr(build_parser().parse_args(argv), dest) == expected

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--N", "1048577"], "at most 1048576 elements"),
            (["solve", "--M", "65"], "must be <= 64"),
            (["table", "--N-list", "8,1048577"], "at most 1048576 elements"),
            (["table", "--M-list", "2,65"], "must be <= 64"),
            (["bench", "--N", "1048577"], "at most 1048576 elements"),
            (["verify", "--M-list", "1,65"], "must be <= 64"),
            (["bench", "--reps", "1001"], "at most 1000 repetitions, got 1001"),
            (["bench", "--reps", "1000000000"], "at most 1000 repetitions"),
        ],
    )
    def test_sizes_above_limits_exit_two_before_any_work(self, argv, message, capsys,
                                                         monkeypatch):
        def refuse(args):
            raise AssertionError("a run started past the size limits")

        for name in ("cmd_solve", "cmd_table", "cmd_bench", "cmd_verify"):
            monkeypatch.setattr(cli, name, refuse)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table", "--N-list", "8,banana"], "invalid int value: 'banana'"),
            (["table", "--N-list", ","], "empty list: ','"),
            (["table", "--N-list", "0,8"], "need at least one element, got 0"),
            (["table", "--M-list", "0"], "truncation order must be >= 1, got 0"),
            (["verify", "--M-list", "0"], "truncation order must be >= 1, got 0"),
            (["bench", "--M", "0"], "truncation order must be >= 1, got 0"),
        ],
    )
    def test_list_entries_and_bench_order_share_the_single_value_types(
            self, argv, message, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a run started on a bad entry")

        for name in ("cmd_solve", "cmd_table", "cmd_bench", "cmd_verify"):
            monkeypatch.setattr(cli, name, refuse)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_parser_help_lists_defaults(self):
        parser = build_parser()
        assert parser.prog == "ellip1d"


class TestOneProcess:
    """One process builds the parser and each built-in Problem once; every
    main() call still parses its own arguments and runs on its own Problem copy."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_explicit_lists_leave_the_next_call_its_defaults(self, capsys):
        default = ("table", "--problem", "ex2")
        _, first, _ = run_cli(capsys, *default)
        _, narrow, _ = run_cli(capsys, *default, "--N-list", "16,64", "--M-list", "3")
        _, again, _ = run_cli(capsys, *default)
        assert len(narrow.splitlines()) == 3
        assert again == first
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        fresh = subprocess.run([sys.executable, "-m", "ellip1d.cli", *default], env=env,
                               capture_output=True, text=True, timeout=60)
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout == first

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
from ellip1d.norms import (
    ERROR_RULE,
    fine_grid_h1_error,
    fine_grid_l2_error,
    h1_seminorm_error,
    l2_error,
)


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
        reports = table_reports(problem, method, n_list, m_list, rule)
        assert [(r.n_elems, r.truncation) for r in reports] == [
            (n, m) for n in n_list for m in m_list]
        for r in reports:
            if method is Method.DIRECT:
                approx = fem_solve(problem, r.n_elems, rule)
            else:
                solver = solve_original if method is Method.ORIGINAL else solve_improved
                approx = solver(problem, r.n_elems, r.truncation, rule).U_M
            if fine is None:
                expected = (l2_error(approx, problem.exact, ERROR_RULE),
                            h1_seminorm_error(approx, problem.exact_derivative, ERROR_RULE))
            else:
                expected = (fine_grid_l2_error(approx, fine),
                            fine_grid_h1_error(approx, fine))
            assert (r.l2_error, r.h1_error) == expected, (r.n_elems, r.truncation)
            assert r.method == method.value


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

    def test_table_sizes_off_the_fine_grid_run_with_a_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--problem", "ex1", "--method", "improved",
                               "--N-list", "7,30", "--M-list", "2")
        assert code == 0
        assert len(out.splitlines()) == 3

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

    def test_parser_help_lists_defaults(self):
        parser = build_parser()
        assert parser.prog == "ellip1d"

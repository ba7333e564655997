import dataclasses
import statistics
import time

import numpy as np
import pytest

from ellip1d import bench, builtin_problem, exact_solution_via_flux, fem_solve, l2_error
from ellip1d.bench import BENCH_CSV_HEADER, ORACLE_TOL, run_benchmark
from ellip1d.decompose import Method, semi_analytic_U_M, solve_improved, solve_original
from ellip1d.norms import ERROR_RULE

from conftest import unit_problem


class TestCounters:
    def test_exact_operation_counts(self, ex1):
        report = run_benchmark(ex1, 64, 3, reps=3)
        orig = report.methods[Method.ORIGINAL]
        impr = report.methods[Method.IMPROVED]
        direct = report.methods[Method.DIRECT]
        assert (orig.solves, orig.assemblies, orig.factorizations) == (4, 3, 1)
        assert (impr.solves, impr.assemblies, impr.factorizations) == (2, 1, 1)
        assert (direct.solves, direct.assemblies, direct.factorizations) == (1, 0, 1)

    def test_counters_deterministic_across_repetitions(self, ex3, rule3):
        for _ in range(3):
            result = solve_original(ex3, 32, 5, rule3)
            assert (result.solve_count, result.assembly_count) == (6, 5)

    def test_rejects_too_few_reps(self, ex1):
        with pytest.raises(ValueError, match="repetitions"):
            run_benchmark(ex1, 16, 2, reps=2)


class TestUnitCoefficientAgreement:
    def test_all_methods_coincide(self, rule3):
        problem = unit_problem()
        n, m = 64, 5
        direct = fem_solve(problem, n, rule3)
        original = solve_original(problem, n, m, rule3)
        improved = solve_improved(problem, n, m, rule3)
        assert np.abs(direct.values - original.U_M.values).max() <= 1e-12
        assert np.abs(direct.values - improved.U_M.values).max() <= 1e-12


class TestAccuracyPreservation:
    @pytest.mark.parametrize("pid,n,m", [("ex1", 128, 4), ("ex3", 256, 6)])
    def test_improved_matches_original_error(self, rule3, rule5, pid, n, m, request):
        problem = request.getfixturevalue(pid)
        e_orig = l2_error(solve_original(problem, n, m, rule3).U_M,
                          problem.exact, rule5)
        e_impr = l2_error(solve_improved(problem, n, m, rule3).U_M,
                          problem.exact, rule5)
        h = problem.length / n
        assert abs(e_impr - e_orig) <= max(0.05 * e_orig, 10.0 * h * h)

    def test_first_order_truncation_same_error(self, rule3, ex2):
        a = solve_original(ex2, 2**7, 1, rule3)
        b = solve_improved(ex2, 2**7, 1, rule3)
        assert np.abs(a.U_M.values - b.U_M.values).max() <= 1e-12


class TestReportShape:
    def test_csv_rows(self, ex1):
        report = run_benchmark(ex1, 32, 2, reps=3)
        rows = report.csv_rows()
        assert len(rows) == 3
        assert BENCH_CSV_HEADER.count(",") == 8
        for row in rows:
            fields = row.split(",")
            assert len(fields) == 9
            assert fields[0] == "ex1"
            assert float(fields[-1]) >= 0.0

    def test_errors_scored_against_matching_oracle(self, ex1, rule3, rule5):
        # decomposition methods are compared to the truncated limit, so their
        # reported error reflects discretization, not truncation
        report = run_benchmark(ex1, 64, 2, reps=3)
        impr = report.methods[Method.IMPROVED]
        from ellip1d.decompose import semi_analytic_U_M
        oracle = semi_analytic_U_M(ex1, 2, 1e-9)
        expected = l2_error(solve_improved(ex1, 64, 2, rule3).U_M, oracle, rule5)
        assert impr.l2_error == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    def test_truncated_oracle_sampled_once(self, pid, rule3, monkeypatch):
        # both decomposition rows share one sampling of the truncated oracle,
        # and every row scores exactly as a separate l2_error call would
        problem = builtin_problem(pid)
        samples = []

        def counted_oracle(*args):
            oracle = semi_analytic_U_M(*args)
            # keeps the oracle's derivative, which the scorer also samples
            return dataclasses.replace(
                oracle, fn=lambda x: samples.append(x.size) or oracle(x))

        monkeypatch.setattr(bench, "semi_analytic_U_M", counted_oracle)
        report = run_benchmark(problem, 48, 3, reps=3)
        assert samples == [48 * ERROR_RULE.n_points]
        oracle = semi_analytic_U_M(problem, 3, ORACLE_TOL)
        for method, solve in ((Method.ORIGINAL, solve_original),
                              (Method.IMPROVED, solve_improved)):
            expected = l2_error(solve(problem, 48, 3, rule3).U_M, oracle, ERROR_RULE)
            assert report.methods[method].l2_error == expected
        direct = fem_solve(problem, 48, rule3)
        expected = l2_error(direct, exact_solution_via_flux(problem, ORACLE_TOL), ERROR_RULE)
        assert report.methods[Method.DIRECT].l2_error == expected


class TestTiming:
    def test_improved_faster_than_original(self, ex1):
        # 11 versus 2 back-substitutions dominates at this size
        report = run_benchmark(ex1, 2**13, 10, reps=3)
        assert (report.methods[Method.IMPROVED].wall_ns_median
                < report.methods[Method.ORIGINAL].wall_ns_median)

    def test_work_scales_with_mesh(self, ex1, rule3):
        # the two sizes alternate, so each pair runs at the same machine
        # speed, and the median pair ratio shrugs off a pair hit by a pause
        def wall_ns(n):
            t0 = time.perf_counter_ns()
            solve_original(ex1, n, 6, rule3)
            return time.perf_counter_ns() - t0

        wall_ns(2**12), wall_ns(2**13)  # warmup, excluded
        ratios = []
        for _ in range(25):
            small = wall_ns(2**12)
            ratios.append(wall_ns(2**13) / small)
        assert statistics.median(ratios) >= 1.5

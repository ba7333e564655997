"""Cost and timing comparison of the three solution methods.

The claim under test: the two-solve method does the work of the recursive
one (M + 1 back-substitutions, M recursion fluxes) in 2 and 1, at the same
accuracy. Counters are exact and deterministic; wall time is the median
over repetitions after a warmup run, measured on the monotonic clock. All
wall-time conclusions are relative; no absolute targets exist.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .decompose import Method, semi_analytic_U_M, solve_improved, solve_original
from .fem import ASSEMBLY_RULE, fem_solve
from .norms import field_errors
from .problems import Problem, exact_solution_via_flux

__all__ = ["MethodStats", "BenchReport", "run_benchmark", "BENCH_CSV_HEADER"]

BENCH_CSV_HEADER = "problem,N,M,method,solves,assemblies,factorizations,wall_ns_median,l2_error"

ORACLE_TOL = 1e-9


@dataclass(frozen=True)
class MethodStats:
    solves: int
    assemblies: int
    factorizations: int
    wall_ns_median: int
    l2_error: float


@dataclass(frozen=True)
class BenchReport:
    problem: str
    n_elems: int
    truncation: int
    methods: dict[Method, MethodStats]

    def csv_rows(self) -> list[str]:
        rows = []
        for method in (Method.ORIGINAL, Method.IMPROVED, Method.DIRECT):
            s = self.methods[method]
            rows.append(
                f"{self.problem},{self.n_elems},{self.truncation},{method.value},"
                f"{s.solves},{s.assemblies},{s.factorizations},"
                f"{s.wall_ns_median},{s.l2_error:.17g}"
            )
        return rows


def _timed(fn, reps: int):
    fn()  # warmup, excluded
    times = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        result = fn()
        times.append(time.perf_counter_ns() - t0)
    return result, int(statistics.median(times))


def run_benchmark(problem: Problem, n_elems: int, truncation: int, reps: int) -> BenchReport:
    """Time all three methods on one (N, M) configuration, assembled with ASSEMBLY_RULE.

    The decomposition methods are scored against the mesh-free truncated
    approximation of the same order; the direct solve against the
    flux-integral solution. Both references are Chebyshev antiderivatives
    accurate to rounding, built once before the timed runs, so the L2
    column carries no oracle error. After the timed runs, norms.field_errors
    samples each reference once; only its L2 values are kept, so the
    derivative samples it also takes cost one field evaluation per
    reference, outside the timing. Runs are strictly sequential.
    """
    if reps < 3:
        raise ValueError(f"need at least 3 repetitions, got {reps}")
    truncated_ref = semi_analytic_U_M(problem, truncation, ORACLE_TOL)
    full_ref = exact_solution_via_flux(problem, ORACLE_TOL)

    original, orig_ns = _timed(
        lambda: solve_original(problem, n_elems, truncation, ASSEMBLY_RULE), reps
    )
    improved, impr_ns = _timed(
        lambda: solve_improved(problem, n_elems, truncation, ASSEMBLY_RULE), reps
    )
    direct, direct_ns = _timed(lambda: fem_solve(problem, n_elems, ASSEMBLY_RULE), reps)

    # both decomposition rows share one sampling of the truncated reference
    (orig_l2, _), (impr_l2, _) = field_errors(
        direct.mesh, [original.U_M, improved.U_M], truncated_ref)
    [(direct_l2, _)] = field_errors(direct.mesh, [direct], full_ref)
    methods = {
        Method.ORIGINAL: MethodStats(original.solve_count, original.assembly_count,
                                     original.factorization_count, orig_ns, orig_l2),
        Method.IMPROVED: MethodStats(improved.solve_count, improved.assembly_count,
                                     improved.factorization_count, impr_ns, impr_l2),
        Method.DIRECT: MethodStats(solves=1, assemblies=0, factorizations=1,
                                   wall_ns_median=direct_ns, l2_error=direct_l2),
    }
    return BenchReport(
        problem=problem.name,
        n_elems=n_elems,
        truncation=truncation,
        methods=methods,
    )

"""Command-line front end: single solves, error tables, benchmarks, checks.

Subcommands
    solve    one (problem, N, M, method) run, reported as one error row
    table    the full N x M error grid for a problem, CSV or aligned text
    bench    cost counters and median wall times for all three methods
    verify   numeric checks of the convergence theory and method identities

Exit codes: 0 success, 1 computational failure or failed verification,
2 usage error. CSV output is UTF-8 with LF line endings and a header row;
floats carry 17 significant digits. Text output prints errors in the
d.dddd(-ee) style of the reference tables.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .bench import BENCH_CSV_HEADER, run_benchmark
from .decompose import (
    Method,
    solve_improved,
    solve_improved_orders,
    solve_original,
    truncated_sum,
)
from .fem import ASSEMBLY_RULE, fem_solve
from .norms import (
    BoundViolationError,
    ErrorReport,
    Reference,
    field_errors,
    fine_grid_errors,
    h1_seminorm,
    observed_order,
    tail_bound,
    theorem_bound_check,
)
from .problems import (BUILTIN_IDS, AccuracyError, builtin_problem, exp_series_terms,
                       series_remainders)

__all__ = ["main", "run"]

REPORT_CSV_HEADER = "problem,N,M,method,l2_error,h1_error,reference"

DEFAULT_N_LIST = (8, 32, 128, 512, 2048)
DEFAULT_M_LIST = (2, 4, 6, 8, 10)
FINE_GRID_ELEMS = 2**15

# upper limits of a run, at least 4x above every documented or benchmarked
# size, so that a mistyped N, M or repetition count is a usage error rather
# than an out-of-memory failure or a run that never ends
MAX_ELEMS = 2**20
MAX_TRUNCATION = 64
MAX_REPS = 1000
_ORDER_TOO_HIGH = f"truncation order must be <= {MAX_TRUNCATION}, got {{}}"


def table_sci(x: float) -> str:
    """Format like 1.2839(-02), the notation of the reference tables."""
    if x == 0.0:
        return "0.0000(+00)"
    exp = math.floor(math.log10(abs(x)))
    mant = x / 10.0**exp
    if round(abs(mant), 4) >= 10.0:  # rounding to 4 places overflows
        mant /= 10.0
        exp += 1
    return f"{mant:.4f}({exp:+03d})"


def _int_in(low: int, too_low: str, high: int, too_high: str):
    """argparse type: one int in [low, high]; the messages format the value."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(too_low.format(value))
        if value > high:
            raise argparse.ArgumentTypeError(too_high.format(value))
        return value

    return parse


def _int_list(entry):
    """argparse type: a sorted comma-separated list, each entry parsed by entry."""

    def parse(text: str) -> list[int]:
        values = sorted(entry(part) for part in text.split(",") if part.strip())
        if not values:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return values

    return parse


_N_ELEMS = _int_in(1, "need at least one element, got {}", MAX_ELEMS,
                   f"at most {MAX_ELEMS} elements, got {{}}")
_ORDER = _int_in(0, "truncation order must be >= 0, got {}", MAX_TRUNCATION,
                 _ORDER_TOO_HIGH)
# a truncated series needs at least one term: bench runs the original method
# at --M, and table and verify read every --M-list entry as a series order
_SERIES_ORDER = _int_in(1, "truncation order must be >= 1, got {}", MAX_TRUNCATION,
                        _ORDER_TOO_HIGH)
_REPS = _int_in(3, "need at least 3 repetitions, got {}", MAX_REPS,
               f"at most {MAX_REPS} repetitions, got {{}}")
_N_LIST = _int_list(_N_ELEMS)
_M_LIST = _int_list(_SERIES_ORDER)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared by every
    later call in the process.

    Parsing leaves the parser unchanged, and every default is immutable (the
    list defaults are tuples), so no call's arguments reach the next.
    """
    parser = argparse.ArgumentParser(
        prog="ellip1d",
        description="1D elliptic solver: direct FEM and series-decomposition methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formatter = argparse.ArgumentDefaultsHelpFormatter

    def common(p, n_default=None, m_default=None, m_type=_ORDER):
        p.add_argument("--problem", choices=BUILTIN_IDS, default="ex1")
        p.add_argument("--format", choices=("csv", "text"), default="csv")
        p.add_argument("--out", default=None, help="output path; stdout if omitted")
        if n_default is not None:
            p.add_argument("--N", type=_N_ELEMS, default=n_default, dest="n_elems",
                           help="number of elements")
        if m_default is not None:
            p.add_argument("--M", type=m_type, default=m_default, dest="truncation",
                           help="truncation order")

    p = sub.add_parser("solve", formatter_class=formatter,
                       help="run one method once and report its errors")
    common(p, n_default=512, m_default=4)
    p.add_argument("--method", choices=[m.value for m in Method], default="improved")

    p = sub.add_parser("table", formatter_class=formatter,
                       help="reproduce the N x M error table of a problem")
    common(p)
    p.add_argument("--method", choices=[m.value for m in Method], default="improved")
    p.add_argument("--N-list", type=_N_LIST, default=DEFAULT_N_LIST,
                   dest="n_list")
    p.add_argument("--M-list", type=_M_LIST, default=DEFAULT_M_LIST,
                   dest="m_list")

    p = sub.add_parser("bench", formatter_class=formatter,
                       help="compare cost and wall time of all methods")
    common(p, n_default=2**15, m_default=10, m_type=_SERIES_ORDER)
    p.add_argument("--reps", type=_REPS, default=5)

    p = sub.add_parser("verify", formatter_class=formatter,
                       help="run the numeric property suites")
    p.add_argument("--problem", choices=BUILTIN_IDS, default="ex1")
    p.add_argument("--out", default=None, help="output path; stdout if omitted")
    p.add_argument("--M-list", type=_M_LIST, default=tuple(range(1, 9)),
                   dest="m_list")
    p.add_argument("--suite", choices=VERIFY_SUITES, default=None,
                   help="run a single suite (default: all)")
    return parser


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _solutions(problem, method: Method, n_elems: int, orders) -> list:
    """One approximation per order in orders (ascending), or one alone for direct.

    The original method runs once to the largest order and takes each lower
    one as a prefix sum of its terms; the improved method reads every weight
    Q_e(G_M) off one psi_moments pass.
    """
    if method is Method.DIRECT:
        return [fem_solve(problem, n_elems, ASSEMBLY_RULE)]
    if method is Method.ORIGINAL:
        result = solve_original(problem, n_elems, orders[-1], ASSEMBLY_RULE)
        prefixes = [truncated_sum(result.u0, result.terms[:m]) for m in orders[:-1]]
        return prefixes + [result.U_M]
    return solve_improved_orders(problem, n_elems, orders, ASSEMBLY_RULE)[1]


def _report_row(report: ErrorReport, fmt: str) -> str:
    if fmt == "csv":
        return (
            f"{report.problem},{report.n_elems},{report.truncation},{report.method},"
            f"{report.l2_error:.17g},{report.h1_error:.17g},{report.reference.value}"
        )
    return (
        f"{report.problem}  N={report.n_elems}  M={report.truncation}  "
        f"{report.method}  L2 {table_sci(report.l2_error)}  "
        f"H1 {table_sci(report.h1_error)}  ref {report.reference.value}"
    )


def cmd_solve(args, problem) -> list[str]:
    [approx] = _solutions(problem, Method(args.method), args.n_elems, [args.truncation])
    [(l2, h1)] = field_errors(approx.mesh, [approx], problem.exact)
    reference = Reference.CLOSED_FORM if problem.closed_form else Reference.FLUX_ORACLE
    report = ErrorReport(problem=problem.name, method=args.method, n_elems=args.n_elems,
                         truncation=args.truncation, l2_error=l2, h1_error=h1,
                         reference=reference)
    lines = [REPORT_CSV_HEADER] if args.format == "csv" else []
    lines.append(_report_row(report, args.format))
    return lines


def table_reports(problem, method: Method, n_list, m_list) -> list[ErrorReport]:
    """Error grid in row-major (N outer, M inner) order.

    Each row (one N) is one _solutions call, with one mesh and one u_0: the
    direct solve ignores M and is scored once for every column. A row is
    scored in one call: field_errors samples the closed form once per mesh,
    and problems without one are scored against a direct solve on a fine
    nested mesh by fine_grid_errors, which passes over the fine grid once per
    row and costs O(N) per cell.
    """
    fine = (None if problem.closed_form
            else fem_solve(problem, FINE_GRID_ELEMS, ASSEMBLY_RULE))
    reference = Reference.CLOSED_FORM if fine is None else Reference.FINE_GRID
    orders = sorted(set(m_list))
    reports = []
    for n in n_list:
        row = _solutions(problem, method, n, orders)
        if fine is None:
            scores = field_errors(row[0].mesh, row, problem.exact)
        else:
            scores = fine_grid_errors(row[0].mesh, row, fine)
        # the direct solve ignores M: its one score serves every column
        if method is Method.DIRECT:
            scores *= len(orders)
        cells = dict(zip(orders, scores))
        for m in m_list:
            reports.append(ErrorReport(problem.name, method.value, n, m, *cells[m],
                                       reference))
    return reports


def cmd_table(args, problem) -> list[str]:
    reports = table_reports(problem, Method(args.method), args.n_list, args.m_list)
    if args.format == "csv":
        return [REPORT_CSV_HEADER] + [_report_row(r, "csv") for r in reports]

    by_cell = {(r.n_elems, r.truncation): r.l2_error for r in reports}
    width = 14
    lines = [f"L2 errors, problem {problem.name}, method {args.method}"]
    lines.append(" " * 9 + "".join(f"M={m}".rjust(width) for m in args.m_list))
    for n in args.n_list:
        row = "".join(table_sci(by_cell[(n, m)]).rjust(width) for m in args.m_list)
        lines.append(f"N={n}".ljust(9) + row)
    return lines


def cmd_bench(args, problem) -> list[str]:
    report = run_benchmark(problem, args.n_elems, args.truncation, args.reps)
    if args.format == "csv":
        return [BENCH_CSV_HEADER] + report.csv_rows()
    lines = [f"benchmark, problem {problem.name}, N={args.n_elems}, M={args.truncation}"]
    for method in (Method.ORIGINAL, Method.IMPROVED, Method.DIRECT):
        s = report.methods[method]
        lines.append(
            f"{method.value:9s} solves {s.solves:3d}  assemblies {s.assemblies:3d}  "
            f"factorizations {s.factorizations}  wall {s.wall_ns_median / 1e6:10.3f} ms  "
            f"L2 {table_sci(s.l2_error)}"
        )
    return lines


def _suite_tail_bound(problem, m_list):
    xs, orders = (0.1, 0.5, 1.0, 2.0, 5.0), range(1, 16)
    # at psi = -x the remainder is the explicit tail sum_{j>M} x^j / j!
    tails = series_remainders([-x for x in xs], orders)
    cells = [(float(tails[m][i]), tail_bound(x, m), x, m)
             for i, x in enumerate(xs) for m in orders]
    for tail, bound, x, m in cells:
        if tail >= bound:
            return False, [f"tail {tail:.6e} >= bound {bound:.6e} at x={x}, M={m}"]
    worst = max(tail / bound for tail, bound, _, _ in cells)
    return True, [f"{len(cells)} explicit tails strictly below bound "
                  f"(worst ratio {worst:.3f})"]


def _suite_theorem_bound(problem, m_list):
    triples = theorem_bound_check(problem, max(m_list))
    return True, [f"M={m}: error {err:.6e} <= bound {bnd:.6e}"
                  for m, err, bnd in triples if m in m_list]


def _suite_equivalence(problem, m_list):
    n = 2**7
    a = solve_original(problem, n, 1, ASSEMBLY_RULE)
    b = solve_improved(problem, n, 1, ASSEMBLY_RULE)
    gap = float(abs(a.U_M.values - b.U_M.values).max())
    ok = gap <= 1e-12
    return ok, [f"M=1 max nodal |improved - original| = {gap:.3e} at N={n}"]


def _suite_factorial_decay(problem, m_list):
    result = solve_original(problem, 2**9, 6, ASSEMBLY_RULE)
    psi_sup = problem.psi_sup
    u0_h1 = h1_seminorm(result.u0)
    lines, ok = [], True
    allowances = exp_series_terms(psi_sup)  # psi^j / j!, from j = 0
    next(allowances)
    for j, (term, allowed) in enumerate(zip(result.terms, allowances), start=1):
        ratio = h1_seminorm(term) / (allowed * u0_h1)
        ok = ok and ratio <= 1.05
        lines.append(f"j={j}: |u_j|_H1 / (psi^j/j! |u0|_H1) = {ratio:.4f}")
    return ok, lines


def _suite_convergence_order(problem, m_list):
    n_values = [2**k for k in range(5, 12)]
    solutions = [fem_solve(problem, n, ASSEMBLY_RULE) for n in n_values]
    errors = [field_errors(u.mesh, [u], problem.exact)[0][0] for u in solutions]
    order = observed_order(n_values, errors)
    ok = 1.9 <= order <= 2.1
    return ok, [f"direct-solve L2 order {order:.3f} over N={n_values[0]}..{n_values[-1]}"]


_SUITES = {
    "tail-bound": _suite_tail_bound,
    "theorem-bound": _suite_theorem_bound,
    "equivalence": _suite_equivalence,
    "factorial-decay": _suite_factorial_decay,
    "convergence-order": _suite_convergence_order,
}
VERIFY_SUITES = tuple(_SUITES)


def cmd_verify(args, problem) -> tuple[list[str], bool]:
    names = [args.suite] if args.suite else list(VERIFY_SUITES)
    lines, all_ok = [], True
    for name in names:
        try:
            ok, details = _SUITES[name](problem, args.m_list)
        except BoundViolationError as exc:
            ok, details = False, [str(exc)]
        status = "PASS" if ok else "FAIL"
        all_ok = all_ok and ok
        lines.append(f"{status} {name} ({problem.name})")
        lines.extend(f"    {d}" for d in details)
    return lines, all_ok


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.command == "solve" and args.method != Method.DIRECT.value
            and args.truncation < 1):
        parser.error(f"{args.method} method requires truncation >= 1")
    # this call's own copy of a Problem built once per process: the nesting
    # check and the subcommand both run on this object
    problem = builtin_problem(args.problem)
    if args.command == "table":
        loose = [str(n) for n in args.n_list if FINE_GRID_ELEMS % n]
        if loose and not problem.closed_form:
            parser.error(f"argument --N-list: the {FINE_GRID_ELEMS}-element fine grid of "
                         f"{args.problem} does not nest N = {', '.join(loose)}")
    try:
        if args.command == "verify":
            lines, ok = cmd_verify(args, problem)
        else:
            command = {"solve": cmd_solve, "table": cmd_table, "bench": cmd_bench}
            lines, ok = command[args.command](args, problem), True
    except (ValueError, ArithmeticError, AccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(lines, args.out)
    except OSError as exc:  # an unwritable --out is a usage error
        print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0 if ok else 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

"""The four workloads: how each draws its ops from the seed, runs them and checks them.

Ops are drawn in rounds. A round holds every combination of the workload's
categorical inputs once (problem x method, say) and splits each continuous
input's range into equal strata. Which combination gets which stratum is
fixed by the round's index, rotating so that a few rounds give every
problem and method every stratum; the seed picks the value inside each
stratum, the cost-neutral choices and the order. Two seeds therefore run
nearly the same mix of cheap and expensive ops, and whole rounds cover the
input space evenly however many of them fit in a run.

Checks compare against perfbench/reference.py, never against the package.
An op passes if it exits cleanly, its output has the expected shape, and
every measured error is at most its bound; error / bound is its error ratio.
"""

from __future__ import annotations

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

import numpy as np

import reference as ref

PROBLEMS = ("ex1", "ex2", "ex3", "ex4")
CLOSED = ("ex1", "ex2", "ex3")
METHODS = ("direct", "improved", "original")
CSV_HEADER = "problem,N,M,method,l2_error,h1_error,reference"
SUITES = ("tail-bound", "theorem-bound", "equivalence", "factorial-decay", "convergence-order")
FINE_GRID_ELEMS = 2**15  # the nested reference mesh `table` uses for ex4 (README)
THEOREM_TOL = 1e-10  # tolerance `verify` passes to the theorem-bound check
ORACLE_POINTS = np.arange(1, 17) / 16.0
# deviations below this are rounding, not quadrature error: the package sums
# up to ~10^5 panel integrals of size <= 1 (about 1e-14 of rounding), and the
# independent values are good to about 1e-15. They are counted at this size.
ORACLE_RESOLUTION = 1e-12


class CheckFailed(Exception):
    """An op's output is malformed or outside its accuracy bound."""


def strata(rng, n: int) -> np.ndarray:
    """n uniforms in [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) with its output captured; a usage error returns its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def _ratio(measured: float, bound: float) -> float:
    if not (math.isfinite(measured) and measured >= 0.0):
        raise CheckFailed(f"error {measured!r} is not a finite nonnegative number")
    return measured / bound


def check_error_row(row: str, pid, method, n, m, expected_ref) -> float:
    """Error ratio of one CSV error row against the H1 bounds; see reference.py."""
    fields = row.split(",")
    if len(fields) != 7 or fields[:4] != [pid, str(n), str(m), method] or fields[6] != expected_ref:
        raise CheckFailed(f"unexpected row {row!r} for {pid} N={n} M={m} {method}")
    l2, h1 = float(fields[4]), float(fields[5])
    upper = ref.h1_bound(pid, method, n, m)
    lower = ref.h1_lower(pid, n)
    if expected_ref == "fine_grid":  # distance to a direct solve on the fine mesh
        fine = ref.h1_bound(pid, "direct", FINE_GRID_ELEMS, m)
        upper, lower = upper + fine, lower - fine
    ratio = max(_ratio(h1, upper), _ratio(l2, 2.0 / math.pi * upper))
    if h1 < lower * (1.0 - 1e-6):
        raise CheckFailed(f"H1 error {h1:.6e} below the best possible {lower:.6e} ({row})")
    if ratio > 1.0:
        raise CheckFailed(f"error ratio {ratio:.3f} > 1 ({row})")
    return ratio


class Workload:
    name = ""

    def __init__(self, cli, modules):
        self.cli = cli
        self.modules = modules

    def draw(self, rng, index: int) -> list[dict]:
        """The ops of round `index`, in the order they run."""
        raise NotImplementedError

    def prepare(self, op: dict) -> None:
        """Inputs an op needs that are not part of its timed work."""

    def run(self, op: dict):
        """The op's timed work; returns its raw output."""
        raise NotImplementedError

    def observe(self, op: dict, output):
        """What check() reads from the raw output, gathered after timing."""
        return output

    def check(self, op: dict, result) -> float:
        """Error ratio of a correct result; raises CheckFailed otherwise."""
        raise NotImplementedError

    def perturb(self, op: dict, result) -> list:
        """(should_pass, result) pairs: the result itself, then wrong versions
        of it that check() must reject."""
        raise NotImplementedError


class SolveLarge(Workload):
    """One `solve` per op on ex1-ex3 at N in [2^14, 2^16], M in 2..10."""

    name = "solve-large"
    warmup = dict(problem="ex1", method="improved", n=2**14, m=10)

    def draw(self, rng, index):
        # a Latin square: each method and each problem meets each third of the
        # log2(N) range once per round; over three rounds every (method,
        # problem) pair meets every N third and every N third every M third
        ops = []
        for i, method in enumerate(METHODS):
            for j, p in enumerate(CLOSED):
                band = (i + j + index) % 3
                m_band = (band + index) % 3
                log_n = 14 + 2 * (band + rng.random()) / 3
                ops.append(dict(problem=p, method=method, n=int(round(2**log_n)),
                                m=int(2 + 3 * m_band + rng.integers(3))))
        return [ops[k] for k in rng.permutation(len(ops))]

    def run(self, op):
        return run_cli(self.cli, ["solve", "--problem", op["problem"], "--method", op["method"],
                                  "--N", str(op["n"]), "--M", str(op["m"])])

    def check(self, op, result):
        rc, text = result
        lines = text.splitlines()
        if rc != 0 or len(lines) != 2 or lines[0] != CSV_HEADER:
            raise CheckFailed(f"exit {rc}, output {text[:200]!r}")
        return check_error_row(lines[1], op["problem"], op["method"], op["n"], op["m"], "closed_form")

    def perturb(self, op, result):
        rc, text = result
        head, row = text.splitlines()
        f = row.split(",")
        big = ",".join(f[:5] + [repr(float(f[5]) * 10)] + f[6:])
        small = ",".join(f[:5] + [repr(float(f[5]) * 0.5)] + f[6:])
        return [(True, result), (False, (rc, f"{head}\n{big}\n")), (False, (rc, f"{head}\n{small}\n"))]


class TableSweep(Workload):
    """One `table --format csv` per op: five N from 8..4096, five M from 1..12."""

    name = "table-sweep"
    warmup = dict(problem="ex1", method="improved", n_list=[8, 64, 512], m_list=[2, 8])
    # five log2(N) strata; ex4 takes powers of two so its meshes nest in the fine grid
    N_BANDS = ((3, 5), (5, 7), (7, 9), (9, 11), (11, 12))
    M_BANDS = ((1, 2), (3, 4), (5, 7), (8, 9), (10, 12))

    def draw(self, rng, index):
        ops = []
        for j, meth in enumerate(METHODS):
            for i, p in enumerate(PROBLEMS):
                # in band k, the four problems of a method take one quarter each
                q = [(i + j + k + index) % 4 for k in range(5)]
                n_u = [(q[k] + rng.random()) / 4 for k in range(5)]
                m_u = [((q[k] + j + index // 4) % 4 + rng.random()) / 4 for k in range(5)]
                if p == "ex4":
                    n_list = [2 ** (lo + int(2 * u)) for (lo, hi), u in zip(self.N_BANDS, n_u)]
                else:
                    n_list = [int(round(2 ** (lo + (hi - lo) * u))) for (lo, hi), u in zip(self.N_BANDS, n_u)]
                m_list = [lo + int(u * (hi - lo + 1)) for (lo, hi), u in zip(self.M_BANDS, m_u)]
                ops.append(dict(problem=p, method=meth, n_list=sorted(set(n_list)), m_list=m_list))
        return [ops[k] for k in rng.permutation(len(ops))]

    def run(self, op):
        return run_cli(self.cli, [
            "table", "--problem", op["problem"], "--method", op["method"], "--format", "csv",
            "--N-list", ",".join(map(str, op["n_list"])), "--M-list", ",".join(map(str, op["m_list"]))])

    def check(self, op, result):
        rc, text = result
        lines = text.splitlines()
        cells = [(n, m) for n in op["n_list"] for m in op["m_list"]]
        if rc != 0 or not lines or lines[0] != CSV_HEADER or len(lines) != 1 + len(cells):
            raise CheckFailed(f"exit {rc}, {len(lines)} lines, expected {1 + len(cells)}")
        kind = "closed_form" if op["problem"] in CLOSED else "fine_grid"
        return max(check_error_row(row, op["problem"], op["method"], n, m, kind)
                   for row, (n, m) in zip(lines[1:], cells))

    def perturb(self, op, result):
        rc, text = result
        lines = text.splitlines()
        f = lines[-1].split(",")
        scaled = ",".join(f[:5] + [repr(float(f[5]) * 10)] + f[6:])
        return [(True, result), (False, (rc, "\n".join(lines[:-1]) + "\n")),
                (False, (rc, "\n".join(lines[:-1] + [scaled]) + "\n"))]


class OracleScore(Workload):
    """One mesh-free reference per op, scored with the package's l2_error."""

    name = "oracle-score"
    warmup = dict(problem="ex1", kind="exact", tol=1e-9, n=2**11, m=0)

    def __init__(self, cli, modules):
        super().__init__(cli, modules)
        self.rule3 = modules["fem"].QuadratureRule.gauss(3)
        self.rule5 = modules["fem"].QuadratureRule.gauss(5)

    def draw(self, rng, index):
        # eight log2(N) strata; a round uses the mirrored set {0, 3, 4, 7} or
        # {1, 2, 5, 6}, one stratum per problem, and the kinds alternate, so
        # eight rounds give every problem every stratum
        strata_set = (0, 3, 4, 7) if index % 2 == 0 else (1, 2, 5, 6)
        m_u = strata(rng, len(PROBLEMS))
        ops = []
        for i, p in enumerate(PROBLEMS):
            stratum = strata_set[(i + index // 2) % 4]
            log_n = 11 + 2 * (stratum + rng.random()) / 8
            kind = ("exact", "truncated")[(i + index) % 2]
            ops.append(dict(problem=p, kind=kind, n=int(round(2**log_n)),
                            m=0 if kind == "exact" else 1 + int(12 * m_u[i]),
                            tol=(1e-9, 1e-10)[int(rng.integers(2))]))
        return [ops[k] for k in rng.permutation(len(ops))]

    def prepare(self, op):
        """The discrete solution the reference scores: direct for the exact
        solution, the two-solve U_M for the truncated one."""
        problems, fem, decompose = (self.modules[k] for k in ("problems", "fem", "decompose"))
        problem = problems.builtin_problem(op["problem"])
        if op["kind"] == "exact":
            disc = fem.fem_solve(problem, op["n"], self.rule3)
        else:
            disc = decompose.solve_improved(problem, op["n"], op["m"], self.rule3).U_M
        op["problem_obj"], op["disc"] = problem, disc

    def run(self, op):
        problems, decompose, norms = (self.modules[k] for k in ("problems", "decompose", "norms"))
        if op["kind"] == "exact":
            field = problems.exact_solution_via_flux(op["problem_obj"], op["tol"])
        else:
            field = decompose.semi_analytic_U_M(op["problem_obj"], op["m"], op["tol"])
        return field, norms.l2_error(op["disc"], field, self.rule5)

    def observe(self, op, output):
        field, score = output
        return np.asarray(field(ORACLE_POINTS), dtype=float), score

    def check(self, op, result):
        values, score = result
        bound = 10.0 * op["tol"]
        if not (math.isfinite(score) and score >= 0.0):
            raise CheckFailed(f"score {score!r}")
        if op["kind"] == "exact" and op["problem"] in CLOSED:
            gap = abs(score - _closed_form_l2(op["problem"], op["disc"]))
            if gap > bound:
                raise CheckFailed(f"score differs from the closed-form score by {gap:.3e} > {bound:g}")
        # the ratio is taken at fixed points only, so it compares across seeds
        dev = float(np.max(np.abs(values - _oracle_values(op["problem"], op["kind"], op["m"]))))
        ratio = _ratio(max(dev, ORACLE_RESOLUTION), bound)
        if ratio > 1.0:
            raise CheckFailed(f"reference deviates by {dev:.3e} > 10 tol = {bound:g}")
        return ratio

    def perturb(self, op, result):
        values, score = result
        shifted = values.copy()
        shifted[3] += 100 * op["tol"]
        return [(True, result), (False, (shifted, score)), (False, (values, -1.0))]


@lru_cache(maxsize=None)
def _oracle_values(pid, kind, m):
    return np.array([ref.reference_value(pid, kind, m, x) for x in ORACLE_POINTS])


def _closed_form_l2(pid, disc) -> float:
    """||disc - u|| with the 5-point Gauss rule, from disc's nodal values."""
    nodes, vals = disc.mesh.nodes, disc.values
    h = nodes[1] - nodes[0]
    x, w = np.polynomial.legendre.leggauss(5)
    t = 0.5 * (x + 1.0)
    pts = nodes[:-1, None] + h * t[None, :]
    approx = vals[:-1, None] * (1.0 - t) + vals[1:, None] * t
    diff = approx - ref.SPECS[pid].u(pts)
    return math.sqrt(h * float(np.sum((diff * diff) @ (0.5 * w))))


THEOREM_LINE = re.compile(r"^\s+M=(\d+): error (\S+) <= bound (\S+)$")


class VerifySuite(Workload):
    """One `verify --problem p` per op, all five suites, M = 1..8."""

    name = "verify-suite"
    warmup = dict(problem="ex1")

    def draw(self, rng, index):
        return [dict(problem=str(p)) for p in rng.permutation(PROBLEMS)]

    def run(self, op):
        return run_cli(self.cli, ["verify", "--problem", op["problem"]])

    def check(self, op, result):
        rc, text = result
        pid = op["problem"]
        lines = text.splitlines()
        passed = {line for line in lines if line.startswith("PASS ")}
        missing = [s for s in SUITES if f"PASS {s} ({pid})" not in passed]
        if rc != 0 or missing:
            raise CheckFailed(f"exit {rc}, suites without PASS: {missing}")
        errors = {int(m.group(1)): float(m.group(2)) for m in map(THEOREM_LINE.match, lines) if m}
        if sorted(errors) != list(range(1, 9)):
            raise CheckFailed(f"theorem-bound lines for M={sorted(errors)}, expected 1..8")
        ratio = 0.0
        for m, err in errors.items():
            expected = _theorem_error_sq(pid, m)
            # the program promises 10 tol on the squared error; it prints 7 digits
            if abs(err * err - expected) > 10 * THEOREM_TOL + 2e-6 * expected:
                raise CheckFailed(f"M={m}: error^2 {err * err:.6e} vs independent {expected:.6e}")
            ratio = max(ratio, _ratio(err, ref.theorem_bound(pid, m)))
        if ratio > 1.0:
            raise CheckFailed(f"truncation error above the theorem bound (ratio {ratio:.3f})")
        return ratio

    def perturb(self, op, result):
        rc, text = result
        failed = text.replace("PASS equivalence", "FAIL equivalence")
        doubled = re.sub(r"M=3: error (\S+)", lambda mt: f"M=3: error {2 * float(mt.group(1)):.6e}", text)
        return [(True, result), (False, (1, failed)), (False, (rc, doubled))]


@lru_cache(maxsize=None)
def _theorem_error_sq(pid, m):
    return ref.theorem_error_sq(pid, m)


WORKLOADS = {w.name: w for w in (SolveLarge, TableSweep, OracleScore, VerifySuite)}

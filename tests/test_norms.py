import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ellip1d import (
    PSI_SUP_SAMPLES,
    builtin_problem,
    constant_field,
    l2_error,
    observed_order,
    sup_norm,
    tail_bound,
    theorem_bound_check,
)
from ellip1d.decompose import solve_improved, solve_original
from ellip1d.fem import NodalFunction, build_mesh, fem_solve
from ellip1d.norms import (
    ERROR_RULE,
    BoundViolationError,
    ErrorReport,
    Reference,
    field_errors,
    fine_grid_errors,
    fine_grid_h1_error,
    fine_grid_l2_error,
    h1_seminorm,
    h1_seminorm_error,
)
from ellip1d.problems import flux_field, g_m, psi_of

from conftest import explicit_tail, field, positive_problems, unit_problem
from test_multiprecision import mp_fine_grid_errors

EPS = np.finfo(float).eps
# fine mesh of the mpmath references: they cost O(fine elements) per function
MP_FINE_ELEMS = 2**9


def interpolant(fn, n):
    mesh = build_mesh(1.0, n)
    return NodalFunction(mesh, np.asarray(fn(mesh.nodes), dtype=float))


class TestL2Error:
    def test_linear_reference_reproduced(self, rule5):
        approx = interpolant(lambda x: 2.0 * x + 1.0, 6)
        assert l2_error(approx, field(lambda x: 2.0 * x + 1.0), rule5) <= 1e-14

    def test_unit_reference(self, rule5):
        approx = interpolant(lambda x: 0.0 * x, 4)
        assert l2_error(approx, constant_field(1.0), rule5) == pytest.approx(1.0)

    def test_linear_reference_norm(self, rule5):
        approx = interpolant(lambda x: 0.0 * x, 4)
        assert l2_error(approx, field(lambda x: x), rule5) == pytest.approx(
            1.0 / math.sqrt(3.0), abs=1e-14
        )

    def test_requires_at_least_four_points(self, rule3):
        approx = interpolant(lambda x: x, 4)
        with pytest.raises(ValueError, match="4 points"):
            l2_error(approx, constant_field(0.0), rule3)

    def test_triangle_inequality(self, rule5):
        rng = np.random.default_rng(11)
        mesh = build_mesh(1.0, 16)
        for _ in range(10):
            a = NodalFunction(mesh, rng.normal(size=17))
            b = NodalFunction(mesh, rng.normal(size=17))
            c = field(lambda x: np.sin(3.0 * x))
            b_field = field(lambda x, b=b: b(x))
            lhs = l2_error(a, c, rule5)
            rhs = l2_error(a, b_field, rule5) + l2_error(b, c, rule5)
            assert lhs <= rhs + 1e-12


class TestH1SeminormError:
    def test_linear_reference(self, rule5):
        approx = interpolant(lambda x: 3.0 * x - 1.0, 5)
        assert h1_seminorm_error(approx, constant_field(3.0), rule5) <= 1e-14

    def test_unit_derivative(self, rule5):
        approx = interpolant(lambda x: 0.0 * x, 4)
        assert h1_seminorm_error(approx, constant_field(1.0), rule5) == pytest.approx(1.0)

    def test_linear_derivative(self, rule5):
        approx = interpolant(lambda x: 0.0 * x, 4)
        assert h1_seminorm_error(approx, field(lambda x: 2.0 * x), rule5) == (
            pytest.approx(2.0 / math.sqrt(3.0), abs=1e-14)
        )


class TestFieldErrors:
    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    def test_k_functions_in_one_call_equal_k_single_calls(self, pid, rule3, request):
        problem = request.getfixturevalue(pid)
        n = 37
        rng = np.random.default_rng(5)
        solutions = [fem_solve(problem, n, rule3)] + [
            solve_improved(problem, n, m, rule3).U_M for m in (1, 2, 5)]
        solutions.append(NodalFunction(solutions[0].mesh, rng.normal(size=n + 1)))
        mesh = solutions[0].mesh
        together = field_errors(mesh, solutions, problem.exact)
        alone = [field_errors(mesh, [v], problem.exact)[0] for v in solutions]
        assert together == alone
        plain = [(l2_error(v, problem.exact, ERROR_RULE),
                  h1_seminorm_error(v, problem.exact.derivative, ERROR_RULE))
                 for v in solutions]
        if pid != "ex2":
            assert together == plain
            return
        # ex2's sampler takes its sine and cosine by angle addition, so its
        # cells move at rounding level, within test_multiprecision's bounds
        pts = mesh.element_points(ERROR_RULE)
        u_max = np.max(np.abs(problem.exact(pts)))
        du_max = np.max(np.abs(problem.exact.derivative(pts)))
        for (l2, h1), (l2_plain, h1_plain) in zip(together, plain):
            assert abs(l2 - l2_plain) <= 4 * EPS * u_max
            assert abs(h1 - h1_plain) <= 4 * EPS * du_max

    def test_reference_sampled_once_for_all_functions(self):
        calls = []

        def counted(fn, derivative=None):
            return field(lambda x: calls.append(x.shape) or fn(x), derivative=derivative)

        mesh = build_mesh(1.0, 10)
        functions = [NodalFunction(mesh, np.full(11, c)) for c in (0.0, 1.0, 2.0)]
        reference = counted(lambda x: 0.0 * x, derivative=counted(lambda x: 0.0 * x))
        scores = field_errors(mesh, functions, reference)
        assert calls == [(10, ERROR_RULE.n_points)] * 2
        assert [l2 for l2, _ in scores] == pytest.approx([0.0, 1.0, 2.0], abs=1e-15)
        assert [h1 for _, h1 in scores] == [0.0, 0.0, 0.0]

    def test_rejects_function_on_other_mesh(self):
        with pytest.raises(ValueError, match="4-element mesh"):
            field_errors(build_mesh(1.0, 4), [interpolant(lambda x: x, 8)],
                         constant_field(0.0))


class TestH1Seminorm:
    def test_linear_function(self):
        assert h1_seminorm(interpolant(lambda x: 4.0 * x, 8)) == pytest.approx(4.0)

    def test_matches_quadrature(self, rule5):
        v = interpolant(lambda x: np.sin(2.0 * x), 32)
        assert h1_seminorm(v) == pytest.approx(
            h1_seminorm_error(v, constant_field(0.0), rule5), abs=1e-13
        )


class TestSupNorm:
    def test_zero_field(self):
        assert sup_norm(constant_field(0.0), 1.0, 100) == 0.0

    def test_monotone_log(self):
        psi = field(lambda x: np.log(1.0 + x * x))
        assert sup_norm(psi, 1.0, 1001) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_oscillatory_log(self, ex2):
        psi = psi_of(ex2.kappa)
        assert sup_norm(psi, 1.0, 65536) == pytest.approx(math.log(2.0), abs=1e-6)

    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    def test_problem_keeps_its_psi_sup(self, pid):
        problem = builtin_problem(pid)
        expected = sup_norm(psi_of(problem.kappa), problem.length, PSI_SUP_SAMPLES)
        assert problem.psi_sup == expected  # exact float equality
        assert problem.psi_sup is problem.psi_sup

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            sup_norm(constant_field(1.0), 1.0, 1)


class TestTailBound:
    def test_zero_sup(self):
        assert tail_bound(0.0, 3) == 0.0

    def test_unit_sup_first_order(self):
        assert tail_bound(1.0, 1) == pytest.approx(math.e / 2.0, abs=1e-14)

    def test_log2_fourth_order(self):
        expected = math.log(2.0) ** 5 / 120.0 * 2.0
        assert tail_bound(math.log(2.0), 4) == pytest.approx(expected, abs=1e-14)

    def test_dominates_explicit_tail(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0):
            for m in range(1, 16):
                term = x ** (m + 1) / math.factorial(m + 1)
                tail = term
                for j in range(m + 2, 201):
                    term *= x / j
                    tail += term
                assert tail < tail_bound(x, m)

    def test_monotone_in_truncation(self):
        for x in (0.2, 1.0, 3.0):
            for m in range(1, 12):
                if x < m + 2:
                    assert tail_bound(x, m + 1) < tail_bound(x, m)


class TestTheoremBound:
    def test_unit_coefficient_all_zero(self):
        triples = theorem_bound_check(unit_problem(), 4)
        for _, err, bound in triples:
            assert err <= 1e-9
            assert bound == 0.0 or bound <= 1e-20

    @pytest.mark.parametrize("pid", ["ex1", "ex3"])
    def test_bound_holds_with_factorial_decay(self, pid, request):
        problem = request.getfixturevalue(pid)
        triples = theorem_bound_check(problem, 8)
        psi_sup = sup_norm(psi_of(problem.kappa), 1.0, 65536)
        assert len(triples) == 8
        for (m, err, bound), (_, nxt, _) in zip(triples, triples[1:]):
            assert err <= bound
            assert nxt / err <= psi_sup / (m + 2) * 1.5
        assert triples[-1][1] <= triples[-1][2]

    def test_violation_reported_with_numbers(self, monkeypatch, ex1):
        import ellip1d.norms as norms_mod
        monkeypatch.setattr(norms_mod, "tail_bound", lambda s, m: 0.0)
        with pytest.raises(BoundViolationError, match=r"M=1.*error.*bound"):
            theorem_bound_check(ex1, 2)

    def test_error_identity_consistency(self, ex1, ex3):
        # the H1 truncation error from the reciprocal-series gap must agree
        # with an independent quadrature of |u - U_M|_H1 built from the
        # closed-form derivative and the series weight
        for problem in (ex1, ex3):
            triples = theorem_bound_check(problem, 3)
            series = g_m(psi_of(problem.kappa), 3)
            flux_int = lambda x: quad(problem.f, x, 1.0, epsabs=1e-13)[0]
            integrand = lambda x: (
                problem.exact.derivative(x) - series(x) * flux_int(x)
            ) ** 2
            ref, _ = quad(integrand, 0.0, 1.0, epsabs=1e-14, limit=400)
            assert triples[-1][1] == pytest.approx(math.sqrt(ref), abs=1e-7)

    # quad warns where epsrel 1e-13 is below what the rounding allows
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @settings(max_examples=15, deadline=None)
    @given(positive_problems(max_n=1, psi_amp=0.5))
    def test_errors_match_scipy_on_random_problems(self, drawn):
        # scipy quad of the remainder integrand, with R_M as an explicit
        # fsum of the tail and the flux from the oracle
        problem, _ = drawn
        psi, flux = psi_of(problem.kappa), flux_field(problem)
        sample = lru_cache(maxsize=None)(lambda x: (psi(x), flux(x)))

        def integrand(x, m):
            p, fx = sample(x)
            return (explicit_tail(p, m) * fx) ** 2

        for m, err, bound in theorem_bound_check(problem, 6):
            ref = quad(integrand, 0.0, problem.length, args=(m,), epsabs=0.0,
                       epsrel=1e-13, limit=200)[0]
            assert err == pytest.approx(math.sqrt(ref), rel=1e-10, abs=1e-300)
            assert err <= bound


class TestFineGridErrors:
    def test_zero_for_same_function(self):
        fine = interpolant(lambda x: np.cos(x), 64)
        coarse = interpolant(lambda x: np.cos(x), 16)
        exact_coarse = interpolant(lambda x: np.cos(x), 64)
        assert fine_grid_l2_error(exact_coarse, fine) == 0.0

    def test_linear_difference_closed_form(self):
        coarse = interpolant(lambda x: 0.0 * x, 2)
        fine = interpolant(lambda x: x, 4)
        assert fine_grid_l2_error(coarse, fine) == pytest.approx(
            1.0 / math.sqrt(3.0), abs=1e-15
        )
        assert fine_grid_h1_error(coarse, fine) == pytest.approx(1.0, abs=1e-15)

    def test_requires_nested_meshes(self):
        with pytest.raises(ValueError, match="nest"):
            fine_grid_l2_error(interpolant(lambda x: x, 3), interpolant(lambda x: x, 8))
        with pytest.raises(ValueError, match="nest"):
            fine_grid_h1_error(interpolant(lambda x: x, 3), interpolant(lambda x: x, 8))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("n", [8, 512, 2048, 4096])
    def test_h1_matches_long_double_reference(self, ex4, rule3, n):
        # the coarse solution interpolated onto the fine nodes and differenced
        # there, all in long double
        fine = fem_solve(ex4, 2**15, rule3)
        coarse = solve_improved(ex4, n, 4, rule3).U_M
        r = fine.mesh.n_elems // n
        c = coarse.values.astype(np.longdouble)
        t = np.arange(r, dtype=np.longdouble) / r
        interp = np.append((c[:-1, None] + (c[1:] - c[:-1])[:, None] * t).ravel(), c[-1])
        d = np.diff(interp - fine.values.astype(np.longdouble))
        reference = np.sqrt(np.sum(d * d) / np.longdouble(fine.mesh.h))
        value = fine_grid_h1_error(coarse, fine)
        assert abs(value - reference) <= 1e-15 * reference

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_h1_matches_multiprecision_reference(self, ex4, rule3, n):
        # the same check on every host: the coarse solution interpolated onto
        # the fine nodes and differenced there in 30 digits, on a fine mesh
        # small enough for mpmath
        fine = fem_solve(ex4, MP_FINE_ELEMS, rule3)
        coarse = solve_improved(ex4, n, 4, rule3).U_M
        [(_, reference)] = mp_fine_grid_errors([coarse], fine)
        value = fine_grid_h1_error(coarse, fine)
        assert abs(value - reference) <= 1e-15 * reference


def interpolated_errors(coarse, fine, dtype=float):
    """(L2, H1) distance of coarse to fine in O(N_fine), in dtype: the
    coarse values interpolated onto every fine node and the piecewise-linear
    difference integrated there, and each coarse slope repeated over its
    fine elements against the fine slopes."""
    r = fine.mesh.n_elems // coarse.mesh.n_elems
    c, f = coarse.values.astype(dtype), fine.values.astype(dtype)
    h = dtype(fine.mesh.h)
    t = np.arange(r, dtype=dtype) / r
    interp = np.append((c[:-1, None] + (c[1:] - c[:-1])[:, None] * t).ravel(), c[-1])
    a, b = interp[:-1] - f[:-1], interp[1:] - f[1:]
    slopes = np.repeat(np.diff(c), r) / (r * h) - np.diff(f) / h
    return (float(np.sqrt(h / 3 * np.sum(a * a + a * b + b * b))),
            float(np.sqrt(h * np.sum(slopes * slopes))))


@st.composite
def nested_pairs(draw):
    """(coarse, fine) nodal functions on nested meshes of one random length:
    fine samples a random trig polynomial, coarse samples it at its nodes
    plus a random perturbation of size up to 1."""
    unit = st.integers(-100, 100).map(lambda i: i / 100)
    length = draw(st.sampled_from([0.5, 1.0, 3.0]))
    n, r = draw(st.integers(1, 12)), draw(st.integers(1, 16))
    c = draw(st.lists(unit, min_size=7, max_size=7))
    fine_mesh, mesh = build_mesh(length, n * r), build_mesh(length, n)

    def smooth(x):
        t = np.pi * x / length
        return c[0] + sum(c[2 * j - 1] * np.cos(j * t) + c[2 * j] * np.sin(j * t)
                          for j in range(1, 4))

    shift = np.array(draw(st.lists(unit, min_size=n + 1, max_size=n + 1)))
    return (NodalFunction(mesh, smooth(mesh.nodes) + shift),
            NodalFunction(fine_mesh, smooth(fine_mesh.nodes)))


class TestFineGridSplit:
    """fine_grid_errors splits each error at the coarse nodes; it must agree
    with interpolating onto every fine node, to rounding."""

    @pytest.fixture(scope="class")
    def ex4_fine(self, ex4, rule3):
        return fem_solve(ex4, 2**15, rule3)

    @settings(max_examples=60, deadline=None)
    @given(nested_pairs())
    def test_matches_interpolation_on_random_nested_pairs(self, pair):
        coarse, fine = pair
        [(l2, h1)] = fine_grid_errors(coarse.mesh, [coarse], fine)
        ref_l2, ref_h1 = interpolated_errors(coarse, fine)
        assert l2 == pytest.approx(ref_l2, rel=1e-12, abs=1e-13)
        assert h1 == pytest.approx(ref_h1, rel=1e-12, abs=1e-13)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("k", range(16))
    def test_matches_long_double_reference(self, ex4, rule3, ex4_fine, k):
        n = 2**k
        row = ([fem_solve(ex4, n, rule3)]
               + [solve_improved(ex4, n, m, rule3).U_M for m in (1, 4, 12)]
               + [solve_original(ex4, n, m, rule3).U_M for m in (1, 3, 12)])
        for v, (l2, h1) in zip(row, fine_grid_errors(row[0].mesh, row, ex4_fine)):
            ref_l2, ref_h1 = interpolated_errors(v, ex4_fine, np.longdouble)
            assert abs(l2 - ref_l2) <= 1e-14 * ref_l2
            assert abs(h1 - ref_h1) <= 1e-14 * ref_h1

    @pytest.mark.parametrize("k", range(9))
    def test_matches_multiprecision_reference(self, ex4, rule3, k):
        # the same check on every host, against the exact integrals of the
        # piecewise-linear differences in 30 digits, on a fine mesh small
        # enough for mpmath
        fine = fem_solve(ex4, MP_FINE_ELEMS, rule3)
        n = 2**k
        row = ([fem_solve(ex4, n, rule3)]
               + [solve_improved(ex4, n, m, rule3).U_M for m in (1, 4, 12)]
               + [solve_original(ex4, n, m, rule3).U_M for m in (1, 3, 12)])
        references = mp_fine_grid_errors(row, fine)
        for (l2, h1), (ref_l2, ref_h1) in zip(fine_grid_errors(row[0].mesh, row, fine),
                                              references):
            assert abs(l2 - ref_l2) <= 1e-14 * ref_l2
            assert abs(h1 - ref_h1) <= 1e-14 * ref_h1

    def test_fine_solution_scores_exactly_zero(self, ex4_fine):
        assert fine_grid_errors(ex4_fine.mesh, [ex4_fine], ex4_fine) == [(0.0, 0.0)]

    def test_rejects_unequal_lengths(self):
        coarse = NodalFunction(build_mesh(2.0, 4), np.zeros(5))
        fine = interpolant(lambda x: x, 8)
        for scorer in (fine_grid_l2_error, fine_grid_h1_error):
            with pytest.raises(ValueError, match="length 1.0 does not nest .* length 2.0"):
                scorer(coarse, fine)

    def test_rejects_functions_off_the_mesh(self):
        fine = interpolant(lambda x: x, 8)
        with pytest.raises(ValueError, match="4-element mesh"):
            fine_grid_errors(build_mesh(1.0, 4), [interpolant(lambda x: x, 2)], fine)


class TestObservedOrder:
    def test_recovers_synthetic_order(self):
        n_values = [8, 16, 32, 64]
        errors = [2.7 * (1.0 / n) ** 1.97 for n in n_values]
        assert observed_order(n_values, errors) == pytest.approx(1.97, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            observed_order([8], [0.1])


class TestErrorReport:
    def test_rejects_negative_error(self):
        with pytest.raises(ValueError):
            ErrorReport("ex1", "improved", 8, 2, -1.0, 0.0, Reference.CLOSED_FORM)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ErrorReport("ex1", "improved", 8, 2, 0.1, float("nan"),
                        Reference.CLOSED_FORM)

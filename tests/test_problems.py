import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad, quad_vec

from ellip1d import builtin_problem, constant_field, exact_solution_via_flux, g_m, psi_of
from ellip1d.decompose import semi_analytic_U_M, solve_improved, solve_original
from ellip1d.fem import QuadratureRule
from ellip1d.integrate import AccuracyError
from ellip1d.norms import tail_bound
from ellip1d.problems import BUILTIN_IDS, Problem, ScalarField, flux_field

from conftest import field, positive_problems, unit_problem

ALL_IDS = ["ex1", "ex2", "ex3", "ex4"]


class TestPsi:
    def test_unit_coefficient(self):
        psi = psi_of(constant_field(1.0))
        assert psi(0.3) == 0.0

    def test_euler_constant(self):
        psi = psi_of(constant_field(math.e))
        assert psi(0.7) == pytest.approx(1.0, abs=1e-15)

    def test_ex1_at_one(self):
        psi = psi_of(field(lambda x: 1.0 + x * x))
        assert psi(1.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_nonpositive_coefficient_rejected(self):
        psi = psi_of(field(lambda x: x - 0.5))
        with pytest.raises(ValueError, match="positive"):
            psi(np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize("solve", [solve_improved, solve_original])
    def test_rejects_dip_between_validation_samples(self, solve):
        # kappa is negative only within 1e-6 of 1/6, which no validation
        # sample k/65536 reaches but the midpoint Gauss node of element 0 of
        # a 3-element mesh does: psi_of is the check that catches it
        dip = field(lambda x: np.where(np.abs(x - 1.0 / 6.0) < 1e-6, -1.0, 1.0))
        problem = Problem(name="dip", length=1.0, kappa=dip, f=constant_field(1.0),
                          alpha=0.0, beta=0.0)
        assert problem.kappa_min == 1.0
        with pytest.raises(ValueError, match=r"not positive at x = 0\.16666"):
            solve(problem, 3, 2, QuadratureRule.gauss(3))


class TestTruncatedSeries:
    def test_zero_log_coefficient(self):
        series = g_m(constant_field(0.0), 7)
        np.testing.assert_array_equal(series(np.linspace(0, 1, 5)), np.ones(5))

    def test_first_order(self):
        series = g_m(constant_field(math.log(2.0)), 1)
        assert series(0.2) == pytest.approx(1.0 - math.log(2.0), abs=1e-15)

    def test_converges_to_reciprocal(self):
        series = g_m(constant_field(math.log(2.0)), 30)
        assert series(0.9) == pytest.approx(0.5, abs=1e-12)

    def test_large_order_no_overflow(self):
        series = g_m(constant_field(3.0), 200)
        assert series(0.5) == pytest.approx(math.exp(-3.0), abs=1e-14)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            g_m(constant_field(1.0), -1)

    @pytest.mark.parametrize("pid", ALL_IDS)
    def test_remainder_bound(self, pid, request):
        # |G_M - 1/kappa| <= tail bound of the exponential series
        problem = request.getfixturevalue(pid)
        psi = psi_of(problem.kappa)
        xs = np.linspace(0.0, 1.0, 257)
        psi_sup = float(np.abs(psi(np.linspace(0, 1, 65536))).max())
        for m in (1, 3, 6):
            gap = np.abs(g_m(psi, m)(xs) - 1.0 / problem.kappa(xs))
            assert gap.max() <= tail_bound(psi_sup, m) + 1e-15

    def test_sign_flip_gives_exponential_partial_sum(self, ex1):
        # replacing kappa by 1/kappa negates psi, so the series sums +psi^j/j!
        psi = psi_of(ex1.kappa)
        neg_psi = ScalarField(lambda x: -psi(x))
        xs = np.linspace(0.0, 1.0, 33)
        for m in (1, 2, 5):
            expected = sum(psi(xs) ** j / math.factorial(j) for j in range(m + 1))
            np.testing.assert_allclose(g_m(neg_psi, m)(xs), expected, atol=1e-13)


class TestBuiltins:
    def test_ids(self):
        assert BUILTIN_IDS == ("ex1", "ex2", "ex3", "ex4")

    def test_unknown_id_lists_valid_ones(self):
        with pytest.raises(ValueError, match="ex1, ex2, ex3, ex4"):
            builtin_problem("ex9")

    def test_ex1_exact_values(self, ex1):
        assert ex1.exact(0.0) == 0.0
        assert ex1.exact(1.0) == pytest.approx(
            math.atan(1.0) - 0.5 * math.log(2.0), abs=1e-14
        )

    def test_ex3_exact_value(self, ex3):
        assert ex3.exact(1.0) == pytest.approx((3.0 - 4.0 * math.log(2.0)) / 2.0,
                                               abs=1e-14)

    @pytest.mark.parametrize("pid", ALL_IDS)
    def test_common_data(self, pid, request):
        p = request.getfixturevalue(pid)
        assert (p.length, p.alpha, p.beta) == (1.0, 0.0, 0.0)
        assert p.kappa_min > 0.0

    @pytest.mark.parametrize("pid", ALL_IDS)
    def test_log_roundtrip(self, pid, request):
        p = request.getfixturevalue(pid)
        xs = np.linspace(0.0, 1.0, 1000)
        k = p.kappa(xs)
        np.testing.assert_allclose(np.exp(psi_of(p.kappa)(xs)), k, rtol=1e-13)

    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3"])
    def test_flux_identity_of_exact_solution(self, pid, request):
        # kappa u' must equal -beta + int_x^L f for the attached closed form
        p = request.getfixturevalue(pid)
        for x in np.linspace(0.0, 1.0, 21):
            flux_int, _ = quad(p.f, x, 1.0, epsabs=1e-12, limit=200)
            lhs = p.kappa(x) * p.exact_derivative(x)
            assert lhs == pytest.approx(-p.beta + flux_int, abs=1e-8)


class TestProblemValidation:
    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValueError, match="positive"):
            Problem(name="bad", length=1.0, kappa=field(lambda x: x - 0.5),
                    f=constant_field(1.0), alpha=0.0, beta=0.0)

    def test_rejects_exact_with_wrong_boundary_value(self):
        with pytest.raises(ValueError, match="alpha"):
            Problem(name="bad", length=1.0, kappa=constant_field(1.0),
                    f=constant_field(1.0), alpha=0.0, beta=0.0,
                    exact=field(lambda x: x + 1.0))

    def test_rejects_exact_with_wrong_flux(self):
        with pytest.raises(ValueError, match="flux"):
            Problem(name="bad", length=1.0, kappa=constant_field(1.0),
                    f=constant_field(0.0), alpha=0.0, beta=0.0,
                    exact=field(lambda x: x),
                    exact_derivative=constant_field(1.0))


class TestFluxOracle:
    def test_ex1_matches_closed_form(self, ex1):
        u = exact_solution_via_flux(ex1, tol=1e-10)
        assert u(1.0) == pytest.approx(ex1.exact(1.0), abs=1e-9)

    def test_unit_problem_midpoint(self):
        u = exact_solution_via_flux(unit_problem(), tol=1e-10)
        assert u(0.5) == pytest.approx(0.375, abs=1e-10)

    def test_ex4_against_independent_quadrature(self, ex4):
        u = exact_solution_via_flux(ex4, tol=1e-10)
        ref, _ = quad(
            lambda s: 2.0 * np.sin(np.pi * s) / (np.pi * (s**4 + np.exp(-s))),
            0.0, 1.0, epsabs=1e-12,
        )
        assert u(1.0) == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3"])
    def test_uniform_agreement_with_closed_form(self, pid, request):
        p = request.getfixturevalue(pid)
        tol = 1e-9
        u = exact_solution_via_flux(p, tol=tol)
        xs = np.linspace(0.0, 1.0, 1000)
        assert np.abs(u(xs) - p.exact(xs)).max() <= 10 * tol

    def test_carries_derivative_field(self, ex1):
        u = exact_solution_via_flux(ex1, tol=1e-10)
        xs = np.linspace(0.0, 1.0, 50)
        np.testing.assert_allclose(
            u.derivative(xs), ex1.exact_derivative(xs), atol=1e-9
        )

    def test_rejects_points_outside_domain(self, ex1):
        u = exact_solution_via_flux(ex1, tol=1e-8)
        with pytest.raises(ValueError, match="outside"):
            u(1.5)
        with pytest.raises(ValueError, match="outside"):
            u(np.array([[0.5, 0.2], [-1e-9, 0.7]]))

    def test_flux_field_matches_quadrature(self, ex3):
        flux = flux_field(ex3, tol=1e-11)
        for x in (0.0, 0.3, 0.99):
            ref, _ = quad(ex3.f, x, 1.0, epsabs=1e-13)
            assert flux(x) == pytest.approx(ref, abs=1e-10)

    def test_deterministic(self, ex2):
        u = exact_solution_via_flux(ex2, tol=1e-9)
        xs = np.linspace(0.0, 1.0, 40)
        np.testing.assert_array_equal(u(xs), u(xs))


# The built-in problems restated for scipy, independently of ellip1d: (kappa, f).
RESTATED = {
    "ex1": (lambda x: 1.0 + x * x, lambda x: 1.0),
    "ex2": (lambda x: 1.0 / (1.0 - 0.5 * math.sin(10.0 * math.pi * x)), lambda x: 1.0),
    "ex3": (lambda x: (x + 1.0) ** 2, lambda x: x / (x + 1.0)),
    "ex4": (lambda x: x**4 + math.exp(-x), lambda x: -2.0 * math.cos(math.pi * x)),
}
CHECK_POINTS = np.arange(1, 17) / 16.0
MAX_ORDER = 12


def scipy_flux_integrals(f, weights, length, alpha, beta, points):
    """alpha + int_0^x w(s) (-beta + int_s^L f) ds for each weight w at each
    ascending point, by nested scipy quadrature; one row per point."""
    def integrand(s):
        flux = -beta + quad(f, s, length, epsabs=1e-14, epsrel=1e-13)[0]
        return flux * np.array([w(s) for w in weights])

    rows, total, left = [], np.full(len(weights), float(alpha)), 0.0
    for x in points:
        total = total + quad_vec(integrand, left, x, epsabs=1e-15, epsrel=1e-14, norm="max")[0]
        rows.append(total)
        left = x
    return np.array(rows)


def truncated_series(kappa, m):
    """G_M(s) = sum_{j<=m} (-log kappa(s))^j / j!."""
    def weight(s):
        minus_psi = -math.log(kappa(s))
        return sum(minus_psi**j / math.factorial(j) for j in range(m + 1))
    return weight


# quad warns where its relative tolerance is below rounding, as near s = L
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestChebyshevOracle:
    """The oracle against nested scipy quadrature that does not use ellip1d."""

    @pytest.mark.parametrize("pid", ALL_IDS)
    def test_matches_nested_scipy_quadrature(self, pid):
        kappa, f = RESTATED[pid]
        weights = [lambda s: 1.0 / kappa(s)]
        weights += [truncated_series(kappa, m) for m in range(1, MAX_ORDER + 1)]
        expected = scipy_flux_integrals(f, weights, 1.0, 0.0, 0.0, CHECK_POINTS)

        problem = builtin_problem(pid)
        fields = [exact_solution_via_flux(problem, 1e-10)]
        fields += [semi_analytic_U_M(problem, m, 1e-10) for m in range(1, MAX_ORDER + 1)]
        computed = np.column_stack([u(CHECK_POINTS) for u in fields])
        assert np.abs(computed - expected).max() <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(positive_problems(max_n=1, psi_amp=0.5))
    def test_random_positive_problems(self, drawn):
        problem, _ = drawn
        points = problem.length * np.array([0.25, 0.6, 1.0])
        expected = scipy_flux_integrals(
            problem.f, [lambda s: 1.0 / problem.kappa(s)], problem.length,
            problem.alpha, problem.beta, points,
        )[:, 0]
        computed = exact_solution_via_flux(problem, 1e-9)(points)
        assert np.abs(computed - expected).max() <= 1e-11

    def test_unresolvable_load_raises_accuracy_error(self):
        rough = unit_problem(f=field(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0))), name="rough")
        with pytest.raises(AccuracyError, match="load of rough") as info:
            exact_solution_via_flux(rough, tol=1e-9)
        assert 1e-9 < info.value.error_estimate < 1e-3

    def test_rejects_nonpositive_tolerance(self, ex1):
        for build in (lambda: exact_solution_via_flux(ex1, 0.0),
                      lambda: semi_analytic_U_M(ex1, 2, -1e-9),
                      lambda: flux_field(ex1, 0.0)):
            with pytest.raises(ValueError, match="tolerance"):
                build()

    def test_field_survives_dataclass_replace(self, ex1):
        # a wrapper may swap .fn with dataclasses.replace and keep the rest
        u = exact_solution_via_flux(ex1, tol=1e-9)
        rewrapped = dataclasses.replace(u, fn=lambda x: 2.0 * u.fn(x))
        assert rewrapped.derivative is u.derivative
        assert rewrapped(0.5) == pytest.approx(2.0 * ex1.exact(0.5), abs=1e-15)

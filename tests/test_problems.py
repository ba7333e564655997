import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad, quad_vec

from ellip1d import (PSI_SUP_SAMPLES, builtin_problem, problems, constant_field,
                     exact_solution_via_flux, g_m, psi_of, sup_norm)
from ellip1d.decompose import semi_analytic_U_M, solve_improved, solve_original
from ellip1d.fem import QuadratureRule, build_mesh
from ellip1d.norms import ERROR_RULE, tail_bound, theorem_bound_check
from ellip1d.problems import (BUILTIN_IDS, AccuracyError, Problem, ScalarField, flux_field,
                              series_remainders)

from conftest import explicit_tail, field, positive_problems, traced_peak_mb, unit_problem

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
        # sample k/65535 reaches (the nearest is 7.6e-6 away) but the midpoint
        # Gauss node of element 0 of a 3-element mesh does: fem.kappa_blocks
        # is the check that catches it
        dip = field(lambda x: np.where(np.abs(x - 1.0 / 6.0) < 1e-6, -1.0, 1.0))
        problem = Problem(name="dip", length=1.0, kappa=dip, f=constant_field(1.0),
                          alpha=0.0, beta=0.0)
        assert np.min(dip(np.linspace(0.0, 1.0, PSI_SUP_SAMPLES))) == 1.0
        with pytest.raises(ValueError, match=r"stiffness coefficient .* on element 0$"):
            solve(problem, 3, 2, QuadratureRule.gauss(3))

    @pytest.mark.parametrize("solve", [solve_improved, solve_original])
    def test_rejects_nan_between_validation_samples(self, solve):
        # as above, with kappa NaN instead of negative near 1/6: NaN <= 0 is
        # false, so a test for non-positive values lets it through as log(NaN)
        hole = field(lambda x: np.where(np.abs(x - 1.0 / 6.0) < 1e-6, np.nan, 1.0))
        problem = Problem(name="hole", length=1.0, kappa=hole, f=constant_field(1.0),
                          alpha=0.0, beta=0.0)
        with pytest.raises(ValueError, match=r"stiffness coefficient .* on element 0$"):
            solve(problem, 3, 2, QuadratureRule.gauss(3))

    def test_rejects_inf_between_validation_samples(self):
        # kappa is +inf only within 1e-9 of x0, the midpoint Gauss node of
        # element 100 of the theorem check's 2^10-element mesh; no validation
        # sample lies within 1.5e-6 of it. +inf > 0 holds, so a positivity test
        # alone gives psi = inf there and the theorem check NaN errors, which
        # pass any bound
        x0 = 0.09814453125
        spike = field(lambda x: np.where(np.abs(x - x0) < 1e-9, np.inf, 1.0 + x * x))
        problem = Problem(name="spike", length=1.0, kappa=spike, f=constant_field(1.0),
                          alpha=0.0, beta=0.0)
        message = r"not finite and positive at x = 0\.09814453125$"
        with pytest.raises(ValueError, match=message):
            psi_of(spike)(np.array([0.5, x0]))
        with pytest.raises(ValueError, match=message):
            theorem_bound_check(problem, 3)


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

    def test_float_terms_stay_python_floats(self):
        # the scalar path (tail_bound, verify's allowances) gives the array
        # path's terms, element by element
        xs = np.array([-3.5, -1.0, -0.1, 0.0, 0.3, 1.0, 2.7, 9.0])
        arrays = list(itertools.islice(problems.exp_series_terms(xs), 40))
        for k, x in enumerate(xs):
            floats = list(itertools.islice(problems.exp_series_terms(float(x)), 40))
            assert all(type(t) is float for t in floats)
            assert floats == [arrays[0]] + [t[k] for t in arrays[1:]]

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


def stacked_remainders(psi_values, orders):
    """series_remainders as one cumsum over all its terms stacked, the reference
    its running sum must match bit for bit."""
    wanted = set(orders)
    neg = -np.asarray(psi_values, dtype=float)
    series = problems.exp_series_terms(neg)
    terms = [next(series) for _ in range(max(wanted) + 2)]
    leads = np.min(np.abs([terms[m + 1] for m in wanted]), axis=0)
    floor = np.finfo(float).eps / 8 * np.exp(np.minimum(neg, 0.0)) * leads
    while np.any(np.abs(terms[-1]) > floor):
        terms.append(next(series))
    tails = np.cumsum(terms[:0:-1], axis=0)[::-1]  # tails[m] = sum_{j>m} t_j
    return {m: tails[m] for m in wanted}


def assert_same_bits(got: dict, expected: dict):
    assert list(got) == list(expected)
    for m in expected:
        assert np.shape(got[m]) == np.shape(expected[m])
        assert np.asarray(got[m]).tobytes() == np.asarray(expected[m]).tobytes(), m


class TestSeriesRemainders:
    def test_matches_explicit_tail(self):
        # the recurrence rounds term j about 2j times, so the error grows
        # slowly with m: over 2000 draws, the worst at any m <= 64 was 8.7 eps
        psi = np.random.default_rng(22).uniform(-3.0, 3.0, 120)
        remainders = series_remainders(psi, range(65))
        for m, values in remainders.items():
            expected = np.array([explicit_tail(p, m) for p in psi])
            np.testing.assert_allclose(values, expected, rtol=16 * np.finfo(float).eps, atol=0)

    def test_completes_partial_sums(self):
        # G_m + R_m = e^-psi for every m, with no cancellation inside R_m
        psi = np.linspace(-2.0, 2.0, 41)
        orders = [0, 1, 4, 9, 30]
        tails = series_remainders(psi, orders)
        for m in orders:
            partial = g_m(ScalarField(lambda x: x), m)(psi)  # G_m at these psi values
            np.testing.assert_allclose(partial + tails[m], np.exp(-psi), rtol=1e-14)

    @pytest.mark.parametrize("orders", [[0], range(1, 9), [3, 12], range(1, 65), range(1, 16)],
                             ids=["0", "1-8", "3,12", "1-64", "1-15"])
    @pytest.mark.parametrize("shape", [(1024, 5), (7,)])
    def test_running_sum_is_the_stacked_cumsum(self, shape, orders):
        psi = np.random.default_rng(26).uniform(-3.0, 3.0, shape)
        assert_same_bits(series_remainders(psi, orders), stacked_remainders(psi, orders))

    def test_running_sum_on_the_tail_bound_suite_values(self):
        # verify's tail-bound suite sums e^x - G_m(-x) at these x, orders 1..15
        psi = [-x for x in (0.1, 0.5, 1.0, 2.0, 5.0)]
        for orders in ([0], range(1, 9), [3, 12], range(1, 65), range(1, 16)):
            assert_same_bits(series_remainders(psi, orders), stacked_remainders(psi, orders))

    @pytest.mark.parametrize("pid", ALL_IDS)
    def test_peak_allocation_at_the_theorem_points(self, pid, request):
        # the stacked (K, 1024, 5) array and its cumsum held 2.5-3.1 MB
        pts = build_mesh(1.0, 2**10).element_points(ERROR_RULE)
        psi = psi_of(request.getfixturevalue(pid).kappa)(pts)
        assert traced_peak_mb(lambda: series_remainders(psi, range(1, 9))) < 2.0

    def test_zero_log_coefficient_gives_zero(self):
        tails = series_remainders(np.zeros(3), [1, 5])
        assert all(np.array_equal(t, np.zeros(3)) for t in tails.values())

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            series_remainders(np.ones(2), [2, -1])


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
        assert np.min(p.kappa(np.linspace(0.0, 1.0, 65537))) > 0.0

    @pytest.mark.parametrize("pid", ALL_IDS)
    def test_log_roundtrip(self, pid, request):
        p = request.getfixturevalue(pid)
        xs = np.linspace(0.0, 1.0, 1000)
        k = p.kappa(xs)
        np.testing.assert_allclose(np.exp(psi_of(p.kappa)(xs)), k, rtol=1e-13)

    @pytest.mark.parametrize("pid", ALL_IDS)
    def test_validated_once(self, pid, monkeypatch):
        # one Problem per built-in: kappa's dense samples, exact(0) = alpha and
        # the boundary flux are each checked exactly once
        calls = []
        validate = Problem.__post_init__
        monkeypatch.setattr(
            Problem, "__post_init__", lambda self: calls.append(self.name) or validate(self)
        )
        builtin_problem(pid)
        assert calls == [pid]

    def test_ex4_exact_is_flux_oracle(self, ex4):
        xs = np.linspace(0.0, 1.0, 257)
        np.testing.assert_array_equal(ex4.exact(xs), exact_solution_via_flux(ex4, 1e-10)(xs))
        # the oracle carries the closed-form u' = flux / kappa, not its own integrand
        assert ex4.exact.derivative.description == "2 sin(pi x)/(pi (x^4 + exp(-x)))"
        np.testing.assert_allclose(ex4.exact.derivative(xs),
                                   2.0 * np.sin(np.pi * xs) / (np.pi * ex4.kappa(xs)),
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3"])
    def test_flux_identity_of_exact_solution(self, pid, request):
        # kappa u' must equal -beta + int_x^L f for the attached closed form
        p = request.getfixturevalue(pid)
        for x in np.linspace(0.0, 1.0, 21):
            flux_int, _ = quad(p.f, x, 1.0, epsabs=1e-12, limit=200)
            lhs = p.kappa(x) * p.exact.derivative(x)
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
                    exact=field(lambda x: x, derivative=constant_field(1.0)))

    @pytest.mark.parametrize("name", ["length", "alpha", "beta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_data(self, name, bad):
        data = dict(length=1.0, alpha=0.0, beta=0.0) | {name: bad}
        with pytest.raises(ValueError, match=f"bad: {name} must be finite"):
            Problem(name="bad", kappa=constant_field(1.0), f=constant_field(1.0), **data)

    @settings(max_examples=40, deadline=None)
    @given(case=positive_problems(max_n=1, psi_amp=2.0))
    def test_psi_sup_is_the_sup_norm_of_psi(self, case):
        problem, _ = case
        expected = sup_norm(psi_of(problem.kappa), problem.length, PSI_SUP_SAMPLES)
        assert problem.psi_sup == expected  # exact float equality

    def test_kappa_sampled_once(self, ex2):
        # validation's one sample gives both the positivity check and psi_sup
        samples = [0]

        def counted(x):
            samples[0] += x.size
            return ex2.kappa(x)

        problem = Problem(name="counted", length=1.0, kappa=ScalarField(counted),
                          f=ex2.f, alpha=ex2.alpha, beta=ex2.beta)
        assert samples[0] == PSI_SUP_SAMPLES
        assert problem.psi_sup == ex2.psi_sup
        assert samples[0] == PSI_SUP_SAMPLES


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
            u.derivative(xs), ex1.exact.derivative(xs), atol=1e-9
        )

    def test_rejects_points_outside_domain(self, ex1):
        u = exact_solution_via_flux(ex1, tol=1e-8)
        with pytest.raises(ValueError, match="outside"):
            u(1.5)
        with pytest.raises(ValueError, match="outside"):
            u(np.array([[0.5, 0.2], [-1e-9, 0.7]]))

    def test_flux_field_matches_quadrature(self, ex3):
        flux = flux_field(ex3)
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


def record_fits(monkeypatch, build):
    """build() and the (breakpoints, coefficients) of every Chebyshev fit it makes."""
    fits = []
    fit = problems._chebyshev_coefficients
    monkeypatch.setattr(problems, "_chebyshev_coefficients",
                        lambda *args: fits.append(fit(*args)) or fits[-1])
    field = build()
    monkeypatch.setattr(problems, "_chebyshev_coefficients", fit)
    return field, fits


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
                      lambda: semi_analytic_U_M(ex1, 2, -1e-9)):
            with pytest.raises(ValueError, match="tolerance"):
                build()

    def test_split_only_above_degree_64(self, monkeypatch):
        # ex2's truncated integrands split into panels of degree <= 64; every
        # other built-in field stays one panel, as on a single interval
        for pid in ALL_IDS:
            problem = builtin_problem(pid)
            builds = [lambda: exact_solution_via_flux(problem, 1e-10)]
            builds += [lambda m=m: semi_analytic_U_M(problem, m, 1e-10)
                       for m in range(1, MAX_ORDER + 1)]
            for m, build in enumerate(builds):
                (load_breaks, _), (breaks, pieces) = record_fits(monkeypatch, build)[1]
                assert len(load_breaks) == 2
                assert breaks[0] == 0.0 and breaks[-1] == 1.0
                assert np.all(np.diff(breaks) > 0.0)
                assert max(len(c) for c in pieces) - 1 <= 64
                split = pid == "ex2" and m > 0
                assert (len(pieces) > 1) == split, (pid, m, len(pieces))

    def test_split_fields_match_single_interval_build(self, ex2, monkeypatch):
        xs = np.linspace(0.0, 1.0, 4097)
        split = [semi_analytic_U_M(ex2, m, 1e-10)(xs) for m in (1, 6, 12)]
        monkeypatch.setattr(problems, "_CHEB_CAP", 8192)
        for m, values in zip((1, 6, 12), split):
            whole, fits = record_fits(monkeypatch, lambda: semi_analytic_U_M(ex2, m, 1e-10))
            assert len(fits[-1][1]) == 1
            gap = np.abs(values - whole(xs)).max()
            assert gap <= 1e-15 * np.abs(values).max()

    def test_split_field_any_input_shape(self, ex2, monkeypatch):
        u, fits = record_fits(monkeypatch, lambda: semi_analytic_U_M(ex2, 3, 1e-10))
        breaks = fits[-1][0]
        rng = np.random.default_rng(5)
        xs = np.sort(np.concatenate([rng.random(300 - len(breaks)), breaks]))
        flat = u(xs)
        assert all(u(x) == v for x, v in zip(xs, flat))
        perm = rng.permutation(len(xs))
        np.testing.assert_array_equal(u(xs[perm]), flat[perm])
        np.testing.assert_array_equal(u(xs[perm].reshape(20, 15)), flat[perm].reshape(20, 15))
        np.testing.assert_array_equal(u(xs[:0]), flat[:0])

    def test_split_field_continuous_at_breakpoints(self, ex2, monkeypatch):
        for m in range(1, MAX_ORDER + 1):
            u, fits = record_fits(monkeypatch, lambda: semi_analytic_U_M(ex2, m, 1e-10))
            inner = fits[-1][0][1:-1]
            left = u(np.nextafter(inner, -np.inf))
            scale = np.abs(u(np.linspace(0.0, 1.0, 101))).max()
            assert np.abs(u(inner) - left).max() <= 8 * np.finfo(float).eps * scale

    def test_split_field_rejects_points_outside_domain(self, ex2):
        u = semi_analytic_U_M(ex2, 4, 1e-10)
        for outside in (np.nextafter(1.0, 2.0), -1e-300, np.array([[0.5, 0.2], [0.3, 1.5]])):
            with pytest.raises(ValueError, match="outside"):
                u(outside)

    def test_noise_exhausts_panel_budget_quickly(self):
        noise = unit_problem(f=field(lambda x: np.modf(1e5 * np.sin(1e4 * x))[0]), name="noise")
        start = time.perf_counter()
        with pytest.raises(AccuracyError, match="load of noise.*128 Chebyshev panels") as info:
            exact_solution_via_flux(noise, tol=1e-9)
        assert time.perf_counter() - start < 1.0
        assert info.value.error_estimate > 1e-3

    def test_field_survives_dataclass_replace(self, ex1):
        # a wrapper may swap .fn with dataclasses.replace and keep the rest
        u = exact_solution_via_flux(ex1, tol=1e-9)
        rewrapped = dataclasses.replace(u, fn=lambda x: 2.0 * u.fn(x))
        assert rewrapped.derivative is u.derivative
        assert rewrapped(0.5) == pytest.approx(2.0 * ex1.exact(0.5), abs=1e-15)


class TestOracleLayout:
    """Oracle fields give the same bits on point-major and row-major element points."""

    @staticmethod
    def assert_layout_free(fld, n):
        for rule in (QuadratureRule.gauss(3), ERROR_RULE):
            pts = build_mesh(1.0, n).element_points(rule)
            copy = np.ascontiguousarray(pts)
            assert not pts.flags.c_contiguous
            values, copy_values = fld(pts), fld(copy)
            assert values.shape == pts.shape
            np.testing.assert_array_equal(np.ascontiguousarray(values).view(np.uint64),
                                          np.ascontiguousarray(copy_values).view(np.uint64))

    @pytest.mark.parametrize("pid", ALL_IDS)
    def test_exact_fields(self, pid, request):
        problem = request.getfixturevalue(pid)
        for fld in (problem.exact, problem.exact.derivative):
            self.assert_layout_free(fld, 300)

    @pytest.mark.parametrize("m", [1, 6, 12])
    def test_multi_panel_truncated_field(self, ex2, m, monkeypatch):
        u, fits = record_fits(monkeypatch, lambda: semi_analytic_U_M(ex2, m, 1e-10))
        assert len(fits[-1][1]) > 1
        for n in (7, 2**10):
            self.assert_layout_free(u, n)
            self.assert_layout_free(u.derivative, n)

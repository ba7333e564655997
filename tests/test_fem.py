import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad

from ellip1d import (
    AssemblyError,
    QuadratureRule,
    SingularSystemError,
    apply_dirichlet,
    assemble_gradient_load,
    assemble_load,
    assemble_stiffness,
    build_mesh,
    constant_field,
    fem_solve,
    l2_error,
    observed_order,
    solve_tridiagonal,
)
from ellip1d.decompose import solve_improved, solve_original, solve_u0
from ellip1d.fem import BLOCK_ELEMS, Mesh, NodalFunction, TridiagonalSystem
from ellip1d.problems import Problem, psi_of
from conftest import field, positive_problems, tridiagonal_matvec, unit_problem


class TestBuildMesh:
    def test_two_elements(self):
        mesh = build_mesh(1.0, 2)
        np.testing.assert_allclose(mesh.nodes, [0.0, 0.5, 1.0])

    def test_eight_elements(self):
        mesh = build_mesh(1.0, 8)
        assert mesh.h == 0.125
        assert len(mesh.nodes) == 9

    def test_longer_domain(self):
        mesh = build_mesh(2.0, 4)
        np.testing.assert_allclose(mesh.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_uniform_spacing(self):
        mesh = build_mesh(3.0, 17)
        np.testing.assert_allclose(np.diff(mesh.nodes), mesh.h, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("length,n", [(0.0, 4), (-1.0, 4), (np.nan, 4), (np.inf, 4),
                                          (1.0, 0), (1.0, -3)])
    def test_rejects_bad_arguments(self, length, n):
        with pytest.raises(ValueError):
            build_mesh(length, n)


class TestQuadratureRule:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_weights_sum_to_one(self, n):
        rule = QuadratureRule.gauss(n)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_polynomial_exactness(self, n):
        # exact through degree 2n - 1 on [0, 1]
        rule = QuadratureRule.gauss(n)
        for deg in range(2 * n):
            approx = float((rule.points**deg) @ rule.weights)
            assert approx == pytest.approx(1.0 / (deg + 1), abs=1e-14)

    @pytest.mark.parametrize("n", [1, 6, 0])
    def test_rejects_unsupported_order(self, n):
        with pytest.raises(ValueError):
            QuadratureRule.gauss(n)


class TestAssembleStiffness:
    def test_unit_coefficient_stencil(self, rule3):
        system = assemble_stiffness(build_mesh(1.0, 2), constant_field(1.0), rule3)
        np.testing.assert_allclose(system.diag, [2.0, 4.0, 2.0])
        np.testing.assert_allclose(system.sub, [-2.0, -2.0])
        np.testing.assert_allclose(system.sup, [-2.0, -2.0])

    def test_constant_coefficient_scales_linearly(self, rule3):
        mesh = build_mesh(1.0, 7)
        base = assemble_stiffness(mesh, constant_field(1.0), rule3)
        for c in (0.25, 3.0, 17.5):
            scaled = assemble_stiffness(mesh, constant_field(c), rule3)
            np.testing.assert_allclose(scaled.diag, c * base.diag, rtol=1e-14)
            np.testing.assert_allclose(scaled.sub, c * base.sub, rtol=1e-14)

    def test_symmetry_for_variable_coefficient(self, rule3):
        mesh = build_mesh(1.0, 33)
        system = assemble_stiffness(mesh, field(lambda x: np.exp(x) + x**3), rule3)
        np.testing.assert_array_equal(system.sub, system.sup)
        assert np.all(system.diag > 0.0)

    def test_against_adaptive_quadrature(self, rule3):
        # entries of the ex1 coefficient matrix vs scipy adaptive integration
        mesh = build_mesh(1.0, 64)
        kappa = lambda x: 1.0 + x * x
        system = assemble_stiffness(mesh, field(kappa), rule3)
        h = mesh.h
        for e in range(mesh.n_elems):
            exact, _ = quad(kappa, mesh.nodes[e], mesh.nodes[e + 1], epsabs=1e-14)
            assert system.sub[e] == pytest.approx(-exact / h**2, abs=1e-12)
        diag_exact = np.zeros(mesh.n_elems + 1)
        for e in range(mesh.n_elems):
            exact, _ = quad(kappa, mesh.nodes[e], mesh.nodes[e + 1], epsabs=1e-14)
            diag_exact[e] += exact / h**2
            diag_exact[e + 1] += exact / h**2
        np.testing.assert_allclose(system.diag, diag_exact, atol=1e-12)

    def test_nonfinite_coefficient_identifies_element(self, rule3):
        mesh = build_mesh(1.0, 4)
        bad = field(lambda x: np.where(x > 0.5, np.inf, 1.0))
        with pytest.raises(AssemblyError, match="element"):
            assemble_stiffness(mesh, bad, rule3)


class TestAssembleLoad:
    def test_constant_source(self, rule3):
        load = assemble_load(build_mesh(1.0, 2), constant_field(1.0), rule3, beta=0.0)
        np.testing.assert_allclose(load, [0.25, 0.5, 0.25], atol=1e-15)

    def test_flux_term_only(self, rule3):
        load = assemble_load(build_mesh(1.0, 5), constant_field(0.0), rule3, beta=1.0)
        expected = np.zeros(6)
        expected[-1] = -1.0
        np.testing.assert_allclose(load, expected, atol=1e-15)

    def test_linear_source_matches_hat_moments(self):
        # closed-form moments of f(x) = x against the hats; 2-point rule is exact
        rule = QuadratureRule.gauss(2)
        mesh = build_mesh(1.0, 4)
        load = assemble_load(mesh, field(lambda x: x), rule, beta=0.0)
        h = mesh.h
        expected = np.array(
            [h**2 / 6]
            + [h * x for x in mesh.nodes[1:-1]]
            + [mesh.nodes[-1] * h / 2 - h**2 / 6]
        )
        np.testing.assert_allclose(load, expected, atol=1e-14)

    def test_quadratic_source_exact_with_two_points(self):
        # degree-2 source times a hat is cubic: still exact for the 2-point rule
        rule = QuadratureRule.gauss(2)
        mesh = build_mesh(1.0, 8)
        load = assemble_load(mesh, field(lambda x: 3 * x**2 - x + 2), rule)
        oracle = np.zeros(9)
        for i in range(9):
            lo, hi = max(i - 1, 0), min(i + 1, 8)
            def hat(x, i=i, h=mesh.h, xi=mesh.nodes[i]):
                return np.maximum(0.0, 1.0 - abs(x - xi) / h)
            val, _ = quad(lambda x: (3 * x**2 - x + 2) * hat(x),
                          mesh.nodes[lo], mesh.nodes[hi], epsabs=1e-15)
            oracle[i] = val
        np.testing.assert_allclose(load, oracle, atol=1e-14)

    def test_nonfinite_source_raises(self, rule3):
        bad = field(lambda x: np.where(x < 0.25, np.nan, 0.0))
        with pytest.raises(AssemblyError, match="element"):
            assemble_load(build_mesh(1.0, 4), bad, rule3)


class TestAssembleGradientLoad:
    def test_zero_weight(self, rule3):
        mesh = build_mesh(1.0, 6)
        w = NodalFunction(mesh, np.sin(mesh.nodes))
        out = assemble_gradient_load(mesh, constant_field(0.0), w, rule3)
        np.testing.assert_array_equal(out, np.zeros(7))

    def test_unit_weight_identity_function(self, rule3):
        # telescoping of hat gradients: only the boundary entries survive
        mesh = build_mesh(1.0, 8)
        w = NodalFunction(mesh, mesh.nodes.copy())
        out = assemble_gradient_load(mesh, constant_field(1.0), w, rule3)
        expected = np.zeros(9)
        expected[0], expected[-1] = -1.0, 1.0
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_against_adaptive_quadrature(self, rule3, ex1):
        mesh = build_mesh(1.0, 128)
        u0 = solve_u0(ex1, 128, rule3)
        weight = lambda x: np.log(1.0 + x * x)
        out = assemble_gradient_load(mesh, field(weight), u0, rule3)
        slopes = u0.derivative_values()
        h = mesh.h
        oracle = np.zeros(129)
        weight_int = np.array([
            quad(weight, mesh.nodes[e], mesh.nodes[e + 1], epsabs=1e-15)[0]
            for e in range(128)
        ])
        c = weight_int * slopes / h
        oracle[:-1] -= c
        oracle[1:] += c
        np.testing.assert_allclose(out, oracle, atol=1e-12)

    def test_mesh_mismatch(self, rule3):
        w = NodalFunction(build_mesh(1.0, 4), np.zeros(5))
        with pytest.raises(ValueError, match="mesh"):
            assemble_gradient_load(build_mesh(1.0, 8), constant_field(1.0), w, rule3)


class TestDirichletAndSolve:
    def test_homogeneous_row(self, rule3):
        system = assemble_stiffness(build_mesh(1.0, 4), constant_field(1.0), rule3)
        fixed = apply_dirichlet(system, 0.0)
        assert fixed.diag[0] == 1.0
        assert fixed.sup[0] == 0.0 and fixed.sub[0] == 0.0
        assert fixed.rhs[0] == 0.0

    def test_constant_solution(self, rule3):
        # f = 0, beta = 0: the solution is the boundary value everywhere
        problem = unit_problem(f=constant_field(0.0), alpha=3.0)
        u = fem_solve(problem, 16, rule3)
        np.testing.assert_allclose(u.values, 3.0, atol=1e-13)

    def test_linear_solution_exact(self, rule3):
        # alpha = 1, beta = 1 forces u = 1 - x, reproduced exactly by P1
        problem = unit_problem(f=constant_field(0.0), alpha=1.0, beta=1.0)
        u = fem_solve(problem, 8, rule3)
        np.testing.assert_allclose(u.values, 1.0 - u.mesh.nodes, atol=1e-14)

    def test_identity_system(self):
        mesh = build_mesh(1.0, 5)
        rng = np.random.default_rng(7)
        rhs = rng.normal(size=6)
        system = TridiagonalSystem(
            mesh=mesh, sub=np.zeros(5), diag=np.ones(6), sup=np.zeros(5), rhs=rhs
        )
        np.testing.assert_array_equal(solve_tridiagonal(system).values, rhs)

    def test_nodal_exactness_constant_data(self, rule3):
        u = solve_u0(unit_problem(), 1024, rule3)
        x = u.mesh.nodes
        np.testing.assert_allclose(u.values, x - x**2 / 2, atol=1e-12)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(42)
        mesh = build_mesh(1.0, 50)
        for _ in range(5):
            off = -rng.uniform(0.1, 1.0, size=50)
            diag = -np.concatenate([[0.0], off]) - np.concatenate([off, [0.0]])
            diag += rng.uniform(0.5, 2.0, size=51)  # diagonally dominant
            rhs = rng.normal(size=51)
            system = TridiagonalSystem(
                mesh=mesh, sub=off.copy(), diag=diag, sup=off.copy(), rhs=rhs
            )
            x = solve_tridiagonal(system).values
            residual = tridiagonal_matvec(system, x) - rhs
            assert np.abs(residual).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)

    def test_zero_pivot_raises(self):
        mesh = build_mesh(1.0, 2)
        system = TridiagonalSystem(
            mesh=mesh,
            sub=np.array([1.0, 1.0]),
            diag=np.array([0.0, 1.0, 1.0]),
            sup=np.array([1.0, 1.0]),
            rhs=np.zeros(3),
        )
        with pytest.raises(SingularSystemError):
            solve_tridiagonal(system)

    def test_assembled_solve_residual_bound(self, rule3, ex1, ex3):
        for problem, n in [(ex1, 128), (ex3, 256)]:
            mesh = build_mesh(problem.length, n)
            system = assemble_stiffness(mesh, problem.kappa, rule3)
            rhs = assemble_load(mesh, problem.f, rule3, beta=problem.beta)
            import dataclasses
            system = apply_dirichlet(
                dataclasses.replace(system, rhs=rhs), problem.alpha
            )
            x = solve_tridiagonal(system).values
            residual = tridiagonal_matvec(system, x) - system.rhs
            assert np.abs(residual).max() <= 1e-10 * np.abs(system.rhs).max()

    def test_positive_pivots_for_positive_coefficient(self, rule3):
        from ellip1d.fem import factorize
        rng = np.random.default_rng(3)
        mesh = build_mesh(1.0, 40)
        coeff = field(lambda x: 0.1 + np.abs(np.sin(5 * x)) + 0.05 * x)
        system = apply_dirichlet(assemble_stiffness(mesh, coeff, rule3), rng.normal())
        assert np.all(factorize(system).pivot > 0.0)


def improved_U_M(problem, n, rule):
    return solve_improved(problem, n, 3, rule).U_M


def original_U_M(problem, n, rule):
    return solve_original(problem, n, 3, rule).U_M


def _assembled(problem, n, rule):
    mesh = build_mesh(problem.length, n)
    system = assemble_stiffness(mesh, problem.kappa, rule)
    rhs = assemble_load(mesh, problem.f, rule, beta=problem.beta)
    return dataclasses.replace(system, rhs=rhs)


class TestFluxSweep:
    RULE = QuadratureRule.gauss(3)

    # the direct solve checks each element's Gauss mean of kappa; a
    # non-finite value is already named where kappa is evaluated
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_conductance_not_finite_positive(self, bad):
        def kappa(x):
            return np.where((x > 0.5) & (x < 0.75), bad, 4.0)

        # a Problem would reject this kappa on construction
        problem = SimpleNamespace(length=1.0, kappa=field(kappa), f=constant_field(1.0),
                                  alpha=0.0, beta=0.0)
        with pytest.raises(ValueError, match="element 2"):
            fem_solve(problem, 4, self.RULE)

    @pytest.mark.parametrize("solve", [fem_solve, solve_u0, improved_U_M, original_U_M])
    @pytest.mark.parametrize("log2_n", [11, 15, 18])
    def test_nodal_exactness_unit_problem(self, solve, log2_n):
        # kappa = 1, f = 1: P1 is nodally exact, so only rounding remains;
        # Thomas elimination loses N^2 eps here (8.4e-8 at 2^18)
        u = solve(unit_problem(), 2**log2_n, self.RULE)
        x = u.mesh.nodes
        assert np.abs(u.values - (x - x**2 / 2)).max() <= 1e-14

    # Thomas itself carries relative round-off growing like N^2 eps and with
    # the spread of kappa (up to 2e-12 at N = 256 for psi coefficients of
    # 0.5, 5e-12 for 1.0), so the agreement is checked where the reference
    # is good to well below the gate
    @settings(max_examples=60, deadline=None)
    @given(positive_problems(max_n=64, psi_amp=0.5))
    def test_matches_thomas(self, case):
        problem, n = case
        u = fem_solve(problem, n, self.RULE).values
        system = apply_dirichlet(_assembled(problem, n, self.RULE), problem.alpha)
        reference = solve_tridiagonal(system).values
        assert np.abs(u - reference).max() <= 1e-12 * np.abs(reference).max()

    # rows 1..N of the assembled system hold for the sweep's u. The scale is
    # the size of the terms each row sums, |A| |u| + |rhs|: evaluating A u
    # for any rounded u loses eps |A| |u|, about N^2 eps of max |rhs|
    @settings(max_examples=60, deadline=None)
    @given(positive_problems(max_n=256, psi_amp=1.0))
    def test_residual(self, case):
        problem, n = case
        u = fem_solve(problem, n, self.RULE).values
        system = _assembled(problem, n, self.RULE)
        residual = tridiagonal_matvec(system, u) - system.rhs
        magnitude = dataclasses.replace(
            system, sub=np.abs(system.sub), diag=np.abs(system.diag),
            sup=np.abs(system.sup),
        )
        scale = tridiagonal_matvec(magnitude, np.abs(u)) + np.abs(system.rhs)
        assert np.abs(residual[1:]).max() <= 1e-12 * scale[1:].max()


@pytest.fixture(scope="module")
def manufactured():
    # symbolic oracle with nonzero boundary data on both ends
    import sympy as sp
    from ellip1d.problems import Problem

    x = sp.symbols("x")
    rng = np.random.default_rng(17)
    a, b = rng.uniform(0.2, 1.5, size=2)
    kappa_s = 1 + a * x + b * x**2
    u_s = sp.sin(2 * x) + x**2 / 2 + sp.Rational(7, 10)
    flux_s = kappa_s * sp.diff(u_s, x)
    f_s = -sp.diff(flux_s, x)
    lam = lambda expr: sp.lambdify(x, expr, "numpy")
    return Problem(
        name="manufactured",
        length=1.0,
        kappa=field(lam(kappa_s)),
        f=field(lam(f_s)),
        alpha=0.7,
        beta=float(-flux_s.subs(x, 1)),
        exact=field(lam(u_s), derivative=field(lam(sp.diff(u_s, x)))),
    )


class TestManufacturedSolution:
    def test_direct_solve_second_order(self, rule3, rule5, manufactured):
        n_values = [64, 128, 256]
        errors = [
            l2_error(fem_solve(manufactured, n, rule3), manufactured.exact, rule5)
            for n in n_values
        ]
        assert 1.9 <= observed_order(n_values, errors) <= 2.1
        assert errors[-1] <= 1e-5

    def test_decomposition_handles_boundary_data(self, rule3, manufactured):
        from ellip1d.decompose import solve_improved, solve_original

        improved = solve_improved(manufactured, 2**7, 1, rule3)
        original = solve_original(manufactured, 2**7, 1, rule3)
        assert improved.U_M.values[0] == pytest.approx(0.7, abs=1e-13)
        assert np.abs(improved.U_M.values - original.U_M.values).max() <= 1e-12

    def test_improved_converges_with_truncation(self, rule3, rule5, manufactured):
        from ellip1d.decompose import solve_improved

        errors = [
            l2_error(solve_improved(manufactured, 2**9, m, rule3).U_M,
                     manufactured.exact, rule5)
            for m in (1, 3, 12)
        ]
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]
        assert errors[2] <= 5e-6  # truncation exhausted, discretization remains


class TestNodalFunction:
    def test_node_evaluation_exact(self):
        # h = 1/7 is not exactly representable, yet nodes must round-trip
        mesh = build_mesh(1.0, 7)
        rng = np.random.default_rng(5)
        values = rng.normal(size=8)
        nf = NodalFunction(mesh, values)
        np.testing.assert_array_equal(nf(mesh.nodes), values)

    def test_midpoint_is_average(self):
        mesh = build_mesh(1.0, 4)
        nf = NodalFunction(mesh, np.array([0.0, 2.0, 1.0, 1.0, -3.0]))
        mids = (mesh.nodes[:-1] + mesh.nodes[1:]) / 2
        np.testing.assert_allclose(
            nf(mids), (nf.values[:-1] + nf.values[1:]) / 2, atol=1e-15
        )

    def test_derivative_values(self):
        mesh = build_mesh(2.0, 4)
        nf = NodalFunction(mesh, np.array([0.0, 1.0, 1.0, 4.0, 2.0]))
        np.testing.assert_allclose(nf.derivative_values(), [2.0, 0.0, 6.0, -4.0])


class TestPointMajorLayout:
    """Element-point arrays keep their shape and values, stored point-major."""

    @staticmethod
    def assert_bits_equal(a, b):
        assert a.shape == b.shape
        np.testing.assert_array_equal(
            np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
        )

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 7, 300, 2**10])
    def test_element_points(self, n, q):
        mesh = build_mesh(1.0, n)
        rule = QuadratureRule.gauss(q)
        pts = mesh.element_points(rule)
        assert pts.shape == (n, q)
        assert pts.T.flags.c_contiguous
        self.assert_bits_equal(pts, mesh.nodes[:-1, None] + mesh.h * rule.points[None, :])
        assert np.all(np.diff(pts.ravel()) > 0.0)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 7, 300, 2**10])
    def test_at_quadrature(self, n, q):
        mesh = build_mesh(1.0, n)
        rule = QuadratureRule.gauss(q)
        nf = NodalFunction(mesh, np.random.default_rng(n).normal(size=n + 1))
        vals = nf.at_quadrature(rule)
        assert vals.shape == (n, q)
        assert vals.T.flags.c_contiguous
        t = rule.points[None, :]
        self.assert_bits_equal(vals, nf.values[:-1, None] * (1.0 - t) + nf.values[1:, None] * t)

    @pytest.mark.parametrize("assemble", [assemble_stiffness, assemble_load])
    def test_nan_names_its_element(self, rule3, assemble):
        mesh = build_mesh(1.0, 8)
        bad_x = mesh.element_points(rule3)[5, -1]
        with pytest.raises(AssemblyError, match=r"on element 5$"):
            assemble(mesh, field(lambda x: np.where(x == bad_x, np.nan, 1.0)), rule3)

    def test_nonpositive_coefficient_names_its_point(self, rule3):
        pts = build_mesh(1.0, 8).element_points(rule3)
        bad_x = pts[5, -1]
        psi = psi_of(field(lambda x: np.where(x == bad_x, -1.0, 1.0)))
        with pytest.raises(ValueError, match=re.escape(f"at x = {bad_x}") + "$"):
            psi(pts)


class TestBlockedElementIndex:
    """Errors name an element by its index in the mesh, not within its block."""

    E = BLOCK_ELEMS + 5
    N = 2 * BLOCK_ELEMS

    def bad_at(self, value, rule):
        bad_x = build_mesh(1.0, self.N).element_points(rule)[self.E, -1]
        return field(lambda x: np.where(x == bad_x, value, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_load(self, rule3, bad):
        f = self.bad_at(bad, rule3)
        message = rf"load function .* on element {self.E}$"
        with pytest.raises(AssemblyError, match=message):
            assemble_load(build_mesh(1.0, self.N), f, rule3)
        with pytest.raises(AssemblyError, match=message):
            solve_u0(unit_problem(f=f), self.N, rule3)

    def test_nonfinite_kappa_in_fem_solve(self, rule3):
        # a Problem would reject this kappa on construction
        problem = SimpleNamespace(length=1.0, kappa=self.bad_at(np.nan, rule3),
                                  f=constant_field(1.0), alpha=0.0, beta=0.0)
        with pytest.raises(AssemblyError, match=rf"stiffness .* on element {self.E}$"):
            fem_solve(problem, self.N, rule3)

    def test_nonpositive_mean_in_fem_solve(self, rule3):
        problem = SimpleNamespace(length=1.0, kappa=self.bad_at(-1e3, rule3),
                                  f=constant_field(1.0), alpha=0.0, beta=0.0)
        with pytest.raises(ValueError, match=rf"^element {self.E} has mean conductance"):
            fem_solve(problem, self.N, rule3)


class TestConcurrentUse:
    def test_parallel_solves_match_serial(self, rule3, ex1, ex3):
        from concurrent.futures import ThreadPoolExecutor

        jobs = [(p, n) for p in (ex1, ex3) for n in (32, 64, 128, 256)]
        serial = [fem_solve(p, n, rule3).values for p, n in jobs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda j: fem_solve(*j, rule3).values, jobs))
        for expected, got in zip(serial, parallel):
            np.testing.assert_array_equal(expected, got)


class TestFemSolve:
    def test_ex1_accuracy(self, rule3, rule5, ex1):
        u = fem_solve(ex1, 2**9, rule3)
        assert l2_error(u, ex1.exact, rule5) <= 5e-6

    def test_unit_coefficient_matches_u0(self, rule3):
        problem = unit_problem(f=field(lambda x: np.cos(3 * x)), beta=0.5)
        direct = fem_solve(problem, 64, rule3)
        u0 = solve_u0(problem, 64, rule3)
        np.testing.assert_allclose(direct.values, u0.values, atol=1e-14)

    def test_ex3_error_quarters_when_doubled(self, rule3, rule5, ex3):
        e1 = l2_error(fem_solve(ex3, 2**7, rule3), ex3.exact, rule5)
        e2 = l2_error(fem_solve(ex3, 2**8, rule3), ex3.exact, rule5)
        assert 3.5 <= e1 / e2 <= 4.5

    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3"])
    def test_convergence_order(self, rule3, rule5, pid, request):
        problem = request.getfixturevalue(pid)
        n_values = [2**k for k in range(5, 12)]
        errors = [
            l2_error(fem_solve(problem, n, rule3), problem.exact, rule5)
            for n in n_values
        ]
        assert 1.9 <= observed_order(n_values, errors) <= 2.1

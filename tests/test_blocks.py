"""Element-block passes: block layout, bit-for-bit invariance and memory.

fem.element_blocks splits every pass over element quadrature points into
blocks of at most fem.BLOCK_ELEMS elements. Each element gets the same
operations on the same values as in one whole-mesh pass, and every sum
across elements still runs over whole vectors, so each result must be bit
for bit the one the same call gives with BLOCK_ELEMS above N (one block).
The equispaced sample grids of sup_norm and of Problem validation are walked
in chunks of BLOCK_ELEMS samples; their maxima, minima and finiteness tests
are exact under chunking, so they too must match one whole-grid pass.
"""

import numpy as np
import pytest

from ellip1d import builtin_problem, constant_field, fem, psi_of
from ellip1d.decompose import solve_improved, solve_original, solve_u0
from ellip1d.fem import (ASSEMBLY_RULE, BLOCK_ELEMS, assemble_load, build_mesh, element_blocks,
                         fem_solve)
from ellip1d.norms import field_errors, sup_norm
from ellip1d.problems import Problem

from conftest import field, traced_peak_mb

B = BLOCK_ELEMS
M = 6


def blocks(n: int) -> list[slice]:
    return [elems for elems, _ in element_blocks(build_mesh(1.0, n), ASSEMBLY_RULE)]


@pytest.mark.parametrize("n", [1, 7, 8, 9, B - 1, B, B + 1, 3 * B + 7, 2**16, 10**6])
def test_blocks_cover_the_mesh_from_multiples_of_eight(n):
    slices = blocks(n)
    assert len(slices) == -(-n // B)
    assert slices[0].start == 0 and slices[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
    assert all(s.start % 8 == 0 for s in slices)
    sizes = [s.stop - s.start for s in slices]
    # near-equal: no block is a small remainder of the others
    assert max(sizes) <= B
    assert max(sizes) - min(sizes) < 8 * len(slices)


@pytest.mark.parametrize("n", [5, 3 * B + 7])
def test_block_points_are_rows_of_the_whole_mesh(n):
    mesh = build_mesh(1.0, n)
    whole = mesh.element_points(ASSEMBLY_RULE)
    for elems, pts in element_blocks(mesh, ASSEMBLY_RULE):
        assert pts.T.flags.c_contiguous
        np.testing.assert_array_equal(pts.view(np.uint64), whole[elems].view(np.uint64))


def results(problem, n):
    """Nodal values of every method and term, and their errors, at N = n."""
    u0 = solve_u0(problem, n, ASSEMBLY_RULE)
    original = solve_original(problem, n, M, ASSEMBLY_RULE)
    functions = [u0, solve_improved(problem, n, M, ASSEMBLY_RULE).U_M, original.U_M,
                 fem_solve(problem, n, ASSEMBLY_RULE), *original.terms]
    return ([v.values.tobytes() for v in functions],
            field_errors(u0.mesh, functions, problem.exact))


@pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
@pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B + 7])
def test_blocked_passes_match_one_block(pid, n, request, monkeypatch):
    problem = request.getfixturevalue(pid)
    values, errors = results(problem, n)
    monkeypatch.setattr(fem, "BLOCK_ELEMS", n + 8)
    assert len(blocks(n)) == 1
    one_values, one_errors = results(problem, n)
    assert values == one_values
    assert errors == one_errors  # exact float equality


# one whole-mesh pass kept (2^16, 5) point arrays and their temporaries:
# 13.6 MB for field_errors and 9.4 MB for solve_improved on ex2; assemble_load's
# whole-mesh left and right halves took it to 1.69 MB next to its 0.5 MB vector
@pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
def test_peak_allocation_stays_block_sized(pid, request):
    problem, n = request.getfixturevalue(pid), 2**16
    mesh = build_mesh(problem.length, n)
    assert traced_peak_mb(lambda: assemble_load(mesh, problem.f, ASSEMBLY_RULE)) < 1.2
    assert traced_peak_mb(lambda: solve_improved(problem, n, 10, ASSEMBLY_RULE)) < 4.0
    u = solve_improved(problem, n, 10, ASSEMBLY_RULE).U_M
    assert traced_peak_mb(lambda: field_errors(u.mesh, [u], problem.exact)) < 4.0


# the (2^16 + 1, M + 1) slopes array and M fresh concatenate/cumsum pairs per
# call held 13.6 MB; one (M, N + 1) array of term values swept in place holds 8.6
@pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
def test_original_method_sweeps_its_terms_in_place(pid, request):
    problem = request.getfixturevalue(pid)
    assert traced_peak_mb(lambda: solve_original(problem, 2**16, 10, ASSEMBLY_RULE)) < 10.0


class TestSampleGrids:
    """sup_norm and Problem validation sample linspace grids chunk by chunk."""

    @pytest.mark.parametrize("n", [2, B - 1, B, B + 1, 2**16, 100001])
    def test_chunks_are_the_linspace_grid(self, n):
        seen = []

        def identity(x):
            seen.append(x.copy())
            return x

        peak = sup_norm(field(identity), 1.0, n)
        grid = np.linspace(0.0, 1.0, n)
        np.testing.assert_array_equal(np.concatenate(seen).view(np.uint64),
                                      grid.view(np.uint64))
        assert max(len(chunk) for chunk in seen) <= B
        assert peak == 1.0

    @pytest.mark.parametrize("pid", ["ex2", "ex4"])
    @pytest.mark.parametrize("n", [2, B - 1, B, B + 1, 2**16, 100001])
    def test_sup_norm_is_the_whole_grid_max(self, pid, n, request):
        psi = psi_of(request.getfixturevalue(pid).kappa)
        whole = float(np.max(np.abs(psi(np.linspace(0.0, 1.0, n)))))
        assert sup_norm(psi, 1.0, n) == whole  # exact float equality

    def test_sup_norm_propagates_nan(self):
        nan_at_end = field(lambda x: np.where(x == 1.0, np.nan, x))
        assert np.isnan(sup_norm(nan_at_end, 1.0, 2**16))

    @staticmethod
    def problem_with(kappa_at_0, kappa_at_end):
        """A Problem whose coefficient is 1 except at x = 0 and x = L = 1.

        The 65 536 samples make 16 full chunks, the last of which ends at
        x = L.
        """
        kappa = field(lambda x: np.where(x == 0.0, kappa_at_0,
                                         np.where(x == 1.0, kappa_at_end, 1.0)))
        return Problem(name="bad", length=1.0, kappa=kappa, f=constant_field(1.0),
                       alpha=0.0, beta=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at_end", [False, True])
    def test_validation_finds_a_non_finite_sample_at_either_end(self, bad, at_end):
        with pytest.raises(ValueError, match="bad: coefficient is not finite"):
            self.problem_with(*((1.0, bad) if at_end else (bad, 1.0)))

    @pytest.mark.parametrize("bad", [0.0, -2.0])
    @pytest.mark.parametrize("at_end", [False, True])
    def test_validation_finds_a_non_positive_sample_at_either_end(self, bad, at_end):
        with pytest.raises(ValueError, match=f"strictly positive, sampled minimum {bad}"):
            self.problem_with(*((1.0, bad) if at_end else (bad, 1.0)))

    def test_validation_reports_non_finite_before_non_positive(self):
        # the non-positive sample comes in the first chunk, the NaN in the last
        with pytest.raises(ValueError, match="not finite"):
            self.problem_with(-1.0, np.nan)

    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    def test_peak_allocation_stays_chunk_sized(self, pid, request):
        # whole grids held 1.1-2.0 MB: the 2^16 samples and their temporaries
        psi = psi_of(request.getfixturevalue(pid).kappa)
        assert traced_peak_mb(lambda: sup_norm(psi, 1.0, 2**16)) < 1.0
        assert traced_peak_mb(lambda: builtin_problem(pid)) < 1.0

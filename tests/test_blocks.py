"""Element-block passes: block layout, bit-for-bit invariance and memory.

fem.element_blocks splits every pass over element quadrature points into
blocks of at most fem.BLOCK_ELEMS elements. Each element gets the same
operations on the same values as in one whole-mesh pass, and every sum
across elements still runs over whole vectors, so each result must be bit
for bit the one the same call gives with BLOCK_ELEMS above N (one block).
"""

import tracemalloc

import numpy as np
import pytest

from ellip1d import fem
from ellip1d.decompose import solve_improved, solve_original, solve_u0
from ellip1d.fem import ASSEMBLY_RULE, BLOCK_ELEMS, build_mesh, element_blocks, fem_solve
from ellip1d.norms import field_errors

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


def traced_peak_mb(fn) -> float:
    """tracemalloc peak of fn() above what was allocated before the call."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


# one whole-mesh pass kept (2^16, 5) point arrays and their temporaries:
# 13.6 MB for field_errors and 9.4 MB for solve_improved on ex2
@pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
def test_peak_allocation_stays_block_sized(pid, request):
    problem, n = request.getfixturevalue(pid), 2**16
    assert traced_peak_mb(lambda: solve_improved(problem, n, 10, ASSEMBLY_RULE)) < 4.0
    u = solve_improved(problem, n, 10, ASSEMBLY_RULE).U_M
    assert traced_peak_mb(lambda: field_errors(u.mesh, [u], problem.exact)) < 4.0

"""Adaptive Gauss quadrature with batch cumulative evaluation.

No package module imports it: the references are Chebyshev antiderivatives
(problems.py) and the theorem-bound check uses the error norms' Gauss rule
(norms.py). It stays only because perfbench/tracing.py wraps its three
functions. Each interval's 7-point Gauss estimate is compared with the sum
over its halves; intervals failing their length-prorated share of the
tolerance are split until a global budget of subintervals is exhausted.
"""

from __future__ import annotations

import numpy as np

from .problems import AccuracyError

__all__ = ["AccuracyError", "integral", "segment_integrals", "cumulative"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(7)

MAX_SUBINTERVALS = 1_000_000

_PANEL_CHUNK = 1 << 18  # bounds transient memory for very long panel batches


def _gauss_panels(fn, a, b):
    """7-point Gauss estimates for the panels [a_i, b_i]; a, b are arrays."""
    out = np.empty(len(a))
    for lo in range(0, len(a), _PANEL_CHUNK):
        hi = min(lo + _PANEL_CHUNK, len(a))
        mid = 0.5 * (a[lo:hi] + b[lo:hi])
        half = 0.5 * (b[lo:hi] - a[lo:hi])
        pts = mid[:, None] + half[:, None] * _NODES[None, :]
        vals = np.broadcast_to(
            np.asarray(fn(pts.ravel()), dtype=float), (pts.size,)
        ).reshape(pts.shape)
        out[lo:hi] = half * (vals @ _WEIGHTS)
    return out


def segment_integrals(fn, breakpoints, tol):
    """Integral of fn over each consecutive pair of breakpoints.

    fn must accept a 1-D array and return values elementwise. breakpoints must
    be nondecreasing; zero-length segments integrate to zero. The sum of
    absolute errors over all segments is controlled to tol.
    """
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or len(bp) < 2:
        raise ValueError("need at least two breakpoints")
    if np.any(np.diff(bp) < 0):
        raise ValueError("breakpoints must be nondecreasing")
    total_len = bp[-1] - bp[0]
    n_seg = len(bp) - 1
    out = np.zeros(n_seg)
    if total_len == 0.0:
        return out

    seg_id = np.arange(n_seg)
    a, b = bp[:-1].copy(), bp[1:].copy()
    live = (b - a) > 0.0
    seg_id, a, b = seg_id[live], a[live], b[live]

    n_intervals = len(a)
    unresolved = 0.0  # error stuck at floating-point resolution
    while len(a):
        mid = 0.5 * (a + b)
        coarse = _gauss_panels(fn, a, b)
        fine = _gauss_panels(fn, a, mid) + _gauss_panels(fn, mid, b)
        err = np.abs(fine - coarse)
        ok = err <= tol * (b - a) / total_len
        # intervals at floating-point resolution cannot be split further
        resolved = (b - a) <= 4e-16 * np.maximum(np.abs(a), np.maximum(np.abs(b), 1.0))
        accept = ok | resolved
        np.add.at(out, seg_id[accept], fine[accept])
        unresolved += float(err[resolved & ~ok].sum())

        bad = ~accept
        if not np.any(bad):
            break
        n_intervals += int(bad.sum())
        if n_intervals > MAX_SUBINTERVALS:
            np.add.at(out, seg_id[bad], fine[bad])
            raise AccuracyError(
                f"adaptive quadrature exceeded {MAX_SUBINTERVALS} subintervals",
                estimate=out,
                error_estimate=float(err[bad].sum()) + unresolved,
            )
        seg_id = np.concatenate([seg_id[bad], seg_id[bad]])
        a = np.concatenate([a[bad], mid[bad]])
        b = np.concatenate([mid[bad], b[bad]])
    if unresolved > tol:
        raise AccuracyError(
            "requested tolerance unreachable at floating-point resolution",
            estimate=out,
            error_estimate=unresolved,
        )
    return out


def integral(fn, a, b, tol):
    """Adaptive integral of fn over [a, b] with absolute tolerance tol."""
    return float(segment_integrals(fn, np.array([a, b]), tol)[0])


def cumulative(fn, points, tol, base=0.0):
    """base + integral of fn from points[0] to every point, same length as points.

    points must be sorted ascending.
    """
    return base + np.concatenate(([0.0], np.cumsum(segment_integrals(fn, points, tol))))

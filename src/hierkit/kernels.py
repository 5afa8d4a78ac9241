"""Exact nearest-distance kernels in feature space, and the one row-block rule.

``min_sq_distances`` gives the mutual-cover minima, ``nearest_refs`` the NCC readout.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.spatial.distance import cdist

__all__ = ["min_sq_distances", "nearest_refs"]


def _usable_cpus() -> int:
    """CPUs this process may run on: the worker count of the cover minima."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def min_sq_distances(x: np.ndarray, refs: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The (n, G) float64 array whose [i, g] is the minimum squared Euclidean
    distance from x[i] to the non-empty group refs[starts[g]:starts[g + 1]] (the
    last runs to the end).

    Row blocks run on one thread per usable CPU, never more threads than blocks.
    ``cdist`` releases the GIL and each of its values does not depend on the rest
    of the call, so the result is bit for bit the serial one.  The blocks in
    flight hold about 2**22 distances (32 MB) together.
    """
    x, refs = x.astype(np.float64, copy=False), refs.astype(np.float64, copy=False)
    out = np.empty((x.shape[0], len(starts)))
    cpus = _usable_cpus()
    rows = max(1, _block_rows(refs.shape[0]) // cpus)

    def fill(lo: int) -> None:
        np.minimum.reduceat(cdist(x[lo:lo + rows], refs, "sqeuclidean"), starts,
                            axis=1, out=out[lo:lo + rows])

    blocks = range(0, x.shape[0], rows)
    with ThreadPoolExecutor(max_workers=max(1, min(cpus, len(blocks)))) as pool:
        list(pool.map(fill, blocks))
    return out


def _block_rows(n_refs: int) -> int:
    """Rows per block, so that a block holds about 2**22 distances (32 MB of float64)."""
    return max(1, 2**22 // max(1, n_refs))


def _screen_slack(xx: np.ndarray, rr_max: float, p: int) -> np.ndarray:
    """E: a bound on |screen - cdist| for rows whose computed |x|^2 is ``xx``.

    Derivation (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3):
    u = 2**-53, gamma_n = n*u / (1 - n*u).  For one pair let d = |x - r|^2 in exact
    arithmetic and A = |x|^2 + |r|^2, so that d <= 2A and |x.r| <= A/2.  In any
    summation order, with or without FMA:

    - the screen s = (|x|^2 - 2 x.r) + |r|^2 is built from the computed norms and
      GEMM entry.  Each norm errs by at most gamma_p times itself and the dot
      product by at most gamma_p * A/2 (doubling it is exact): 2 gamma_p A in all.
      The two adds round values below 2A(1 + 2 gamma_p): at most
      4u(1 + 2 gamma_p) A more.  So |s - d| <= 2 gamma_{p+2} A.
    - cdist sums p rounded squares of rounded differences, all non-negative:
      |c - d| <= gamma_{p+2} d <= 2 gamma_{p+2} A.

    Hence |s - c| <= 4 gamma_{p+2} A.  E uses gamma_{p+4}: the two spare units
    cover the computed norms falling short of A (relative gamma_p) and the
    rounding of E and of the threshold min(s) + 2E, while p*p*u < 2**-6
    (p < 10**7).  Gradual underflow adds at most 2**-1075 per product, 4p
    products in all, which p * 2**-1070 covers.  Valid while 4 (xx + rr_max) is
    finite, so that neither s nor c can overflow.
    """
    g = (p + 4) * 2.0**-53 / (1 - (p + 4) * 2.0**-53)
    return 4 * g * (xx + rr_max) + p * 2.0**-1070


def nearest_refs(x: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Index of the nearest row of ``refs`` for each row of ``x``.

    Bit for bit ``argmin(cdist(x, refs, "sqeuclidean"), axis=1)``: ties go to the
    lower index.  Works in float64, in row blocks of about 2**22 distances
    (:func:`_block_rows`).  A GEMM screen keeps, per row, the refs within
    twice the rounding bound E (:func:`_screen_slack`) of the row's screened
    minimum; the cdist winner j is always kept, since s_j <= c_j + E <= c_k + E
    <= s_k + 2E for every k.  A row left with one candidate takes it; the others,
    and rows too large for the bound, are settled by ``cdist`` over their
    candidates.
    """
    refs = refs.astype(np.float64, copy=False)
    if refs.shape[0] == 0:
        raise ValueError("nearest_refs needs at least one reference point")
    n, p = x.shape
    rr = np.einsum("ij,ij->i", refs, refs)
    rr_max = rr.max()
    labels = np.empty(n, dtype=np.intp)
    rows = _block_rows(refs.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, rows):
            xb = x[lo:lo + rows].astype(np.float64, copy=False)
            xx = np.einsum("ij,ij->i", xb, xb)
            s = xb @ refs.T
            s *= -2.0
            s += xx[:, None]
            s += rr
            best = np.argmin(s, axis=1)
            limit = s[np.arange(len(s)), best] + 2 * _screen_slack(xx, rr_max, p)
            cand = s <= limit[:, None]
            unbounded = ~np.isfinite(4 * (xx + rr_max))
            cand[unbounded] = True
            refine = np.flatnonzero(unbounded | (np.count_nonzero(cand, axis=1) > 1))
            if refine.size:
                sub = cand[refine]
                cols = np.flatnonzero(sub.any(axis=0))
                # a cdist value does not depend on the other rows and columns in the call
                d = cdist(xb[refine], refs[cols], "sqeuclidean")
                d[~sub[:, cols]] = np.inf
                best[refine] = cols[np.argmin(d, axis=1)]
            labels[lo:lo + len(best)] = best
    return labels

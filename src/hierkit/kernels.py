"""Exact nearest-distance kernels in feature space, and the one row-block rule.

``_sq_minima``, ``cdist`` of some rows against every ref reduced over groups of
refs, is the one exact-distance call; ``min_sq_distances`` runs it on every row.
``GroupScreen`` (the grid cover's step indices and r_max) and ``nearest_refs``
(the NCC readout) screen with one float64 GEMM per row block (``_screen_block``)
under a proven error bound (``_screen_slack``).  Rows the bound settles take the
screened answer; unsettled rows take their exact row from ``_sq_minima``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.spatial.distance import cdist

__all__ = ["GroupScreen", "min_sq_distances", "nearest_refs"]


def _usable_cpus() -> int:
    """CPUs this process may run on: the worker count of the cover minima."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sq_minima(x: np.ndarray, refs: np.ndarray, starts=None, out=None) -> np.ndarray:
    """The (n, G) float64 array whose [i, g] is the minimum squared Euclidean
    distance from x[i] to the non-empty group refs[starts[g]:starts[g + 1]] (the
    last runs to the end) of float64 ``refs``.  Without ``starts`` each ref is
    its own group: the ``cdist`` block itself, with no reduced copy of it."""
    d = cdist(x.astype(np.float64, copy=False), refs, "sqeuclidean")
    return d if starts is None else np.minimum.reduceat(d, starts, axis=1, out=out)


def min_sq_distances(x: np.ndarray, refs: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """:func:`_sq_minima` of every row of ``x``.

    Row blocks run on one thread per usable CPU, never more threads than blocks.
    ``cdist`` releases the GIL and each of its rows does not depend on the rest
    of the call, so the result is bit for bit the serial one.  The blocks in
    flight hold about 2**22 distances (32 MB) together.
    """
    refs = refs.astype(np.float64, copy=False)
    out = np.empty((x.shape[0], len(starts)))
    cpus = _usable_cpus()
    rows = max(1, _block_rows(refs.shape[0]) // cpus)

    def fill(lo: int) -> None:
        _sq_minima(x[lo:lo + rows], refs, starts, out=out[lo:lo + rows])

    blocks = range(0, x.shape[0], rows)
    with ThreadPoolExecutor(max_workers=max(1, min(cpus, len(blocks)))) as pool:
        list(pool.map(fill, blocks))
    return out


def _block_rows(width: int) -> int:
    """Rows per block, so that a block holds about 2**22 float64 values (32 MB)
    in an array of ``width`` values per row.  Callers pass the widest such
    array: a block's distances or scores, one per ref, or, where the block's
    rows are cast to float64, its row copy, one value per dimension."""
    return max(1, 2**22 // max(1, width))


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
    finite, so that neither s nor c can overflow; E is inf on the other rows.
    """
    g = (p + 4) * 2.0**-53 / (1 - (p + 4) * 2.0**-53)
    with np.errstate(over="ignore"):
        return np.where(np.isfinite(4 * (xx + rr_max)), 4 * g * (xx + rr_max) + p * 2.0**-1070,
                        np.inf)


def _screen_block(xb: np.ndarray, refs: np.ndarray,
                  rr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The screen of one float64 row block against float64 ``refs`` whose squared
    norms are ``rr``: s = (|x|^2 - 2 x.r) + |r|^2 from one GEMM, and each row's
    bound E (:func:`_screen_slack`) on |s - cdist|.  Callers silence overflow."""
    xx = np.einsum("ij,ij->i", xb, xb)
    s = xb @ refs.T
    s *= -2.0
    s += xx[:, None]
    s += rr
    return s, _screen_slack(xx, rr.max(), xb.shape[1])


class GroupScreen:
    """The cover minima of :func:`min_sq_distances`, screened: for each row x[i]
    and non-empty group g = refs[starts[g]:starts[g + 1]], what the grid cover
    needs of the exact minimum c[i, g] without computing it.

    One GEMM per row block of :func:`_block_rows` rows (:func:`_screen_block`)
    and ``np.minimum.reduceat`` over the groups give the screened minima
    ``minima[i, g]`` and each row's bound ``slack[i]`` = E.  Every screened value
    of a row is within E of its ``cdist`` value, so |minima - c| <= E as well,
    and c lies in [s - E, s + E].  Rounding to nearest is monotone, so the
    computed ends still enclose c; each is moved one float further out with
    ``np.nextafter``, a margin beyond the proof, and the low end is clipped at 0.
    E is inf on rows that the bound does not cover, so nothing settles there.
    """

    def __init__(self, x: np.ndarray, refs: np.ndarray, starts: np.ndarray) -> None:
        self.x, self.starts = x, starts
        self.refs = refs.astype(np.float64, copy=False)
        rr = np.einsum("ij,ij->i", self.refs, self.refs)
        self.minima = np.empty((len(x), len(starts)))
        self.slack = np.empty(len(x))
        rows = _block_rows(len(refs))
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(x), rows):
                s, self.slack[lo:lo + rows] = _screen_block(
                    x[lo:lo + rows].astype(np.float64, copy=False), self.refs, rr)
                np.minimum.reduceat(s, starts, axis=1, out=self.minima[lo:lo + rows])
                del s  # so that no two blocks are held at once

    def largest_minimum(self) -> float:
        """max(min_sq_distances(x, refs, starts)), bit for bit.

        Only the candidate rows run through ``min_sq_distances``: the rows whose
        largest s + E reaches the largest s - E of any row, which the row holding
        the maximum always does, and the rows without a bound.
        """
        s, e = self.minima.max(axis=1), self.slack
        bounded = np.isfinite(e)
        with np.errstate(over="ignore", invalid="ignore"):
            floor = np.nextafter(s[bounded] - e[bounded], -np.inf).max(initial=-np.inf)
            rows = np.flatnonzero(~bounded | (np.nextafter(s + e, np.inf) >= floor))
        return float(min_sq_distances(self.x[rows], self.refs, self.starts).max())

    def step_indices(self, grid: np.ndarray, out: np.ndarray) -> None:
        """out[i, g] = searchsorted(grid, sqrt(c[i, g]), side="right"), bit for bit,
        for the exact minima c = min_sq_distances(x, refs, starts) and a sorted
        ``grid`` with grid[-1] > 0.

        Correctly rounded ``sqrt`` is monotone, so c in [low, high] puts sqrt(c) in
        [sqrt(low), sqrt(high)].  A pair is settled, with index j + 1, when
        grid[j] <= sqrt(low) and sqrt(high) < grid[j + 1] (or j is the last grid
        point).  j is guessed as if the grid were ``linspace(0, grid[-1],
        len(grid))``, as the cover's is; a wrong guess, a grid point inside the
        interval, and a row without a bound (high is inf or nan) leave the pair
        unsettled.  Unsettled rows, those with any unsettled pair, take their
        exact row: every index of the row comes from :func:`_sq_minima`.  Works
        per row block of :func:`_block_rows` rows, as the screen does.
        """
        upper = np.append(grid[1:], np.inf)
        with np.errstate(over="ignore"):
            scale = (len(grid) - 1) / grid[-1]
        rows = _block_rows(len(self.refs))
        for lo in range(0, len(self.x), rows):
            s, e = self.minima[lo:lo + rows], self.slack[lo:lo + rows, None]
            with np.errstate(over="ignore", invalid="ignore"):
                high = np.sqrt(np.nextafter(s + e, np.inf))
                low = np.sqrt(np.maximum(np.nextafter(s - e, -np.inf), 0.0))
                j = np.fmin(high * scale, len(grid) - 1).astype(np.intp)
            out[lo:lo + rows] = j + 1
            unsettled = lo + np.flatnonzero(~((grid[j] <= low) & (high < upper[j])).all(axis=1))
            if unsettled.size:
                exact = _sq_minima(self.x[unsettled], self.refs, self.starts)
                out[unsettled] = np.searchsorted(grid, np.sqrt(exact), side="right")


def nearest_refs(x: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Index of the nearest row of ``refs`` for each row of ``x``.

    Bit for bit ``argmin(cdist(x, refs, "sqeuclidean"), axis=1)``: ties go to the
    lower index.  Works in float64, in row blocks of :func:`_block_rows` of the
    wider of the ref count (the screen) and the dimension (the float64 row copy);
    the labels do not depend on the blocking.  A GEMM screen finds, per row, the
    refs within twice the rounding bound E (:func:`_screen_slack`) of the row's
    screened minimum; the cdist winner j is always among them, since s_j <= c_j +
    E <= c_k + E <= s_k + 2E for every k.  A row with one such ref takes it.
    Unsettled rows, those with several and those too large for the bound, take
    their exact row: the ``argmin`` of its :func:`_sq_minima` row over every ref.
    """
    refs = refs.astype(np.float64, copy=False)
    if refs.shape[0] == 0:
        raise ValueError("nearest_refs needs at least one reference point")
    rr = np.einsum("ij,ij->i", refs, refs)
    labels = np.empty(len(x), dtype=np.intp)
    rows = _block_rows(max(refs.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(x), rows):
            s, slack = _screen_block(x[lo:lo + rows].astype(np.float64, copy=False), refs, rr)
            best = np.argmin(s, axis=1, out=labels[lo:lo + rows])
            limit = s[np.arange(len(s)), best] + 2 * slack
            near = np.count_nonzero(s <= limit[:, None], axis=1)
            del s  # so that no two blocks are held at once
            unsettled = np.flatnonzero(np.isinf(slack) | (near > 1))
            if unsettled.size:
                exact = _sq_minima(x[lo + unsettled], refs)
                best[unsettled] = np.argmin(exact, axis=1)
    return labels

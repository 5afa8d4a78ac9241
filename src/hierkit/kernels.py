"""Exact kernels in feature space, their screens, and the one row-block rule.

``_sq_distances`` is the one exact squared-distance sum, and ``_sq_minima``, its
rows reduced over groups of refs, the one exact-distance call;
``min_sq_distances`` runs it on every row.  ``_pair_dots`` is the one exact dot
product, the same recipe with a product in place of the square of a difference:
the linear scores of ``_linear_labels`` and the sums of ``ccc``, ``nc3`` and the
random-guess baseline.  ``GroupScreen`` (the grid cover's step indices and r_max)
screens with one float64 GEMM per pooled row slab (``_screen_block``) under a
proven error bound (``_screen_slack``).  The two NC4
readouts, ``nearest_refs`` (NCC) and ``_linear_labels``, are one loop,
``_screened_argmin``: one GEMM per row block, in float32 for float32 rows, under
``_screen_slack`` or ``_score_slack``.  Rows the bound settles take the screened
answer (``_settle``); unsettled rows take their exact values.  ``_pooled`` is the
one thread pool, and ``_one_blas_thread`` the one pin of the BLAS at one thread,
held by every BLAS call whose result reaches an output.
"""
from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

__all__ = ["GroupScreen", "min_sq_distances", "nearest_refs"]

# Rows per pass of the exact sum: its two (rows, refs) float64 buffers stay in
# a core's L2 cache at 5,000 refs, and each of its ufunc calls is long enough
# that the call overhead stays small.
_EXACT_ROWS = 16


def _usable_cpus() -> int:
    """CPUs this process may run on: the worker count of the cover minima."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# numpy's bundled OpenBLAS thread-count (getter, setter), looked up on first use:
# None until then, () where absent
_blas_threads = None
_pin_lock = threading.Lock()
_pin_holders = 0  # threads inside _one_blas_thread()
_pin_saved = 1  # the thread count the last holder restores


def _blas_thread_api() -> tuple:
    """``scipy_openblas_{get,set}_num_threads64_`` of the OpenBLAS that numpy
    bundles, found through ``ctypes`` in numpy's own extension module (which
    links it) on the first call, or () where the library or the symbols are
    absent: a conda, MKL or Accelerate numpy, or a platform whose loader does
    not search a module's dependencies."""
    global _blas_threads
    if _blas_threads is None:
        try:
            from numpy._core import _multiarray_umath
            lib = ctypes.CDLL(_multiarray_umath.__file__)
            get, put = (lib.scipy_openblas_get_num_threads64_,
                        lib.scipy_openblas_set_num_threads64_)
        except (ImportError, OSError, AttributeError):
            _blas_threads = ()
        else:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            _blas_threads = (get, put)
    return _blas_threads


@contextmanager
def _one_blas_thread():
    """Hold the BLAS at one thread for the body of the ``with``.

    Reference-counted across threads: the first holder saves the thread count
    and sets 1, and the last to leave restores it, exception or not.  The count
    is process-wide, so while anyone holds the pin every BLAS call of the
    process runs on one thread and gives its one-thread bits.  Every BLAS or
    LAPACK call whose result reaches an output runs inside it, at any shape.  It
    does nothing where :func:`_blas_thread_api` finds no symbols.
    """
    global _pin_holders, _pin_saved
    api = _blas_thread_api()
    if api:
        get, put = api
        with _pin_lock:
            if _pin_holders == 0:
                _pin_saved = get()
                put(1)
            _pin_holders += 1
    try:
        yield
    finally:
        if api:
            with _pin_lock:
                _pin_holders -= 1
                if _pin_holders == 0:
                    put(_pin_saved)


def _line_rows(rows: int, width: int) -> np.ndarray:
    """An uninitialised float64 (rows, width) array each of whose rows starts on
    a 64-byte cache line, so that no SIMD load or store of the exact sum
    straddles two lines: where they do, its passes take about a quarter longer."""
    stride = width + -width % 8
    raw = np.empty(rows * stride + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + rows * stride].reshape(rows, stride)[:, :width]


def _transposed(refs: np.ndarray) -> np.ndarray:
    """The float64 (p, n) transpose of ``refs``, each row contiguous: a view when
    ``refs`` is already the ``.T`` of one, else a copy made 128 refs at a time,
    which keeps the copy in cache (a third of the time of one transposing copy)."""
    if refs.dtype == np.float64 and refs.strides[0] == refs.itemsize:
        return refs.T
    out = np.empty(refs.shape[::-1])
    for lo in range(0, refs.shape[0], 128):
        out[:, lo:lo + 128] = refs[lo:lo + 128].T
    return out


def _sq_distances(x: np.ndarray, refs_t: np.ndarray) -> np.ndarray:
    """The (n, m) float64 squared Euclidean distances from the rows of ``x`` to
    the m refs whose (p, m) transpose is ``refs_t`` (:func:`_transposed`).

    Each distance is one float64 sum, from +0.0, over the dimensions in index
    order, of the rounded square of the rounded difference: no FMA and no
    reassociation, whatever the rows around it, so a pair gets the same bits in
    any call.  It is what a compiled ``s += d * d`` loop gives when the
    compiler does not contract it into an FMA.  The rows of ``x`` are cast to
    float64 and summed ``_EXACT_ROWS`` at a time, against every ref, in two
    cache-line aligned buffers (:func:`_line_rows`): three ufunc calls per
    dimension, which release the GIL.  Overflow gives inf, and inf - inf nan,
    without a warning.
    """
    out = np.empty((len(x), refs_t.shape[1]))
    rows = min(len(x), _EXACT_ROWS)
    acc, diff = _line_rows(rows, out.shape[1]), _line_rows(rows, out.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(x), _EXACT_ROWS):
            xb = x[lo:lo + _EXACT_ROWS].astype(np.float64, copy=False)
            a, d = acc[:len(xb)], diff[:len(xb)]
            a.fill(0.0)
            for j, r in enumerate(refs_t):
                np.subtract(xb[:, j, None], r, out=d)
                np.multiply(d, d, out=d)
                np.add(a, d, out=a)
            out[lo:lo + len(xb)] = a
    return out


def _pair_dots(x: np.ndarray, w: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The float64 dot products x[rows[k]].w[cols[k]], for each k.

    Each is one float64 sum, from +0.0, over the dimensions in index order, of
    the rounded products: the :func:`_sq_distances` recipe with a product in
    place of the square of a difference, so a pair gets the same bits in any
    call.  ``np.add.accumulate`` adds each row in index order, on a row of
    products that starts with +0.0.  Pairs are gathered about 2**20 values at a
    time.  Overflow gives inf, and inf - inf nan, without a warning.
    """
    out = np.empty(len(rows))
    width = x.shape[1] + 1
    step = max(1, 2**20 // width)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(rows), step):
            t = np.zeros((len(rows[lo:lo + step]), width))
            np.multiply(x[rows[lo:lo + step]], w[cols[lo:lo + step]], out=t[:, 1:])
            out[lo:lo + step] = np.add.accumulate(t, axis=1, out=t)[:, -1]
    return out


def _sum_squares(a: np.ndarray) -> float:
    """The :func:`_pair_dots` sum of the squared entries of ``a``, which calls no BLAS."""
    row, first = a.reshape(1, -1), np.zeros(1, dtype=np.intp)
    return float(_pair_dots(row, row, first, first)[0])


def _sq_minima(x: np.ndarray, refs: np.ndarray, starts=None, out=None) -> np.ndarray:
    """The (n, G) float64 array whose [i, g] is the minimum squared Euclidean
    distance from x[i] to the non-empty group refs[starts[g]:starts[g + 1]] (the
    last runs to the end) of float64 ``refs``.  Without ``starts`` each ref is
    its own group: the :func:`_sq_distances` block itself, with no reduced copy
    of it.  Callers that run many blocks pass ``refs`` as the ``.T`` of its
    transpose, so that no block copies it."""
    d = _sq_distances(x, _transposed(refs))
    return d if starts is None else _group_minima(d, starts, out)


def _group_minima(d: np.ndarray, starts: np.ndarray, out=None) -> np.ndarray:
    """``np.minimum.reduceat(d, starts, axis=1, out=out)``: the same minima.

    When the G groups all hold k columns, as the cover's support classes do, the
    minima come from k - 1 ``np.minimum`` passes over the (rows, G, k) view of
    ``d``, each folding in the next column of every group: at k = 5, a third of
    the time of ``reduceat``.  A minimum is exact, so the bits can differ only in
    which of +0.0 and -0.0, or of two nan of opposite sign, a group keeps; the
    squared distances of finite features hold neither.  Groups of unequal size
    take ``reduceat``.
    """
    n, g = d.shape[1], len(starts)
    k = n // g if g else 0
    if k == 0 or n != g * k or not np.array_equal(starts, np.arange(0, n, k)):
        return np.minimum.reduceat(d, starts, axis=1, out=out)
    view = d.reshape(len(d), g, k)
    if out is None:
        out = np.empty((len(d), g), dtype=d.dtype)
    if k == 1:
        out[...] = view[:, :, 0]
    else:
        np.minimum(view[:, :, 0], view[:, :, 1], out=out)
    for j in range(2, k):
        np.minimum(out, view[:, :, j], out=out)
    return out


def _pooled(task, items: range, scratch=None, blas: bool = False) -> None:
    """``task(item, *buffers)`` for each of ``items`` on one thread per usable CPU,
    never more threads than items: thread w takes items w, w + W, ... with the
    buffers of one ``scratch()`` call made on the calling thread, since glibc
    gives each thread that allocates its own heap arena (step-test temporaries
    made on the workers raise the ``cover`` bench's peak memory by 5 MB).  Tasks
    write disjoint rows and set their own ``errstate``, which no thread inherits.

    Two or more threads run under :func:`_one_blas_thread`, so that a task's
    BLAS call runs on the task's own thread and wakes no BLAS worker onto a core
    that the pool needs.  Tasks that call the BLAS (``blas=True``) run serially
    where that pin is absent, since two threaded calls at once would
    oversubscribe the cores.  A failing task stops its thread, and the error
    raised is that of the first failing item, as in a serial loop.
    """
    workers = max(1, min(_usable_cpus(), len(items)))
    if blas and not _blas_thread_api():
        workers = 1
    held = [scratch() if scratch else () for _ in range(workers)]
    failed: dict = {}

    def run(w: int) -> None:
        for item in items[w::workers]:
            try:
                task(item, *held[w])
            except Exception as e:  # each thread's items come in order
                failed[item] = e
                return

    if workers == 1:
        run(0)
    else:
        with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(workers)))
    if failed:
        raise failed[min(failed)]


def min_sq_distances(x: np.ndarray, refs: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """:func:`_sq_minima` of every row of ``x``.

    Row blocks run on the threads of :func:`_pooled`.  :func:`_sq_distances`
    releases the GIL and each of its rows does not depend on the rest of the
    call, so the result is bit for bit the serial one.  The blocks in flight
    hold about 2**22 distances (32 MB) together; the refs are transposed once
    for all of them.
    """
    refs = _transposed(refs).T
    out = np.empty((x.shape[0], len(starts)))
    rows = max(1, _block_rows(refs.shape[0]) // _usable_cpus())

    def fill(lo: int) -> None:
        _sq_minima(x[lo:lo + rows], refs, starts, out=out[lo:lo + rows])

    _pooled(fill, range(0, x.shape[0], rows))
    return out


def _block_rows(width: int) -> int:
    """Rows per block, so that a block holds about 2**22 float64 values (32 MB)
    in an array of ``width`` values per row.  Callers pass the widest such
    array: a block's distances or scores, one per ref, or, where the block's
    rows are cast to float64, its row copy, one value per dimension."""
    return max(1, 2**22 // max(1, width))


def _thresholds(grid: np.ndarray) -> np.ndarray:
    """t[g], the least float64 c with sqrt(c) >= grid[g] for a sorted float64
    ``grid``, or -inf where grid[g] <= 0.  Correctly rounded ``sqrt`` is
    monotone, so sqrt(c) >= grid[g] exactly when c >= t[g], t is sorted, and
    searchsorted(t, c, "right") == searchsorted(grid, sqrt(c), "right") for every
    c >= 0 or nan: every value a squared distance can take.

    t[g] starts at grid[g] * grid[g] (inf where it overflows) and moves one float
    down while the float below has sqrt >= grid[g], or up while its own sqrt <
    grid[g].  The tests are monotone in t and exclude each other, so it moves one
    way and stops, by the smallest subnormal or inf at the latest, at the least
    such c.  On linspace grids ending at 5e-324 to 1e300 it moves one float at most.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # g * g beyond float64; sqrt below 0
        t = np.where(grid > 0, grid * grid, -np.inf)
        live = np.flatnonzero(grid > 0)
        while live.size:
            c, g = t[live], grid[live]
            below = np.nextafter(c, -np.inf)
            down, up = np.sqrt(below) >= g, np.sqrt(c) < g
            t[live] = np.where(down, below, np.where(up, np.nextafter(c, np.inf), c))
            live = live[down | up]
    return t


def _screen_slack(xx: np.ndarray, rr_max: float, p: int) -> np.ndarray:
    """E: a float64 bound on |screen - c|, where c is the :func:`_sq_distances`
    value, for rows whose computed |x|^2 is ``xx``.

    Derivation (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).
    The screen (:func:`_screen_block`) runs in the dtype of ``xx``, float64 or
    float32, with unit roundoff u = 2**-53 or 2**-24; gamma_n = n*u / (1 - n*u).
    It sees each float64 ref r as r~, r rounded to that dtype, and ``rr_max`` is
    the largest |r~|^2 it computed.  c is summed in float64 against r itself, so
    its gamma'_n takes u' = 2**-53.  For one pair let d = |x - r|^2 and d~ =
    |x - r~|^2 in exact arithmetic, A = |x|^2 + |r|^2 and A~ = |x|^2 + |r~|^2, so
    that d <= 2A and |x.r~| <= A~/2.  In any summation order, with or without
    FMA:

    - the screen s = (|x|^2 - 2 x.r~) + |r~|^2 is built from the computed norms
      and GEMM entry.  Each norm errs by at most gamma_p times itself and the dot
      product by at most gamma_p * A~/2 (doubling it is exact): 2 gamma_p A~ in
      all.  The two adds round values below 2A~(1 + 2 gamma_p): at most
      4u(1 + 2 gamma_p) A~ more.  So |s - d~| <= 2 gamma_{p+2} A~.
    - c sums p rounded squares of rounded differences, all non-negative:
      |c - d| <= gamma'_{p+2} d <= 2 gamma'_{p+2} A.

    Float64 (r~ = r, d~ = d, A~ = A, gamma' = gamma): |s - c| <= 4 gamma_{p+2} A.
    E = 4 gamma_{p+4} (xx + rr_max) + p * 2**-1070.  The two spare units cover
    the computed norms falling short of A (relative gamma_p) and the rounding of
    E, while p*p*u < 2**-6 (p < 10**7).  Gradual underflow adds at most 2**-1075
    per product, 4p products in all, which p * 2**-1070 covers.

    Float32: r~ = r + e, |e_i| <= u |r_i|, or 2**-150 where r_i rounds to a
    subnormal.  d~ - d = -2 (x - r).e + |e|^2, and 2 |x - r| u |r| <= 2u (|x| |r|
    + |r|^2) <= 3uA; the subnormal part adds at most uA + p * 2**-275 (2ab <=
    (u/2) a^2 + (2/u) b^2) and |e|^2 at most 2u^2 A + p * 2**-299.  So |d~ - d|
    <= (4u + 2u^2) A + p * 2**-274, and 2 gamma'_{p+2} <= 2**-28 gamma_{p+2} < u.
    The computed norms fall short by at most gamma_p and p * 2**-150 each, and
    |r|^2 <= (1 + 4u) |r~|^2 + p * 2**-275, so A~ and A are at most (1 + 4u)(xx +
    rr_max + p * 2**-149) / (1 - gamma_p) + p * 2**-275.  Hence

        |s - c| <= (2 gamma_{p+2} + 5u)(1 + 4u)(xx + rr_max) / (1 - gamma_p)
                   + 6p * 2**-149,

    where 6p * 2**-149 also covers float32 underflow: at most 2**-150 per product
    or FMA in each of the screen's three dot products, 2**-1075 in c.  While
    gamma_{p+4} <= 1/4 (p < 3.3 * 10**6), 1/(1 - gamma_p) <= 4/3 and this is at
    most ((8/3) gamma_{p+2} + 10u)(xx + rr_max) + 6p * 2**-149.  E = (4 gamma_{p+4}
    + 4u)(xx + rr_max) + p * 2**-145 exceeds that by at least 6u (xx + rr_max),
    as gamma_{p+4} >= gamma_{p+2} + 2u and gamma_{p+2} >= 3u: far more than the
    rounding of E.  E is inf for larger p.

    Both: valid while 4 (xx + rr_max) does not exceed the screen dtype's largest
    value, so that no value the screen computes overflows (|r~|^2 overflowing
    makes ``rr_max`` inf); E is inf on the other rows.
    """
    f = np.finfo(xx.dtype)
    u = float(f.eps) / 2
    g = (p + 4) * u / (1 - (p + 4) * u)
    # a float64 screen uses the float64 refs as they are; a float32 one rounds them
    rounding = 4 * u if f.bits == 32 else 0.0
    a = xx.astype(np.float64, copy=False) + rr_max
    with np.errstate(over="ignore"):
        bounded = (4 * a <= float(f.max)) & (g <= 0.25)
        return np.where(bounded, (4 * g + rounding) * a + p * 16 * float(f.smallest_subnormal),
                        np.inf)


def _screen_block(xb: np.ndarray, refs: np.ndarray,
                  rr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The screen of one row block against ``refs`` whose squared norms are
    ``rr``, all of one dtype, float64 or float32: s = (|x|^2 - 2 x.r) + |r|^2 from
    one GEMM in that dtype, and each row's float64 bound E (:func:`_screen_slack`)
    on |s - c| against the float64 refs.  Callers silence overflow."""
    xx = np.einsum("ij,ij->i", xb, xb)
    s = xb @ refs.T
    s *= -2.0
    s += xx[:, None]
    s += rr
    return s, _screen_slack(xx, rr.max(), xb.shape[1])


def _score_slack(xx: np.ndarray, ww_max: float, b_max: float, p: int) -> np.ndarray:
    """E: a float64 bound on |s - t| for the linear scores of rows whose computed
    |x|^2 is ``xx``, where t = x.w + b is the exact score (the :func:`_pair_dots`
    value plus b, rounded once in float64), s its screen,
    ``ww_max`` the largest |w|^2 computed in float64 over the weight rows and
    ``b_max`` the largest |b|.

    Derivation (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).
    The screen runs in the dtype of ``xx``, float64 or float32, with unit
    roundoff u = 2**-53 or 2**-24 and eta = 2**-1075 or 2**-150, half its
    smallest subnormal; gamma_n = n*u / (1 - n*u), and u', eta' and gamma'_n are
    the float64 values.  It sees w~ and b~, w and b rounded to that dtype once
    (unchanged in float64), and computes s = fl(g + b~) from one GEMM entry g =
    x.w~.  For one row x and weight row w let S = sum |x_i w_i| <= |x| |w| and B
    = max |b|.  A rounding to nearest errs by at most u times its result, or by
    eta where the result is subnormal, and an add whose result is subnormal is
    exact.  Hence:

    - t: the float64 sum d of the p rounded products, in index order, takes each
      term through at most p roundings, and each product may underflow by eta',
      which the later roundings grow by at most 1 + gamma'_p <= 2: |d - x.w| <=
      gamma'_p S + 2p eta'.  With the add of b, |t - x.w - b| <= gamma'_{p+1} S +
      u' |b| + 4p eta'.
    - s, in any summation order, with or without FMA (an FMA rounds once where a
      product and an add round twice): in the same way |g - x.w~| <= gamma_p S~
      + 2p eta, where S~ = sum |x_i w~_i|, and |s - x.w~ - b~| <= gamma_{p+1} S~
      + u |b~| + 4p eta.  The rounding of w and b errs by |w~_i - w_i| <= u |w_i|
      + eta and |b~ - b| <= u |b| + eta, so S~ <= (1 + u) S + eta sum |x_i|,
      sum |x_i| <= sqrt(p) |x|, and |s - x.w - b| <= gamma_{p+2} S + gamma_2 |b|
      + 2 eta sqrt(p) |x| + (4p + 2) eta.

    So |s - t| <= (gamma_{p+2} + gamma'_{p+1}) |x| |w| + (gamma_2 + u') B +
    2 eta sqrt(p) |x| + (8p + 2) eta.  The computed squared norms, in any order,
    fall short by at most gamma_p (gamma'_p) relative and 2p eta (2p eta'), so
    |x|^2 <= a = (xx + 2p eta) / (1 - gamma_p) and |w|^2 <= w = (ww_max + 2p eta')
    / (1 - gamma'_p).  With

        E = (gamma_{p+3} + gamma'_{p+3} + 2u)(sqrt(a w) + B) + 8 eta (sqrt(p a) + p + 1),

    E - |s - t| >= 2u (sqrt(a w) + B) + 6 eta (sqrt(p a) + 1): the factor of
    sqrt(a w) exceeds gamma_{p+2} + gamma'_{p+1} by at least 3u, and that of B
    exceeds gamma_2 + u' by at least gamma_3 + 2u - gamma_2 >= 2u.  Evaluated in
    float64, E errs by less than 32u' relative, plus eta' where its last term is
    subnormal, and while gamma_{p+3} <= 1/64 (p < 2.5 * 10**5 in float32) that
    is less than this margin.  E is inf for larger p.

    Valid while the screen overflows nowhere: apart from a few eta, its values
    are at most 2 (sqrt(a w) + B) and its weights at most 2 sqrt(w), so E is inf
    unless both lie within the dtype's range (and a is finite).  On the rows
    where E is finite, t is finite too.
    """
    f = np.finfo(xx.dtype)
    u, tiny = float(f.eps) / 2, float(f.smallest_subnormal)  # tiny = 2 eta
    if (p + 3) * u > 1 / 65:  # gamma_{p+3} > 1/64
        return np.full(len(xx), np.inf)

    def gamma(n: int, u: float) -> float:
        return n * u / (1 - n * u)

    a = (xx.astype(np.float64) + p * tiny) / (1 - gamma(p, u))
    w = (ww_max + p * 2.0**-1074) / (1 - gamma(p, 2.0**-53))
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.sqrt(a * w) + b_max
        e = ((gamma(p + 3, u) + gamma(p + 3, 2.0**-53) + 2 * u) * top
             + 4 * tiny * (np.sqrt(p * a) + p + 1))
        bounded = (2 * top <= float(f.max)) & (2 * np.sqrt(w) <= float(f.max))
    return np.where(bounded, e, np.inf)


def _settle(s: np.ndarray, slack: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Settle a screened block ``s`` of a row-wise argmin whose exact values lie
    within ``slack`` = E of it; ties go to the lower index.

    Writes each row's screened argmin into ``out`` and returns the unsettled rows
    and a boolean mask of their candidates: the entries of a row within 2E of its
    screened minimum, a threshold rounded upward, or all of them where E is inf.
    The exact argmin j of a row is always a candidate, since s_j <= c_j + E <=
    c_k + E <= s_k + 2E for every k; so a row is settled, with its screened
    argmin, when it has a bound and no other entry is a candidate.  Overwrites
    each row's screened minimum in ``s`` with inf.  Callers silence overflow.
    """
    f = np.finfo(s.dtype)
    best = np.argmin(s, axis=1, out=out)
    at_best = (np.arange(len(s)), best)
    limit = (s[at_best] + 2 * slack).astype(s.dtype, copy=False)
    # one float or more up, whatever the sign: above the exact sum
    limit += np.abs(limit) * f.eps + f.smallest_subnormal
    s[at_best] = np.inf  # so that each row's minimum is now its runner-up
    unbounded = np.isinf(slack)
    unsettled = np.flatnonzero(unbounded | (s.min(axis=1) <= limit))
    near = s[unsettled] <= limit[unsettled, None]
    near[unbounded[unsettled]] = True
    near[np.arange(len(unsettled)), best[unsettled]] = True
    return unsettled, near


class GroupScreen:
    """The cover minima of :func:`min_sq_distances`, screened: for each row x[i]
    and non-empty group g = refs[starts[g]:starts[g + 1]], what the grid cover
    needs of the exact minimum c[i, g] without computing it.

    Each :func:`_pooled` task screens as many rows as a :func:`min_sq_distances`
    task with one GEMM on its own BLAS thread (:func:`_screen_block`) and takes each
    group's minimum (:func:`_group_minima`): the screened minima ``minima[i, g]``
    and each row's bound ``slack[i]`` = E, which holds in any summation order.  Every
    screened value of a row is within E of its exact value, so |minima - c| <= E,
    and c lies in [s - E, s + E].  Rounding to nearest is monotone, so the computed
    ends still enclose c, and they do so for any larger E: the step test widens each
    row's E by two floats of the largest end in the row, a margin beyond the proof
    that moves every computed end at least one float further out.  E is inf on rows
    that the bound does not cover, so nothing settles there.
    """

    def __init__(self, x: np.ndarray, refs: np.ndarray, starts: np.ndarray) -> None:
        self.x, self.starts = x, starts
        # the .T of the transpose, so that no exact row of a refine copies the refs
        self.refs = _transposed(refs).T
        rr = np.einsum("ij,ij->i", self.refs, self.refs)
        self.minima = np.empty((len(x), len(starts)))
        self.slack = np.empty(len(x))
        rows = max(1, _block_rows(len(refs)) // _usable_cpus())

        def fill(lo: int) -> None:
            with np.errstate(over="ignore", invalid="ignore"):
                s, self.slack[lo:lo + rows] = _screen_block(
                    x[lo:lo + rows].astype(np.float64, copy=False), self.refs, rr)
                _group_minima(s, starts, out=self.minima[lo:lo + rows])

        _pooled(fill, range(0, len(x), rows), blas=True)

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

        That index is searchsorted(t, c, side="right") for the squared thresholds
        t of :func:`_thresholds`, so c in [low, high] = [s - E, s + E], E widened
        per row as above, settles with no ``sqrt`` of its ends: with index j + 1
        when t[j] <= low and high < t[j + 1] (or j is the last grid point).  j is
        guessed from sqrt(high) as if the grid were ``linspace(0, grid[-1],
        len(grid))``, as the cover's is; a wrong guess, a threshold inside the
        interval, and a row without a bound (high is inf or nan) leave the pair
        unsettled.  Unsettled rows, those with any unsettled pair, take their
        exact row: searchsorted(t, c) of its :func:`_sq_minima` row.  The test
        runs on :func:`_pooled` in row slices of a 64th of a :func:`_block_rows`
        block, 2**16 values, whose 1.7 MB of buffers stay in a 2 MB L2 cache.
        """
        t = _thresholds(grid)
        upper = np.append(t[1:], np.inf)
        with np.errstate(over="ignore"):
            scale = (len(grid) - 1) / grid[-1]
        shape = (_block_rows(64 * len(self.starts)), len(self.starts))
        unsettled = np.zeros(len(self.x), dtype=bool)

        def test(lo: int, end, ref, j, ok) -> None:
            s = self.minima[lo:lo + shape[0]]
            end, ref, j, ok = (a[:len(s)] for a in (end, ref, j, ok))
            with np.errstate(over="ignore", invalid="ignore"):
                # E and two floats of the row's largest end, at most max(s, 0) + 2E
                e = self.slack[lo:lo + len(s)]
                e = (e + 2 * np.spacing(np.maximum(s.max(axis=1), 0.0) + 2 * e))[:, None]
                np.sqrt(np.add(s, e, out=end), out=ref)  # end: high
                np.fmin(np.multiply(ref, scale, out=ref), len(grid) - 1, out=ref)
                np.copyto(j, ref, casting="unsafe")
                settled = np.less(end, upper.take(j, out=ref, mode="clip"), out=ok).all(axis=1)
                np.subtract(s, e, out=end)  # low
                settled &= np.less_equal(t.take(j, out=ref, mode="clip"), end, out=ok).all(axis=1)
            unsettled[lo:lo + len(s)] = ~settled
            np.add(j, 1, out=out[lo:lo + len(s)], casting="unsafe")

        _pooled(test, range(0, len(self.x), shape[0]), lambda: (
            np.empty(shape), np.empty(shape), np.empty(shape, dtype=np.intp),
            np.empty(shape, dtype=bool)))
        unsettled = np.flatnonzero(unsettled)
        rows = _block_rows(len(self.refs))
        for lo in range(0, unsettled.size, rows):
            exact = _sq_minima(self.x[unsettled[lo:lo + rows]], self.refs, self.starts)
            out[unsettled[lo:lo + rows]] = np.searchsorted(t, exact, side="right")


def _screened_argmin(x: np.ndarray, width: int, screen, refine) -> np.ndarray:
    """The argmin over ``width`` exact values of each row of ``x``, ties to the
    lower index, in row blocks of :func:`_block_rows` of the wider of ``width``
    and p (a float64 row copy) rows: the one loop of both NC4 readouts.

    ``screen(xb)`` takes a row block in the screen dtype, float32 for float32
    rows and float64 for all others, and returns its screened values and each
    row's float64 bound E on their error, in any summation order.  :func:`_settle`
    settles a row with one candidate; ``refine(rows, near)`` gives the exact
    argmin of the other ``rows`` of ``x`` among their candidates ``near``.  So the
    labels depend neither on the blocking nor on the BLAS.  Overflow is ignored.
    """
    dtype = np.float32 if x.dtype == np.float32 else np.float64
    labels = np.empty(len(x), dtype=np.intp)
    rows = _block_rows(max(width, x.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(x), rows):
            s, slack = screen(x[lo:lo + rows].astype(dtype, copy=False))
            unsettled, near = _settle(s, slack, labels[lo:lo + rows])
            del s  # so that no two blocks are held at once
            if unsettled.size:
                labels[lo + unsettled] = refine(lo + unsettled, near)
    return labels


def nearest_refs(x: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Index of the nearest row of ``refs`` for each row of ``x``: bit for bit the
    ``argmin`` of each row of the exact distances (:func:`_sq_distances`).  The
    :func:`_screened_argmin` screen is one GEMM (:func:`_screen_block`) against the
    refs rounded to the screen dtype; an unsettled row takes the ``argmin`` of
    its :func:`_sq_minima` row over every ref."""
    refs = refs.astype(np.float64, copy=False)
    if refs.shape[0] == 0:
        raise ValueError("nearest_refs needs at least one reference point")

    def screen(xb):
        screen_refs = refs.astype(xb.dtype, copy=False)
        return _screen_block(xb, screen_refs, np.einsum("ij,ij->i", screen_refs, screen_refs))

    return _screened_argmin(x, len(refs), screen,
                            lambda rows, near: np.argmin(_sq_minima(x[rows], refs), axis=1))


def _linear_labels(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmax_c t_c for each row of ``x``, ties to the lower class index, where
    t_c is the exact score for float64 weight rows ``w`` and bias ``b``: the
    float64 sum, from +0.0, over the dimensions in index order, of the rounded
    products x_i w_ci (:func:`_pair_dots`), plus b_c.  It is the argmin of -t:
    the :func:`_screened_argmin` screen is one GEMM against -w and -b rounded to
    the screen dtype (:func:`_score_slack`), and an unsettled row takes the
    argmax of the exact scores of its candidates."""
    ww_max, b_max = np.einsum("ij,ij->i", w, w).max(), np.abs(b).max()

    def screen(xb):
        s = xb @ np.negative(w, dtype=xb.dtype).T
        s += np.negative(b, dtype=xb.dtype)
        return s, _score_slack(np.einsum("ij,ij->i", xb, xb), ww_max, b_max, x.shape[1])

    def refine(rows, near):
        r, c = np.nonzero(near)
        scores = np.full(near.shape, -np.inf)
        scores[r, c] = _pair_dots(x, w, rows[r], c) + b[c]
        return np.argmax(scores, axis=1)

    return _screened_argmin(x, len(w), screen, refine)

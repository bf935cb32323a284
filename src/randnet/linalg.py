"""SVD-backed Moore-Penrose pseudoinverse and least-squares solves.

Both the network readout and the autoencoder decoder reduce to minimum-norm
least squares, and both go through one driver, ``solve_rows``, which
``lstsq`` calls with a matrix it holds and ``model.solve_readout`` with one
it builds. The solves go through an economy SVD (LAPACK ``dgesdd``) rather
than normal equations, so nearly rank-deficient matrices are handled
without squaring the condition number. A tall matrix is first reduced by
Householder QR of ``[a | rhs]`` to its square triangle R and ``Q' rhs``, and
only R is decomposed (Chan's R-SVD), so no tall factor is ever formed.

The QR works on the contiguous row blocks of ``row_blocks``, which depend on
the matrix shape only. The caller writes each block's ``[a | rhs]`` rows
into a fresh F-ordered buffer, which ``map_blocks`` QR-reduces in place on
the cores a worker pool leaves idle. Each block's triangle is folded from
where it lies, the block's top rows, into one running triangle, in block
order (sequential TSQR: Demmel et al., SIAM J. Sci. Comput. 2012), and the
block is then freed whole; only the CLI's cut of a lone large block, in
``solve_rows``, keeps its triangle in the block. So no full-size copy of
``[a | rhs]`` is made, and a caller such as the network readout never holds
``a`` whole. A split matrix's blocks of ``[a | rhs]`` hold at most 8 MiB
each, unless a block would then keep fewer than ``cols + 1`` rows, so a
split fit holds at most its block budget of such blocks in flight (the
timings behind that cap are above ``_MIN_BLOCK_ROWS``).

``qr_triangle`` is LAPACK ``dgeqrf``, ``_fold`` is ``dtpqrt`` and the SVD is
``dgesdd``, all from the OpenBLAS bundled in the numpy wheel, bound through
ctypes by ``_routine`` and called with the workspace LAPACK asks for on
every call, as numpy calls them, so R, U, s and Vt are bitwise numpy's.
Each overwrites the matrices it is handed. Where numpy bundles no OpenBLAS,
numpy's QR and SVD are called instead.

``single_thread_blas`` pins that library to one thread while a worker pool
runs, and ``block_budget`` hands each of the pool's units the cores it
leaves idle, out of the ``core_count`` this process may use. The blocks and
their fold order are fixed, so the results depend on neither the budget nor
the core count. The BLAS thread count does move the bits of large solves: a
20000x300 ``lstsq`` gives other bytes on the library's default threads than
on one. So the CLI pins one thread for the whole command, and pins glibc's
malloc thresholds through ``pin_malloc_thresholds``.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from collections import deque
from contextlib import closing, contextmanager, suppress

import numpy as np

from .errors import InvalidInputError, NumericFailureError


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"matrix must be 2-D and nonempty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains non-finite entries")
    return a


def _svd_in_place(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(U, s, Vt)`` of ``a``, bitwise ``np.linalg.svd(a,
    full_matrices=False)``, with U and Vt C-ordered as numpy returns them;
    ``a``, a matrix that ``_check_buffer`` accepts, is given up.

    LAPACK ``dgesdd`` of numpy's bundled OpenBLAS, with jobz 'S' and the
    workspace it asks for, as numpy calls it on its own F-ordered copy,
    decomposes ``a`` where it lies, with its column spacing as the leading
    dimension, and overwrites it; the leading dimension moves no bit. U and
    Vt are copied to C order once the workspace is freed: a product with a
    column-major U takes another BLAS kernel and moves bits. Without that
    library numpy decomposes ``a``. Any failure is a NumericFailureError.
    """
    gesdd = _routine("scipy_dgesdd_64_")
    if gesdd is None:
        try:
            return np.linalg.svd(a, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericFailureError(f"SVD did not converge: {exc}") from exc
    ld = _check_buffer(a, "SVD input")
    rows, cols = a.shape
    k = min(rows, cols)
    s, iwork = np.empty(k), np.empty(8 * k, dtype=np.int64)
    u, vt = np.empty((rows, k), order="F"), np.empty((k, cols), order="F")
    # m, n, lda, ldu, ldvt, lwork, info
    ints = np.array([rows, cols, ld, max(1, rows), max(1, k), 0, 0], dtype=np.int64)
    m, n, lda, ldu, ldvt, lwork, info = _addresses(ints)
    a_p, s_p, u_p, vt_p, iwork_p = (b.ctypes.data for b in (a, s, u, vt, iwork))
    _lapack("SVD failed: dgesdd", ints, lambda work: gesdd(
        b"S", m, n, a_p, lda, s_p, u_p, ldu, vt_p, ldvt, work, lwork, iwork_p, info, 1))
    u = np.ascontiguousarray(u)
    return u, s, np.ascontiguousarray(vt)


def _inverse_above_cutoff(s: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """1/s for the nonincreasing singular values ``s`` of a matrix of
    ``shape`` above its rank cutoff ``max(rows, cols) * sigma_max * eps``,
    exactly 0 for the rest."""
    s_inv = np.zeros_like(s)
    np.divide(1.0, s, out=s_inv, where=s > max(shape) * float(s[0]) * np.finfo(float).eps)
    return s_inv


def pseudoinverse(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse with singular values below the rank
    cutoff treated as exactly zero, through the SVD of one F-ordered copy of
    ``m``, the copy ``np.linalg.svd`` makes itself."""
    a = _as_matrix(m)
    u, s, vt = _svd_in_place(np.array(a, order="F"))
    s_inv = _inverse_above_cutoff(s, a.shape)
    return (vt.T * s_inv) @ u.T


def _check_buffer(buf, what: str) -> int:
    """The leading dimension with which a LAPACK routine may overwrite
    ``buf`` where it lies: a writeable float64 matrix whose rows are adjacent
    in memory and whose columns lie at least its row count apart, as every
    F-contiguous matrix and its top-left views are. Anything else is an
    InvalidInputError."""
    if not (isinstance(buf, np.ndarray) and buf.ndim == 2 and buf.dtype == np.float64
            and buf.flags.writeable):
        raise InvalidInputError(f"{what} must be a writeable float64 matrix")
    (rows, cols), (row_step, col_step) = buf.shape, buf.strides
    ld = col_step // 8 if cols > 1 else max(1, rows)
    if (rows > 1 and row_step != 8) or col_step % 8 or ld < max(1, rows):
        raise InvalidInputError(f"{what} must be column-major with its rows adjacent")
    return ld


def qr_triangle(buf: np.ndarray) -> np.ndarray:
    """The triangle R of the Householder QR of ``buf``, bitwise equal to
    ``np.linalg.qr(buf, mode="r")``, computed in ``buf``, which it
    overwrites: the view ``buf[:k]``, k = min(rows, cols), with ``buf``'s
    strides and the entries below R's diagonal zeroed.

    ``buf`` must be a matrix that ``_check_buffer`` accepts, checked once
    here; the routine then gets its address and column spacing. LAPACK
    ``dgeqrf`` of numpy's bundled OpenBLAS decomposes it where it lies, with
    the workspace it asks for (see ``_lapack``), and leaves R in its top k
    rows, above the Householder vectors, which stay. Without that library
    numpy decomposes a copy, and its R is written there. Any failure is a
    NumericFailureError.
    """
    ld = _check_buffer(buf, "QR buffer")
    rows, cols = buf.shape
    k = min(rows, cols)
    geqrf = _routine("scipy_dgeqrf_64_")
    if geqrf is None:
        try:
            buf[:k] = np.linalg.qr(buf, mode="r")
        except np.linalg.LinAlgError as exc:
            raise NumericFailureError(f"QR factorization failed: {exc}") from exc
        return buf[:k]
    tau = np.empty(k)
    # m, n, lda, lwork, info
    ints = np.array([rows, cols, ld, 0, 0], dtype=np.int64)
    m, n, lda, lwork, info = _addresses(ints)
    buf_p, tau_p = buf.ctypes.data, tau.ctypes.data
    _lapack("QR factorization failed: dgeqrf", ints,
            lambda work: geqrf(m, n, buf_p, lda, tau_p, work, lwork, info))
    np.copyto(buf[:k], 0.0, where=np.tri(k, cols, -1, dtype=bool))
    return buf[:k]


def _fold(r: np.ndarray, lower: np.ndarray) -> None:
    """Overwrite the F-contiguous upper triangle ``r`` with the R of the QR
    of ``r`` stacked on ``lower``, an upper trapezoid of as many columns and
    at most as many rows, column-major with leading dimension
    ``lower.strides[1] // 8``, as ``qr_triangle`` returns it; ``lower`` is
    overwritten too.

    LAPACK ``dtpqrt`` of numpy's bundled OpenBLAS, the merge step of
    sequential TSQR, works on the two where they lie, in column blocks of
    ``min(32, cols)``: with 64 a four-block 2003x120 solve gave other bits
    on two BLAS threads than on one. With ``l = m`` it reads no entry of
    ``lower`` below the diagonal. Without that library numpy decomposes the
    stacked pair. Any failure is a NumericFailureError.
    """
    tpqrt = _routine("scipy_dtpqrt_64_")
    if tpqrt is None:
        try:
            r[...] = np.linalg.qr(np.vstack([r, lower]), mode="r")
        except np.linalg.LinAlgError as exc:
            raise NumericFailureError(f"QR fold failed: {exc}") from exc
        return
    k, cols = lower.shape
    nb = min(32, cols)
    t, work = np.empty(nb * cols), np.empty(nb * cols)
    # m, n, l, nb, lda, ldb, ldt, info
    ints = np.array([k, cols, k, nb, cols, lower.strides[1] // 8, nb, 0], dtype=np.int64)
    m, n, l, nb_p, lda, ldb, ldt, info = _addresses(ints)
    tpqrt(m, n, l, nb_p, r.ctypes.data, lda, lower.ctypes.data, ldb, t.ctypes.data, ldt,
          work.ctypes.data, info)
    if ints[-1] != 0:
        raise NumericFailureError(f"QR fold failed: dtpqrt info {ints[-1]}")


def _solve_svd(usv: tuple[np.ndarray, np.ndarray, np.ndarray], c: np.ndarray,
               shape: tuple[int, int]) -> np.ndarray:
    """Minimum-norm solution of ``M @ x = c``, with ``usv`` the SVD of M and
    the rank cutoff of the original matrix's ``shape``; ``c`` is 2-D."""
    u, s, vt = usv
    s_inv = _inverse_above_cutoff(s, shape)
    return vt.T @ ((u.T @ c) * s_inv[:, None])


# glibc mallopt parameters, and the values pin_malloc_thresholds sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES, _MMAP_BYTES = 64 << 20, 4 << 20
_mmap_pinned = False  # this process pinned its mmap threshold at _MMAP_BYTES


def pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 4 MiB and its trim threshold at 64 MiB,
    and record the first for ``solve_rows``' cut.

    By default glibc raises both after the first large mmapped block is
    freed (the mmap threshold up to 32 MiB, the trim threshold to twice it),
    so the row blocks, triangles and SVD workspace of a tall fit then come
    from heaps that keep their pages once freed. Pinned, every array of
    4 MiB or more is unmapped when freed, and the heap keeps up to 64 MiB
    rather than shrinking and faulting its pages back in on every small
    fit. Forked helpers inherit the settings and the record, and no result
    changes. Only the CLI calls this: it owns its process, while a program
    that imports randnet keeps its allocator's defaults. Where the C library
    has no ``mallopt`` this does nothing.
    """
    global _mmap_pinned
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no handle on the process
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
    _mmap_pinned = True


def solve_rows(fill, shape: tuple[int, int], t) -> np.ndarray:
    """Minimum-norm least-squares solution ``a^+ t`` of ``a @ x = t``, with
    ``a`` the matrix of ``shape`` that ``fill`` writes, through the SVD with
    the rank cutoff of ``pseudoinverse``.

    ``fill(rows, out)`` writes the rows ``rows``, a slice, of ``a`` into
    ``out``, a fresh F-ordered view of their shape. ``t`` must be 1-D or
    2-D, finite, with one row per row of ``a``; a 1-D ``t`` yields a 1-D
    result.

    A matrix with more rows than columns is filled one of its ``row_blocks``
    at a time into the left of an F-ordered ``[a_b | t_b]`` buffer, which
    ``qr_triangle`` reduces on ``map_blocks``. Block 0's triangle is copied
    into a zero-filled square, which pads a trapezoid, and the block freed;
    ``_fold`` folds each later block's top rows into the square, in block
    order. That gives ``[R | Q' t]`` of the thin QR ``a = Q R`` up to the
    signs of rows, which leave the solution as it is. The one exception is
    the cut: in a process that pinned its mmap threshold
    (``pin_malloc_thresholds``), a lone block of that size or more keeps
    its triangle, packs ``[R | Q' t]`` to leading dimension ``cols`` and is
    cut down to it. Either start leaves ``[R | Q' t]`` column-major, and
    one tail solves it: ``_svd_in_place`` decomposes R where it lies, and
    ``Q' t`` goes into the first ``cols * width`` entries, which R's SVD no
    longer needs, with the row stride it has in the C-ordered ``[R | Q' t]``
    that ``np.linalg.qr`` returns. Any other matrix is filled into one
    F-ordered buffer, which ``_svd_in_place`` overwrites, and solved with a
    C-ordered copy of ``t``. The layout of the right-hand side picks the
    matrix-product kernel, and with it the bits, so each branch puts it in
    one layout, and the caller's layout of ``t`` never moves a bit.
    """
    rows, cols = shape
    t = np.asarray(t, dtype=float)
    if t.ndim not in (1, 2) or t.shape[0] != rows:
        raise InvalidInputError(f"target of shape {t.shape} does not match {rows} matrix rows")
    if not np.all(np.isfinite(t)):
        raise InvalidInputError("target contains non-finite entries")
    rhs = t.reshape(-1, 1) if t.ndim == 1 else t
    if rows > cols:
        width = cols + rhs.shape[1]
        blocks = row_blocks(rows, cols)

        def reduced(block: slice) -> np.ndarray:
            buf = np.empty((block.stop - block.start, width), order="F")
            fill(block, buf[:, :cols])
            buf[:, cols:] = rhs[block]
            qr_triangle(buf)
            return buf

        # no block outlives its fold: each goes from next() into _fold
        with closing(map_blocks(reduced, blocks)) as done:
            r = next(done)
            cut = len(blocks) == 1 and _mmap_pinned and r.nbytes >= _MMAP_BYTES
            if not cut:
                square = np.zeros((width, width), order="F")
                square[: min(blocks[0].stop, width)] = r[:width]
                r = square
                for _ in blocks[1:]:
                    _fold(r, next(done)[:width])
        if cut:
            # Mapped on its own, the block is cut by numpy's realloc to its
            # first cols * width entries, [R | Q' t] packed, so it is not held
            # whole through the SVD; elsewhere a cut hands no page back, or
            # makes every later solve map and fault its block afresh. The
            # resize is refused where something else refers to the block,
            # such as a debugger's copy of this frame's locals, and is made
            # here, not in a helper, whose argument would be one. The columns
            # move to the head one at a time: column j lands at or before
            # where it lies, and numpy copies it through a temporary of one
            # column where the two overlap
            flat = r.reshape(-1, order="F")
            for j in range(1, width):
                flat[j * cols:(j + 1) * cols] = r[:cols, j]
            del flat  # numpy's realloc refuses a block that a view refers to
            with suppress(ValueError):
                r.resize(cols * width)
            r = r.reshape(-1, order="F")[: cols * width].reshape((cols, width), order="F")
        usv = _svd_in_place(_as_matrix(r[:cols, :cols]))
        qt = r.reshape(-1, order="F")[: cols * width].reshape((cols, width))[:, cols:]
        qt[...] = r[:cols, cols:]  # through a temporary where the two overlap
        x = _solve_svd(usv, qt, shape)
    else:
        a = np.empty(shape, order="F")
        fill(slice(0, rows), a)
        x = _solve_svd(_svd_in_place(_as_matrix(a)), np.array(rhs, order="C"), shape)
    return x[:, 0] if t.ndim == 1 else x


def lstsq(m, t) -> np.ndarray:
    """Minimum-norm least-squares solution ``m^+ t`` of ``m @ x = t``, by
    ``solve_rows``; a 1-D ``t`` yields a 1-D result."""
    a = _as_matrix(m)
    return solve_rows(lambda rows, out: np.copyto(out, a[rows]), a.shape, t)


# The thread count is process-wide library state, so the record of who
# pinned it is process-wide too.
_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = 0


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS, ``numpy.libs/libscipy_openblas64_*``, if
    this process has loaded it, else None; it is never loaded here. That
    copy is ILP64: every integer argument of its LAPACK routines is a
    pointer to an int64. A ctypes call releases the GIL, so blocks
    reduced on ``map_blocks`` threads run in parallel."""
    if not hasattr(os, "RTLD_NOLOAD"):  # as on Windows: no lookup that loads nothing
        return None
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas64_*"))):
        try:
            return ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
    return None


# The routines bound from that library: each symbol's argtypes and restype,
# with each LAPACK routine's arguments named above it. They are raw
# pointers but for dgesdd's jobz, a one-letter bytes string, and the hidden
# length of jobz that gfortran passes after info. blas_thread_shutdown_
# joins the library's worker threads, which a later call that asks for more
# than one thread starts again.
_ROUTINES = {
    # m, n, a, lda, tau, work, lwork, info
    "scipy_dgeqrf_64_": ([ctypes.c_void_p] * 8, None),
    # jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, iwork, info
    "scipy_dgesdd_64_": ([ctypes.c_char_p] + [ctypes.c_void_p] * 13 + [ctypes.c_size_t], None),
    # m, n, l, nb, a, lda, b, ldb, t, ldt, work, info
    "scipy_dtpqrt_64_": ([ctypes.c_void_p] * 12, None),
    "scipy_openblas_get_num_threads64_": ([], ctypes.c_int),
    "scipy_openblas_set_num_threads64_": ([ctypes.c_int], None),
    "blas_thread_shutdown_": ([], ctypes.c_int),
}


@functools.cache
def _routine(name: str):
    """Function ``name`` of numpy's bundled OpenBLAS, typed by its entry in
    ``_ROUTINES``, or None where that library or the symbol is missing. A
    name with no entry is a KeyError, with or without the library."""
    argtypes, restype = _ROUTINES[name]
    lib = _openblas()
    fn = None if lib is None else getattr(lib, name, None)
    if fn is not None:
        fn.argtypes, fn.restype = argtypes, restype
    return fn


def _addresses(ints: np.ndarray) -> list[int]:
    """The address of each entry of an int64 vector, to pass by reference."""
    base = ints.ctypes.data
    return [base + 8 * i for i in range(ints.size)]


def _lapack(failure: str, ints: np.ndarray, call) -> None:
    """Run a LAPACK routine with the workspace it asks for, as numpy does: a
    smaller workspace takes another path and moves bits.

    ``call(work)`` calls it with the workspace at address ``work``, and the
    last two entries of ``ints`` are its lwork and info. Each run first
    queries the workspace size (lwork -1). Any nonzero info is a
    NumericFailureError, ``failure`` then the info.
    """

    def run(work: np.ndarray, lwork: int) -> None:
        ints[-2:] = lwork, 0
        call(work.ctypes.data)
        if ints[-1] != 0:
            raise NumericFailureError(f"{failure} info {ints[-1]}")

    query = np.empty(1)
    run(query, -1)
    size = max(1, int(query[0]))
    run(np.empty(size), size)


@contextmanager
def single_thread_blas():
    """Run the body with numpy's bundled OpenBLAS on one thread.

    A worker pool already gives each core a unit of work, so BLAS threads
    on top would oversubscribe the cores. One BLAS thread also makes every
    solve's result independent of the worker count. The first to enter also
    joins the library's idle worker threads, so a process that forks inside
    runs one thread when it forks. Nested and concurrent uses share one
    pinning, and the last to leave restores the thread count found on
    entry, which starts the worker threads again. Without that library this
    does nothing.
    """
    global _blas_users, _blas_saved
    get = _routine("scipy_openblas_get_num_threads64_")
    set_ = _routine("scipy_openblas_set_num_threads64_")
    with _blas_lock:
        if _blas_users == 0 and get is not None:
            _blas_saved = get()
            set_(1)
            shutdown = _routine("blas_thread_shutdown_")
            if shutdown is not None:
                shutdown()
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0 and get is not None:
                set_(_blas_saved)


# Row blocks: the block count doubles while every block keeps at least
# _MIN_BLOCK_ROWS rows and _ROWS_PER_COL rows per column of [a | rhs]. Below
# that, the folds cost more than the split saves: a 5000x26 QR took 1.08 ms
# in one dgeqrf and 1.43 to 1.91 ms in 2 to 8 folded blocks, on one thread.
# A split matrix is then halved further while its largest block of [a | rhs]
# holds more than _BLOCK_BYTES and each half keeps a row per column, so that
# every block's triangle is a full square. That keeps the blocks in flight
# below the SVD that follows, for a few percent of the solve's time: in
# three sets of 8 interleaved 20000x800 solves at a budget of 2, 8 blocks of
# 15.3 MiB took 881 to 1070 ms (set medians 946 to 987) and 16 of 7.6 MiB
# 850 to 1190 ms (963 to 1050).
_MIN_BLOCK_ROWS = 4096
_ROWS_PER_COL = 4
_BLOCK_BYTES = 8 << 20
_budget = threading.local()


def core_count() -> int:
    """Cores this process may run on: the size of its CPU affinity set where
    the platform reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def row_blocks(rows: int, cols: int) -> list[slice]:
    """Contiguous row blocks, in order, covering ``range(rows)`` once.

    The split depends on the shape only, never on the cores, so blocked
    results are the same on every machine. A matrix with fewer than
    ``max(8192, 8 * (cols + 1))`` rows is one block. A split matrix is
    halved while every block keeps ``max(4096, 4 * (cols + 1))`` rows, then
    further while a block of ``[a | t]``, counted as ``cols + 1`` columns,
    holds more than 8 MiB and each half keeps ``cols + 1`` rows: a
    20000x800 matrix is 16 blocks of 1250 rows, 7.6 MiB each, where the row
    rule alone gives 4 of 30.6 MiB, and a 50000x800 one 32 of 9.6 MiB, as
    64 would leave 781 rows (see the timings above ``_MIN_BLOCK_ROWS``).
    """
    width = cols + 1
    floor = max(_ROWS_PER_COL * width, _MIN_BLOCK_ROWS)
    count = 1
    while rows // (2 * count) >= floor:
        count *= 2
    while (count > 1 and -(-rows // count) * width * 8 > _BLOCK_BYTES
           and rows // (2 * count) >= width):
        count *= 2
    bounds = [rows * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


@contextmanager
def block_budget(cores: int):
    """Let ``map_blocks`` calls made by this thread run ``cores`` blocks at a
    time. Without it a thread runs its blocks one after another."""
    saved = getattr(_budget, "cores", 1)
    _budget.cores = cores
    try:
        yield
    finally:
        _budget.cores = saved


def map_blocks(fn, blocks: list):
    """Yield ``fn(b)`` for each of ``blocks``, in order, with up to the
    calling thread's block budget of blocks in flight.

    One block, or a budget of one, runs in the calling thread with no pool,
    each block when the caller asks for it. Otherwise block i + budget is
    submitted once the caller has taken block i and asks for the next. An
    exception raised by ``fn``, or the generator's close, shuts the pool
    down once the blocks in flight have finished; blocks not yet started
    are dropped.
    """
    workers = min(len(blocks), getattr(_budget, "cores", 1))
    if workers <= 1:
        yield from map(fn, blocks)
        return
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="randnet-block")
    try:
        pending = deque(pool.submit(fn, b) for b in blocks[:workers])
        for b in blocks[workers:]:
            yield pending.popleft().result()
            pending.append(pool.submit(fn, b))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)

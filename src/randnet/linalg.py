"""SVD-backed Moore-Penrose pseudoinverse and least-squares solves.

Both the network readout and the autoencoder decoder reduce to minimum-norm
least squares. Everything here goes through one economy SVD (LAPACK via
numpy) rather than normal equations, so tall and nearly rank-deficient
matrices are handled without squaring the condition number. An optional
ridge path solves the regularized normal equations instead.

``single_thread_blas`` pins the BLAS under those solves to one thread while
a worker pool runs, so the pool is the only parallelism.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError


@dataclass(frozen=True)
class SolverConfig:
    """Rank-tolerance policy and optional ridge term for the linear solves.

    ``rank_tolerance=None`` selects the automatic cutoff
    ``max(rows, cols) * sigma_max * eps``; an explicit value is used as-is.
    ``ridge_lambda=None`` (the default) keeps the solves unregularized.
    """

    rank_tolerance: float | None = None
    ridge_lambda: float | None = None

    def __post_init__(self):
        if self.rank_tolerance is not None and not self.rank_tolerance > 0:
            raise InvalidInputError(
                f"explicit rank tolerance must be positive, got {self.rank_tolerance}"
            )
        if self.ridge_lambda is not None and not self.ridge_lambda >= 0:
            raise InvalidInputError(
                f"ridge lambda must be nonnegative, got {self.ridge_lambda}"
            )


@dataclass(frozen=True)
class SvdFactorization:
    """Economy SVD ``M = U diag(s) Vt`` with nonincreasing singular values."""

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singular_values) @ self.vt


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"{name} must be 2-D and nonempty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def factorize(m) -> SvdFactorization:
    """Economy SVD of ``m``; raises NumericFailureError on non-convergence."""
    a = _as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"SVD did not converge: {exc}") from exc
    return SvdFactorization(u=u, singular_values=s, vt=vt)


def _rank_cutoff(shape: tuple[int, int], s: np.ndarray, cfg: SolverConfig) -> float:
    if cfg.rank_tolerance is not None:
        return cfg.rank_tolerance
    if s.size == 0:
        return 0.0
    return max(shape) * float(s[0]) * np.finfo(float).eps


def _inverse_above(s: np.ndarray, cutoff: float) -> np.ndarray:
    """1/s for singular values above the cutoff, exactly 0 for the rest."""
    s_inv = np.zeros_like(s)
    np.divide(1.0, s, out=s_inv, where=s > cutoff)
    return s_inv


def pseudoinverse(m, cfg: SolverConfig = SolverConfig()) -> np.ndarray:
    """Moore-Penrose pseudoinverse with singular values below the rank
    cutoff treated as exactly zero."""
    a = _as_matrix(m)
    fac = factorize(a)
    s = fac.singular_values
    s_inv = _inverse_above(s, _rank_cutoff(a.shape, s, cfg))
    return (fac.vt.T * s_inv) @ fac.u.T


def lstsq(m, t, cfg: SolverConfig = SolverConfig()) -> np.ndarray:
    """Least-squares solve of ``m @ x = t``.

    Without ridge this returns the minimum-norm solution ``m^+ t`` via the
    SVD. With ``ridge_lambda`` set it solves the regularized normal
    equations ``(m' m + lambda I) x = m' t`` instead. A 1-D ``t`` yields a
    1-D result.
    """
    a = _as_matrix(m)
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise InvalidInputError("right-hand side contains non-finite entries")
    flat = t_arr.ndim == 1
    if t_arr.ndim not in (1, 2):
        raise InvalidInputError(f"right-hand side must be 1-D or 2-D, got {t_arr.ndim}-D")
    rhs = t_arr.reshape(-1, 1) if flat else t_arr
    if rhs.shape[0] != a.shape[0]:
        raise InvalidInputError(
            f"row count mismatch: matrix has {a.shape[0]} rows, "
            f"right-hand side has {rhs.shape[0]}"
        )

    if cfg.ridge_lambda is not None:
        gram = a.T @ a + cfg.ridge_lambda * np.eye(a.shape[1])
        try:
            x = np.linalg.solve(gram, a.T @ rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericFailureError(f"ridge system is singular: {exc}") from exc
    else:
        fac = factorize(a)
        s = fac.singular_values
        s_inv = _inverse_above(s, _rank_cutoff(a.shape, s, cfg))
        x = fac.vt.T @ ((fac.u.T @ rhs) * s_inv[:, None])
    return x[:, 0] if flat else x


# OpenBLAS copies bundled in the numpy and scipy wheels: package, library file
# pattern, and the suffix of their scipy_openblas_{get,set}* symbols.
_OPENBLAS_COPIES = (
    ("numpy", "libscipy_openblas64_*", "_num_threads64_"),
    ("scipy", "libscipy_openblas-*", "_num_threads"),
)
# The thread counts are process-wide library state, so the record of who
# pinned them is process-wide too.
_blas_lock = threading.Lock()
_blas_handles: list | None = None
_blas_users = 0
_blas_saved: list[int] = []


def _openblas_handles() -> list:
    """(get, set) thread-count functions of each bundled OpenBLAS copy found.

    Resolved once; empty where neither wheel bundles OpenBLAS.
    """
    global _blas_handles
    if _blas_handles is None:
        handles = []
        for package, pattern, suffix in _OPENBLAS_COPIES:
            spec = importlib.util.find_spec(package)
            if spec is None or spec.origin is None:
                continue
            site = os.path.dirname(os.path.dirname(spec.origin))
            for path in sorted(glob.glob(os.path.join(site, package + ".libs", pattern))):
                try:
                    lib = ctypes.CDLL(path)
                    get = lib["scipy_openblas_get" + suffix]
                    set_ = lib["scipy_openblas_set" + suffix]
                except (OSError, AttributeError):
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                handles.append((get, set_))
        _blas_handles = handles
    return _blas_handles


@contextmanager
def single_thread_blas():
    """Run the body with every bundled OpenBLAS on one thread.

    A worker pool already gives each core a unit of work, so BLAS threads
    on top would oversubscribe the cores. One BLAS thread also makes every
    solve's result independent of the worker count. Nested and concurrent
    uses share one pinning, and the last to leave restores the thread counts
    found on entry. Without the bundled libraries this does nothing.
    """
    global _blas_users, _blas_saved
    with _blas_lock:
        if _blas_users == 0:
            handles = _openblas_handles()
            _blas_saved = [get() for get, _ in handles]
            for _, set_ in handles:
                set_(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                for (_, set_), count in zip(_blas_handles, _blas_saved):
                    set_(count)

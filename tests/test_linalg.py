"""Pseudoinverse and least-squares solver checks.

The pseudoinverse is verified against the four defining conditions rather
than against another library routine; square solves are cross-checked with a
pure-Python Gaussian elimination written here.
"""

import sys
import threading

import numpy as np
import pytest

from randnet import linalg
from randnet.errors import InvalidInputError
from randnet.linalg import SolverConfig, factorize, lstsq, pseudoinverse, single_thread_blas


def mp_residuals(m, p):
    """Relative residuals of the four Moore-Penrose conditions."""
    mp = m @ p
    pm = p @ m
    nm = max(np.linalg.norm(m), 1e-300)
    npn = max(np.linalg.norm(p), 1e-300)
    return (
        np.linalg.norm(m @ pm - m) / nm,
        np.linalg.norm(p @ mp - p) / npn,
        np.linalg.norm(mp.T - mp) / max(np.linalg.norm(mp), 1.0),
        np.linalg.norm(pm.T - pm) / max(np.linalg.norm(pm), 1.0),
    )


def gaussian_solve(a, t):
    """Partial-pivot Gaussian elimination, no numpy.linalg involved."""
    a = [list(map(float, row)) for row in a]
    t = list(map(float, t))
    n = len(a)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        t[col], t[piv] = t[piv], t[col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
            t[r] -= f * t[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = t[r] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / a[r][r]
    return np.array(x)


def test_identity_pseudoinverse():
    np.testing.assert_allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-14)


def test_diagonal_with_zero_singular_value():
    p = pseudoinverse(np.array([[2.0, 0.0], [0.0, 0.0]]))
    np.testing.assert_allclose(p, [[0.5, 0.0], [0.0, 0.0]], atol=0)


def test_seeded_rectangular_matrix_satisfies_axioms():
    m = np.random.default_rng(11).normal(size=(7, 4))
    p = pseudoinverse(m)
    assert max(mp_residuals(m, p)) <= 1e-8


def test_rank_deficient_matrices_satisfy_axioms():
    rng = np.random.default_rng(12)
    for rows, cols, rank in [(9, 6, 2), (5, 8, 3), (40, 40, 7)]:
        m = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        p = pseudoinverse(m)
        assert max(mp_residuals(m, p)) <= 1e-8


def test_double_pseudoinverse_reconstructs():
    m = np.random.default_rng(13).normal(size=(6, 4))
    back = pseudoinverse(pseudoinverse(m))
    assert np.linalg.norm(back - m) / np.linalg.norm(m) <= 1e-7


def test_explicit_rank_tolerance_truncates():
    m = np.diag([1.0, 1e-10])
    # automatic cutoff keeps the tiny singular value; an explicit one drops it
    assert pseudoinverse(m)[1, 1] == pytest.approx(1e10)
    truncated = pseudoinverse(m, SolverConfig(rank_tolerance=1e-5))
    np.testing.assert_allclose(truncated, [[1.0, 0.0], [0.0, 0.0]], atol=0)


def test_factorization_shapes_and_order():
    m = np.random.default_rng(14).normal(size=(8, 5))
    f = factorize(m)
    s = f.singular_values
    assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)
    recon = (f.u * s) @ f.vt
    assert np.max(np.abs(recon - m)) <= 1e-10 * s[0]


def test_nonfinite_rejected():
    with pytest.raises(InvalidInputError):
        pseudoinverse(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        lstsq(np.array([[np.inf]]), np.array([1.0]))


def test_lstsq_identity_returns_target():
    t = np.array([3.0, -1.0, 0.5])
    np.testing.assert_allclose(lstsq(np.eye(3), t), t, atol=1e-14)


def test_lstsq_square_matches_gaussian_elimination():
    rng = np.random.default_rng(15)
    a = rng.normal(size=(4, 4))
    t = rng.normal(size=4)
    np.testing.assert_allclose(lstsq(a, t), gaussian_solve(a, t), atol=1e-10)


def test_lstsq_rank_deficient_consistent_system():
    rng = np.random.default_rng(16)
    m = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 3))  # 6x3, rank 2
    t = m @ np.array([0.3, -1.2, 2.0])  # target inside the column space
    x = lstsq(m, t)
    assert np.linalg.norm(m @ x - t) <= 1e-8


def test_lstsq_solution_has_minimum_norm():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(8, 3)) @ rng.normal(size=(3, 5))  # rank 3, wide
    t = m @ rng.normal(size=5)
    x = lstsq(m, t)
    _, _, vt = np.linalg.svd(m)
    null = vt[3:]  # basis of the null space
    for k in range(20):
        z = x + null.T @ rng.normal(scale=0.5, size=2)
        assert np.linalg.norm(m @ z - t) <= 1e-8  # still a solution
        assert np.linalg.norm(z) > np.linalg.norm(x)


def test_lstsq_matrix_target():
    rng = np.random.default_rng(18)
    m = rng.normal(size=(9, 4))
    t = rng.normal(size=(9, 2))
    x = lstsq(m, t)
    assert x.shape == (4, 2)
    np.testing.assert_allclose(x, pseudoinverse(m) @ t, atol=1e-10)


def test_lstsq_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        lstsq(np.ones((3, 2)), np.ones(4))


def test_ridge_small_lambda_matches_unregularized():
    rng = np.random.default_rng(19)
    m = rng.normal(size=(10, 4))
    t = rng.normal(size=10)
    plain = lstsq(m, t)
    ridged = lstsq(m, t, SolverConfig(ridge_lambda=1e-12))
    assert np.max(np.abs(plain - ridged)) <= 1e-6


def test_ridge_matches_direct_normal_equations():
    rng = np.random.default_rng(20)
    m = rng.normal(size=(12, 3))
    t = rng.normal(size=12)
    lam = 0.5
    got = lstsq(m, t, SolverConfig(ridge_lambda=lam))
    want = gaussian_solve(m.T @ m + lam * np.eye(3), m.T @ t)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_solver_config_validation():
    with pytest.raises(InvalidInputError):
        SolverConfig(rank_tolerance=0.0)
    with pytest.raises(InvalidInputError):
        SolverConfig(ridge_lambda=-1.0)


def test_single_thread_blas_survives_concurrent_users():
    # more users than cores, switching threads often: a lost update of the
    # shared user count would leave BLAS pinned or unpin it inside a body
    handles = linalg._openblas_handles()
    if not handles:
        pytest.skip("no bundled OpenBLAS")
    saved = [get() for get, _ in handles]
    interval = sys.getswitchinterval()
    seen: list = []

    def user():
        for _ in range(200):
            with single_thread_blas():
                seen.append([get() for get, _ in handles])

    try:
        for _, set_ in handles:
            set_(2)
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=user) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert seen == [[1] * len(handles)] * 1600
        assert [get() for get, _ in handles] == [2] * len(handles)
    finally:
        sys.setswitchinterval(interval)
        for (_, set_), count in zip(handles, saved):
            set_(count)

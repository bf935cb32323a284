"""Pseudoinverse and least-squares solver checks.

The pseudoinverse is verified against the four defining conditions rather
than against another library routine; square solves are cross-checked with a
pure-Python Gaussian elimination written here.
"""

import ctypes
import functools
import os
import platform
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import blas_threads, bundles_openblas, stub_routines

import randnet
from randnet import linalg, model
from randnet.errors import InvalidInputError, NumericFailureError
from randnet.linalg import lstsq, pseudoinverse, single_thread_blas
from randnet.model import HiddenLayer, build_hidden, hidden_outputs, solve_readout
from randnet.paramgen import RAlphaMConfig, generate_ralpham
from randnet.rng import as_stream


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


def test_automatic_rank_cutoff_keeps_a_small_singular_value():
    # 1e-10 is far above the cutoff max(2, 2) * 1 * eps, so it is inverted
    m = np.diag([1.0, 1e-10])
    assert pseudoinverse(m)[1, 1] == pytest.approx(1e10)


def test_factorization_shapes_and_order():
    m = np.random.default_rng(14).normal(size=(8, 5))
    u, s, vt = linalg._svd_in_place(np.array(m, order="F"))
    assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)
    recon = (u * s) @ vt
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


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    defect=st.sampled_from([None, "duplicate", "zero"]),
    rhs_cols=st.sampled_from([None, 1, 3]),
)
def test_lstsq_matches_pseudoinverse(rows, cols, seed, defect, rhs_cols):
    # tall (QR-reduced), square and wide matrices, rank-deficient ones among them
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols))
    if defect == "duplicate" and cols > 1:
        m[:, -1] = m[:, 0]
    elif defect == "zero":
        m[:, -1] = 0.0
    t = rng.normal(size=rows if rhs_cols is None else (rows, rhs_cols))
    want = pseudoinverse(m) @ t
    got = lstsq(m, t)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * max(1.0, np.abs(want).max()))


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 2**20), cols=st.integers(1, 4000))
@example(rows=20000, cols=800)  # halved by the cap to 8 blocks of 15.3 MiB
@example(rows=50000, cols=800)  # 16 blocks of 19.1 MiB: a half would go below the floor
def test_row_blocks_are_a_contiguous_split_fixed_by_the_shape(rows, cols):
    blocks = linalg.row_blocks(rows, cols)
    count = len(blocks)
    assert count & (count - 1) == 0  # a power of two
    assert blocks[0].start == 0 and blocks[-1].stop == rows
    assert all(b.stop == c.start for b, c in zip(blocks, blocks[1:]))
    assert all(b.step is None for b in blocks)
    width = cols + 1
    assert (count == 1) == (rows < 2 * max(4096, 4 * width))
    assert rows // (2 * count) < max(4096, 4 * width)  # the row rule is spent
    if count > 1:
        assert min(b.stop - b.start for b in blocks) >= 3 * width
        # the cap is spent: the blocks hold at most 16 MiB, or one more
        # halving would leave a half below 3 * (cols + 1) rows
        assert (-(-rows // count) * width * 8 <= 16 << 20
                or rows // (2 * count) < 3 * width)
        # and no halving was made past what the row rule and the cap ask
        half = count // 2
        assert (rows // count >= max(4096, 4 * width)
                or -(-rows // half) * width * 8 > 16 << 20)
    with linalg.block_budget(4):
        assert linalg.row_blocks(rows, cols) == blocks


@pytest.mark.parametrize("shape, count", [
    ((20000, 800), 8),  # fit-n5-save: train and test H, 2500 rows of 15.3 MiB
    ((5000, 800), 1),   # tf1-m800 H, and the raem1 decoder solve
    ((5000, 25), 1),    # uae-sweep-m25
    ((1600, 100), 1),   # compare-cv-file, its largest H
])
def test_row_blocks_of_the_benchmark_shapes(shape, count):
    assert len(linalg.row_blocks(*shape)) == count


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    cols=st.integers(1, 12),
    extra_rows=st.integers(0, 150),
    seed=st.integers(0, 2**32 - 1),
    defect=st.sampled_from([None, "duplicate", "zero"]),
    rhs_cols=st.sampled_from([None, 1, 3]),
)
def test_blocked_lstsq_matches_one_block(row_blocking, cols, extra_rows, seed, defect, rhs_cols):
    rows = 2 * max(8, 4 * (cols + 1)) + extra_rows
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols))
    if defect == "duplicate" and cols > 1:
        m[:, -1] = m[:, 0]
    elif defect == "zero":
        m[:, -1] = 0.0
    t = rng.normal(size=rows if rhs_cols is None else (rows, rhs_cols))
    row_blocking(min_rows=10**9)
    want = lstsq(m, t)
    row_blocking(min_rows=8)
    assert len(linalg.row_blocks(rows, cols)) >= 2
    got = lstsq(m, t)
    with linalg.block_budget(2):
        assert np.array_equal(lstsq(m, t), got)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * max(1.0, np.abs(want).max()))


def reference_lstsq(a, t):
    """``lstsq`` as it was before ``solve_rows``, with the triangles of
    several row blocks folded: a tall ``a`` reduced to the
    ``folded_triangle`` of ``[a | t]``, then solved on the triangle as
    ``reference_svd_solve`` does; any other ``a`` solved as it is."""
    rhs = t.reshape(-1, 1) if t.ndim == 1 else t
    cols = a.shape[1]
    if a.shape[0] > cols:
        r = folded_triangle(np.hstack([a, rhs]), linalg.row_blocks(*a.shape))
        x = reference_svd_solve(r[:cols, :cols], r[:cols, cols:], a.shape)
    else:
        x = reference_svd_solve(a, rhs, a.shape)
    return x[:, 0] if t.ndim == 1 else x


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.integers(1, 400),
    nodes=st.integers(1, 30),
    inputs=st.integers(1, 3),
    rhs_cols=st.sampled_from([None, 1, 3]),
    blocked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=400, nodes=3, inputs=2, rhs_cols=None, blocked=True, seed=0)  # 16 blocks
@example(rows=400, nodes=30, inputs=1, rhs_cols=3, blocked=True, seed=1)  # 2 blocks
@example(rows=20, nodes=20, inputs=2, rhs_cols=None, blocked=False, seed=2)  # square
@example(rows=7, nodes=30, inputs=3, rhs_cols=3, blocked=False, seed=3)  # wide
def test_solve_rows_keeps_the_bits_of_the_two_chains_it_replaced(
        monkeypatch, row_blocking, rows, nodes, inputs, rhs_cols, blocked, seed):
    # lstsq and solve_readout, on one block or several and on one thread or
    # two, against the chain both ran before, by their bytes; several blocks
    # are folded by numpy's QR, as the chain folds them
    stub_routines(monkeypatch, scipy_dtpqrt_64_=None)
    row_blocking(min_rows=8 if blocked else 10**9)
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(rows, inputs))
    layer = HiddenLayer(rng.normal(scale=5.0, size=(inputs, nodes)), rng.normal(size=nodes))
    t = rng.normal(size=rows if rhs_cols is None else (rows, rhs_cols))
    h = hidden_outputs(layer, x)
    want = reference_lstsq(h, t)
    assert want.shape == (nodes,) + t.shape[1:]
    assert lstsq(h, t).tobytes() == want.tobytes()
    assert lstsq(np.asfortranarray(h), t).tobytes() == want.tobytes()
    assert solve_readout(layer, x, t).tobytes() == want.tobytes()
    with linalg.block_budget(2):
        assert lstsq(h, t).tobytes() == want.tobytes()
        assert solve_readout(layer, x, t).tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 90),
    cols=st.integers(1, 90),
    rhs_cols=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=50, cols=60, rhs_cols=1, seed=0)  # wide
@example(rows=50, cols=50, rhs_cols=None, seed=1)  # square
@example(rows=1200, cols=50, rhs_cols=1, seed=2)  # tall
def test_target_layout_moves_no_bit(rows, cols, rhs_cols, seed):
    # a strided column, an F-ordered block and a contiguous copy of the same
    # targets give one solution, in the tall branch and the wide one
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols))
    k = 1 if rhs_cols is None else rhs_cols
    block = rng.normal(size=(rows, 2 * k + 1))
    picked = (lambda b: b[:, 1]) if rhs_cols is None else (lambda b: b[:, 1:2 * k + 1:2])
    want = lstsq(a, picked(block).copy()).tobytes()
    for t in (picked(block), picked(np.asfortranarray(block)),
              np.asfortranarray(picked(block))):
        assert lstsq(a, t).tobytes() == want


@pytest.mark.parametrize("rows", [12, 3], ids=["tall", "wide"])
@pytest.mark.parametrize("target", [
    pytest.param(lambda rows: np.r_[np.ones(rows - 1), np.nan], id="nan"),
    pytest.param(lambda rows: np.ones(rows + 1), id="row-count"),
    pytest.param(lambda rows: np.ones((rows, 2, 1)), id="3-d"),
])
def test_bad_targets_are_invalid_input_from_both_callers(rows, target):
    layer = HiddenLayer(np.ones((1, 4)), np.linspace(-1.0, 1.0, 4))
    x = np.linspace(0.0, 1.0, rows)[:, None]
    with pytest.raises(InvalidInputError, match="target"):
        lstsq(hidden_outputs(layer, x), target(rows))
    with pytest.raises(InvalidInputError, match="target"):
        solve_readout(layer, x, target(rows))


def test_tall_lstsq_decomposes_only_square_matrices(monkeypatch):
    seen = []
    svd = linalg._svd_in_place

    def recording_svd(a):
        seen.append(np.shape(a))
        return svd(a)

    monkeypatch.setattr(linalg, "_svd_in_place", recording_svd)
    rng = np.random.default_rng(21)
    m = rng.normal(size=(300, 7))
    lstsq(m, rng.normal(size=300))
    lstsq(m, rng.normal(size=(300, 4)))
    assert seen == [(7, 7), (7, 7)]


def test_tall_cutoff_uses_the_original_row_count(row_blocking):
    # sigma_2 lies between 2 * eps and 1000 * eps relative to sigma_1, so the
    # cutoff of the 1000x2 matrix drops it where one of its 2x2 R would not
    rng = np.random.default_rng(23)
    u, _ = np.linalg.qr(rng.normal(size=(1000, 2)))
    v, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    m = (u * [1.0, 3e-14]) @ v.T
    t = rng.normal(size=1000)
    for min_rows, blocks in [(linalg._MIN_BLOCK_ROWS, 1), (8, 64)]:
        row_blocking(min_rows=min_rows)
        assert len(linalg.row_blocks(1000, 2)) == blocks
        x = lstsq(m, t)
        np.testing.assert_allclose(x, pseudoinverse(m) @ t, rtol=1e-9)
        np.testing.assert_allclose(x, v[:, 0] * (u[:, 0] @ t), rtol=1e-9)


@pytest.mark.parametrize("routine, fails", [
    pytest.param("qr", "every call", id="qr"),
    pytest.param("svd", "every call", id="svd"),
    pytest.param("qr", "second block", id="qr-second-block"),
    pytest.param("fold", "first fold", id="fold"),
])
def test_lapack_failure_is_a_numeric_failure(monkeypatch, row_blocking, routine, fails):
    # at min_rows 8 the 80x3 matrix is reduced in 4 blocks of 20 rows on a
    # pool of 2, and their 4 triangles of 4 rows are folded into a running
    # one in the caller while later blocks are in flight; the QR is
    # linalg.qr_triangle, the SVD linalg._svd_in_place and the fold LAPACK
    # dtpqrt, whose failures, a raised error or a nonzero info, are
    # NumericFailureErrors, and the block pool is shut down either way
    row_blocking(min_rows=8)
    rng = np.random.default_rng(22)
    rows = 9 if fails == "every call" else 80
    a = rng.normal(size=(rows, 3))
    blocks = linalg.row_blocks(rows, 3)
    attr = "qr_triangle" if routine == "qr" else "_svd_in_place"
    real = getattr(linalg, attr)
    callers = []

    def failing(m, *args, **kwargs):
        callers.append(threading.current_thread().name)
        if (fails == "every call"
                or (fails == "second block" and np.array_equal(m[:, :3], a[blocks[1]]))):
            raise NumericFailureError("simulated non-convergence")
        return real(m, *args, **kwargs)

    def failing_fold(*args):
        callers.append(threading.current_thread().name)
        ctypes.c_int64.from_address(args[-1]).value = -1  # info, passed by address

    if routine == "fold":
        stub_routines(monkeypatch, scipy_dtpqrt_64_=failing_fold)
    else:
        monkeypatch.setattr(linalg, attr, failing)
    with linalg.block_budget(2), pytest.raises(NumericFailureError):
        lstsq(a, np.ones(rows))
    if fails != "every call":
        assert len(blocks) == 4
    if fails == "second block":
        assert any(name.startswith("randnet-block") for name in callers)
    if fails == "first fold":
        assert callers == [threading.current_thread().name]
    assert not [t for t in threading.enumerate() if t.name.startswith("randnet-block")]


@pytest.mark.parametrize("missing", [pytest.param("scipy_dgeqrf_64_", id="dgeqrf"),
                                     pytest.param("scipy_dtpqrt_64_", id="dtpqrt")])
def test_numpy_qr_failure_is_a_numeric_failure(monkeypatch, row_blocking, missing):
    # without dgeqrf each block, and without dtpqrt each fold, is numpy's
    # QR, whose LinAlgError is a NumericFailureError; at min_rows 8 the
    # 80x3 matrix is reduced in 4 blocks on a pool of 2, which is shut down
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("simulated non-convergence")

    row_blocking(min_rows=8)
    assert len(linalg.row_blocks(80, 3)) == 4
    stub_routines(monkeypatch, **{missing: None})
    monkeypatch.setattr(np.linalg, "qr", no_convergence)
    rng = np.random.default_rng(23)
    with linalg.block_budget(2), pytest.raises(NumericFailureError, match="simulated"):
        lstsq(rng.normal(size=(80, 3)), np.ones(80))
    assert not [t for t in threading.enumerate() if t.name.startswith("randnet-block")]
    with pytest.raises(NumericFailureError, match="simulated"):
        if missing == "scipy_dgeqrf_64_":
            linalg.qr_triangle(np.ones((5, 2), order="F"))
        else:
            linalg._fold(np.eye(2, order="F"), np.eye(2, order="F"))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    cols=st.integers(1, 300),
    extra_rows=st.integers(0, 2000),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
    seed=st.integers(0, 2**32 - 1),
    fallback=st.booleans(),
)
@example(cols=300, extra_rows=2000, scale=1e8, seed=0, fallback=False)
@example(cols=1, extra_rows=0, scale=1e-8, seed=1, fallback=False)
def test_qr_triangle_is_numpys_r_bit_for_bit(monkeypatch, cols, extra_rows, scale, seed,
                                             fallback):
    a = np.random.default_rng(seed).normal(size=(cols + extra_rows, cols)) * scale
    buf = np.asfortranarray(a.copy())
    with monkeypatch.context() as patch:
        if fallback:
            stub_routines(patch, scipy_dgeqrf_64_=None)
        r = linalg.qr_triangle(buf)
    assert r.tobytes() == np.linalg.qr(a, mode="r").tobytes()
    # R is buf[:k], the top rows of the buffer, where dgeqrf leaves it
    assert r.shape == (min(a.shape), cols) and r.strides == buf.strides
    assert r.ctypes.data == buf.ctypes.data


def reference_svd_solve(r, c, shape):
    """Minimum-norm solution of ``r @ x = c`` through ``np.linalg.svd`` of
    ``r``, with the rank cutoff of the original matrix's ``shape``."""
    u, s, vt = np.linalg.svd(r, full_matrices=False)
    s_inv = np.zeros_like(s)
    np.divide(1.0, s, out=s_inv, where=s > max(shape) * float(s[0]) * np.finfo(float).eps)
    return vt.T @ ((u.T @ c) * s_inv[:, None])


@functools.cache
def ralpham_triangle() -> np.ndarray:
    """The 800x800 R of the hidden matrix of a ralpham layer with slope
    angles up to 90 degrees on 5000 points in 2-D, as the tf1-m800 readout
    decomposes it; many saturated nodes make it rank-deficient."""
    x = np.random.default_rng(27).uniform(size=(5000, 2))
    layer = generate_ralpham(RAlphaMConfig(alpha_max_deg=90.0), x, 800,
                             as_stream(27))
    h = np.empty((5000, 800), order="F")
    build_hidden(x, layer.weights, layer.biases, h)
    return linalg.qr_triangle(h).copy()  # not a view that keeps h


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.integers(1, 300),
    cols=st.integers(1, 300),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
    duplicates=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    fallback=st.booleans(),
    ralpham=st.just(False),
)
@example(rows=800, cols=800, scale=1.0, duplicates=0, seed=0, fallback=False, ralpham=True)
@example(rows=300, cols=300, scale=1e8, duplicates=3, seed=1, fallback=False, ralpham=False)
def test_svd_is_numpys_bit_for_bit(monkeypatch, rows, cols, scale, duplicates, seed, fallback,
                                   ralpham):
    # tall, square and wide; duplicated columns make it rank-deficient
    rng = np.random.default_rng(seed)
    if ralpham:
        a = ralpham_triangle()
        assert np.linalg.matrix_rank(a) < 800
    else:
        a = rng.normal(size=(rows, cols)) * scale
        a[:, cols - min(duplicates, cols - 1):] = a[:, :1]
    c = rng.normal(size=(a.shape[0], 2))
    shape = (2 * a.shape[0], a.shape[1])
    before = a.copy()
    with monkeypatch.context() as patch:
        if fallback:
            stub_routines(patch, scipy_dgesdd_64_=None)
        got = linalg._svd_in_place(np.array(a, order="F"))
        x = linalg._solve_svd(got, c, shape)
    assert a.tobytes() == before.tobytes()
    for mine, numpys in zip(got, np.linalg.svd(a, full_matrices=False)):
        assert mine.tobytes() == numpys.tobytes()
        assert mine.flags.c_contiguous
    assert x.tobytes() == reference_svd_solve(a, c, shape).tobytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.integers(1, 60),
    cols=st.integers(1, 60),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
    seed=st.integers(0, 2**32 - 1),
    fallback=st.booleans(),
)
@example(rows=60, cols=60, scale=1e8, seed=0, fallback=False)
@example(rows=60, cols=60, scale=1e-8, seed=0, fallback=True)
def test_pseudoinverse_is_numpys_svd_bit_for_bit(monkeypatch, rows, cols, scale, seed,
                                                 fallback):
    # through dgesdd of the bundled OpenBLAS and through numpy's svd; the
    # second row repeats the first, so a shape of at least two rows and two
    # columns is rank-deficient
    a = np.random.default_rng(seed).normal(size=(rows, cols)) * scale
    a[1:2] = a[:1]
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    s_inv = np.zeros_like(s)
    np.divide(1.0, s, out=s_inv, where=s > max(a.shape) * float(s[0]) * np.finfo(float).eps)
    with monkeypatch.context() as patch:
        if fallback:
            stub_routines(patch, scipy_dgesdd_64_=None)
        got = pseudoinverse(a)
    assert got.tobytes() == ((vt.T * s_inv) @ u.T).tobytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.integers(1, 60),
    cols=st.integers(1, 60),
    spare_rows=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    fallback=st.booleans(),
)
@example(rows=60, cols=60, spare_rows=1, seed=0, fallback=False)
@example(rows=1, cols=60, spare_rows=3, seed=1, fallback=False)
@example(rows=60, cols=1, spare_rows=3, seed=2, fallback=False)
@example(rows=1, cols=1, spare_rows=1, seed=3, fallback=True)
def test_lapack_takes_a_view_where_it_lies(monkeypatch, rows, cols, spare_rows, seed,
                                           fallback):
    # the top rows of an F-ordered buffer, as R lies in the running square:
    # the SVD and the QR of that view, its column spacing the leading
    # dimension, give the bytes of the same call on a contiguous copy and
    # leave the rows below it, NaN here, as they were. The last column
    # repeats the first, so a shape of at least two columns is rank-deficient
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols))
    a[:, -1] = a[:, 0]
    with monkeypatch.context() as patch:
        if fallback:
            stub_routines(patch, scipy_dgesdd_64_=None, scipy_dgeqrf_64_=None)
        for decompose in (linalg._svd_in_place, lambda m: (linalg.qr_triangle(m),)):
            buf = np.full((rows + spare_rows, cols), np.nan, order="F")
            view = buf[:rows]
            view[...] = a
            assert linalg._check_buffer(view, "view") == (rows + spare_rows if cols > 1 else rows)
            got, want = decompose(view), decompose(np.array(a, order="F"))
            assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
            assert np.isnan(buf[rows:]).all()


def test_check_buffer_takes_only_what_lapack_can_overwrite_where_it_lies():
    # rows adjacent in memory and columns at least the row count apart; a
    # single row or column has no spacing to check
    a = np.arange(24.0).reshape(4, 6)
    frozen = np.asfortranarray(a)
    frozen.flags.writeable = False
    squeezed = np.lib.stride_tricks.as_strided(np.asfortranarray(a), strides=(8, 16))
    for bad in (a, a.T[::2], frozen, np.asfortranarray(a, dtype=np.float32), a[:, 0].copy(),
                np.asfortranarray(a)[::2], np.asfortranarray(a)[:, ::-1], squeezed, [[1.0]]):
        with pytest.raises(InvalidInputError):
            linalg._check_buffer(bad, "buffer")
    square = np.zeros((7, 7), order="F")
    for good, ld in ((np.asfortranarray(a), 4), (a.T, 6), (square[:3, :3], 7), (a[:1], 1),
                     (a[:, :1].copy(), 4), (square[:1, :1], 1), (square[2:5, 1:], 7)):
        assert linalg._check_buffer(good, "buffer") == ld


def test_pseudoinverse_holds_one_copy_u_vt_and_the_workspace():
    # at m=400, on the copying SVD path that pseudoinverse takes: the
    # F-ordered copy of R, U, Vt and dgesdd's 3m^2 + 7m workspace, about
    # 6 m^2 doubles; numpy's svd held U and Vt twice
    if not bundles_openblas():
        pytest.skip("numpy bundles no OpenBLAS")
    m = 400
    r = np.triu(np.random.default_rng(28).normal(size=(m, m)))
    pseudoinverse(r)
    tracemalloc.start()
    try:
        pseudoinverse(r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * m * m * 8


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn()`` runs, after one untraced warm-up
    call has made the workspace queries."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_owned_svd_holds_u_vt_and_the_workspace_only():
    # at m=400 dgesdd overwrites the R handed over: U, Vt and its 3m^2 + 7m
    # workspace, about 5 m^2 doubles, where pseudoinverse, which decomposes
    # a copy, holds 6.04
    if not bundles_openblas():
        pytest.skip("numpy bundles no OpenBLAS")
    m = 400
    r = np.asfortranarray(np.triu(np.random.default_rng(31).normal(size=(m, m))))
    assert traced_peak(lambda: linalg._svd_in_place(r.copy(order="F"))) - r.nbytes \
        < 5.2 * m * m * 8
    assert traced_peak(lambda: pseudoinverse(r)) > 6.0 * m * m * 8


def test_one_block_readout_holds_its_block_and_no_triangle_beside_it(monkeypatch):
    # the 3000x402 [H | t] buffer and build_hidden's work panel of
    # 65536 // 3000 = 21 columns; the 400x402 triangle, 13% of the buffer,
    # is copied into the 402x402 square, as block 0 of a multi-block fit is,
    # before the block is freed, or, in a process that pinned its mmap
    # threshold, left in the buffer's own memory and cut down to there
    if not bundles_openblas():
        pytest.skip("numpy bundles no OpenBLAS")
    rows, nodes = 3000, 400
    rng = np.random.default_rng(32)
    x = rng.uniform(size=(rows, 1))
    layer = HiddenLayer(rng.normal(scale=5.0, size=(1, nodes)), rng.normal(size=nodes))
    t = rng.normal(size=(rows, 2))
    assert len(linalg.row_blocks(rows, nodes)) == 1
    block = rows * (nodes + 2) * 8
    panel = rows * max(1, model._TILE_ELEMS // rows) * 8
    square = (nodes + 2) ** 2 * 8
    assert not linalg._mmap_pinned
    assert traced_peak(lambda: solve_readout(layer, x, t)) < 1.05 * (block + panel + square)
    monkeypatch.setattr(linalg, "_mmap_pinned", True)
    assert traced_peak(lambda: solve_readout(layer, x, t)) < 1.05 * (block + panel)


def test_wide_solve_holds_its_matrix_once():
    # a 400x800 solve: the filled buffer, which dgesdd overwrites, U (half a
    # copy of a), Vt (one copy) and the workspace, about 4.5 copies of a
    if not bundles_openblas():
        pytest.skip("numpy bundles no OpenBLAS")
    rng = np.random.default_rng(33)
    x = rng.uniform(size=(400, 1))
    layer = HiddenLayer(rng.normal(scale=5.0, size=(1, 800)), rng.normal(size=800))
    t = rng.normal(size=400)
    h = hidden_outputs(layer, x)
    assert traced_peak(lambda: lstsq(h, t)) <= 4.6 * h.nbytes
    assert traced_peak(lambda: solve_readout(layer, x, t)) <= 4.6 * h.nbytes


def blocked_readout_peak(rows: int, nodes: int, block_rows: int,
                         budget: int) -> tuple[int, int, int, int]:
    """The traced peak of a rows x nodes readout solve in blocks of
    block_rows x (nodes + 1), each folded from where it lies and freed whole,
    at ``budget``, with the sizes of one block, its build panel and the
    running triangle, in bytes."""
    rng = np.random.default_rng(35)
    x = rng.uniform(size=(rows, 1))
    layer = HiddenLayer(rng.normal(scale=5.0, size=(1, nodes)), rng.normal(size=nodes))
    t = rng.normal(size=rows)
    assert [b.stop - b.start for b in linalg.row_blocks(rows, nodes)] \
        == [block_rows] * (rows // block_rows)
    width = nodes + 1
    block = block_rows * width * 8
    panel = block_rows * (model._TILE_ELEMS // block_rows) * 8
    with linalg.block_budget(budget):
        peak = traced_peak(lambda: solve_readout(layer, x, t))
    return peak, block, panel, width * width * 8


def test_multi_block_readout_on_one_core_holds_one_block_and_the_running_triangle(
        row_blocking):
    # at budget 1 a block is built only when the fold asks for it, and freed
    # once folded: the solve holds one block, with its build panel or with
    # dtpqrt's smaller work arrays, beside the running triangle. A loop that
    # kept the last block while the next is built, as enumerate or zip over
    # the blocks does, holds one block more: 14.7 MB against a bound of 8.63
    if not bundles_openblas():
        pytest.skip("numpy bundles no OpenBLAS")
    row_blocking(min_rows=8)
    peak, block, panel, triangle = blocked_readout_peak(8000, 400, 2000, 1)
    assert peak < 1.05 * (block + panel + triangle)


def test_multi_block_readout_on_two_cores_holds_two_blocks_and_the_running_triangle(
        row_blocking):
    # at budget 2 the pool holds two blocks in flight, and submits the next
    # only once the fold has taken one, so finished blocks do not pile up
    # beside them
    if not bundles_openblas():
        pytest.skip("numpy bundles no OpenBLAS")
    row_blocking(min_rows=8)
    peak, block, panel, triangle = blocked_readout_peak(8000, 400, 2000, 2)
    assert peak < 1.05 * (2 * (block + panel) + triangle)


def test_capped_blocks_bound_what_a_split_readout_holds(row_blocking):
    # the row rule splits 8192x200 into 2 blocks of 4096x201, 6.3 MiB each;
    # a cap of 2 MiB halves them to 8 blocks of 1024x201, 1.6 MiB each, so
    # at budgets 1 and 2 the solve holds that many capped blocks and their
    # build panels beside the running triangle. Uncapped, the 2 blocks of
    # 6.3 MiB go past the bound at either budget
    if not bundles_openblas():
        pytest.skip("numpy bundles no OpenBLAS")
    row_blocking(block_bytes=2 << 20)
    for budget in (1, 2):
        peak, block, panel, triangle = blocked_readout_peak(8192, 200, 1024, budget)
        assert peak < 1.05 * (budget * (block + panel) + triangle), (budget, peak)


def test_solve_under_a_debugger_keeps_whole_the_block_it_cannot_cut(monkeypatch):
    # a tracer that reads every frame's locals, as a debugger does, holds one
    # more reference to a one-block fit's buffer, so numpy's realloc refuses
    # to cut it down; the solve then decomposes R where it was packed, in the
    # whole block, with the bits of the cut and of the square start. The
    # record of a pinned mmap threshold is set and the threshold lowered, so
    # that this small block is cut
    rng = np.random.default_rng(34)
    a, t = rng.normal(size=(90, 4)), rng.normal(size=(90, 2))
    assert len(linalg.row_blocks(*a.shape)) == 1
    square = lstsq(a, t)
    monkeypatch.setattr(linalg, "_mmap_pinned", True)
    monkeypatch.setattr(linalg, "_MMAP_BYTES", 0)
    want = lstsq(a, t)
    assert want.tobytes() == square.tobytes()

    def tracer(frame, event, arg):
        frame.f_locals
        return tracer

    outer = sys.gettrace()  # a coverage tool's or a debugger's, kept for the rest of the run
    sys.settrace(tracer)
    try:
        got = lstsq(a, t)
    finally:
        sys.settrace(outer)
    assert got.tobytes() == want.tobytes()


def folded_triangle(a: np.ndarray, blocks: list) -> np.ndarray:
    """The R of ``a`` by ``np.linalg.qr``: of each row block, then, for more
    than one, folded in block order into a running triangle, block 0's
    padded with zero rows to a square, each fold the R of the running
    triangle stacked on the next block's."""
    triangles = [np.linalg.qr(a[rows], mode="r") for rows in blocks]
    if len(triangles) == 1:
        return triangles[0]
    r = np.zeros((a.shape[1], a.shape[1]))
    r[: len(triangles[0])] = triangles[0]
    for tri in triangles[1:]:
        r = np.linalg.qr(np.vstack([r, tri]), mode="r")
    return r


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    cols=st.integers(1, 40),
    extra_rows=st.integers(-10, 200),
    rhs_cols=st.sampled_from([None, 1, 3]),
    blocked=st.booleans(),
    cut=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(cols=30, extra_rows=1, rhs_cols=None, blocked=False, cut=False, seed=0)  # [a | t] square
@example(cols=12, extra_rows=1, rhs_cols=3, blocked=False, cut=False, seed=1)  # [a | t] wide
@example(cols=5, extra_rows=200, rhs_cols=3, blocked=True, cut=False, seed=2)  # folded blocks
@example(cols=20, extra_rows=0, rhs_cols=1, blocked=False, cut=False, seed=3)  # a square
@example(cols=40, extra_rows=1, rhs_cols=3, blocked=False, cut=True, seed=4)  # overlapping moves
@example(cols=7, extra_rows=200, rhs_cols=None, blocked=False, cut=True, seed=5)  # disjoint moves
def test_svd_is_handed_numpys_triangle_bit_for_bit(monkeypatch, row_blocking, cols, extra_rows,
                                                   rhs_cols, blocked, cut, seed):
    # qr_triangle leaves R in the top rows of the buffer it factorized, and
    # solve_rows hands the SVD numpy's R of [a | t], one block or several
    # folded by numpy's QR, with Q' t beside it; a matrix with no more rows
    # than columns goes to the SVD as it is. With the record of a pinned mmap
    # threshold set and the threshold lowered, every lone block is cut: its
    # R's columns move to the block's head, onto or across their own rows
    rows = max(1, cols + extra_rows)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols))
    t = rng.normal(size=rows if rhs_cols is None else (rows, rhs_cols))
    aug = np.hstack([a, t.reshape(rows, -1)])
    flat = np.empty(aug.size)
    buf = flat.reshape(aug.shape, order="F")
    buf[...] = aug
    r = linalg.qr_triangle(buf)
    assert r.tobytes() == np.linalg.qr(aug, mode="r").tobytes()
    assert r.strides == buf.strides and r.ctypes.data == flat.ctypes.data

    row_blocking(min_rows=8 if blocked else 10**9)
    stub_routines(monkeypatch, scipy_dtpqrt_64_=None)
    monkeypatch.setattr(linalg, "_mmap_pinned", cut)
    monkeypatch.setattr(linalg, "_MMAP_BYTES", 0)
    seen = []
    svd, solve = linalg._svd_in_place, linalg._solve_svd
    monkeypatch.setattr(linalg, "_svd_in_place", lambda m: seen.append(m.copy()) or svd(m))
    monkeypatch.setattr(linalg, "_solve_svd",
                        lambda usv, c, shape: seen.append(c.copy()) or solve(usv, c, shape))
    lstsq(a, t)
    decomposed, qt = seen
    if rows > cols:
        want = folded_triangle(aug, linalg.row_blocks(rows, cols))
        assert decomposed.tobytes() == want[:cols, :cols].tobytes()
        assert qt.tobytes() == want[:cols, cols:].tobytes()
    else:
        assert decomposed.tobytes() == a.tobytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    cols=st.integers(1, 12),
    min_rows=st.integers(1, 16),
    extra_rows=st.integers(0, 60),
    rhs_cols=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(cols=12, min_rows=5, extra_rows=0, rhs_cols=3, seed=0)  # trapezoids
@example(cols=12, min_rows=5, extra_rows=7, rhs_cols=None, seed=1)  # trapezoids
@example(cols=3, min_rows=16, extra_rows=60, rhs_cols=1, seed=2)  # triangles
@example(cols=1, min_rows=1, extra_rows=0, rhs_cols=None, seed=3)  # one-row blocks
@example(cols=1, min_rows=1, extra_rows=38, rhs_cols=None, seed=100)  # |x| << ||t||
def test_block_triangles_fold_in_block_order(monkeypatch, row_blocking, cols, min_rows,
                                             extra_rows, rhs_cols, seed):
    # each block is folded from its top rows, and with no rows-per-column
    # floor a block may have fewer rows than [a | t] has columns, so its
    # triangle is a trapezoid, and block 0's is padded with zero rows. Folded
    # by numpy's QR, the solve is the solve on the test's fold, bit for bit;
    # folded by dtpqrt, its bytes do not depend on the budget, and it is as
    # close to np.linalg.lstsq as backward stability allows. A solver exact
    # for a and t perturbed by a relative e moves the solution by at most
    # k e / (1 - k e) * (2 |x| + (k + 1) |r| / |a|), with k = cond(a) and r
    # the residual (Higham, Accuracy and Stability of Numerical Algorithms,
    # Thm 20.1). Here k <= 2, |a| >= 1 and |r| <= |t|, so each column of x
    # moves by at most about 10 e max(|x|, |t|) in Frobenius norms. The
    # bound allows e = 1e-13, some 900 unit roundoffs, for both solvers
    # together. A bound on |x| alone fails where the residual dwarfs x, as
    # in the |x| << ||t|| example, whose solution is 6e-5
    row_blocking(min_rows=min_rows)
    monkeypatch.setattr(linalg, "_ROWS_PER_COL", 0)
    rows = max(cols + 1, 2 * min_rows) + extra_rows
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, cols)))
    a = (u * rng.uniform(1.0, 2.0, size=cols)) @ v.T
    t = rng.normal(size=rows if rhs_cols is None else (rows, rhs_cols))
    blocks = linalg.row_blocks(rows, cols)
    assert len(blocks) > 1
    r = folded_triangle(np.hstack([a, t.reshape(rows, -1)]), blocks)
    want = reference_svd_solve(r[:cols, :cols], r[:cols, cols:], a.shape)
    want = want[:, 0] if t.ndim == 1 else want
    with monkeypatch.context() as patch:
        stub_routines(patch, scipy_dtpqrt_64_=None)
        for budget in (1, 2):
            with linalg.block_budget(budget):
                assert lstsq(a, t).tobytes() == want.tobytes()
    got = lstsq(a, t)
    with linalg.block_budget(2):
        assert lstsq(a, t).tobytes() == got.tobytes()
    exact = np.linalg.lstsq(a, t, rcond=None)[0]
    bound = 1e-12 * max(np.linalg.norm(exact), np.linalg.norm(t))
    np.testing.assert_allclose(got, exact, rtol=0, atol=bound)


@settings(max_examples=60, deadline=None)
@given(
    cols=st.integers(1, 40),
    extra_rows=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
@example(cols=40, extra_rows=200, seed=0)
@example(cols=1, extra_rows=1, seed=1)
def test_fold_reads_a_block_where_dgeqrf_leaves_it(cols, extra_rows, seed):
    # _fold of a factorized block's top rows, with the block's row count as
    # their leading dimension and the Householder vectors left beneath them,
    # gives the bits of _fold of a zeroed F-contiguous copy of R; dtpqrt does
    # not read below R's diagonal either, which is poisoned with NaN
    if not bundles_openblas():
        pytest.skip("numpy bundles no OpenBLAS")
    rng = np.random.default_rng(seed)
    buf = np.asfortranarray(rng.normal(size=(cols + extra_rows, cols)))
    lower = linalg.qr_triangle(buf)
    lower[np.tri(cols, k=-1, dtype=bool)] = np.nan
    copy = np.asfortranarray(np.triu(lower))
    running = np.asfortranarray(np.triu(rng.normal(size=(cols, cols))))
    want = running.copy(order="F")
    linalg._fold(want, copy)
    linalg._fold(running, lower)
    assert np.all(np.isfinite(want))
    assert running.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows, nodes, cut", [
    (5000, 800, True),   # tf1-m800 H, 30.6 MiB; fit-n5-save's blocks are folded, not cut
    (5000, 100, False),  # 3.85 MiB
    (5000, 25, False),   # uae-sweep-m25
    (1280, 100, False),  # compare-cv-file, its largest CV fold
])
def test_only_blocks_the_cli_maps_on_their_own_are_cut(rows, nodes, cut):
    # only a one-block fit is cut, and only in a process that pinned its mmap
    # threshold, as the CLI does: every array of that size or more is then
    # mapped on its own, and a cut hands pages back only there
    assert (rows * (nodes + 1) * 8 >= linalg._MMAP_BYTES) == cut


def test_repeated_library_solves_take_no_page_faults():
    # a program that imports the package keeps glibc's default malloc
    # settings; there, once warm, a solve whose blocks are freed whole takes
    # its pages from the heap, not from fresh mappings: one-block fits of
    # 0.2 to 32 MB, each started from the square, and fits of 4 blocks of
    # 8 MB and of 4 blocks of 15.3 MiB, halved by the cap, each folded from
    # where it lies. Cut down to their triangles, the one blocks of 8 to
    # 32 MB took 158 to 851 minor faults per solve, and the 4 blocks of 8 MB
    # 1720 to 2002, by what ran before. Each shape is measured before any
    # larger one has run
    if platform.system() != "Linux" or platform.libc_ver()[0] != "glibc":
        pytest.skip("glibc's malloc only")
    probe = """
import resource
import numpy as np
from randnet import linalg
from randnet.model import HiddenLayer, solve_readout

rng = np.random.default_rng(36)
with linalg.single_thread_blas():
    for rows, nodes, solves in [(5000, 25, 50), (900, 100, 50), (5000, 200, 10),
                                (5000, 400, 10), (5000, 800, 10), (20000, 200, 10),
                                (10000, 800, 10)]:
        assert len(linalg.row_blocks(rows, nodes)) == (1 if rows <= 5000 else 4)
        x = rng.uniform(size=(rows, 1))
        layer = HiddenLayer(rng.normal(scale=5.0, size=(1, nodes)), rng.normal(size=nodes))
        t = rng.normal(size=rows)
        for _ in range(solves // 5):
            solve_readout(layer, x, t)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(solves):
            solve_readout(layer, x, t)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / solves)
"""
    src = os.path.dirname(os.path.dirname(randnet.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("MALLOC_") and name != "GLIBC_TUNABLES"}
    done = subprocess.run([sys.executable, "-c", probe], env={**env, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = [float(line) for line in done.stdout.split()]
    assert len(faults) == 7 and max(faults) <= 10, faults


def test_every_routine_resolves_in_the_bundled_openblas():
    # a symbol that stops resolving, renamed in the library or misspelt in
    # the table, would fall back to numpy or leave BLAS on its threads
    if not bundles_openblas():
        pytest.skip("numpy bundles no OpenBLAS")
    assert [name for name in linalg._ROUTINES if linalg._routine(name) is None] == []


def test_qr_triangle_binds_the_bundled_openblas(monkeypatch, row_blocking):
    # a silent fallback to np.linalg.qr would hide a lost in-place path: no
    # block's QR and, at min_rows 8, none of the 80x3 solve's 3 folds is numpy's
    if not bundles_openblas():
        pytest.skip("numpy bundles no OpenBLAS")
    assert linalg._routine("scipy_dgeqrf_64_") is not None

    def no_numpy_qr(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", no_numpy_qr)
    row_blocking(min_rows=8)
    assert len(linalg.row_blocks(80, 3)) == 4
    rng = np.random.default_rng(25)
    linalg.qr_triangle(np.asfortranarray(rng.normal(size=(9, 3))))
    lstsq(rng.normal(size=(80, 3)), rng.normal(size=80))


def test_svd_binds_the_bundled_openblas(monkeypatch):
    # a silent fallback to np.linalg.svd would hide a lost in-place path
    if not bundles_openblas():
        pytest.skip("numpy bundles no OpenBLAS")
    assert linalg._routine("scipy_dgesdd_64_") is not None

    def no_numpy_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_numpy_svd)
    rng = np.random.default_rng(25)
    lstsq(rng.normal(size=(40, 6)), rng.normal(size=40))
    lstsq(rng.normal(size=(4, 6)), rng.normal(size=4))
    pseudoinverse(rng.normal(size=(5, 5)))


def test_qr_triangle_overwrites_only_what_it_may():
    rng = np.random.default_rng(24)
    a = rng.normal(size=(30, 4))
    frozen = np.asfortranarray(a)
    frozen.flags.writeable = False
    for bad in (a.copy(), frozen, np.asfortranarray(a, dtype=np.float32),
                a[:, 0].copy(), np.asfortranarray(a)[::2]):
        before = bad.copy()
        with pytest.raises(InvalidInputError):
            linalg.qr_triangle(bad)
        assert np.array_equal(bad, before)
    buf = np.asfortranarray(a)
    linalg.qr_triangle(buf)
    assert not np.array_equal(buf, a)


def set_info(address: int, value: int) -> None:
    """Write a LAPACK info argument, an int64 passed by address."""
    ctypes.c_int64.from_address(address).value = value


def test_qr_triangle_info_is_a_numeric_failure(monkeypatch):
    def geqrf(*args):
        set_info(args[-1], -4)

    stub_routines(monkeypatch, scipy_dgeqrf_64_=geqrf)
    with pytest.raises(NumericFailureError, match="info -4"):
        linalg.qr_triangle(np.ones((5, 2), order="F"))


@pytest.mark.parametrize("info, on_call", [(-5, 1), (3, 2)])
def test_svd_info_is_a_numeric_failure(monkeypatch, info, on_call):
    # an illegal argument found by the workspace query, and a bidiagonal
    # QR that does not converge in the call itself
    calls = []

    def gesdd(*args):
        calls.append(args[0])
        if len(calls) == on_call:
            set_info(args[13], info)
        else:
            ctypes.c_double.from_address(args[10]).value = 64.0

    stub_routines(monkeypatch, scipy_dgesdd_64_=gesdd)
    for solve in (lambda: lstsq(np.eye(4), np.ones((4, 1))),
                  lambda: pseudoinverse(np.eye(4))):
        calls.clear()
        with pytest.raises(NumericFailureError, match=f"dgesdd info {info}"):
            solve()
        assert calls == [b"S"] * on_call


def test_workspace_query_is_made_on_every_call(monkeypatch):
    # as numpy queries it: a query, then the call, for each routine each time
    if not bundles_openblas():
        pytest.skip("numpy bundles no OpenBLAS")
    seen = []

    def recording(name):
        real = linalg._routine(name)
        return lambda *args: seen.append(name) or real(*args)

    qr, svd = "scipy_dgeqrf_64_", "scipy_dgesdd_64_"
    stub_routines(monkeypatch, **{name: recording(name) for name in (qr, svd)})
    rng = np.random.default_rng(26)
    a = rng.normal(size=(30, 4))
    first = lstsq(a, np.ones(30))
    assert seen == [qr] * 2 + [svd] * 2
    assert lstsq(a, np.ones(30)).tobytes() == first.tobytes()
    assert seen == ([qr] * 2 + [svd] * 2) * 2


def test_workspace_sizes_survive_concurrent_solves():
    # more threads than cores, switching often, on mixed shapes: a
    # workspace sized for another shape would move a solve's bits
    rng = np.random.default_rng(29)
    problems = [(rng.normal(size=(rows, cols)), rng.normal(size=rows))
                for rows, cols in [(40, 6), (6, 40), (30, 30), (90, 2), (1, 1)]]
    want = [lstsq(a, t).tobytes() for a, t in problems]
    interval = sys.getswitchinterval()
    seen: list = []

    def user(offset):
        for k in range(50):
            a, t = problems[(offset + k) % len(problems)]
            seen.append(((offset + k) % len(problems), lstsq(a, t).tobytes()))

    try:
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=user, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 400
    assert all(got == want[k] for k, got in seen)


# The lookups of the bundled library that are made once per process.
CACHED_LOOKUPS = ("_openblas", "_routine")


def test_no_rtld_noload_means_no_binding(monkeypatch, row_blocking):
    # where os has no RTLD_NOLOAD, as on Windows, the library cannot be
    # looked up without loading it: no binding, and numpy's qr and svd run,
    # which give the bytes of the bound dgeqrf and dgesdd. At min_rows 8 the
    # 80x3 solve is 4 blocks, whose folds are numpy's QR there; the bound
    # path folds them so too once dtpqrt is stubbed out, as dtpqrt's folds
    # have other bits
    rng = np.random.default_rng(31)
    a, t = rng.normal(size=(40, 6)), rng.normal(size=40)
    x = rng.uniform(size=(50, 2))
    layer = HiddenLayer(rng.normal(scale=3.0, size=(2, 7)), rng.normal(size=7))
    row_blocking(min_rows=8)
    tall = rng.normal(size=(80, 3)), rng.normal(size=80)
    assert [len(linalg.row_blocks(*shape)) for shape in ((40, 6), (50, 7), (80, 3))] == [1, 1, 4]

    def solves():
        return [lstsq(a, t).tobytes(), lstsq(a[:4], t[:4]).tobytes(),
                solve_readout(layer, x, x[:, 0]).tobytes(), lstsq(*tall).tobytes()]

    def clear():
        for name in CACHED_LOOKUPS:
            getattr(linalg, name).cache_clear()

    with monkeypatch.context() as patch:
        stub_routines(patch, scipy_dtpqrt_64_=None)
        bound = solves()
    try:
        monkeypatch.delattr(os, "RTLD_NOLOAD", raising=False)
        clear()
        assert linalg._openblas() is None
        assert [linalg._routine(name) for name in linalg._ROUTINES] == [None] * 6
        assert solves() == bound
    finally:
        monkeypatch.undo()
        clear()


def test_single_thread_blas_survives_concurrent_users():
    # more users than cores, switching threads often: a lost update of the
    # shared user count would leave BLAS pinned or unpin it inside a body
    get, set_ = blas_threads()
    saved = get()
    interval = sys.getswitchinterval()
    seen: list = []

    def user():
        for _ in range(200):
            with single_thread_blas():
                seen.append(get())

    try:
        set_(2)
        sys.setswitchinterval(1e-6)
        users = [threading.Thread(target=user) for _ in range(8)]
        for t in users:
            t.start()
        for t in users:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in users)
        assert seen == [1] * 1600
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        set_(saved)


def test_cli_import_and_pinning_load_no_scipy():
    # resolving numpy's dgeqrf, dgesdd and thread control for the in-place
    # QR and SVD and the pinning loads no library, scipy's OpenBLAS copy
    # least of all
    probe = """
import ctypes, glob, importlib.util, os, sys
import numpy as np
import randnet.experiment.cli
from randnet import linalg

def loaded():
    found = set()
    for package in ("numpy", "scipy"):
        spec = importlib.util.find_spec(package)
        site = os.path.dirname(os.path.dirname(spec.origin)) if spec and spec.origin else ""
        for path in glob.glob(os.path.join(site, package + ".libs", "*")):
            try:
                ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:
                continue
            found.add(path)
    return found

before = loaded()
with linalg.single_thread_blas():
    pass
bundled = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas64_*"))
unresolved = [name for name in linalg._ROUTINES if linalg._routine(name) is None]
if bundled and unresolved:
    sys.exit(f"unresolved: {unresolved}")
linalg.qr_triangle(np.ones((3, 2), order="F"))
linalg.pseudoinverse(np.ones((3, 2)))
assert "scipy" not in sys.modules, "scipy was imported"
after = loaded()
if after != before or any("scipy.libs" in path for path in after):
    sys.exit(f"loaded {sorted(after - before)}, of which scipy's "
             f"{sorted(path for path in after if 'scipy.libs' in path)}")
"""
    src = os.path.dirname(os.path.dirname(randnet.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr

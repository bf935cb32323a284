"""Shared fixtures. Sampled problems are session-scoped because building the
full-size 1-D demo (5000 train + 5000 test points) is the slowest setup step.

The autouse ``malloc_record`` fixture restores ``linalg``'s record of a
pinned mmap threshold after each test: an in-process CLI run pins it, which
would switch the one-block solves of later tests to the cut. A test that
needs the cut sets the record itself.

The ``row_blocking`` fixture pins the row-block threshold, the block cap and
the core count that worker maps and block budgets come from, so tests of the
blocked readout and the worker maps run the same blocks, pools and processes
on a 1-core machine as on a many-core one.

``stub_routines`` stands in for routines of numpy's bundled OpenBLAS, so a
test can reach each numpy fallback or fake a routine's info, and
``blas_threads`` hands a test that library's thread-count getter and setter.

Acceptance tests append one verdict line per criterion to ACCEPTANCE_LINES;
the terminal-summary hook reprints them after the run so they stay visible
even though pytest captures stdout of passing tests.
"""

import glob
import os

import numpy as np
import pytest

from randnet import linalg
from randnet.benchfn import demo_problem_1d

ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def demo_small():
    """1-D demo function shrunk to 400/200 samples for fast tests."""
    return demo_problem_1d(7, train_size=400, test_size=200)


@pytest.fixture(scope="session")
def demo_full():
    """1-D demo at the reference size (5000 train, 5000 test)."""
    return demo_problem_1d(7)


@pytest.fixture(autouse=True)
def malloc_record(monkeypatch):
    """Restore ``linalg._mmap_pinned`` after the test."""
    monkeypatch.setattr(linalg, "_mmap_pinned", linalg._mmap_pinned)


@pytest.fixture
def row_blocking(monkeypatch):
    """``row_blocking(min_rows=..., block_bytes=..., cores=...)`` sets the
    row-block threshold ``linalg._MIN_BLOCK_ROWS``, so that small shapes
    split into several blocks; the block cap ``linalg._BLOCK_BYTES``, so
    that small split shapes are halved by it; and the ``linalg.core_count``
    that the worker maps divide among their workers: each unit's block
    budget is ``cores // workers``. Each is set only when given, and all are
    restored after the test."""

    def configure(*, min_rows: int | None = None, block_bytes: int | None = None,
                  cores: int | None = None) -> None:
        if min_rows is not None:
            monkeypatch.setattr(linalg, "_MIN_BLOCK_ROWS", min_rows)
        if block_bytes is not None:
            monkeypatch.setattr(linalg, "_BLOCK_BYTES", block_bytes)
        if cores is not None:
            monkeypatch.setattr(linalg, "core_count", lambda: cores)

    return configure


def bundles_openblas() -> bool:
    """Whether numpy bundles OpenBLAS, whose routines ``linalg`` binds."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    return bool(glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas64_*")))


def stub_routines(monkeypatch, **stubs) -> None:
    """Have ``linalg._routine`` return ``stubs[name]`` for each symbol name
    given, None standing for one the library does not export, and what it
    returned before for any other name, until ``monkeypatch`` is undone."""
    lookup = linalg._routine
    monkeypatch.setattr(linalg, "_routine",
                        lambda name: stubs[name] if name in stubs else lookup(name))


def blas_threads():
    """``(get, set)``: the thread-count getter and setter of numpy's bundled
    OpenBLAS. The test is skipped where numpy bundles none."""
    if not bundles_openblas():
        pytest.skip("numpy bundles no OpenBLAS")
    return (linalg._routine("scipy_openblas_get_num_threads64_"),
            linalg._routine("scipy_openblas_set_num_threads64_"))

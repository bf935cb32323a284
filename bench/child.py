"""Run one randnet CLI command in this fresh process and record its marks.

    python3 bench/child.py MARKS.json [--setup-only] [--trace] -- CLI ARGS...

MARKS.json receives the monotonic time at which set-up ended, which is the
first call of ``randnet.generate_hidden_layer`` (the first fit starts
there), the OpenBLAS thread counts as the command left them, and with
``--trace`` the recorded spans. With ``--setup-only`` the process exits at
that first call. The exit code is the command's own.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

# Thread-count getters of the OpenBLAS builds bundled in numpy and scipy wheels.
_GET_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads")


class _SetupDone(BaseException):
    """Unwinds the command after set-up; not an Exception, so no handler in
    the CLI catches it."""


def blas_threads() -> dict:
    """Read, never set, each bundled OpenBLAS's thread count."""
    counts = {}
    for package in ("numpy", "scipy"):
        module = sys.modules.get(package)
        if module is None:
            continue
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), package + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in _GET_THREADS:
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                    counts[f"{package}/{os.path.basename(path)}"] = getter()
                    break
    return counts


def main(argv: list[str]) -> int:
    split = argv.index("--")
    marks_path, flags, cli_args = argv[0], set(argv[1:split]), argv[split + 1:]

    import randnet
    from randnet.experiment import cli
    from tracer import Tracer, rebind  # bench/ is sys.path[0] for this script

    marks: dict = {}
    generate = randnet.generate_hidden_layer

    def marked_generate(*args, **kwargs):
        marks.setdefault("setup_end", time.monotonic())
        if "--setup-only" in flags:
            raise _SetupDone  # on every worker thread, so none goes on to fit
        return generate(*args, **kwargs)

    rebind(generate, marked_generate)
    tracer = None
    if "--trace" in flags:
        tracer = Tracer()
        marks["not_traced"] = tracer.install()
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    marks["blas_threads"] = blas_threads()
    if tracer is not None:
        marks["spans"] = tracer.spans
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

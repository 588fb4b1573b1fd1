"""Shared test fixtures."""

import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


@pytest.fixture
def run_python():
    """Run ``python ARGS`` in a child process on this checkout's sources,
    with the test helpers (``closure``) importable too.

    ``threads`` pins the BLAS thread count (OpenBLAS, OpenMP and MKL),
    which sets the BLAS's summation order; ``env`` adds variables.
    Returns the completed process, with text output captured.
    """

    def run(*args, threads=None, timeout=120, **env):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]),
                   **env)
        if threads is not None:
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS"):
                env[name] = str(threads)
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True,
                              timeout=timeout)

    return run

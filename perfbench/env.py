"""Process set-up shared by the benchmark, its set-up probes and its self-test.

pin_threads() must run before numpy is imported: OpenBLAS reads its thread
count once, when the library loads.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Every variable that can change how many threads a measured call uses.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RIEMCOND_THREADS")

# Every benchmark time is CPU time of the benchmark's own process: the loop is
# single-threaded and CPU-bound, and CPU time leaves out the time the CPU was
# taken away from it, which on a shared machine moves wall-clock figures by
# tens of percent between runs.
CLOCK = time.process_time_ns

_inherited = {}


def pin_threads() -> None:
    """Force one BLAS thread and serial riemcond grids, remembering the shell's values."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in THREAD_VARS:
        _inherited.setdefault(var, os.environ.get(var))
        os.environ[var] = "1"


def load_riemcond():
    """Import riemcond from this checkout's src/, never from an installed copy.

    Raises ImportError when src/riemcond is missing or another copy wins.
    """
    src = ROOT / "src"
    if not (src / "riemcond" / "__init__.py").is_file():
        raise ImportError(f"no riemcond package under {src}")
    sys.path.insert(0, str(src))
    import riemcond

    if Path(riemcond.__file__).resolve().parent != (src / "riemcond").resolve():
        raise ImportError(f"riemcond was imported from {riemcond.__file__}, not {src}")
    return riemcond


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in path.lower() and ".so" in path:
                    paths.add(path)
    except OSError:
        return {}
    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[Path(path).name] = fn()
                break
    return found


def describe() -> dict:
    """The run environment recorded next to every result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_commit": _git_commit(),
        "cpu_model": _cpu_model(),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _blas_threads(),
        },
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "thread_env_inherited": dict(_inherited),
    }

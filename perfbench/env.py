"""Process set-up shared by the benchmark scripts: BLAS threads, library path, provenance.

Nothing here imports numpy at module level, so ``pin_blas_threads`` can run
before the first numpy import fixes the BLAS thread count.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: every workload is a closed loop of single-process trials,
# and a second thread would only contend with the interpreter on two cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Force single-threaded BLAS; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_library() -> None:
    """Import localagg from this checkout's ``src/``, never from elsewhere.

    Exits with status 2 when the checkout carries no library source, so a
    directory holding only the benchmark fails instead of measuring nothing.
    """
    if not (SRC / "localagg" / "__init__.py").is_file():
        print(f"error: no localagg sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import localagg

    if Path(localagg.__file__).resolve().parent != SRC / "localagg":
        print(f"error: localagg was imported from {localagg.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly; "unknown" outside git."""
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
    return "unknown"


def describe() -> dict:
    """Versions, BLAS and machine facts recorded next to every result."""
    import numpy as np
    import scipy
    import localagg

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "cpu": _cpu_model(),
        "localagg": localagg.__version__,
        "commit": _git_commit(),
    }

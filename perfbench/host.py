"""Host fingerprint, source identity, memory and process/thread hygiene.

Numbers measured on different hosts are not comparable, so every record
carries a fingerprint of what decides the speed of this program: core
count, Python, numpy/scipy, the BLAS build and its thread setting.
Records whose fingerprint ids differ are never compared (see
``compare.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import threading
from pathlib import Path
from typing import Optional

#: Environment variables that set the BLAS thread count when present.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def fingerprint() -> dict:
    """What makes two measurements comparable (everything but the code)."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {
            name: os.environ[name] for name in BLAS_THREAD_VARIABLES if name in os.environ
        }
        or "default",
    }


def fingerprint_id(print_: dict) -> str:
    """Short stable digest of a fingerprint."""
    canonical = json.dumps(print_, sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()[:12]


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git.

    ``None`` when ``root`` is not a git checkout (the source digest still
    identifies the code).
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """Digest of every ``.py`` file under ``src`` (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1.0 / (1024 * 1024) if sys.platform == "darwin" else 1.0 / 1024
    return (own + children) * scale


def live_children() -> bool:
    """Whether this process still has a child process (running or unreaped).

    An unreaped child is reaped by the check and still reported.
    """
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def check_hygiene(thread_baseline: int) -> None:
    """Raise when a workload left child processes or extra threads behind."""
    problems = []
    if live_children():
        problems.append("a child process is still alive or unreaped")
    threads = threading.enumerate()
    if len(threads) > thread_baseline:
        names = sorted(thread.name for thread in threads)
        problems.append(f"{len(threads) - thread_baseline} extra thread(s): {names}")
    if problems:
        raise RuntimeError("workload teardown leaked: " + "; ".join(problems))

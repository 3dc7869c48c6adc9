"""The machine context recorded with every benchmark run."""

from __future__ import annotations

import importlib.util
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# One BLAS thread: epicast's matrices are small (16 hidden channels), and on
# 2 CPUs a second thread made the 64-region step slower (316 vs 362 ms).
BLAS_THREADS = 1


def limit_blas_threads() -> int:
    """Pin the BLAS thread count; call before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def pin_to_one_cpu() -> tuple[int, int]:
    """Run this process, and the processes it starts, on one CPU.

    The speed reference (``speed.py``) then measures the CPU the operations
    and the fresh processes run on.  Returns the CPU and how many there were.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return min(cpus), len(cpus)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit(root: Path) -> str:
    """HEAD's commit read from the .git directory; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _kernel_backend() -> str:
    from epicast import kernels

    try:
        return kernels.active().name
    except AttributeError:  # no backend switch any more
        return "unknown"


def context(root: Path, blas_threads: int, cpu: int, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    caches = _cache_sizes()
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads,
        "kernel_backend": _kernel_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(root),
    }

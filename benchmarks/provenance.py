"""Thread-cap check and the provenance recorded with every result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

CPU_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq", "avx512vl", "avx512_vnni")


def thread_count() -> int:
    """Threads of this process, from /proc/self/task."""
    return len(os.listdir("/proc/self/task"))


def check_thread_cap(expected: int = 1) -> int:
    """Run a warm-up matmul (which starts any BLAS worker pool), then require
    exactly ``expected`` threads in the process."""
    import numpy as np

    a = np.ones((256, 256))
    float((a @ a).sum())
    found = thread_count()
    if found != expected:
        raise RuntimeError(f"thread cap not in effect: {found} threads, expected {expected}")
    return found


def _git_sha(root: Path) -> str:
    git = root / ".git"
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


def _cpu() -> tuple[str, list[str]]:
    model, flags = None, []
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model is None:
                    model = value.strip()
                elif key.strip() == "flags":
                    flags = [f for f in CPU_FLAGS if f in value.split()]
                    break
    except OSError:
        pass
    return model or platform.processor() or "unknown", flags


def provenance(root: Path, threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    model, flags = _cpu()
    return {"git_sha": _git_sha(root), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "cpu_model": model, "cpu_flags": flags,
            "logical_cpus": os.cpu_count(), "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}

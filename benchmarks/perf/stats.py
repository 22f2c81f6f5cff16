"""Percentile rules, peak-RSS reading and the environment fingerprint."""

from __future__ import annotations

import os
from pathlib import Path
import platform
from typing import Dict, Optional, Sequence

import numpy as np

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    return float(np.median(np.asarray(samples, dtype=np.float64)))


def tail_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when fewer than ten samples lie beyond it."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size * (100.0 - q) / 100.0 < MIN_BEYOND:
        return None
    return float(np.percentile(values, q))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of ``pid`` (default: this process) in MiB."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in status.read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM"):
            return float(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


def environment() -> Dict[str, object]:
    """What a reader needs to judge whether two result files are comparable."""
    import scipy

    try:
        from repro.core.backends import available_backends
    except ImportError:  # the path matrix collapsed (ROADMAP item 3)
        available_backends = lambda: ()  # noqa: E731

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "available_backends": list(available_backends()),
        "commit": _commit(),
        "threads_env": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def _commit() -> str:
    """HEAD's hash read straight from ``.git`` (absent in an exported checkout)."""
    git = Path(__file__).resolve().parents[2] / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="ascii").strip()
        return head
    except OSError:
        return "unknown"

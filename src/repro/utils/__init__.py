"""Shared utilities: sparse helpers, timers, RNG plumbing."""

from .rng import ensure_rng
from .sparsetools import dense_top_k
from .timer import LatencyStats, StageTimer, Timer

__all__ = [
    "ensure_rng",
    "dense_top_k",
    "LatencyStats",
    "StageTimer",
    "Timer",
]

"""Reusable scratch-array pools for the hot numeric paths.

The blocked BCA engine and the columnar scan both cycle through the same
dense work arrays thousands of times per build or query workload; allocating
them per pass makes the allocator — not the arithmetic — the bottleneck.
:class:`ArrayWorkspace` is a tiny name-keyed pool that hands out preallocated
arrays and grows them monotonically, so steady-state passes allocate nothing.

Thread safety: the pool is **thread-local** — every thread that calls
:meth:`ArrayWorkspace.take` sees its own private arrays, so one workspace
object may safely be shared by an engine that serves concurrent read-only
queries from a thread pool.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

import numpy as np


class ArrayWorkspace:
    """Name-keyed pool of reusable numpy scratch arrays (thread-local).

    :meth:`take` returns an **uninitialised** array of exactly the requested
    shape, carved out of a flat buffer that only grows; :meth:`zeros` returns
    the same array cleared.  Callers must treat a taken array as garbage
    until they have written it — reused buffers may contain arbitrary bits
    (including inf/nan patterns) from earlier passes.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._stats_lock = threading.Lock()
        self._all_stats: list = []

    def __getstate__(self):
        # Scratch contents are disposable and thread-local storage is not
        # picklable: a copied workspace starts empty.
        return {}

    def __setstate__(self, state):
        self.__init__()

    def _pool(self) -> Dict[Tuple[str, str], np.ndarray]:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = {}
            self._local.pool = pool
            # Per-thread reuse counters, mutated lock-free on the hot path
            # (each dict belongs to exactly one thread) and aggregated
            # under the lock by stats().
            counters = {"hits": 0, "misses": 0, "grown_bytes": 0}
            self._local.stats = counters
            with self._stats_lock:
                self._all_stats.append(counters)
        return pool

    def take(
        self, name: str, shape: Tuple[int, ...] | int, dtype=np.float64
    ) -> np.ndarray:
        """Return an uninitialised C-contiguous array of ``shape`` (reused)."""
        if isinstance(shape, int):
            shape = (shape,)
        dtype = np.dtype(dtype)
        size = 1
        for extent in shape:
            size *= int(extent)
        pool = self._pool()
        key = (name, dtype.str)
        buffer = pool.get(key)
        if buffer is None or buffer.size < size:
            buffer = np.empty(max(size, 1), dtype=dtype)
            pool[key] = buffer
            stats = self._local.stats
            stats["misses"] += 1
            stats["grown_bytes"] += buffer.nbytes
        else:
            self._local.stats["hits"] += 1
        return buffer[:size].reshape(shape)

    def zeros(
        self, name: str, shape: Tuple[int, ...] | int, dtype=np.float64
    ) -> np.ndarray:
        """Like :meth:`take`, but cleared to zero (``False`` for bool)."""
        array = self.take(name, shape, dtype)
        array.fill(0)
        return array

    def clean(
        self, name: str, shape: Tuple[int, ...] | int, dtype=np.float64
    ) -> np.ndarray:
        """Like :meth:`zeros`, but trusts the last borrower to have re-zeroed it.

        Only a freshly (re)allocated buffer is cleared, so a sparse user of a
        long vector pays for the entries it touches, not for the length.  The
        contract is the caller's: hand the array back all-zero.
        """
        key = (name, np.dtype(dtype).str)
        before = self._pool().get(key)
        array = self.take(name, shape, dtype)
        backing = self._pool()[key]
        if backing is not before:
            backing.fill(0)
        return array

    def arange(self, name: str, size: int) -> np.ndarray:
        """Return ``[0, 1, ..., size - 1]`` as int64 without reallocating.

        The backing buffer is filled with its full ``arange`` once at
        (re)allocation time, so any prefix slice is already correct.
        """
        pool = self._pool()
        key = (name, "<arange>")
        buffer = pool.get(key)
        if buffer is None or buffer.size < size:
            buffer = np.arange(max(size, 1), dtype=np.int64)
            pool[key] = buffer
            stats = self._local.stats
            stats["misses"] += 1
            stats["grown_bytes"] += buffer.nbytes
        else:
            self._local.stats["hits"] += 1
        return buffer[:size]

    def stats(self) -> Dict[str, int]:
        """Aggregate reuse counters across every thread that used the pool.

        ``hits`` are requests served from an existing (large enough) buffer,
        ``misses`` are (re)allocations, ``grown_bytes`` the total bytes ever
        allocated.  The profiler reports these as workspace reuse hit rates.
        """
        totals = {"hits": 0, "misses": 0, "grown_bytes": 0}
        with self._stats_lock:
            for counters in self._all_stats:
                for field in totals:
                    totals[field] += counters[field]
        return totals

"""Repo-specific registries the checkers run against.

This file is the contract between the codebase and ``reprolint``: every
entry encodes an invariant documented in CHANGES.md/README.  **When you add
a field guarded by a lock, a new lock, a memmap-backed array, or an
unpicklable resource, register it here** (CONTRIBUTING.md says the same).
Checkers never hardcode project names — they read these tables — so the
fixture tests can run the same checkers against synthetic registries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

# --------------------------------------------------------------------- #
# lock identification (RL001 + RL002)
# --------------------------------------------------------------------- #

#: Call symbols whose result is a mutual-exclusion primitive.  An attribute
#: assigned one of these in any method becomes a known lock of that class.
LOCK_FACTORY_SYMBOLS: FrozenSet[str] = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "asyncio.Lock",
    }
)

#: Repo classes that *are* locks: constructing one makes the attribute a
#: lock, and the class itself is exempt from RL005 (a lock cannot drop the
#: primitive it exists to wrap).
LOCK_CLASS_NAMES: FrozenSet[str] = frozenset({"_ReadWriteLock"})

#: Methods of the reader/writer lock; ``with self._index_lock.read():``
#: counts as holding the lock in shared mode, ``.write()`` in exclusive.
RW_LOCK_METHODS: FrozenSet[str] = frozenset({"read", "write"})


@dataclass(frozen=True)
class Guard:
    """Declares which lock protects a guarded attribute.

    ``lock_attr`` names the lock attribute **on the same base object** as
    the guarded attribute: ``other._samples`` requires ``other._lock``, not
    ``self._lock``.  ``rw`` marks a reader/writer lock: reads are legal
    under ``.read()`` or ``.write()``, writes only under ``.write()``.
    """

    lock_attr: str
    rw: bool = False


#: (class name -> guarded attribute path -> guard).  Paths are dotted
#: attribute chains hanging off an instance: ``_samples`` matches
#: ``self._samples`` / ``other._samples``; ``engine.index.version`` matches
#: the whole chain.  Derived from the locking contracts in
#: serving/service.py, serving/cache.py, utils/timer.py, obs/slowlog.py,
#: and dynamic/service.py.
GUARDED_BY: Dict[str, Dict[str, Guard]] = {
    "ReverseTopKService": {
        "_n_requests": Guard("_lock"),
        "_n_cache_hits": Guard("_lock"),
        "_n_deduplicated": Guard("_lock"),
        "_n_engine_queries": Guard("_lock"),
        "_n_batches": Guard("_lock"),
        "_n_refinements": Guard("_lock"),
        "_serve_seconds": Guard("_lock"),
        "_worker_seconds": Guard("_lock"),
        # The columnar views the engine scans are rewritten in place by
        # refine()/apply_updates(); reading the version (the cache key!)
        # outside the index lock can pair a stale version with fresh
        # columns — the exact torn-read the serving layer exists to stop.
        "engine.index.version": Guard("_index_lock", rw=True),
    },
    "DynamicReverseTopKService": {
        "_n_update_batches": Guard("_update_lock"),
        "_n_updates": Guard("_update_lock"),
        "_n_noop_batches": Guard("_update_lock"),
        "_n_invalidated": Guard("_update_lock"),
        "_n_rematerialized": Guard("_update_lock"),
        "_n_full_rebuilds": Guard("_update_lock"),
        "_update_seconds": Guard("_update_lock"),
        "engine.index.version": Guard("_index_lock", rw=True),
    },
    "LatencyStats": {
        "_samples": Guard("_lock"),
        "_sorted": Guard("_lock"),
    },
    "ResultCache": {
        "_entries": Guard("_lock"),
        "_hits": Guard("_lock"),
        "_misses": Guard("_lock"),
        "_insertions": Guard("_lock"),
        "_evictions": Guard("_lock"),
        "_purged": Guard("_lock"),
    },
    "SlowQueryLog": {
        "_entries": Guard("_lock"),
        "_n_recorded": Guard("_lock"),
        "_n_evicted": Guard("_lock"),
    },
}

#: Methods where guarded-attribute access is legal without the lock: object
#: construction and pickling run single-threaded by contract.
GUARD_EXEMPT_METHODS: FrozenSet[str] = frozenset(
    {"__init__", "__new__", "__getstate__", "__setstate__", "__del__"}
)

# --------------------------------------------------------------------- #
# RL003 — memmap immutability
# --------------------------------------------------------------------- #

#: Call symbols producing a memory-mapped (or possibly memory-mapped) array.
MEMMAP_PRODUCER_SYMBOLS: FrozenSet[str] = frozenset(
    {"numpy.memmap", "numpy.lib.format.open_memmap"}
)

#: ``numpy.load`` only maps when ``mmap_mode=`` is passed non-None; the
#: checker special-cases it.
NUMPY_LOAD_SYMBOLS: FrozenSet[str] = frozenset({"numpy.load"})

#: ndarray methods that mutate in place.
MUTATING_ARRAY_METHODS: FrozenSet[str] = frozenset(
    {"sort", "fill", "put", "itemset", "resize", "partition", "setflags", "byteswap"}
)

#: Free functions that mutate their first argument in place.
MUTATING_FIRST_ARG_SYMBOLS: FrozenSet[str] = frozenset(
    {"numpy.copyto", "numpy.place", "numpy.putmask", "numpy.put"}
)

#: Functions allowed to write through possibly-memmapped attributes because
#: a copy-on-write promotion provably precedes the write.  The only entry:
#: IndexShard.set_state calls _promote_columns() (which replaces the mapped
#: arrays with private writable copies) before every _write_column().
MEMMAP_COW_ALLOWED: FrozenSet[str] = frozenset(
    {"repro.core.sharding.IndexShard._write_column"}
)

#: Extra attributes known to hold memmap-backed arrays (or containers of
#: them) that local dataflow cannot see — e.g. dicts whose *values* are
#: memmaps.  (class name, attribute name) pairs.
MEMMAP_TAINTED_ATTRS: FrozenSet[Tuple[str, str]] = frozenset(
    {("ColumnarStateStore", "arrays"), ("ColumnarStateStore", "lower")}
)

# --------------------------------------------------------------------- #
# RL004 — asyncio blocking
# --------------------------------------------------------------------- #

#: Only modules under this prefix have event-loop-confined coroutines.
ASYNC_SCOPE_PREFIX = "repro.net"

#: Fully-resolved call symbols that block the calling thread.
BLOCKING_CALL_SYMBOLS: FrozenSet[str] = frozenset(
    {
        "time.sleep",
        "open",
        "pickle.dumps",
        "pickle.loads",
        "pickle.dump",
        "pickle.load",
        "numpy.load",
        "numpy.save",
        "subprocess.run",
        "subprocess.check_output",
        "socket.create_connection",
    }
)

#: Method *names* that denote blocking operations on the serving stack
#: (engine scans, index maintenance, lock/pool teardown).  Matched on the
#: attribute name of a plain (non-awaited) call inside an ``async def``.
BLOCKING_METHOD_NAMES: FrozenSet[str] = frozenset(
    {
        "serve",
        "serve_workload",
        "query_many",
        "query_many_readonly",
        "refine",
        "apply_updates",
        "build",
        "build_index",
        "build_or_load",
        "acquire",
        "shutdown",
        "close",
        "join",
        "result",
        "materialize",
    }
)

#: Base-object name suffixes whose ``close()``/``join()`` are asyncio-native
#: and non-blocking: stream writers, asyncio servers, transports.  The last
#: dotted component of the rendered base symbol is matched.
ASYNC_SAFE_BASES: FrozenSet[str] = frozenset(
    {"writer", "_server", "server", "transport", "sock", "task"}
)

#: Method names from BLOCKING_METHOD_NAMES that are *fine* when awaited —
#: i.e. when the attribute call is itself an async def somewhere.  Any call
#: directly wrapped in ``await`` is skipped, so this needs no entries; kept
#: for documentation of the mechanism.
AWAITABLE_OK: FrozenSet[str] = frozenset()

# --------------------------------------------------------------------- #
# RL005 — pickle safety
# --------------------------------------------------------------------- #

#: Factory symbols whose product cannot cross a pickle boundary.  Matched
#: against the resolved symbol of ``self.X = factory(...)``.
UNPICKLABLE_FACTORY_SYMBOLS: FrozenSet[str] = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.local",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
    }
)

#: Repo classes whose instances are unpicklable resources (wrap locks or
#: pools); holding one requires dropping it in ``__getstate__``.  Simple
#: class names, resolved through imports.
UNPICKLABLE_CLASS_NAMES: FrozenSet[str] = frozenset(
    {"_ReadWriteLock", "KernelWorkspace", "ThreadPoolExecutor", "ProcessPoolExecutor"}
)

#: Classes exempt from RL005 because they *are* the primitive (a lock class
#: cannot drop its own condition variable).
PICKLE_EXEMPT_CLASSES: FrozenSet[str] = LOCK_CLASS_NAMES

"""Clean counterpart of ``rl005_conditional_violation.py``: the same
classes, each with a ``__getstate__`` that drops the resource.  Parsed by
the checker tests, never imported.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional


class Service:
    """``x if x is not None else Factory()`` and ``x or Factory()``."""

    def __init__(self, lock=None, pool=None):
        self._lock = lock if lock is not None else threading.Lock()
        self._pool = pool or ThreadPoolExecutor(max_workers=2)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_lock"] = None
        state["_pool"] = None
        return state


class Annotated:
    """An annotated assignment with a conditional value."""

    def __init__(self, lock=None):
        self._lock: Optional[threading.Lock] = lock or threading.Lock()

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_lock"]
        return state

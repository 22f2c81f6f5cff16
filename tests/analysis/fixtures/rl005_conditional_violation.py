"""Seeded RL005 violations behind a conditional default: the resource is
created only when the caller passes none.  Parsed by the checker tests,
never imported.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional


class Service:
    """``x if x is not None else Factory()`` and ``x or Factory()``."""

    def __init__(self, lock=None, pool=None):
        self._lock = lock if lock is not None else threading.Lock()  # RL005
        self._pool = pool or ThreadPoolExecutor(max_workers=2)  # RL005


class Annotated:
    """An annotated assignment with a conditional value."""

    def __init__(self, lock=None):
        self._lock: Optional[threading.Lock] = lock or threading.Lock()  # RL005

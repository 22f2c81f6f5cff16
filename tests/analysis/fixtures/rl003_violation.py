"""Seeded RL003 violations: in-place mutation of memory-mapped arrays.

Parsed by the checker tests, never imported.
"""

import numpy as np


def patch_layout(path):
    arr = np.load(path, mmap_mode="r")
    arr[0] = 1.0  # RL003: subscript store into a mapped array
    arr += 2.0  # RL003: augmented assignment
    arr.sort()  # RL003: in-place ndarray method
    np.copyto(arr, 0.0)  # RL003: mutating free function
    np.add(arr, 1.0, out=arr)  # RL003: out= targets the mapping
    return arr


def patch_via_alias(path):
    raw = np.memmap(path, dtype="float32", mode="r")
    view = np.asarray(raw)  # zero-copy: taint flows through
    view[3] = 7.0  # RL003: still the mapped bytes
    return view


class ColumnarStateStore:
    """The registry says ``ColumnarStateStore.arrays`` holds memmaps."""

    def poke(self, count):
        self.arrays["residual"][:count] = 0.0  # RL003

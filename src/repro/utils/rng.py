"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts a ``seed`` argument that may
be ``None``, an integer, or an already-constructed :class:`numpy.random.Generator`.
Centralising the conversion keeps behaviour consistent and testable.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for non-deterministic behaviour, an integer for a fixed
        seed, a :class:`~numpy.random.SeedSequence`, or an existing
        :class:`~numpy.random.Generator` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

"""Algorithm 3 — staircase upper bound for the k-th largest proximity (§4.2.2).

Given a node ``u`` with a partially-computed proximity vector, the index knows

* ``lower`` — the top-``k`` retained-ink values of ``u`` in descending order
  (each a lower bound of the corresponding true proximity), and
* ``residual_mass`` — the total residue ink ``||r_u||_1`` not yet distributed.

In the most favourable case for ``u``, all residue lands on the current top-k
entries, raising the k-th value as much as possible.  Viewing the top-k values
as a staircase sitting in a container and "pouring" the residue into it, the
resulting water level is exactly the best attainable k-th value — a true upper
bound of ``p^{kmax}_u`` (Proposition 4), monotonically non-increasing as BCA
refines the vector.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from math import isfinite
from operator import mul, sub
from typing import Optional, Sequence

import numpy as np

from .._validation import check_non_negative_float, check_positive_int
from ..exceptions import InvalidParameterError
from ..utils.workspace import ArrayWorkspace


class BoundsWorkspace(ArrayWorkspace):
    """Reusable scratch planes for the batched staircase bound.

    :func:`kth_upper_bounds_batch` builds its staircase — step differences
    turned, in place, into the cumulative levels — in one ``(k + 1, m)``
    float64 plane on every call; a workspace lets the query engine reuse
    that storage across scan rounds instead of re-allocating it per query.
    Results are bit-identical either way.
    Thread-local like every :class:`~repro.utils.workspace.ArrayWorkspace`,
    so one instance may serve concurrent read-only queries.
    """


def staircase_levels(lower: np.ndarray, k: int) -> np.ndarray:
    """Return the cumulative ink amounts ``z_j`` of Eq. (17).

    ``z_j`` is the amount of residue required for the poured-ink level to
    reach the ``(k - j)``-th step of the staircase, for ``j = 0 .. k-1``.
    """
    lower = np.asarray(lower, dtype=np.float64)
    k = check_positive_int(k, "k")
    if lower.size < k:
        raise InvalidParameterError(
            f"need at least k={k} lower-bound entries, got {lower.size}"
        )
    top = lower[:k]
    steps = top[:-1] - top[1:]  # steps[i] = p̂(i+1) - p̂(i+2)
    if np.any(steps < -1e-12):
        raise InvalidParameterError("lower bounds must be sorted in descending order")
    levels = np.zeros(k, dtype=np.float64)
    # z_j = z_{j-1} + j * (p̂(k-j) - p̂(k-j+1)); cumsum accumulates left to
    # right, reproducing the recurrence term for term.
    np.cumsum(np.arange(1, k) * steps[::-1], out=levels[1:])
    return levels


def kth_upper_bound(lower: Sequence[float] | np.ndarray, residual_mass: float, k: int) -> float:
    """Upper bound ``ub_u`` of the k-th largest proximity of a node (Eq. 18).

    Parameters
    ----------
    lower:
        The node's top proximities (lower bounds) in **descending** order;
        at least ``k`` entries (use zeros to pad when fewer are known).
    residual_mass:
        Total undistributed ink ``||r_u||_1``.
    k:
        The query depth.

    Returns
    -------
    float
        An upper bound on the true k-th largest proximity value of the node.
        When ``residual_mass`` is zero the bound equals the k-th lower bound,
        i.e. the exact value.
    """
    residual_mass = check_non_negative_float(residual_mass, "residual_mass")
    k = check_positive_int(k, "k")
    lower = np.asarray(lower, dtype=np.float64)
    if lower.size < k:
        lower = np.pad(lower, (0, k - lower.size))
    top = lower[:k]

    if residual_mass == 0.0:
        return float(top[k - 1])

    levels = staircase_levels(top, k)
    # The step j with z_{j-1} < ||r||_1 <= z_j.  Levels never decrease, so j
    # is the number of levels below the mass (at least z_0 = 0, hence j >= 1)
    # — the batched bound's definition, which keeps the two bit-identical.
    j = int(np.searchsorted(levels, residual_mass, side="left"))
    if j < k:
        return float(top[k - j - 1] - (levels[j] - residual_mass) / j)
    # Residue exceeds z_{k-1}: the whole staircase is flooded.
    return float(top[0] + (residual_mass - levels[k - 1]) / k)


def kth_other_upper_bound(
    lower: np.ndarray,
    top: np.ndarray,
    query: int,
    residual_mass: float,
    known_gap: float,
    k: int,
) -> float:
    """Upper bound of the k-th largest proximity of ``u`` among nodes *other than* ``q``.

    For the exact ``p_u(q)``, the gap ``eps = p_u(q) - v̂_u[q] >= 0`` is
    residue *known* to end on ``q``:

    1. every node's gap is non-negative and all gaps sum to at most the mass
       ``m`` (hub rounding deficit included), so
       ``sum_{w != q} (p_u(w) - v̂_u[w]) <= m - eps``;
    2. pouring ``m - eps`` over the staircase of ``top-k(v̂_u \\ {q})`` bounds
       the k-th largest *other* proximity as Proposition 4 bounds the k-th
       largest overall with ``m``;
    3. ``q in top-k(u)`` iff at most ``k - 1`` others exceed ``p_u(q)``, i.e.
       iff that k-th other is ``<= p_u(q)``.

    Never looser than :func:`kth_upper_bound` (less mass, and ``q``'s own step
    leaves the staircase), and the only test that can decide ``u = q``.

    PMPN hands Algorithm 4 only an interval ``[lo, lo + w]`` of ``p_u(q)``
    (:class:`~repro.core.pmpn.PMPNState`).  The bound falls as ``known_gap``
    grows, by at most the growth (the level moves by at most the mass
    removed), so the engine passes the *lower* end: ``B = B(lo - v̂_u[q])``
    is valid for every ``p_u(q)`` in the interval.  Its accept test uses the
    lower end too (``lo >= B``), and it refines only when the *upper* end
    fails with room for the bound's own slack, ``lo + 2 w < B``.

    ``lower`` is the descending top-``K`` of ``v̂_u``, ``top`` the nodes holding
    those values.  Removing ``q``'s step pulls the ``(k+1)``-th value in; at
    ``k = K`` that value is unknown but at most ``lower[K-1]``, and the level
    is monotone in the step heights.

    It runs once per refinement round of a candidate, on a ``K``-entry
    array, so it works on short Python lists: numpy's per-call overhead would
    be most of its cost.  Every float is the one :func:`kth_upper_bound`
    computes on the same staircase.
    """
    k = check_positive_int(k, "k")
    values = np.asarray(lower, dtype=np.float64).tolist()
    head = np.asarray(top[:k]).tolist()
    if query in head:
        rank = head.index(query)
        # The unknown (K+1)-th value is at most the *original* last entry.
        values = values[:rank] + values[rank + 1 :] + values[-1:]
    # Both operands carry PMPN / accumulation rounding; clamp, never go negative.
    others_mass = max(residual_mass - max(known_gap, 0.0), 0.0)
    if not isfinite(others_mass):
        raise InvalidParameterError(
            f"residual_mass must be a non-negative finite number, got {others_mass!r}"
        )
    return _poured_level(values[:k], float(others_mass), k)


#: ``_below_tolerance(step)`` is ``step < -1e-12``, mapped in C over a list.
_below_tolerance = (-1e-12).__gt__


def _poured_level(top: list, residual_mass: float, k: int) -> float:
    """:func:`kth_upper_bound`'s pour on a list of at most ``k`` floats, float for float.

    The levels accumulate left to right as ``staircase_levels``' ``cumsum``
    does (``j * step`` is the same product as numpy's int-times-float), and
    ``bisect_left`` is the same binary search as
    ``np.searchsorted(..., side="left")``.
    """
    if len(top) < k:
        top = top + [0.0] * (k - len(top))
    if residual_mass == 0.0:
        return top[k - 1]
    steps = list(map(sub, top[:-1], top[1:]))  # steps[i] = p̂(i+1) - p̂(i+2)
    if any(map(_below_tolerance, steps)):
        raise InvalidParameterError("lower bounds must be sorted in descending order")
    # z_j = z_{j-1} + j * (p̂(k-j) - p̂(k-j+1)), j = 1 .. k-1.
    levels = [0.0, *accumulate(map(mul, range(1, k), reversed(steps)))]
    j = bisect_left(levels, residual_mass)
    if j < k:
        return top[k - j - 1] - (levels[j] - residual_mass) / j
    return top[0] + (residual_mass - levels[k - 1]) / k


def kth_upper_bounds_batch(
    lower: np.ndarray,
    residual_masses: np.ndarray,
    k: int,
    *,
    workspace: Optional[BoundsWorkspace] = None,
) -> np.ndarray:
    """Vectorized :func:`kth_upper_bound` across many nodes at once (Eq. 18).

    This is the batched staircase check of the vectorized query engine: one
    call bounds the k-th largest proximity of every scan survivor, replacing
    a per-node Python loop.  The arithmetic (sequential level accumulation,
    step search, pour formula) mirrors the scalar implementation exactly, so
    the returned bounds are bit-identical to calling :func:`kth_upper_bound`
    column by column.

    Parameters
    ----------
    lower:
        ``(K, m)`` array with one node per **column**: the top-``K`` lower
        bounds in descending order (``K >= k``; zero-padded tails are fine).
        Columns are assumed descending — pass index columns, not raw data.
    residual_masses:
        ``(m,)`` vector of effective residual masses ``||r_u||_1``.
    k:
        The query depth.
    workspace:
        Optional :class:`BoundsWorkspace` supplying the ``(k + 1, m)``
        staircase plane; without one every call allocates it afresh.  The
        computed bounds are bit-identical in both modes.

    Returns
    -------
    numpy.ndarray
        ``(m,)`` vector of upper bounds; entries with zero residual mass equal
        the k-th lower bound (the exact value).
    """
    k = check_positive_int(k, "k")
    lower = np.asarray(lower)
    masses = np.asarray(residual_masses, dtype=np.float64)
    if lower.ndim != 2 or lower.shape[0] < k:
        raise InvalidParameterError(
            f"need a (K >= {k}, m) column matrix of lower bounds, got shape {lower.shape}"
        )
    m = lower.shape[1]
    if masses.shape != (m,):
        raise InvalidParameterError(
            f"expected {m} residual masses, got shape {masses.shape}"
        )
    if m == 0:
        return np.zeros(0, dtype=np.float64)
    if masses.min() < 0.0:
        raise InvalidParameterError("residual masses must be non-negative")

    top = np.asarray(lower[:k], dtype=np.float64)
    # Rows 0..k-1 hold z_0..z_{k-1}; row k repeats z_{k-1}, which makes the
    # flooded pour ``p̂(1) + (m - z_{k-1}) / k`` the partial one at j = k
    # (``a - (b - m) / j`` and ``a + (m - b) / j`` are the same float: IEEE
    # subtraction and division are exact under negation).
    levels = (
        workspace.take("levels", (k + 1, m))
        if workspace is not None
        else np.empty((k + 1, m))
    )
    levels[0] = 0.0
    # z_j = z_{j-1} + j * (p̂(k-j) - p̂(k-j+1)), built in place in reversed
    # step order; cumsum accumulates sequentially, reproducing the scalar
    # staircase_levels recurrence term for term.
    steps = levels[1:k]
    np.subtract(top[-2::-1], top[:0:-1], out=steps)
    steps *= np.arange(1, k)[:, None]
    np.cumsum(steps, axis=0, out=steps)
    levels[k] = levels[k - 1]
    # Smallest j with z_{j-1} < ||r||_1 <= z_j; j == k means the staircase
    # floods.  A zero mass (j = 0) takes its exact value below; j >= 1 keeps
    # its throwaway pour finite.
    j = (levels[:k] < masses).sum(axis=0)
    np.maximum(j, 1, out=j)
    cols = np.arange(m)
    poured = top[np.maximum(k - 1 - j, 0), cols] - (levels[j, cols] - masses) / j
    return np.where(masses == 0.0, top[k - 1], poured)


def is_valid_upper_bound(upper: float, exact_kth: float, *, atol: float = 1e-9) -> bool:
    """Check ``upper >= exact_kth`` within tolerance (used by tests)."""
    return upper >= exact_kth - atol

"""Parameter dataclasses with the paper's default settings (Section 5.2).

The defaults mirror the experimental setup of the paper:

* restart probability ``alpha = 0.15``;
* index capacity ``K = 200`` (scaled down by callers for tiny graphs);
* propagation threshold ``eta = 1e-4``;
* residue threshold ``delta = 0.1``;
* hub rounding threshold ``omega = 1e-6``;
* convergence tolerance ``epsilon = 1e-10``.

Parameters say *what* is computed, never *how*: there is one propagation
kernel (:mod:`repro.core.propagation`) and one scan (:mod:`repro.core.query`),
so no field picks an implementation or sizes its working memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .._validation import (
    check_non_negative_float,
    check_positive_float,
    check_positive_int,
    check_probability,
)

@dataclass(frozen=True)
class IndexParams:
    """Parameters controlling offline index construction (Algorithm 1).

    Attributes
    ----------
    alpha:
        RWR restart probability.
    capacity:
        ``K`` — the largest ``k`` any future query may use; the index stores
        the top-``K`` lower bounds per node.
    propagation_threshold:
        ``eta`` — only nodes holding at least this much residue ink propagate
        in a batched BCA iteration.
    residue_threshold:
        ``delta`` — BCA from a node stops once its total residue drops to this.
    rounding_threshold:
        ``omega`` — hub proximity entries below this are zeroed (the space
        compression of §4.1.3).  ``0`` disables rounding.
    hub_budget:
        ``B`` — number of top in-degree and top out-degree nodes whose union
        forms the hub set.  ``0`` disables hubs entirely.
    tolerance:
        ``epsilon`` — convergence tolerance for the exact hub proximity
        vectors (and for PMPN at query time).
    max_index_iterations:
        Safety cap on batched BCA iterations per node.
    """

    alpha: float = 0.15
    capacity: int = 200
    propagation_threshold: float = 1e-4
    residue_threshold: float = 0.1
    rounding_threshold: float = 1e-6
    hub_budget: int = 50
    tolerance: float = 1e-10
    max_index_iterations: int = 10_000

    def __post_init__(self) -> None:
        check_probability(self.alpha, "alpha")
        check_positive_int(self.capacity, "capacity")
        check_positive_float(self.propagation_threshold, "propagation_threshold")
        check_positive_float(self.residue_threshold, "residue_threshold")
        check_non_negative_float(self.rounding_threshold, "rounding_threshold")
        if self.hub_budget < 0:
            raise ValueError("hub_budget must be non-negative")
        check_positive_float(self.tolerance, "tolerance")
        check_positive_int(self.max_index_iterations, "max_index_iterations")

    def for_graph(self, n_nodes: int) -> "IndexParams":
        """Clamp the capacity and hub budget to the graph size.

        Tiny test graphs cannot hold ``K = 200`` distinct proximities or 50
        hubs; this returns an adjusted copy so the defaults stay usable
        everywhere.
        """
        capacity = min(self.capacity, max(1, n_nodes))
        hub_budget = min(self.hub_budget, max(0, n_nodes // 2))
        if capacity == self.capacity and hub_budget == self.hub_budget:
            return self
        return replace(self, capacity=capacity, hub_budget=hub_budget)


@dataclass(frozen=True)
class QueryParams:
    """Parameters controlling online query evaluation (Algorithm 4).

    Attributes
    ----------
    k:
        The reverse top-k depth; must not exceed the index capacity ``K``.
    update_index:
        Whether refinements performed during the query are written back into
        the index (the "update" series in Figures 5 and 7).
    tolerance:
        PMPN convergence tolerance for the exact proximities to the query.
    max_refinements:
        Cap on refinement iterations per candidate.  Every step pushes all of
        the candidate's residue, so ``t`` steps leave at most ``(1-alpha)^t``
        of it (3e-5 at the default); a candidate still undecided then ties
        its k-th value that closely and is resolved exactly with one
        power-method run instead.
    """

    k: int = 10
    update_index: bool = True
    tolerance: float = 1e-10
    max_refinements: int = 64

    def __post_init__(self) -> None:
        check_positive_int(self.k, "k")
        check_positive_float(self.tolerance, "tolerance")
        check_positive_int(self.max_refinements, "max_refinements")

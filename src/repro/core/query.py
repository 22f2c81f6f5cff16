"""Algorithm 4 — the online reverse top-k query engine (§4.2).

Query evaluation interleaves two computations:

1. **Proximities to the query** — PMPN (Algorithm 2) carrying its residual
   (:class:`~repro.core.pmpn.PMPNState`): after every round each node ``u``
   holds a certified interval ``p_u(q) in [lower_u, upper_u]``, one width
   for all nodes (a node that cannot reach ``q`` is the point ``0``), and a
   round shrinks it by at least ``1 - alpha``.
2. **Candidate-centric scan** — nodes are pruned with their indexed k-th
   lower bound, confirmed with the staircase upper bound (Algorithm 3), or
   progressively refined with additional batched BCA iterations until one of
   the two tests — or the query-aware bound on the k-th *other* entry —
   decides.  Refinements can be written back into the index ("update" mode),
   tightening bounds for future queries.

Every test of the scan only *compares* ``p_u(q)`` with a bound, so each is
decided on the interval: ``p_u(q) >= t`` holds once ``lower >= t`` and fails
once ``upper < t``.  PMPN advances only while some test is open — work in
proportion to what decides the answer, not to the 1e-10 convergence of the
whole row.  A test still open at PMPN's own stop (Theorem 2's L1 change
below :attr:`~repro.core.config.QueryParams.tolerance`), or once the width
is down to that tolerance (an exact or near-exact tie), is decided on PMPN's
result — the iterate the paper's Algorithm 4 compares — and counted in
:attr:`QueryStatistics.n_floor_decisions`.  Each round's interval holds that
iterate, so every decision, and with it the answer, is the one the paper's
algorithm makes; :attr:`QueryResult.proximities_to_query` holds the lower
ends the decisions needed, with :attr:`QueryResult.proximity_width`.

The scan
--------
Instead of looping over all ``n`` nodes, the scan phase runs as whole-array
float64 stages over each shard's columnar slice
(:func:`~repro.core.sharding.columnar_stage_decisions`), shard after shard,
round after round over only the nodes still open:

* **prune** — one NumPy comparison ``upper < P̂[k-1, *]`` rejects almost
  every node (the paper's headline pruning result, Figures 5-6);
* **exact shortcut** — nodes with ``lower >= P̂[k-1, *]`` whose ``is_exact``
  mask bit is set are accepted outright: their lower bound is the true k-th
  value, so surviving the prune is a final decision;
* **batched upper bound** — once survival is decided, the staircase bound
  ``U`` of Algorithm 3 is evaluated for *all* other survivors at once
  (:func:`kth_upper_bounds_batch`): ``lower >= U`` is a hit, ``upper < U`` a
  miss;
* **refine** — only the misses enter the per-node refinement loop of
  Algorithm 4, line 13, whose tests read the same interval: it accepts on
  ``lower >= B(lower - v̂[q])`` (the bound on the k-th *other* entry) and
  refines on ``upper + (upper - lower) < B`` — ``B`` falls by at most the
  gap it gains, so that is ``p_u(q) < B(p_u(q) - v̂[q])``.

This is the only scan.  The stages are column-local, so the shard count
changes nothing a caller can observe: its results, its
:class:`QueryStatistics` counters and the index it writes back equal those
of the paper's per-node while-loop on PMPN's result, which lives under
``tests/`` as the reference oracle.  With one shard (the default) the slice
is the whole array and nothing is copied or re-offset.  No knob picks how
the scan runs: parallelism lives across queries (the serving layer's
``n_workers``, the server's ``scan_threads``), not inside one.

The engine also collects the per-query statistics reported in Figures 5–8:
candidate count, immediate hits, refinement iterations, PMPN rounds, and
stage timings (``pmpn``, ``scan`` and ``refine``; PMPN rounds run inside the
other two stages count as ``pmpn``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .._validation import check_k, check_node_index
from ..exceptions import QueryError
from ..graph.digraph import DiGraph
from ..graph.transition import transition_matrix
from ..obs.tracing import current_span
from ..utils.timer import StageTimer, Timer
from .bounds import BoundsWorkspace, kth_other_upper_bound
from .config import IndexParams, QueryParams
from .index import StateArrays
from .lbi import refine_node_state
from .pmpn import PMPNPlan, PMPNState, proximity_to_node
from .propagation import PropagationKernel
from .sharding import (
    ReverseTopKIndex,
    build_index,
    columnar_stage_decisions,
)


@dataclass(frozen=True)
class QueryStatistics:
    """Counters describing how a single reverse top-k query was resolved.

    Attributes
    ----------
    n_results:
        Size of the answer set.
    n_candidates:
        Nodes that survived the initial lower-bound filter and were *not*
        already exact (the "cand" series of Figure 6).
    n_hits:
        Candidates confirmed as results by their first upper-bound check,
        without any refinement (the "hits" series of Figure 6).
    n_exact_shortcut:
        Nodes accepted directly because their indexed bounds are exact.
    n_pruned_immediately:
        Nodes rejected by the very first lower-bound comparison.
    n_refinement_iterations:
        Total batched BCA iterations spent refining candidates.
    n_refined_nodes:
        Number of distinct candidates that needed at least one refinement.
    n_exact_fallbacks:
        Candidates whose refinement budget ran out and that were resolved
        exactly with one power-method run instead (near-exact ties only).
    pmpn_iterations:
        PMPN rounds run: the query advances its intervals only while some
        test is open.
    seconds:
        Total wall-clock time of the query.
    stage_seconds:
        Breakdown of the time per stage (``pmpn``, ``scan``, ``refine``).
    n_floor_decisions:
        Tests the interval left open until PMPN's own stop or a width of
        :attr:`QueryParams.tolerance`, and so decided on PMPN's result
        (ties of ``p_u(q)`` with a bound, mostly).
    """

    n_results: int
    n_candidates: int
    n_hits: int
    n_exact_shortcut: int
    n_pruned_immediately: int
    n_refinement_iterations: int
    n_refined_nodes: int
    pmpn_iterations: int
    seconds: float
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    n_exact_fallbacks: int = 0
    n_floor_decisions: int = 0


@dataclass(frozen=True)
class QueryResult:
    """Answer of a reverse top-k query.

    The engine marks both arrays read-only before handing the result out:
    one result object may be shared by a cache and several deduplicated
    requesters, so accidental in-place mutation by any one holder must fail
    loudly instead of corrupting every other holder's answer.

    Attributes
    ----------
    query:
        The query node ``q``.
    k:
        The query depth.
    nodes:
        Sorted array of nodes whose top-k proximity set contains ``q``.
    proximities_to_query:
        Certified lower ends of the proximities ``p_u(q)`` for every node
        ``u`` (a by-product of PMPN, useful to rank the result set):
        ``proximities_to_query[u] <= p_u(q) <=
        proximities_to_query[u] + proximity_width``.  Exact values on demand
        come from :func:`~repro.core.pmpn.proximity_to_node`.
    statistics:
        The :class:`QueryStatistics` of this evaluation.
    proximity_width:
        The one interval width of every entry of ``proximities_to_query``:
        as wide as deciding the answer allowed.
    """

    query: int
    k: int
    nodes: np.ndarray
    proximities_to_query: np.ndarray
    statistics: QueryStatistics
    proximity_width: float = 0.0

    def __post_init__(self) -> None:
        self._freeze()

    def _freeze(self) -> None:
        if isinstance(self.nodes, np.ndarray):
            self.nodes.setflags(write=False)
        if isinstance(self.proximities_to_query, np.ndarray):
            self.proximities_to_query.setflags(write=False)

    def __setstate__(self, state: dict) -> None:
        # NumPy drops the read-only flag on unpickle, so a pickled copy of a
        # result would arrive writable — re-freeze on receipt, or a holder's
        # in-place edit could corrupt an answer it shares.
        self.__dict__.update(state)
        self._freeze()

    def __contains__(self, node: object) -> bool:
        return bool(np.isin(node, self.nodes))

    def __len__(self) -> int:
        return int(self.nodes.size)

    def copy(self) -> "QueryResult":
        """Defensive copy for fan-out to independent consumers.

        The read-only result arrays are shared (they cannot be mutated
        through either holder), but the statistics — whose ``stage_seconds``
        dict is the one remaining mutable field — are duplicated, so no two
        consumers can observe each other's modifications.
        """
        return replace(
            self,
            statistics=replace(
                self.statistics,
                stage_seconds=dict(self.statistics.stage_seconds),
            ),
        )

    def ranked(self) -> List[tuple[int, float]]:
        """Result nodes with their proximity to the query, strongest first."""
        pairs = [(int(node), float(self.proximities_to_query[node])) for node in self.nodes]
        return sorted(pairs, key=lambda item: (-item[1], item[0]))


class ReverseTopKEngine:
    """Reverse top-k query engine combining the index with Algorithm 4.

    Typical usage::

        engine = ReverseTopKEngine.build(graph)           # offline indexing
        result = engine.query(query_node, k=10)           # online query
        print(result.nodes)

    Parameters
    ----------
    transition:
        Column-stochastic transition matrix of the graph.
    index:
        A pre-built :class:`~repro.core.sharding.ReverseTopKIndex` over the
        same graph.
    """

    def __init__(self, transition: sp.spmatrix, index: ReverseTopKIndex) -> None:
        self.transition = sp.csc_matrix(transition)
        if self.transition.shape[0] != index.n_nodes and index.n_nodes:
            raise QueryError(
                f"index covers {index.n_nodes} nodes but the transition matrix has "
                f"{self.transition.shape[0]}"
            )
        self.index = index
        self._hub_mask = index.hubs.mask(self.transition.shape[0])
        # PMPN iterates A^T laid out by strongly connected component; lay it
        # out once per binding and share it across queries.
        self._pmpn_plan = PMPNPlan(self.transition)
        # Candidate refinement advances states through the shared propagation
        # kernel (a block of one source); prepared once per (transition,
        # index) binding, like the other derived caches.
        self._kernel = PropagationKernel(
            self.transition,
            self._hub_mask,
            index.params,
            hubs=index.hubs,
            hub_matrix=index.hub_matrix,
        )
        # Scratch for the batched staircase bound, reused across queries
        # (thread-local, so concurrent read-only queries stay safe).
        self._bounds_workspace = BoundsWorkspace()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        graph: DiGraph | sp.spmatrix,
        params: Optional[IndexParams] = None,
        *,
        transition: Optional[sp.spmatrix] = None,
        hubs=None,
    ) -> "ReverseTopKEngine":
        """Construct the index for ``graph`` and wrap it in an engine."""
        if isinstance(graph, DiGraph):
            matrix = transition if transition is not None else transition_matrix(graph)
        else:
            matrix = graph if transition is None else transition
        index = build_index(graph, params, transition=matrix, hubs=hubs)
        return cls(matrix, index)

    @property
    def n_nodes(self) -> int:
        """Number of nodes covered by the engine."""
        return self.transition.shape[0]

    def rebind(
        self,
        transition: sp.spmatrix,
        index: Optional[ReverseTopKIndex] = None,
    ) -> None:
        """Point the engine at a new transition matrix (dynamic maintenance).

        Re-derives every transition-dependent cache — the hub mask and the
        PMPN plan — exactly as construction does.  The index defaults to the
        engine's current one, which the maintainer mutates in place so
        version-keyed caches stay monotonic.
        """
        self.__init__(transition, index if index is not None else self.index)

    # ------------------------------------------------------------------ #
    # query evaluation
    # ------------------------------------------------------------------ #
    def query(
        self,
        query: int,
        k: int = 10,
        *,
        update_index: bool = True,
        params: Optional[QueryParams] = None,
    ) -> QueryResult:
        """Evaluate a reverse top-k query (Algorithm 4).

        Parameters
        ----------
        query:
            The query node ``q``.
        k:
            Reverse top-k depth; must not exceed the index capacity ``K``.
        update_index:
            Persist candidate refinements back into the index (the paper's
            "update" policy).  When ``False`` the index is left untouched.
        params:
            Full :class:`QueryParams`; overrides ``k`` and ``update_index``
            when given.
        """
        if params is None:
            params = QueryParams(k=k, update_index=update_index)
        query = check_node_index(query, self.n_nodes, "query")
        k = check_k(params.k, self.n_nodes, maximum=self.index.capacity)
        return self._query_checked(query, k, params)

    def query_many(
        self,
        queries: Sequence[int],
        k: int = 10,
        *,
        update_index: bool = True,
        params: Optional[QueryParams] = None,
    ) -> List[QueryResult]:
        """Evaluate a workload of queries (Figures 7 and 8).

        The batched path validates ``k``/``params`` once and shares the
        columnar index views, the CSC transition and its PMPN plan across all
        queries.  Each query id is validated exactly as :meth:`query`
        validates it; per-query results and statistics are identical to
        calling :meth:`query` in a loop.
        """
        if params is None:
            params = QueryParams(k=k, update_index=update_index)
        k = check_k(params.k, self.n_nodes, maximum=self.index.capacity)
        return [
            self._query_checked(
                check_node_index(query, self.n_nodes, "query"), k, params
            )
            for query in queries
        ]

    def query_many_readonly(
        self,
        queries: Sequence[int],
        k: int = 10,
        *,
        params: Optional[QueryParams] = None,
    ) -> List[QueryResult]:
        """Shared-view batch entry point: evaluate ``queries`` without writes.

        This is the serving-layer path: ``update_index`` is forced off, so the
        call never mutates the index (refinement happens on per-candidate
        working copies) and never bumps the index version.  Because every
        touched structure — the columnar views, the CSC transition, the PMPN
        plan — is only read, any number of threads may call this concurrently
        on one shared engine.

        Results are identical to :meth:`query_many` with
        ``update_index=False``.
        """
        if params is None:
            params = QueryParams(k=k, update_index=False)
        elif params.update_index:
            raise QueryError(
                "query_many_readonly requires params with update_index=False"
            )
        return self.query_many(queries, params=params)

    # ------------------------------------------------------------------ #
    # pickling (the rollover clone)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Ship the transition and the index; derived caches rebuild on the
        receiving side."""
        return {"transition": self.transition, "index": self.index}

    def __setstate__(self, state: dict) -> None:
        # __init__ re-derives the hub mask and the PMPN plan.
        self.__init__(state["transition"], state["index"])

    # ------------------------------------------------------------------ #
    # internals — query pipeline
    # ------------------------------------------------------------------ #
    def _query_checked(
        self, query: int, k: int, params: QueryParams
    ) -> QueryResult:
        """Run one pre-validated query through PMPN plus the scan."""
        stages = StageTimer()
        total_timer = Timer()
        tally = _ScanTally()
        with total_timer:
            with stages.time("pmpn"):
                # No rounds yet: the scan advances the state only while one
                # of its tests is open.  Round 0's interval [0, 1] decides
                # only zero thresholds, which any later round decides alike,
                # so the scan starts at round 1.
                pmpn = proximity_to_node(
                    self.transition,
                    query,
                    alpha=self.index.params.alpha,
                    tolerance=params.tolerance,
                    max_iterations=0,
                    raise_on_failure=False,
                    plan=self._pmpn_plan,
                )
                pmpn.advance()
            nodes = self._scan(query, pmpn, k, params, stages, tally)

        statistics = QueryStatistics(
            n_results=int(nodes.size),
            n_candidates=tally.n_candidates,
            n_hits=tally.n_hits,
            n_exact_shortcut=tally.n_exact,
            n_pruned_immediately=tally.n_pruned,
            n_refinement_iterations=tally.n_refine_iterations,
            n_refined_nodes=tally.n_refined_nodes,
            pmpn_iterations=pmpn.iterations,
            seconds=total_timer.elapsed,
            stage_seconds=stages.as_dict(),
            n_exact_fallbacks=tally.n_fallbacks,
            n_floor_decisions=tally.n_floor_decisions,
        )
        parent = current_span()
        if parent is not None:
            span = parent.record(
                "engine.query", total_timer.elapsed, query=query, k=k
            )
            span.annotate(
                n_candidates=tally.n_candidates,
                n_pruned=tally.n_pruned,
                n_exact_shortcut=tally.n_exact,
                n_staircase_hits=tally.n_hits,
                n_refine_iterations=tally.n_refine_iterations,
                n_refined_nodes=tally.n_refined_nodes,
                n_query_aware_hits=tally.n_query_aware_hits,
                n_exact_fallbacks=tally.n_fallbacks,
                n_floor_decisions=tally.n_floor_decisions,
                pmpn_iterations=pmpn.iterations,
                pmpn_rows=pmpn.rows,
                pmpn_edges=pmpn.edges,
                proximity_width=pmpn.width,
            )
            # Stage timings come straight from the StageTimer (already
            # exclusive per stage) — synthetic children, no double timing.
            for stage_name, stage_seconds in stages.as_dict().items():
                span.record(f"stage.{stage_name}", stage_seconds)
            for shard_start, shard_size, shard_seconds, shard_pruned in (
                tally.shard_records
            ):
                span.record(
                    "shard.scan",
                    shard_seconds,
                    shard=shard_start,
                    n_nodes=shard_size,
                    n_pruned=shard_pruned,
                )
        # QueryResult freezes the answer arrays on construction (and again
        # on unpickle): results are shared across caches, deduplicated
        # requesters and worker transfers, and a silent in-place edit by one
        # holder would corrupt every other holder's answer.
        return QueryResult(
            query=query,
            k=k,
            nodes=nodes,
            proximities_to_query=pmpn.lower,
            statistics=statistics,
            proximity_width=pmpn.width,
        )

    def _scan(
        self,
        query: int,
        pmpn: PMPNState,
        k: int,
        params: QueryParams,
        stages: StageTimer,
        tally: "_ScanTally",
    ) -> np.ndarray:
        """Columnar scan: whole-array prune, exact shortcut, batched bound.

        Only candidates left undecided by all three columnar stages enter
        the per-node refinement loop (timed as the separate ``refine`` stage).
        """
        with stages.time("scan"):
            exact_idx, candidates, hits = self._columnar_decisions(
                pmpn, k, stages, tally
            )
            tally.n_exact = int(exact_idx.size)
            tally.n_candidates = int(candidates.size)
            tally.n_hits = int(np.count_nonzero(hits))

        refined_results: List[int] = []
        with stages.time("refine"):
            for node in candidates[~hits]:
                outcome = self._refine_candidate(
                    int(node), query, pmpn, k, params, stages
                )
                tally.absorb_refinement(outcome)
                if outcome.is_result:
                    refined_results.append(int(node))

        return np.sort(
            np.concatenate(
                [
                    exact_idx,
                    candidates[hits],
                    np.asarray(refined_results, dtype=np.int64),
                ]
            )
        ).astype(np.int64)

    def _columnar_decisions(
        self,
        pmpn: PMPNState,
        k: int,
        stages: StageTimer,
        tally: "_ScanTally",
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(exact, candidates, hit mask)`` of the columnar stages, shard by shard.

        Each shard's tests advance ``pmpn`` while one is open; the rounds
        are shared, so a later shard starts from the intervals an earlier one
        left.  Shard outcomes concatenate in range order — the ascending
        candidate order, so refinement trajectories, write-back order,
        version bumps and counters do not depend on the shard count.  One
        shard's local ids are the global ones: its outcome is returned as is.
        Records the prune and floor counts (and, under a trace, one record
        per shard) on ``tally``.
        """
        shards = self.index.shards
        outcomes = []
        for shard in shards:
            started = time.perf_counter()
            exact_idx, candidates, hits, n_pruned, n_floor = columnar_stage_decisions(
                pmpn,
                shard.columns,
                k,
                start=shard.start,
                tighten=lambda: self._tighten(pmpn, stages),
                workspace=self._bounds_workspace,
            )
            outcomes.append((exact_idx, candidates, hits))
            tally.n_pruned += n_pruned
            tally.n_floor_decisions += n_floor
            if current_span() is not None:
                tally.shard_records.append(
                    (shard.start, shard.n_nodes, time.perf_counter() - started, n_pruned)
                )
        if len(outcomes) == 1:
            return outcomes[0]
        return (
            np.concatenate(
                [outcome[0] + shard.start for shard, outcome in zip(shards, outcomes)]
            ),
            np.concatenate(
                [outcome[1] + shard.start for shard, outcome in zip(shards, outcomes)]
            ),
            np.concatenate([outcome[2] for outcome in outcomes]),
        )

    @staticmethod
    def _tighten(pmpn: PMPNState, stages: StageTimer) -> None:
        """One more PMPN round, timed as the ``pmpn`` stage."""
        with stages.time("pmpn"):
            pmpn.advance()

    @staticmethod
    def _settle(pmpn: PMPNState, stages: StageTimer) -> None:
        """Rounds until PMPN's own stop, whose iterate decides a floor test."""
        with stages.time("pmpn"):
            while not pmpn.settled:
                pmpn.advance()

    # ------------------------------------------------------------------ #
    # internals — refinement
    # ------------------------------------------------------------------ #
    def _refine_candidate(
        self,
        node: int,
        query: int,
        pmpn: PMPNState,
        k: int,
        params: QueryParams,
        stages: StageTimer,
    ) -> "_NodeOutcome":
        """Continue Algorithm 4 for a candidate whose first bound check failed.

        The caller has already established that ``node`` survived the prune,
        is not exact, and was not an immediate hit — i.e. the first loop
        iteration of Algorithm 4 ran through its upper-bound check
        unsuccessfully.  This picks up exactly where that iteration left off
        (budget check, refinement, re-check).  From
        here on the accept test is the bound on the k-th *other* entry: never
        looser than the paper's, and the only one that can admit
        ``node == query`` at ``k = 1``.  Every test reads ``p_u(q)`` as
        ``pmpn``'s interval (:meth:`_decide`).

        The candidate's state is loaded once, as flat segments, into a
        refinement working set (so read-only queries leave the index
        untouched), advanced in place, and
        spilled back once — flat segments straight into the store's overlay
        through the final ``set_state`` — only under ``update_index`` and
        only if a step changed it.
        """
        outcome = _NodeOutcome()
        refinements = 0
        refined: Optional[StateArrays] = None
        working = self._kernel.load(self.index.state_arrays(node))

        def accepts(lower: float, upper: float) -> Optional[bool]:
            # B(gap) falls as the known gap grows, by at most the gap's own
            # growth (the staircase level moves by at most the mass removed):
            # with p in [lower, upper], B(lower - v̂[q]) - (upper - lower) <=
            # B(p - v̂[q]) <= B(lower - v̂[q]).
            bound = kth_other_upper_bound(
                working.lower_bounds, working.top, query,
                working.residual_mass(self.index.hub_deficit),
                lower - working.vector[query], k,
            )
            if lower >= bound:
                return True
            if upper + (upper - lower) < bound:
                return False
            return None

        try:
            while True:
                # The paper's test failed on the stored state and is never
                # tighter than this one, so each round tests only this bound.
                if self._decide(pmpn, node, accepts, stages, outcome):
                    outcome.is_result = outcome.used_query_aware_bound = True
                    break
                if refinements >= params.max_refinements:
                    # Refinement budget exhausted (a tie at the bounds'
                    # resolution): decide exactly with one power method run.
                    outcome.is_result, refined = self._exact_decision(
                        node, pmpn, k, working.iterations, stages, outcome,
                        write_back=params.update_index,
                    )
                    outcome.used_exact_fallback = True
                    break
                progressed = refine_node_state(
                    working, self.index, self.transition, self._hub_mask,
                    kernel=self._kernel,
                )
                refinements += 1
                survives = self._decide(
                    pmpn, node, _at_least(working.lower_bounds[k - 1]),
                    stages, outcome,
                )
                if not progressed:
                    # No residue remains: the lower bounds are exact values now.
                    outcome.is_result = survives
                    break
                if not survives:
                    break
                if working.is_exact:
                    outcome.is_result = True
                    break
            if params.update_index and refinements and refined is None:
                refined = working.spill()
        finally:
            working.release()

        outcome.refinement_iterations = refinements
        if refined is not None:
            # A state accepted as stored is not rewritten: a repeated query
            # must not bump the index version (and empty the result caches).
            self.index.set_state(node, refined)
        return outcome

    def _decide(
        self,
        pmpn: PMPNState,
        node: int,
        test,
        stages: StageTimer,
        outcome: "_NodeOutcome",
    ) -> bool:
        """Decide ``test(lower, upper)`` on ``node``'s interval, tightening while open.

        ``test`` returns ``True`` / ``False`` once the interval decides it and
        ``None`` while it is open; on a point (``lower == upper``) it must
        decide.  An open test advances ``pmpn`` one round at a time; once the
        state is at its floor (PMPN's own stop, or the width down to the
        tolerance) it is decided on PMPN's result — the iterate of its own
        stop — and counted as a floor decision.
        """
        while True:
            decision = test(*pmpn.interval_at(node))
            if decision is not None:
                return decision
            if pmpn.at_floor:
                outcome.n_floor_decisions += 1
                self._settle(pmpn, stages)
                value = float(pmpn.proximities[node])
                return test(value, value)
            self._tighten(pmpn, stages)

    def _exact_decision(
        self,
        node: int,
        pmpn: PMPNState,
        k: int,
        iterations: int,
        stages: StageTimer,
        outcome: "_NodeOutcome",
        *,
        write_back: bool,
    ) -> Tuple[bool, Optional[StateArrays]]:
        """Decide membership exactly by computing the node's proximity vector.

        Used only when the refinement budget runs out: ``p_u(q)`` ties the
        k-th value to within what is left of the residue (or of the hub
        rounding deficit).  With ``write_back`` the exact vector also becomes
        the node's index entry (its top-K values replace the lower bounds — a
        strictly better entry); otherwise only the k-th value is read.  The
        solve converts the CSC transition to CSR itself (O(nnz)): only ties
        come here, so no engine holds a second matrix for it.
        """
        from ..rwr.power_method import proximity_vector
        from ..utils.sparsetools import top_k_descending

        exact = proximity_vector(
            self.transition,
            node,
            alpha=self.index.params.alpha,
            tolerance=self.index.params.tolerance,
        ).vector
        top = top_k_descending(exact, self.index.capacity)
        state = None
        if write_back:
            empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
            support = np.flatnonzero(exact > 0.0)
            state = StateArrays(
                empty, (support, exact[support]), empty, top, iterations
            )
        is_result = self._decide(pmpn, node, _at_least(top[k - 1]), stages, outcome)
        return is_result, state


def _at_least(threshold: float) -> Callable[[float, float], Optional[bool]]:
    """The test ``p_u(q) >= threshold`` on the interval ``[lower, upper]``."""

    def test(lower: float, upper: float) -> Optional[bool]:
        if lower >= threshold:
            return True
        if upper < threshold:
            return False
        return None

    return test


@dataclass
class _NodeOutcome:
    """Private bookkeeping of one candidate's refinement (Algorithm 4's loop)."""

    is_result: bool = False
    used_query_aware_bound: bool = False
    used_exact_fallback: bool = False
    refinement_iterations: int = 0
    n_floor_decisions: int = 0


@dataclass
class _ScanTally:
    """Private accumulator for the counters of :class:`QueryStatistics`."""

    n_candidates: int = 0
    n_hits: int = 0
    n_exact: int = 0
    n_pruned: int = 0
    n_refine_iterations: int = 0
    n_refined_nodes: int = 0
    n_query_aware_hits: int = 0
    n_fallbacks: int = 0
    n_floor_decisions: int = 0
    #: Per-shard ``(start, n_nodes, seconds, n_pruned)`` records, collected
    #: only while a trace is active.
    shard_records: List[Tuple[int, int, float, int]] = field(default_factory=list)

    def absorb_refinement(self, outcome: _NodeOutcome) -> None:
        """Tally the refinement counters of one candidate outcome."""
        self.n_refine_iterations += outcome.refinement_iterations
        self.n_refined_nodes += outcome.refinement_iterations > 0
        self.n_query_aware_hits += outcome.used_query_aware_bound
        self.n_fallbacks += outcome.used_exact_fallback
        self.n_floor_decisions += outcome.n_floor_decisions

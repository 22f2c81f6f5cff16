"""Property: the maintainer's hub reachability screen is exact.

``IndexMaintainer`` re-solves only the hub proximity columns of hubs with a
path into a changed transition column (module docstring of
``repro.dynamic.maintainer``, lemma).  Over random sparse digraphs — cycles,
dangling nodes under the self-loop policy, hubs that are themselves edited,
edits that cut a hub's only path into the changed set — and multi-batch
sequences, on all three deployments and both hub policies, every hub's
``hub_matrix`` column, ``hub_deficit`` entry and hub-row lower bounds must
equal a fresh ``_compute_hub_matrix`` on the new graph **bitwise**, and the
set of hubs actually re-solved must be exactly the hubs an independent
reachability walk finds — no more (output-sensitivity), no fewer (exactness).

The negative control swaps in a screen that overlooks one reaching hub and
requires the very same check to fail.
"""

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import IndexParams, ReverseTopKEngine, build_index
from repro.core.hubs import HubSet
from repro.core.lbi import _compute_hub_matrix
from repro.dynamic import (
    DynamicReverseTopKService,
    GraphUpdate,
    IndexMaintainer,
    apply_batch,
    maintainer as maintainer_module,
)
from repro.graph import DiGraph, from_edges, transition_matrix

DEPLOYMENTS = ("monolithic", "ram_shards", "memmap_shards")


def sparse_digraph(n: int, rng) -> DiGraph:
    """0–3 out-links per node: dangling nodes, cycles and unreachable parts."""
    mask = np.zeros((n, n), dtype=bool)
    for source in range(n):
        degree = int(rng.integers(0, 4))
        mask[source, rng.choice(n, size=degree, replace=False)] = True
    np.fill_diagonal(mask, False)
    if not mask.any():
        mask[0, 1] = True
    return DiGraph(sp.csr_matrix(mask.astype(float)))


def random_batch(graph: DiGraph, rng, size: int, favoured):
    """Up to ``size`` valid add/remove ops; sources lean towards ``favoured``."""
    n = graph.n_nodes
    edges = {(u, v) for u, v, _ in graph.edges()}
    updates = []
    for _ in range(size * 8):
        if len(updates) >= size:
            break
        pool = favoured if favoured and rng.random() < 0.3 else range(n)
        u = int(rng.choice(list(pool)))
        v = int(rng.integers(0, n))
        if rng.random() < 0.5:
            if u != v and (u, v) not in edges:
                updates.append(GraphUpdate.add(u, v))
                edges.add((u, v))
        elif (u, v) in edges and len(edges) > 1:
            updates.append(GraphUpdate.remove(u, v))
            edges.discard((u, v))
    return updates


def nodes_reaching(transition, targets) -> set:
    """Reference walk: nodes with a path into ``targets`` (a plain set BFS)."""
    columns = sp.csc_matrix(transition)
    out_links = [
        set(columns.indices[columns.indptr[j] : columns.indptr[j + 1]].tolist())
        for j in range(columns.shape[0])
    ]
    reached = set(int(t) for t in targets)
    grew = True
    while grew:
        grew = False
        for node, links in enumerate(out_links):
            if node not in reached and links & reached:
                reached.add(node)
                grew = True
    return reached


def changed_columns(old, new) -> list:
    old, new = old.toarray(), new.toarray()
    return [j for j in range(old.shape[0]) if not np.array_equal(old[:, j], new[:, j])]


def lower_rows(index) -> np.ndarray:
    """The ``(K, n)`` lower-bound view, monolithic or sharded."""
    return np.vstack(
        [index.kth_lower_bounds(k) for k in range(1, index.capacity + 1)]
    )


def apply_and_check(maintainer, graph, touched, solved_log=None):
    """One ``apply``; then every hub against a fresh solve on the new graph.

    With a ``solved_log`` the set of re-solved hubs is audited too; without
    one only the bitwise property is checked (the negative control's mode —
    a wrong screen must trip on *values*, not on bookkeeping).
    """
    engine = maintainer.engine
    old_transition = engine.transition
    old_matrix, old_deficit = engine.index.hub_matrix, engine.index.hub_deficit
    if solved_log is not None:
        del solved_log[:]
    report = maintainer.apply(graph, touched)
    index = engine.index
    hubs = index.hubs
    fresh_matrix, fresh_deficit, fresh_top_k = _compute_hub_matrix(
        engine.transition, hubs, index.params
    )
    lower = lower_rows(index)
    for position, hub in enumerate(hubs):
        for name in ("indices", "data"):
            np.testing.assert_array_equal(
                getattr(index.hub_matrix[:, position], name),
                getattr(fresh_matrix[:, position], name),
                err_msg=f"hub {hub} column {name}",
            )
        assert index.hub_deficit[position] == fresh_deficit[position], hub
        bounds = np.zeros(index.capacity)
        bounds[: fresh_top_k[hub].size] = fresh_top_k[hub][: index.capacity]
        np.testing.assert_array_equal(index.state_arrays(hub).lower_bounds, bounds)
        np.testing.assert_array_equal(lower[:, hub], bounds)
    if solved_log is not None and report.changed and not report.full_rebuild:
        reach = nodes_reaching(
            old_transition, changed_columns(old_transition, engine.transition)
        )
        expected = [hub for hub in hubs if hub in reach]
        assert [hub for call in solved_log for hub in call] == expected
        assert report.n_hub_columns == len(expected)
        if not expected:
            # Nothing to splice: the index keeps its very objects.
            assert index.hub_matrix is old_matrix
            assert index.hub_deficit is old_deficit
    return report


@pytest.fixture()
def solved_log(monkeypatch):
    """Hub lists the maintainer handed to ``_compute_hub_matrix``, per call."""
    log = []
    real = maintainer_module._compute_hub_matrix

    def recording(transition, hubs, params):
        log.append(list(hubs))
        return real(transition, hubs, params)

    monkeypatch.setattr(maintainer_module, "_compute_hub_matrix", recording)
    return log


def run_case(seed, deployment, rebuild_ratio, solved_log=None):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 15))
    graph = sparse_digraph(n, rng)
    params = IndexParams(capacity=min(5, n), hub_budget=int(rng.integers(1, 4)))
    with tempfile.TemporaryDirectory() as scratch:
        options = {
            "monolithic": {},
            "ram_shards": {"n_shards": 2},
            "memmap_shards": {
                "n_shards": 2, "memory_budget": 0, "snapshot_dir": scratch
            },
        }[deployment]
        service = DynamicReverseTopKService.from_graph(
            graph, params, rebuild_ratio=rebuild_ratio, **options
        )
        try:
            new_graph = graph
            reports = []
            for _ in range(int(rng.integers(1, 4))):
                hubs = service.engine.index.hubs.nodes
                batch = random_batch(new_graph, rng, int(rng.integers(1, 4)), hubs)
                new_graph, touched = apply_batch(new_graph, batch)
                reports.append(
                    apply_and_check(service.maintainer, new_graph, touched, solved_log)
                )
            return reports
        finally:
            service.close()


class TestHubScreenProperty:
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        deployment=st.sampled_from(DEPLOYMENTS),
        rebuild_ratio=st.sampled_from([0.5, 1.0]),
    )
    # The recorder is emptied before every apply, so sharing it is safe.
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_unsolved_hubs_equal_a_fresh_solve(
        self, solved_log, seed, deployment, rebuild_ratio
    ):
        run_case(seed, deployment, rebuild_ratio, solved_log)

    def test_the_sweep_of_seeds_exercises_both_outcomes(self, solved_log):
        """The generator is not vacuous: batches that reuse every hub, batches
        that re-solve some and reuse others, and the full-rebuild hatch."""
        reused_all = mixed = rebuilt = 0
        for seed in range(40):
            for report in run_case(seed, "monolithic", 0.5, solved_log):
                rebuilt += report.full_rebuild
                if report.changed and not report.full_rebuild:
                    reused_all += report.n_hub_columns == 0
                    mixed += report.n_hub_columns > 0
        assert reused_all and mixed and rebuilt

    def test_a_screen_that_skips_a_reaching_hub_fails_the_property(self, monkeypatch):
        """Negative control: overlook one hub inside ``R`` and the check trips."""
        real = maintainer_module._nodes_reaching

        def blind_to_one_hub(transition, targets, watched):
            reached = real(transition, targets, watched)
            inside = watched[reached[watched]]
            if inside.size:
                reached[inside[0]] = False
            return reached

        monkeypatch.setattr(maintainer_module, "_nodes_reaching", blind_to_one_hub)
        caught = 0
        for seed in range(40):
            try:
                run_case(seed, "monolithic", 1.0)
            except AssertionError:
                caught += 1
        assert caught >= 20  # 38 of these 40 seeds when written


class TestHubScreenScenarios:
    """The named shapes, on a hand-built graph with a pinned hub set.

    ``0 -> 1 -> 2 -> 3 -> 0`` is a cycle, ``4 -> 5 -> 6`` a chain off to the
    side with ``6`` dangling, ``7 -> 4`` and ``8 -> 2`` feed them, and ``9``
    links nowhere (a dangling hub: its column is the unit self-loop).
    """

    EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (7, 4), (8, 2)]

    def maintainer(self, hubs):
        graph = from_edges(self.EDGES, n_nodes=10)
        params = IndexParams(capacity=5, hub_budget=len(hubs))
        matrix = transition_matrix(graph)
        engine = ReverseTopKEngine(
            matrix, build_index(graph, params, hubs=HubSet(hubs), transition=matrix)
        )
        self.graph = graph
        return IndexMaintainer(engine, rebuild_ratio=1.0)

    def apply(self, maintainer, updates, solved_log):
        self.graph, touched = apply_batch(self.graph, updates)
        return apply_and_check(maintainer, self.graph, touched, solved_log)

    def test_edit_nobody_reaches_reuses_every_hub(self, solved_log):
        maintainer = self.maintainer((0, 4, 9))
        report = self.apply(
            maintainer, [GraphUpdate.add(7, 6), GraphUpdate.add(8, 5)],
            solved_log,
        )
        assert report.changed and report.n_hub_columns == 0
        assert solved_log == []

    def test_hub_that_is_itself_an_edited_source(self, solved_log):
        maintainer = self.maintainer((0, 4, 9))
        report = self.apply(maintainer, [GraphUpdate.add(4, 6)], solved_log)
        assert solved_log == [[4]] and report.n_hub_columns == 1

    def test_dangling_hub_gaining_its_first_edge(self, solved_log):
        maintainer = self.maintainer((0, 4, 9))
        report = self.apply(maintainer, [GraphUpdate.add(9, 0)], solved_log)
        assert solved_log == [[9]] and report.n_hub_columns == 1

    def test_edit_that_cuts_the_only_path_from_a_hub(self, solved_log):
        # 7 -> 4 -> 5 is hub 7's only way to 5; the batch removes 4 -> 5 and
        # edits 5.  Hub 7 no longer reaches 5 but still reaches the changed 4.
        maintainer = self.maintainer((0, 7, 9))
        report = self.apply(
            maintainer,
            [GraphUpdate.remove(4, 5), GraphUpdate.add(4, 6), GraphUpdate.add(5, 9)],
            solved_log,
        )
        assert solved_log == [[7]] and report.n_hub_columns == 1

    def test_hub_reaching_a_change_only_through_another_changes_old_edge(
        self, solved_log
    ):
        # Hub 8 reaches 3 only via 2 -> 3, which this very batch removes while
        # also editing 3: the sweep must run over the *old* transition.
        maintainer = self.maintainer((4, 8, 9))
        report = self.apply(
            maintainer,
            [GraphUpdate.remove(2, 3), GraphUpdate.add(2, 9), GraphUpdate.add(3, 5)],
            solved_log,
        )
        assert solved_log == [[8]] and report.n_hub_columns == 1

    def test_sequence_of_batches_keeps_splicing(self, solved_log):
        maintainer = self.maintainer((0, 4, 9))
        counts = [
            self.apply(maintainer, updates, solved_log).n_hub_columns
            for updates in (
                [GraphUpdate.add(7, 6)],           # nobody reaches 7
                [GraphUpdate.add(5, 0)],           # hub 4 reaches 5
                [GraphUpdate.remove(3, 0)],        # hubs 0 (cycle) and now 4
                [GraphUpdate.add(9, 7)],           # only the dangling hub
            )
        ]
        assert counts == [0, 1, 2, 1]

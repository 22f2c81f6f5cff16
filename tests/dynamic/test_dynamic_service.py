"""Unit tests for DynamicReverseTopKService: live serving across updates."""

import numpy as np
import pytest

from repro.core import IndexParams, ReverseTopKEngine, build_index
from repro.dynamic import (
    DynamicReverseTopKService,
    GraphUpdate,
    IndexMaintainer,
)
from repro.graph import copying_web_graph, transition_matrix
from repro.serving import ServiceConfig, SnapshotManager

PARAMS = IndexParams(capacity=8, hub_budget=2)
CONFIG = ServiceConfig(cache_capacity=64, max_batch_size=8, n_workers=0)


def make_service(graph, config=CONFIG, **kwargs):
    matrix = transition_matrix(graph)
    index = build_index(graph, PARAMS.for_graph(graph.n_nodes), transition=matrix)
    engine = ReverseTopKEngine(matrix, index)
    return DynamicReverseTopKService(engine, config, graph=graph, **kwargs)


def fresh_engine(graph):
    return ReverseTopKEngine.build(graph, PARAMS.for_graph(graph.n_nodes))


class TestServeAcrossUpdates:
    def test_answers_track_the_mutating_graph(self):
        graph = copying_web_graph(50, out_degree=3, seed=20)
        with make_service(graph) as service:
            requests = [(q, 5) for q in range(0, 50, 7)]
            service.serve(requests)
            service.apply_updates([GraphUpdate.add(17, 33)])
            served = service.serve(requests)
            reference = fresh_engine(service.graph)
            for (query, k), result in zip(requests, served):
                direct = reference.query(query, k, update_index=False)
                np.testing.assert_array_equal(result.nodes, direct.nodes)
                np.testing.assert_array_equal(
                    result.proximities_to_query, direct.proximities_to_query
                )

    def test_effective_update_invalidates_cached_answers(self):
        graph = copying_web_graph(40, out_degree=3, seed=21)
        with make_service(graph) as service:
            requests = [(3, 5), (9, 5), (3, 5)]
            service.serve(requests)
            computed = service.metrics().n_engine_queries
            service.serve(requests)  # all hits
            assert service.metrics().n_engine_queries == computed
            report = service.apply_updates([GraphUpdate.add(5, 30)])
            assert report.changed
            service.serve(requests)
            assert service.metrics().n_engine_queries == computed + 2  # recomputed

    def test_noop_update_keeps_cache_warm(self):
        graph = copying_web_graph(40, out_degree=3, seed=22)
        with make_service(graph) as service:
            requests = [(3, 5), (9, 5)]
            service.serve(requests)
            computed = service.metrics().n_engine_queries
            u, v, _ = next(graph.edges())
            report = service.apply_updates([GraphUpdate.set_weight(u, v, 3.0)])
            assert not report.changed
            service.serve(requests)
            assert service.metrics().n_engine_queries == computed  # cache hits

    def test_tuple_updates_accepted(self):
        graph = copying_web_graph(30, out_degree=3, seed=23)
        with make_service(graph) as service:
            report = service.apply_updates([("add", 2, 25)])
            assert report.changed
            assert service.graph.has_edge(2, 25)

    def test_update_metrics_accumulate(self):
        graph = copying_web_graph(40, out_degree=3, seed=24)
        with make_service(graph) as service:
            service.apply_updates([GraphUpdate.add(1, 30)])
            u, v, _ = next(graph.edges())
            service.apply_updates([GraphUpdate.set_weight(u, v, 2.0)])
            metrics = service.update_metrics()
            assert metrics.n_update_batches == 2
            assert metrics.n_updates == 2
            assert metrics.n_noop_batches == 1
            assert metrics.index_version == service.engine.index.version
            payload = metrics.as_dict()
            assert payload["n_update_batches"] == 2

    def test_update_metrics_waits_for_index_writer(self):
        """Regression: the version snapshot queues behind a live index
        writer instead of reading a half-bumped value mid-``apply_updates``."""
        import threading

        graph = copying_web_graph(30, out_degree=3, seed=24)
        with make_service(graph) as service:
            done = threading.Event()
            captured = []

            def read_metrics():
                captured.append(service.update_metrics().index_version)
                done.set()

            with service._index_lock.write():
                thread = threading.Thread(target=read_metrics)
                thread.start()
                assert not done.wait(0.15)  # blocked behind the writer
            assert done.wait(5.0)
            thread.join(5.0)
            assert captured == [service.engine.index.version]

    def test_serving_metrics_endpoint_still_works(self):
        graph = copying_web_graph(30, out_degree=3, seed=25)
        with make_service(graph) as service:
            service.serve([(1, 5), (2, 5)])
            service.apply_updates([GraphUpdate.add(3, 20)])
            metrics = service.metrics()
            assert metrics.n_requests == 2
            assert metrics.index_version == service.engine.index.version


class TestConstruction:
    def test_from_graph_builds_everything(self):
        graph = copying_web_graph(30, out_degree=3, seed=26)
        with DynamicReverseTopKService.from_graph(graph, PARAMS) as service:
            assert service.engine.n_nodes == 30
            assert service.graph.n_nodes == 30
            assert not service.warm_started
            result = service.query(4, 5)
            direct = fresh_engine(graph).query(4, 5, update_index=False)
            np.testing.assert_array_equal(result.nodes, direct.nodes)

    def test_graph_engine_size_mismatch_rejected(self):
        graph = copying_web_graph(30, out_degree=3, seed=28)
        other = copying_web_graph(31, out_degree=3, seed=28)
        matrix = transition_matrix(graph)
        index = build_index(graph, PARAMS.for_graph(30), transition=matrix)
        engine = ReverseTopKEngine(matrix, index)
        with pytest.raises(ValueError):
            DynamicReverseTopKService(engine, CONFIG, graph=other)

    def test_foreign_maintainer_rejected(self):
        graph = copying_web_graph(30, out_degree=3, seed=29)
        matrix = transition_matrix(graph)
        index = build_index(graph, PARAMS.for_graph(30), transition=matrix)
        engine = ReverseTopKEngine(matrix, index)
        other_engine = ReverseTopKEngine(matrix, index)
        with pytest.raises(ValueError):
            DynamicReverseTopKService(
                engine, CONFIG, graph=graph, maintainer=IndexMaintainer(other_engine)
            )


class TestSnapshots:
    def test_update_rearchives_under_new_graph_key(self, tmp_path):
        graph = copying_web_graph(30, out_degree=3, seed=30)
        with DynamicReverseTopKService.from_graph(
            graph, PARAMS, snapshot_dir=str(tmp_path)
        ) as service:
            service.apply_updates([GraphUpdate.add(2, 25)])
            mutated = service.graph
        # a restart against the mutated graph warm-starts from the re-archive
        with DynamicReverseTopKService.from_graph(
            mutated, PARAMS, snapshot_dir=str(tmp_path)
        ) as restarted:
            assert restarted.warm_started
        # ... and the original graph still warm-starts from its own archive
        with DynamicReverseTopKService.from_graph(
            graph, PARAMS, snapshot_dir=str(tmp_path)
        ) as original:
            assert original.warm_started

    def test_snapshot_manager_instance_accepted(self, tmp_path):
        graph = copying_web_graph(30, out_degree=3, seed=31)
        manager = SnapshotManager(str(tmp_path))
        with DynamicReverseTopKService.from_graph(
            graph, PARAMS, snapshot_dir=manager
        ) as service:
            service.apply_updates([GraphUpdate.add(1, 20)])
            assert any(tmp_path.iterdir())


class TestBatchAtomicity:
    def test_failing_batch_is_rejected_wholesale(self):
        from repro.exceptions import GraphError

        graph = copying_web_graph(30, out_degree=3, seed=32)
        with make_service(graph) as service:
            before = service.graph
            # find an absent edge for the valid prefix
            absent = next(
                (u, v)
                for u in range(30)
                for v in range(30)
                if u != v and not graph.has_edge(u, v)
            )
            with pytest.raises(GraphError):
                service.apply_updates(
                    [GraphUpdate.add(*absent), GraphUpdate.add(*absent)]
                )
            # the valid prefix must NOT be committed...
            assert service.graph is before
            assert not service.graph.has_edge(*absent)
            # ...and a later empty batch must not commit it
            report = service.apply_updates([])
            assert not report.changed
            assert not service.graph.has_edge(*absent)

    def test_maintenance_failure_keeps_columns_dirty(self):
        graph = copying_web_graph(30, out_degree=3, seed=33)
        with make_service(graph) as service:
            absent = next(
                (u, v)
                for u in range(30)
                for v in range(30)
                if u != v and not graph.has_edge(u, v)
            )
            boom = RuntimeError("maintenance exploded")
            original_apply = service.maintainer.apply

            def failing_apply(new_graph, touched):
                raise boom

            service.maintainer.apply = failing_apply
            with pytest.raises(RuntimeError):
                service.apply_updates([GraphUpdate.add(*absent)])
            # the graph committed, and the touched source waits for the retry
            assert service.graph.has_edge(*absent)
            assert absent[0] in service._pending_sources
            # retry succeeds and maintains the previously-dirty column
            service.maintainer.apply = original_apply
            report = service.apply_updates([])
            assert report.changed
            assert report.n_touched_sources == 1 and report.n_changed_columns == 1
            assert not service._pending_sources.size
            reference = ReverseTopKEngine(
                service.engine.transition,
                build_index(
                    service.graph,
                    PARAMS.for_graph(30),
                    hubs=service.engine.index.hubs,
                    transition=service.engine.transition,
                ),
            )
            for query in range(0, 30, 5):
                a = service.query(query, 5)
                b = reference.query(query, 5, update_index=False)
                np.testing.assert_array_equal(a.nodes, b.nodes)


class TestOneEditPerBatch:
    def test_each_batch_edits_the_graph_once(self, monkeypatch):
        # Validation and the edit happen in one pass: no rehearsal copy.
        from repro.graph import DiGraph

        graph = copying_web_graph(40, out_degree=3, seed=41)
        calls = []
        with_edges = DiGraph.with_edges

        def counted(self, *args, **kwargs):
            calls.append(1)
            return with_edges(self, *args, **kwargs)

        with make_service(graph) as service:
            monkeypatch.setattr(DiGraph, "with_edges", counted)
            u, v, _ = next(graph.edges())
            service.apply_updates([GraphUpdate.add(1, 30), GraphUpdate.remove(u, v)])
            assert len(calls) == 1
            assert service.graph.has_edge(1, 30) and not service.graph.has_edge(u, v)

    def test_retry_merges_the_waiting_sources_with_the_next_batch(self):
        graph = copying_web_graph(30, out_degree=3, seed=42)
        with make_service(graph) as service:
            absent = [
                (u, v)
                for u in (3, 11)
                for v in range(30)
                if u != v and not graph.has_edge(u, v)
            ]
            first = next(edge for edge in absent if edge[0] == 3)
            second = next(edge for edge in absent if edge[0] == 11)
            original_apply = service.maintainer.apply
            seen = []

            def failing_apply(new_graph, touched):
                seen.append(np.asarray(touched).tolist())
                raise RuntimeError("maintenance exploded")

            service.maintainer.apply = failing_apply
            with pytest.raises(RuntimeError):
                service.apply_updates([GraphUpdate.add(*first)])
            with pytest.raises(RuntimeError):
                service.apply_updates([GraphUpdate.add(*second)])
            assert seen == [[3], [3, 11]]
            service.maintainer.apply = original_apply
            report = service.apply_updates([])
            assert report.n_touched_sources == 2 and report.changed
            fresh = ReverseTopKEngine(
                service.engine.transition,
                build_index(
                    service.graph,
                    PARAMS.for_graph(30),
                    hubs=service.engine.index.hubs,
                    transition=service.engine.transition,
                ),
            )
            np.testing.assert_array_equal(
                service.engine.index.columns.lower, fresh.index.columns.lower
            )


class TestRejectedBatchAfterAFailure:
    def test_rejected_batch_keeps_the_waiting_sources(self):
        from repro.exceptions import GraphError

        graph = copying_web_graph(30, out_degree=3, seed=43)
        with make_service(graph) as service:
            absent = next(
                (u, v)
                for u in range(30)
                for v in range(30)
                if u != v and not graph.has_edge(u, v)
            )
            original_apply = service.maintainer.apply

            def failing_apply(new_graph, touched):
                raise RuntimeError("maintenance exploded")

            service.maintainer.apply = failing_apply
            with pytest.raises(RuntimeError):
                service.apply_updates([GraphUpdate.add(*absent)])
            service.maintainer.apply = original_apply
            committed = service.graph
            with pytest.raises(GraphError):
                service.apply_updates([GraphUpdate.add(*absent)])  # now a duplicate
            assert service.graph is committed
            assert service._pending_sources.tolist() == [absent[0]]
            report = service.apply_updates([])
            assert report.changed and report.n_changed_columns == 1


class TestNetNoOpBatches:
    # Under the weighted walk a weight change moves its column; one restored
    # within the batch must still leave graph, version and cache alone.
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("kind", ["add_then_remove", "weight_restored"])
    def test_batch_with_no_net_effect_changes_nothing(self, kind, weighted):
        graph = copying_web_graph(40, out_degree=3, seed=40)
        with DynamicReverseTopKService.from_graph(
            graph, PARAMS, config=CONFIG, weighted=weighted
        ) as service:
            requests = [(3, 5), (9, 5)]
            service.serve(requests)
            computed = service.metrics().n_engine_queries
            version = service.engine.index.version
            before = service.graph
            if kind == "add_then_remove":
                absent = next(
                    (u, v)
                    for u in range(40)
                    for v in range(40)
                    if u != v and not graph.has_edge(u, v)
                )
                batch = [GraphUpdate.add(*absent), GraphUpdate.remove(*absent)]
            else:
                u, v, weight = next(graph.edges())
                batch = [
                    GraphUpdate.set_weight(u, v, 5.0),
                    GraphUpdate.set_weight(u, v, weight),
                ]
            report = service.apply_updates(batch)
            assert not report.changed
            assert report.n_touched_sources == 1
            assert service.graph is before
            assert service.engine.index.version == version
            service.serve(requests)
            assert service.metrics().n_engine_queries == computed  # cache hits


class TestWeightedWalk:
    def test_weighted_service_maintains_weighted_columns(self):
        from repro.graph import weighted_transition_matrix

        graph = copying_web_graph(40, out_degree=3, seed=34)
        # make the weights actually matter
        u0, v0, _ = next(graph.edges())
        graph = graph.with_edges(added=[(u0, v0, 3.0)])
        with DynamicReverseTopKService.from_graph(
            graph, PARAMS, weighted=True
        ) as service:
            assert service.maintainer.weighted
            edges = [(u, v) for u, v, _ in graph.edges()]
            report = service.apply_updates(
                [GraphUpdate.set_weight(*edges[5], 4.0)]
            )
            # a weight change is NOT a no-op under the weighted walk
            assert report.changed
            mutated = service.graph
            expected = weighted_transition_matrix(mutated)
            np.testing.assert_array_equal(
                service.engine.transition.toarray(), expected.toarray()
            )
            fresh = ReverseTopKEngine(
                expected,
                build_index(
                    mutated,
                    PARAMS.for_graph(40),
                    hubs=service.engine.index.hubs,
                    transition=expected,
                ),
            )
            for query in range(0, 40, 7):
                a = service.query(query, 5)
                b = fresh.query(query, 5, update_index=False)
                np.testing.assert_array_equal(a.nodes, b.nodes)
                np.testing.assert_array_equal(
                    a.proximities_to_query, b.proximities_to_query
                )

    def test_mismatched_transition_rejected(self):
        from repro.graph import weighted_transition_matrix

        graph = copying_web_graph(30, out_degree=3, seed=35)
        u0, v0, _ = next(graph.edges())
        graph = graph.with_edges(added=[(u0, v0, 3.0)])
        with pytest.raises(ValueError, match="delta maintenance"):
            DynamicReverseTopKService.from_graph(
                graph, PARAMS, transition=weighted_transition_matrix(graph)
            )

    def test_matching_explicit_transition_accepted(self):
        graph = copying_web_graph(30, out_degree=3, seed=36)
        with DynamicReverseTopKService.from_graph(
            graph, PARAMS, transition=transition_matrix(graph)
        ) as service:
            assert not service.maintainer.weighted


class TestConstructionValidation:
    def test_mismatched_graph_rejected_at_construction(self):
        graph = copying_web_graph(30, out_degree=3, seed=37)
        other = copying_web_graph(30, out_degree=3, seed=38)  # same n, new edges
        matrix = transition_matrix(graph)
        index = build_index(graph, PARAMS.for_graph(30), transition=matrix)
        engine = ReverseTopKEngine(matrix, index)
        with pytest.raises(ValueError, match="does not match"):
            DynamicReverseTopKService(engine, CONFIG, graph=other)

    def test_weighted_engine_with_unweighted_maintainer_rejected(self):
        from repro.graph import weighted_transition_matrix

        graph = copying_web_graph(30, out_degree=3, seed=39)
        u0, v0, _ = next(graph.edges())
        graph = graph.with_edges(added=[(u0, v0, 3.0)])
        matrix = weighted_transition_matrix(graph)
        index = build_index(graph, PARAMS.for_graph(30), transition=matrix)
        engine = ReverseTopKEngine(matrix, index)
        with pytest.raises(ValueError, match="weighted"):
            DynamicReverseTopKService(engine, CONFIG, graph=graph)
        # ...and accepted once the maintainer declares the walk variant
        with DynamicReverseTopKService(
            engine,
            CONFIG,
            graph=graph,
            maintainer=IndexMaintainer(engine, weighted=True),
        ) as service:
            assert service.maintainer.weighted

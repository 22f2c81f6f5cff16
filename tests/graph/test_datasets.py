"""Tests for the paper-dataset stand-ins."""

import pytest

from repro.graph import datasets


class TestRegistry:
    def test_all_paper_datasets_registered(self):
        names = set(datasets.available_datasets())
        assert {"web-stanford-cs", "epinions", "web-stanford", "web-google", "webspam", "dblp"} <= names

    def test_specs_have_paper_sizes(self):
        spec = datasets.PAPER_DATASETS["web-google"]
        assert spec.paper_nodes == 875_713
        assert spec.paper_edges == 5_105_039

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            datasets.load_dataset("not-a-dataset")


class TestLoaders:
    @pytest.mark.parametrize(
        "name", ["web-stanford-cs", "epinions", "web-stanford", "web-google"]
    )
    def test_load_dataset_scaled_down(self, name):
        graph = datasets.load_dataset(name, scale=0.05)
        assert graph.n_nodes >= 50
        assert graph.n_edges > graph.n_nodes  # all stand-ins are denser than a tree

    def test_load_dataset_deterministic(self):
        first = datasets.load_dataset("web-stanford-cs", scale=0.05)
        second = datasets.load_dataset("web-stanford-cs", scale=0.05)
        assert first == second

    def test_webspam_labels(self):
        graph, labels = datasets.webspam(scale=0.1)
        assert labels.shape[0] == graph.n_nodes
        spam_fraction = labels.mean()
        assert 0.1 < spam_fraction < 0.3  # paper's graph is ~18.5% spam

    def test_dblp_weighted(self):
        graph, counts = datasets.dblp(scale=0.1)
        assert graph.is_weighted
        assert counts.shape[0] == graph.n_nodes

    def test_scale_parameter_grows_graph(self):
        small = datasets.web_stanford_cs(scale=0.05)
        large = datasets.web_stanford_cs(scale=0.1)
        assert large.n_nodes > small.n_nodes

    def test_load_dataset_accepts_seed(self):
        first = datasets.load_dataset("epinions", scale=0.03, seed=1)
        second = datasets.load_dataset("epinions", scale=0.03, seed=2)
        assert first != second


class TestSyntheticEdgeListWriter:
    def test_deterministic_and_streamable(self, tmp_path):
        from repro.graph.io import stream_edge_list

        path_a = tmp_path / "a.txt"
        path_b = tmp_path / "b.txt"
        path_c = tmp_path / "c.txt"
        n_a = datasets.write_synthetic_edge_list(
            path_a, n_nodes=500, avg_out_degree=4.0, seed=9
        )
        n_b = datasets.write_synthetic_edge_list(
            path_b, n_nodes=500, avg_out_degree=4.0, seed=9
        )
        datasets.write_synthetic_edge_list(
            path_c, n_nodes=500, avg_out_degree=4.0, seed=10
        )
        assert n_a == n_b == 2000
        assert path_a.read_bytes() == path_b.read_bytes()
        assert path_a.read_bytes() != path_c.read_bytes()
        graph = stream_edge_list(path_a, n_nodes=500)
        assert graph.n_nodes == 500
        # duplicates collapse, so n_edges <= lines written
        assert 0 < graph.n_edges <= 2000

    def test_rejects_non_positive_node_count(self, tmp_path):
        from repro.exceptions import SerializationError

        with pytest.raises(SerializationError):
            datasets.write_synthetic_edge_list(tmp_path / "e.txt", n_nodes=0)

    def test_ids_in_range_behind_a_header(self, tmp_path):
        path = tmp_path / "e.txt"
        n_edges = datasets.write_synthetic_edge_list(
            path, n_nodes=300, avg_out_degree=3.0, seed=2
        )
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        assert header.startswith("#")
        assert len(lines) == n_edges == 900
        pairs = [tuple(map(int, line.split())) for line in lines]
        assert all(0 <= u < 300 and 0 <= v < 300 for u, v in pairs)

"""Graph substrate: directed graphs, transition matrices, generators, datasets.

This package provides everything the reverse top-k algorithms need from the
underlying graph: a compact CSR-backed directed graph type, column-stochastic
transition matrices (uniform and weighted), synthetic graph generators that
mimic the structural properties of the paper's datasets, and simple edge-list
I/O.
"""

from . import datasets
from .builder import GraphBuilder, from_edges
from .digraph import DiGraph
from .generators import (
    erdos_renyi_graph,
    scale_free_graph,
    copying_web_graph,
    trust_graph,
    coauthorship_graph,
    spam_host_graph,
    ring_graph,
    star_graph,
    complete_graph,
)
from .io import (
    stream_edge_list,
    write_edge_list,
    read_node_labels,
    write_node_labels,
)
from .stats import GraphStats, degree_histogram, summarize
from .transition import (
    DanglingPolicy,
    transition_matrix,
    weighted_transition_matrix,
    rebuild_transition_columns,
    is_column_stochastic,
)

__all__ = [
    "DiGraph",
    "GraphBuilder",
    "from_edges",
    "DanglingPolicy",
    "transition_matrix",
    "weighted_transition_matrix",
    "rebuild_transition_columns",
    "is_column_stochastic",
    "erdos_renyi_graph",
    "scale_free_graph",
    "copying_web_graph",
    "trust_graph",
    "coauthorship_graph",
    "spam_host_graph",
    "ring_graph",
    "star_graph",
    "complete_graph",
    "datasets",
    "stream_edge_list",
    "write_edge_list",
    "read_node_labels",
    "write_node_labels",
    "GraphStats",
    "degree_histogram",
    "summarize",
]

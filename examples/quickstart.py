"""Quickstart: build a reverse top-k index and run queries on a web-like graph.

Run with::

    python examples/quickstart.py

The script walks through the full life-cycle of the library:

1. generate (or load) a directed graph,
2. build the lower-bound index offline (Algorithm 1 of the paper),
3. answer reverse top-k queries online (Algorithm 4),
4. inspect the per-query statistics that explain *why* it is fast,
5. persist the refined index for the next session.
"""

from pathlib import Path
import sys
import tempfile

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import IndexParams, ReverseTopKEngine, brute_force_reverse_topk
from repro.core import ReverseTopKIndex
from repro.graph import copying_web_graph, transition_matrix


def main() -> None:
    # 1. A 400-node web-like graph (power-law in-degrees, like the paper's crawls).
    graph = copying_web_graph(400, out_degree=6, seed=42)
    print(f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges")

    # 2. Offline indexing.  K bounds the largest k any query may use; the hub
    #    budget B picks the top in-/out-degree nodes whose proximity vectors
    #    are precomputed exactly.
    params = IndexParams(capacity=50, hub_budget=10)
    engine = ReverseTopKEngine.build(graph, params)
    print(f"index: {engine.index}")
    print(f"index build time: {engine.index.build_seconds:.3f}s")

    # 3. Online queries: which nodes have node 7 among their top-10 proximities?
    query_node, k = 7, 10
    result = engine.query(query_node, k)
    print(f"\nreverse top-{k} of node {query_node}: {len(result.nodes)} nodes")
    print("strongest members (node, proximity to query):")
    for node, proximity in result.ranked()[:5]:
        print(f"  node {node:4d}  proximity {proximity:.5f}")

    # 4. The statistics show the pruning at work: only a handful of candidates
    #    out of 400 nodes ever needed a second look.
    stats = result.statistics
    print("\nquery statistics:")
    print(f"  candidates after lower-bound pruning : {stats.n_candidates}")
    print(f"  immediate hits via upper bound       : {stats.n_hits}")
    print(f"  refinement iterations                : {stats.n_refinement_iterations}")
    print(f"  PMPN iterations                      : {stats.pmpn_iterations}")
    print(f"  total time                           : {stats.seconds * 1000:.1f} ms")

    # Sanity check against the brute-force definition (only viable on small
    # graphs).  Nodes whose k-th proximity exactly ties the proximity to the
    # query may legitimately differ between solvers, so compare by overlap.
    expected = set(brute_force_reverse_topk(transition_matrix(graph), query_node, k).tolist())
    ours = set(result.nodes.tolist())
    overlap = len(ours & expected) / max(1, len(ours | expected))
    print(f"\nagreement with brute force: {overlap:.1%} "
          f"({len(ours)} vs {len(expected)} nodes; differences are exact ties)")

    # 5. Persist the (already refined) index as its on-disk layout — one
    #    directory of per-shard arrays — and load it back.
    with tempfile.TemporaryDirectory() as tmp:
        layout = engine.index.persist(Path(tmp) / "index")
        reloaded = ReverseTopKIndex.load(layout)
        print(f"round-tripped index covers {reloaded.n_nodes} nodes "
              f"({reloaded.total_bytes() / 1024:.1f} KB on disk)")


if __name__ == "__main__":
    main()

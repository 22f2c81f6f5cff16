"""Named dataset stand-ins mirroring the paper's evaluation graphs (§5.1).

The paper evaluates on four unlabeled graphs (Web-stanford-cs, Epinions,
Web-stanford, Web-google), the Webspam UK2006 labelled host graph and a DBLP
co-authorship network.  Those datasets cannot ship with this repository, so
each loader below generates a synthetic graph whose *structural* properties
(directedness, density, degree skew, community / farm structure) match the
original closely enough for the algorithmic comparisons to keep their shape.
Sizes are scaled down so the benchmarks run on a laptop; pass ``scale`` to
grow them.

| Paper dataset   | n (paper) | m (paper)  | Stand-in generator            |
|-----------------|-----------|------------|-------------------------------|
| Web-stanford-cs | 9,914     | 36,854     | copying web model             |
| Epinions        | 75,879    | 508,837    | scale-free trust network      |
| Web-stanford    | 281,903   | 2,312,497  | copying web model             |
| Web-google      | 875,713   | 5,105,039  | copying web model             |
| Webspam UK2006  | 11,402    | 730,774    | web + spam link farm          |
| DBLP subset     | 44,528    | 121,352    | weighted community coauthorship |
"""

from __future__ import annotations

from dataclasses import dataclass
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..exceptions import SerializationError
from ..utils.rng import SeedLike
from .digraph import DiGraph
from .generators import (
    coauthorship_graph,
    copying_web_graph,
    spam_host_graph,
    trust_graph,
)

PathLike = Union[str, os.PathLike]


@dataclass(frozen=True)
class DatasetSpec:
    """Description of a paper dataset and its synthetic stand-in."""

    name: str
    paper_nodes: int
    paper_edges: int
    default_nodes: int
    description: str


#: Registry of the paper's evaluation graphs (Table 2 plus §5.4).
PAPER_DATASETS: Dict[str, DatasetSpec] = {
    "web-stanford-cs": DatasetSpec(
        "web-stanford-cs", 9_914, 36_854, 2_000,
        "small sparse web crawl (stanford.edu CS subdomain)"),
    "epinions": DatasetSpec(
        "epinions", 75_879, 508_837, 3_000,
        "who-trusts-whom consumer review network"),
    "web-stanford": DatasetSpec(
        "web-stanford", 281_903, 2_312_497, 5_000,
        "medium web crawl (stanford.edu)"),
    "web-google": DatasetSpec(
        "web-google", 875_713, 5_105_039, 8_000,
        "large web crawl released by Google"),
    "webspam": DatasetSpec(
        "webspam", 11_402, 730_774, 2_200,
        "labelled host graph with spam/normal labels"),
    "dblp": DatasetSpec(
        "dblp", 44_528, 121_352, 1_500,
        "weighted co-authorship network from DBLP top venues"),
}


def available_datasets() -> Tuple[str, ...]:
    """Names accepted by :func:`load_dataset`."""
    return tuple(PAPER_DATASETS)


def web_stanford_cs(*, scale: float = 1.0, seed: SeedLike = 0) -> DiGraph:
    """Stand-in for Web-stanford-cs: small, sparse web graph (~3.7 edges/node)."""
    spec = PAPER_DATASETS["web-stanford-cs"]
    n = max(50, int(spec.default_nodes * scale))
    return copying_web_graph(n, out_degree=4, copy_probability=0.5, seed=seed)


def epinions(*, scale: float = 1.0, seed: SeedLike = 1) -> DiGraph:
    """Stand-in for Epinions: denser trust network (~6.7 edges/node)."""
    spec = PAPER_DATASETS["epinions"]
    n = max(50, int(spec.default_nodes * scale))
    return trust_graph(n, out_degree_mean=7.0, reciprocity=0.3, seed=seed)


def web_stanford(*, scale: float = 1.0, seed: SeedLike = 2) -> DiGraph:
    """Stand-in for Web-stanford: medium web crawl (~8.2 edges/node)."""
    spec = PAPER_DATASETS["web-stanford"]
    n = max(50, int(spec.default_nodes * scale))
    return copying_web_graph(n, out_degree=8, copy_probability=0.55, seed=seed)


def web_google(*, scale: float = 1.0, seed: SeedLike = 3) -> DiGraph:
    """Stand-in for Web-google: large, sparse web crawl (~5.8 edges/node)."""
    spec = PAPER_DATASETS["web-google"]
    n = max(50, int(spec.default_nodes * scale))
    return copying_web_graph(n, out_degree=6, copy_probability=0.6, seed=seed)


def webspam(*, scale: float = 1.0, seed: SeedLike = 4) -> Tuple[DiGraph, np.ndarray]:
    """Stand-in for Webspam UK2006: labelled host graph, ~18% spam hosts."""
    spec = PAPER_DATASETS["webspam"]
    n = max(100, int(spec.default_nodes * scale))
    n_spam = max(10, int(n * 0.185))
    n_normal = n - n_spam
    return spam_host_graph(n_normal, n_spam, seed=seed)


def dblp(*, scale: float = 1.0, seed: SeedLike = 5) -> Tuple[DiGraph, np.ndarray]:
    """Stand-in for the DBLP co-authorship subset: weighted, with prolific authors."""
    spec = PAPER_DATASETS["dblp"]
    n = max(100, int(spec.default_nodes * scale))
    return coauthorship_graph(n, n_prolific=max(3, n // 400), seed=seed)


def load_dataset(
    name: str,
    *,
    scale: float = 1.0,
    seed: Optional[SeedLike] = None,
) -> DiGraph:
    """Load the seeded synthetic stand-in of a paper dataset by name.

    ``webspam`` and ``dblp`` carry side information (labels / paper counts);
    use their dedicated loaders when you need it — this function returns only
    the graph.
    """
    key = name.strip().lower()
    loaders = {
        "web-stanford-cs": web_stanford_cs,
        "epinions": epinions,
        "web-stanford": web_stanford,
        "web-google": web_google,
    }
    if key in loaders:
        kwargs = {"scale": scale}
        if seed is not None:
            kwargs["seed"] = seed
        return loaders[key](**kwargs)
    if key == "webspam":
        graph, _ = webspam(scale=scale, **({"seed": seed} if seed is not None else {}))
        return graph
    if key == "dblp":
        graph, _ = dblp(scale=scale, **({"seed": seed} if seed is not None else {}))
        return graph
    raise KeyError(
        f"unknown dataset {name!r}; available: {', '.join(available_datasets())}"
    )


#: Logical RNG block of :func:`write_synthetic_edge_list` — each block draws
#: from its own keyed generator, so the file content is a pure function of
#: ``(n_nodes, avg_out_degree, seed)`` regardless of how I/O is batched.
_SYNTH_BLOCK_EDGES = 1 << 16


def write_synthetic_edge_list(
    path: PathLike,
    *,
    n_nodes: int,
    avg_out_degree: float = 6.0,
    seed: int = 0,
) -> int:
    """Write a deterministic synthetic edge list sized like a web crawl.

    Produces a ``source target`` text file (SNAP format, ``#`` header) with
    heavy-tailed in-degrees, generated and written in vectorised blocks so
    million-edge files take seconds and bounded memory: the input of the
    large-graph benchmark and of the perf harness's memmap workloads.
    Returns the number of edges written (before duplicate merging).
    """
    if n_nodes <= 0:
        raise SerializationError(f"n_nodes must be positive, got {n_nodes}")
    n_edges = max(1, int(n_nodes * avg_out_degree))
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(
            f"# synthetic power-law edge list: {n_nodes} nodes, {n_edges} edges\n"
        )
        for block in range(0, n_edges, _SYNTH_BLOCK_EDGES):
            m = min(_SYNTH_BLOCK_EDGES, n_edges - block)
            rng = np.random.default_rng([int(seed), block // _SYNTH_BLOCK_EDGES])
            sources = rng.integers(0, n_nodes, size=m, dtype=np.int64)
            # Skewed target choice: u**3 concentrates mass on low ids, giving
            # the hub-heavy in-degree profile of real web graphs.
            targets = np.minimum(
                (n_nodes * rng.random(m) ** 3.0).astype(np.int64), n_nodes - 1
            )
            np.savetxt(handle, np.column_stack((sources, targets)), fmt="%d")
    return n_edges

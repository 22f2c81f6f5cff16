"""Synthetic graph generators.

The paper evaluates on web crawls (Web-stanford-cs, Web-stanford, Web-google),
a trust network (Epinions), a labelled spam host graph (Webspam UK2006) and a
weighted DBLP co-authorship graph.  None of these are redistributable here, so
this module provides generators that reproduce the structural features the
algorithms depend on:

* heavy-tailed in/out-degree distributions (hubs exist, §4.1.1),
* power-law decay of proximity vectors (§3, observation 2),
* community / link-farm structure for the effectiveness studies (§5.4).

Every generator takes an explicit ``seed`` so experiments are reproducible.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from .._validation import (
    check_non_negative_int,
    check_positive_int,
    check_probability,
)
from ..exceptions import InvalidParameterError
from ..utils.rng import SeedLike, ensure_rng
from .builder import GraphBuilder
from .digraph import DiGraph


# --------------------------------------------------------------------------- #
# simple deterministic topologies (useful for unit tests)
# --------------------------------------------------------------------------- #
def ring_graph(n_nodes: int) -> DiGraph:
    """Directed cycle ``0 -> 1 -> ... -> n-1 -> 0``."""
    n = check_positive_int(n_nodes, "n_nodes")
    sources = np.arange(n, dtype=np.int64)
    targets = (sources + 1) % n
    matrix = sp.csr_matrix((np.ones(n), (sources, targets)), shape=(n, n))
    return DiGraph(matrix)


def star_graph(n_leaves: int) -> DiGraph:
    """Star with node 0 at the centre; edges in both directions to each leaf."""
    n_leaves = check_positive_int(n_leaves, "n_leaves")
    n = n_leaves + 1
    centre = np.zeros(n_leaves, dtype=np.int64)
    leaves = np.arange(1, n, dtype=np.int64)
    sources = np.concatenate([centre, leaves])
    targets = np.concatenate([leaves, centre])
    matrix = sp.csr_matrix((np.ones(sources.size), (sources, targets)), shape=(n, n))
    return DiGraph(matrix)


def complete_graph(n_nodes: int) -> DiGraph:
    """Complete directed graph without self-loops."""
    n = check_positive_int(n_nodes, "n_nodes")
    matrix = np.ones((n, n)) - np.eye(n)
    return DiGraph(sp.csr_matrix(matrix))


def paper_toy_graph() -> DiGraph:
    """The 6-node running example of Figures 1-2 of the paper.

    Edges are reconstructed so that nodes 1 and 2 (0-indexed: 0 and 1) are the
    highest in/out-degree nodes, matching the paper's statement that they are
    selected as hubs.  The exact proximity values of Figure 1 depend on the
    original (unpublished) edge list, so tests use this graph for structural
    and invariant checks rather than value-exact comparisons.
    """
    edges = [
        (0, 1), (1, 0),
        (1, 2), (2, 1),
        (0, 3), (3, 0),
        (3, 1),
        (4, 0), (4, 1), (0, 4),
        (5, 1), (5, 0), (1, 5),
        (2, 0),
    ]
    builder = GraphBuilder()
    for source, target in edges:
        builder.add_edge(source, target)
    return builder.build(node_names=[str(i + 1) for i in range(6)])


# --------------------------------------------------------------------------- #
# random graph families
# --------------------------------------------------------------------------- #
def erdos_renyi_graph(
    n_nodes: int,
    edge_probability: float,
    *,
    seed: SeedLike = None,
    allow_self_loops: bool = False,
) -> DiGraph:
    """Directed Erdős–Rényi ``G(n, p)`` graph.

    Used as a "no hub structure" control in the ablation benchmarks: degree
    hub selection brings little benefit on such graphs, which is precisely the
    behaviour the paper's degree-based heuristic predicts.
    """
    n = check_positive_int(n_nodes, "n_nodes")
    p = check_probability(edge_probability, "edge_probability", inclusive=True)
    rng = ensure_rng(seed)
    mask = rng.random((n, n)) < p
    if not allow_self_loops:
        np.fill_diagonal(mask, False)
    matrix = sp.csr_matrix(mask.astype(np.float64))
    return DiGraph(matrix)


def scale_free_graph(
    n_nodes: int,
    *,
    out_degree_mean: float = 6.0,
    exponent: float = 2.1,
    seed: SeedLike = None,
) -> DiGraph:
    """Directed scale-free graph via preferential attachment on targets.

    Each node draws an out-degree from a (shifted) Zipf-like distribution with
    the given mean, then chooses targets preferentially by current in-degree
    (plus one).  The result has a heavy-tailed in-degree distribution — the
    property the paper's degree-based hub selection exploits — while the
    out-degree tail is controlled by ``exponent``.
    """
    n = check_positive_int(n_nodes, "n_nodes")
    if n < 2:
        raise InvalidParameterError("scale_free_graph needs at least 2 nodes")
    if exponent <= 1.0:
        raise InvalidParameterError(f"exponent must exceed 1, got {exponent}")
    rng = ensure_rng(seed)

    # Heavy-tailed out-degrees with the requested mean, at least one edge each.
    raw = rng.pareto(exponent - 1.0, size=n) + 1.0
    out_degrees = np.maximum(1, np.round(raw * out_degree_mean / raw.mean()).astype(np.int64))
    out_degrees = np.minimum(out_degrees, n - 1)

    in_degree_weight = np.ones(n, dtype=np.float64)
    sources: list[int] = []
    targets: list[int] = []
    order = rng.permutation(n)
    for source in order:
        degree = int(out_degrees[source])
        weights = in_degree_weight.copy()
        weights[source] = 0.0
        total = weights.sum()
        if total <= 0:
            continue
        probabilities = weights / total
        chosen = rng.choice(n, size=degree, replace=False, p=probabilities)
        for target in chosen:
            sources.append(int(source))
            targets.append(int(target))
            in_degree_weight[target] += 1.0
    matrix = sp.csr_matrix(
        (np.ones(len(sources)), (np.asarray(sources), np.asarray(targets))),
        shape=(n, n),
    )
    return DiGraph(matrix)


def copying_web_graph(
    n_nodes: int,
    *,
    out_degree: int = 7,
    copy_probability: float = 0.55,
    seed: SeedLike = None,
) -> DiGraph:
    """Web-like graph from the classic "copying model" (Kumar et al.).

    Every new page links to ``out_degree`` existing pages; with probability
    ``copy_probability`` each link copies the destination of a randomly chosen
    prototype page, otherwise it points to a uniformly random page.  The model
    produces the power-law in-degree and tight-knit communities typical of web
    crawls, making it our stand-in for the paper's Web-stanford/Web-google
    datasets (see the substitution table in :mod:`repro.graph.datasets`).
    """
    n = check_positive_int(n_nodes, "n_nodes")
    d = check_positive_int(out_degree, "out_degree")
    p_copy = check_probability(copy_probability, "copy_probability", inclusive=True)
    rng = ensure_rng(seed)

    seed_size = min(max(d + 1, 4), n)
    sources: list[int] = []
    targets: list[int] = []
    # Fully connect the small seed clique.
    for source in range(seed_size):
        for target in range(seed_size):
            if source != target:
                sources.append(source)
                targets.append(target)

    out_links: list[list[int]] = [
        [t for s, t in zip(sources, targets) if s == node] for node in range(seed_size)
    ]
    for node in range(seed_size, n):
        prototype = int(rng.integers(0, node))
        prototype_links = out_links[prototype]
        links: set[int] = set()
        for slot in range(d):
            if prototype_links and rng.random() < p_copy:
                links.add(int(prototype_links[slot % len(prototype_links)]))
            else:
                links.add(int(rng.integers(0, node)))
        links.discard(node)
        out_links.append(sorted(links))
        for target in links:
            sources.append(node)
            targets.append(target)

    matrix = sp.csr_matrix(
        (np.ones(len(sources)), (np.asarray(sources), np.asarray(targets))),
        shape=(n, n),
    )
    return DiGraph(matrix)


def trust_graph(
    n_nodes: int,
    *,
    out_degree_mean: float = 7.0,
    reciprocity: float = 0.3,
    seed: SeedLike = None,
) -> DiGraph:
    """Epinions-style who-trusts-whom network.

    A scale-free directed graph where a fraction ``reciprocity`` of edges is
    reciprocated, reflecting that trust statements are often mutual.
    """
    reciprocity = check_probability(reciprocity, "reciprocity", inclusive=True)
    rng = ensure_rng(seed)
    base = scale_free_graph(
        n_nodes, out_degree_mean=out_degree_mean, seed=rng
    )
    coo = base.adjacency.tocoo()
    sources = list(coo.row)
    targets = list(coo.col)
    for source, target in zip(coo.row.tolist(), coo.col.tolist()):
        if rng.random() < reciprocity:
            sources.append(target)
            targets.append(source)
    matrix = sp.csr_matrix(
        (np.ones(len(sources)), (np.asarray(sources), np.asarray(targets))),
        shape=(base.n_nodes, base.n_nodes),
    )
    return DiGraph(matrix)


def spam_host_graph(
    n_normal: int,
    n_spam: int,
    *,
    normal_out_degree: int = 8,
    farm_out_degree: int = 12,
    spam_to_normal_probability: float = 0.05,
    seed: SeedLike = None,
) -> Tuple[DiGraph, np.ndarray]:
    """Labelled host graph with a spam link farm (Webspam stand-in, §5.4).

    Normal hosts link mostly to other normal hosts (copying-model web
    structure).  Spam hosts form link farms: they link densely to other spam
    hosts — concentrating their PageRank contribution on spam targets — and
    only rarely to normal hosts.  A small number of "honeypot" edges from
    normal to spam hosts exist, as in real crawls.

    Returns
    -------
    (graph, labels)
        ``labels[i]`` is ``1`` for spam hosts and ``0`` for normal hosts.
    """
    n_normal = check_positive_int(n_normal, "n_normal")
    n_spam = check_positive_int(n_spam, "n_spam")
    p_out = check_probability(
        spam_to_normal_probability, "spam_to_normal_probability", inclusive=True
    )
    rng = ensure_rng(seed)
    n = n_normal + n_spam

    normal_part = copying_web_graph(
        n_normal, out_degree=normal_out_degree, seed=rng
    )
    coo = normal_part.adjacency.tocoo()
    sources = list(coo.row)
    targets = list(coo.col)

    # Spam farm: each spam host links to `farm_out_degree` random spam hosts
    # (preferentially to a few designated "target" spam pages) and with small
    # probability to a random normal host.
    spam_ids = np.arange(n_normal, n, dtype=np.int64)
    n_targets = max(1, n_spam // 20)
    farm_targets = spam_ids[:n_targets]
    for spam in spam_ids:
        degree = max(1, int(rng.poisson(farm_out_degree)))
        for _ in range(degree):
            if rng.random() < p_out:
                target = int(rng.integers(0, n_normal))
            elif rng.random() < 0.5:
                target = int(rng.choice(farm_targets))
            else:
                target = int(rng.choice(spam_ids))
            if target != spam:
                sources.append(int(spam))
                targets.append(target)
    # Honeypot edges: a handful of normal hosts are tricked into linking to spam.
    n_honeypot = max(1, n_normal // 100)
    for _ in range(n_honeypot):
        source = int(rng.integers(0, n_normal))
        target = int(rng.choice(spam_ids))
        sources.append(source)
        targets.append(target)

    matrix = sp.csr_matrix(
        (np.ones(len(sources)), (np.asarray(sources), np.asarray(targets))),
        shape=(n, n),
    )
    labels = np.zeros(n, dtype=np.int64)
    labels[n_normal:] = 1
    return DiGraph(matrix), labels


def coauthorship_graph(
    n_authors: int,
    *,
    n_communities: int = 8,
    papers_per_author_mean: float = 4.0,
    authors_per_paper: int = 3,
    n_prolific: int = 3,
    prolific_boost: float = 12.0,
    seed: SeedLike = None,
) -> Tuple[DiGraph, np.ndarray]:
    """Weighted co-authorship network (DBLP stand-in, §5.4 / Table 3).

    Authors are split into research communities; papers are generated by
    sampling a first author and then co-authors mostly from the same
    community.  A handful of "prolific" authors participate in papers across
    all communities, which is what gives them reverse top-k lists much longer
    than their direct co-author count (the Table 3 effect).

    Edge weight ``w_{i,j}`` counts co-authored papers; the node attribute
    ``paper_counts[i]`` is the total number of papers of author ``i`` (the
    ``w_j`` normaliser of the weighted transition matrix).

    Returns
    -------
    (graph, paper_counts)
    """
    n = check_positive_int(n_authors, "n_authors")
    n_communities = check_positive_int(n_communities, "n_communities")
    authors_per_paper = max(2, check_positive_int(authors_per_paper, "authors_per_paper"))
    n_prolific = check_non_negative_int(n_prolific, "n_prolific")
    rng = ensure_rng(seed)

    community = rng.integers(0, n_communities, size=n)
    productivity = rng.gamma(shape=1.5, scale=papers_per_author_mean / 1.5, size=n)
    prolific = rng.choice(n, size=min(n_prolific, n), replace=False)
    productivity[prolific] *= prolific_boost

    n_papers = int(productivity.sum() / authors_per_paper) + 1
    paper_counts = np.zeros(n, dtype=np.int64)
    weights: dict[tuple[int, int], float] = {}
    selection_probability = productivity / productivity.sum()

    for _ in range(n_papers):
        first = int(rng.choice(n, p=selection_probability))
        team = {first}
        while len(team) < authors_per_paper:
            if first in set(prolific.tolist()) or rng.random() < 0.15:
                # Prolific authors (and occasional cross-community papers)
                # draw co-authors from the whole graph.
                candidate = int(rng.choice(n, p=selection_probability))
            else:
                same = np.flatnonzero(community == community[first])
                candidate = int(rng.choice(same))
            team.add(candidate)
        members = sorted(team)
        for member in members:
            paper_counts[member] += 1
        for i_pos, u in enumerate(members):
            for v in members[i_pos + 1:]:
                weights[(u, v)] = weights.get((u, v), 0.0) + 1.0
                weights[(v, u)] = weights.get((v, u), 0.0) + 1.0

    builder = GraphBuilder()
    for author in range(n):
        builder.add_node(author)
    for (u, v), weight in weights.items():
        builder.add_edge(u, v, weight)
    graph = builder.build(node_names=[f"author-{i}" for i in range(n)])
    return graph, paper_counts


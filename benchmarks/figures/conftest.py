"""Shared fixtures and helpers for the paper-figure scripts.

Each ``bench_*.py`` file here regenerates one table or figure of the paper
on the seeded synthetic stand-ins of :mod:`repro.graph.datasets`, calling
the library (``build_index`` / ``ReverseTopKEngine``) like any other client.
The formatted table lands in ``benchmarks/results/`` with the stand-in's
:func:`repro.graph.stats.summarize` line beneath it, so a number is never
read apart from the graph that produced it.

Scale notes: the paper's graphs range from 10k to 875k nodes and its queries
run in 0.1-150 s on a 2014-era core.  The stand-ins here default to a few
hundred nodes so that all the figures finish in under a minute; the
*relative* shapes (index ≪ full P, pruning ~O(k) candidates, update <
no-update, ...) are what the assertions check.
"""

from __future__ import annotations

from pathlib import Path
import sys
from typing import Any, Sequence

import pytest

# This directory is its own pytest root (see pytest.ini), so the repository
# conftest that puts ``src/`` on the path is not loaded here.
_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core import IndexParams  # noqa: E402
from repro.graph import DiGraph, datasets, summarize, transition_matrix  # noqa: E402

#: Where the formatted paper-style tables are written (git-ignored).
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Graph scale used across the figures (fraction of the stand-in default size).
BENCH_SCALE = 0.06

#: Index parameters shared by the figures (capacity covers k up to 50,
#: scaled-down analogue of the paper's K = 200).
BENCH_PARAMS = IndexParams(capacity=50, hub_budget=8)

#: The four unlabeled evaluation graphs of Table 2 / Figures 5-8.
BENCH_DATASETS = ("web-stanford-cs", "epinions", "web-stanford", "web-google")


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width text table (floats as ``{:.4g}``)."""
    rendered = [
        [f"{cell:.4g}" if isinstance(cell, float) else str(cell) for cell in row]
        for row in rows
    ]
    widths = [
        max([len(str(header))] + [len(row[column]) for row in rendered])
        for column, header in enumerate(headers)
    ]
    lines = [title] if title else []
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def write_result(
    name: str,
    graph: DiGraph,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: str,
    note: str | None = None,
) -> Path:
    """Write a figure's table, with its stand-in graph's summary beneath it."""
    stats = ", ".join(
        f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in summarize(graph).as_dict().items()
    )
    lines = [format_table(headers, rows, title=title)]
    if note:
        lines.append(note)
    lines.append(f"seeded synthetic stand-in: {stats}")
    text = "\n".join(lines)
    print("\n" + text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def write_result_file():
    """Fixture handle to :func:`write_result` for the figure modules."""
    return write_result


@pytest.fixture(scope="session")
def bench_graphs():
    """The four unlabeled evaluation graphs, scaled down, keyed by dataset name."""
    return {
        name: datasets.load_dataset(name, scale=BENCH_SCALE) for name in BENCH_DATASETS
    }


@pytest.fixture(scope="session")
def bench_transitions(bench_graphs):
    """Transition matrices of the evaluation graphs."""
    return {name: transition_matrix(graph) for name, graph in bench_graphs.items()}


@pytest.fixture(scope="session")
def bench_params():
    """Index parameters shared by all figures."""
    return BENCH_PARAMS

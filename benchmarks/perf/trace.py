"""Benchmark-owned spans around each layer's public functions.

Only under ``--trace 1``: every entry of :data:`WRAP_POINTS` is resolved and
the name is rebound — in the module that *uses* it — to a wrapper that
records ``(name, layer, start, end, parent, request)`` in memory on a
contextvar stack.  No file under ``src/`` changes; a target that no longer
resolves (ROADMAP item 3 collapses paths) is listed under ``missing`` and
its metrics are simply absent.  Tracing inside the program, and one span
vocabulary shared with ``StageTimer`` / ``X-Trace``, is ROADMAP item 5.

Self time of a span = its duration minus the durations of its direct
children (children of one span run sequentially on one thread, so they never
overlap each other).
"""

from __future__ import annotations

from contextlib import contextmanager
import contextvars
import functools
import importlib
import inspect
import json
from pathlib import Path
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: ``(layer, span name, "module:attribute.path")``.  The module is where the
#: name is *looked up* at call time, which for ``from x import f`` users is
#: the importing module, not the defining one.
WRAP_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("graph", "graph.ingest", "repro.graph.io:stream_edge_list"),
    ("graph", "graph.transition", "repro.graph.transition:transition_matrix"),
    ("graph", "graph.transition", "repro.core.query:transition_matrix"),
    ("lbi", "lbi.hub_matrix", "repro.core.lbi:_compute_hub_matrix"),
    ("lbi", "lbi.hub_matrix", "repro.core.sharding:_compute_hub_matrix"),
    ("lbi", "lbi.bca", "repro.core.propagation:PropagationKernel.run"),
    ("lbi", "lbi.materialize", "repro.core.lbi:assemble_store"),
    ("lbi", "lbi.materialize", "repro.core.sharding:assemble_store"),
    ("lbi", "lbi.persist", "repro.core.sharding:IndexShard.write"),
    ("pmpn", "pmpn", "repro.core.query:proximity_to_node"),
    ("query", "query.engine", "repro.core.query:ReverseTopKEngine.query"),
    ("query", "query.engine", "repro.core.query:ReverseTopKEngine.query_many"),
    ("query", "query.scan", "repro.core.query:columnar_stage_decisions"),
    ("query", "query.scan", "repro.core.sharding:columnar_stage_decisions"),
    ("query", "query.refine", "repro.core.query:refine_node_state"),
    ("rwr", "rwr.power", "repro.rwr.power_method:proximity_vector"),
    ("serving", "serving.serve", "repro.serving.service:ReverseTopKService.serve"),
    ("serving", "serving.plan", "repro.serving.batching:BatchScheduler.plan"),
    ("serving", "serving.cache_get", "repro.serving.cache:ResultCache.get"),
    ("serving", "serving.cache_put", "repro.serving.cache:ResultCache.put"),
    ("serving", "serving.execute", "repro.serving.parallel:ParallelExecutor.run_many"),
    ("dynamic", "dynamic.apply", "repro.dynamic.maintainer:IndexMaintainer.apply"),
    (
        "dynamic",
        "dynamic.apply_updates",
        "repro.dynamic.service:DynamicReverseTopKService.apply_updates",
    ),
    ("net", "net.clone", "repro.net.rollover:clone_for_rollover"),
    ("net", "net.rollover", "repro.net.rollover:RolloverManager.apply_updates"),
    ("net", "net.render", "repro.net.server:render_response"),
)

#: Counts recorded at the same boundary as the span: span name -> function of
#: the wrapped call's return value.
CAPTURES: Dict[str, Callable[[object], Dict[str, float]]] = {
    "dynamic.apply": lambda report: {
        "changed_columns": getattr(report, "n_changed_columns", 0)
    },
    "net.render": lambda body: {"bytes": len(body)},
}

_current: contextvars.ContextVar = contextvars.ContextVar("perf_span", default=None)
_request: contextvars.ContextVar = contextvars.ContextVar("perf_request", default=None)


class Tracer:
    """In-memory span recorder plus the install / uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.missing: List[str] = []
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    @contextmanager
    def span(self, layer: str, name: str, request=None) -> Iterator[dict]:
        """Record one span; nests under the context's current span."""
        parent = _current.get()
        record = {
            "id": None,
            "name": name,
            "layer": layer,
            "parent": parent["id"] if parent is not None else None,
            "request": request if request is not None else _request.get(),
            "start": 0.0,
            "end": 0.0,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        token = _current.set(record)
        request_token = _request.set(record["request"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            _current.reset(token)
            _request.reset(request_token)

    def _wrap(self, layer: str, name: str, fn):
        capture = CAPTURES.get(name)
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                with self.span(layer, name) as record:
                    result = await fn(*args, **kwargs)
                    if capture is not None:
                        record.update(capture(result))
                    return result

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(layer, name) as record:
                    result = fn(*args, **kwargs)
                    if capture is not None:
                        record.update(capture(result))
                    return result

        return wrapper

    # -- install ----------------------------------------------------------
    def install(self, points=WRAP_POINTS) -> None:
        """Rebind every resolvable wrap point; list the others under ``missing``."""
        for layer, name, target in points:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *holders, attribute = path.split(".")
                for holder in holders:
                    owner = getattr(owner, holder)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            setattr(owner, attribute, self._wrap(layer, name, original))
            self._undo.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- output -----------------------------------------------------------
    def dump(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"missing": self.missing, "spans": self.spans, **extra}
        path.write_text(json.dumps(payload), encoding="utf-8")


def self_times(spans: List[dict]) -> List[float]:
    """Per-span self time in seconds, indexed like ``spans`` (ids are positions)."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def by_name(spans: List[dict], own: Optional[List[float]] = None) -> Dict[str, List[float]]:
    """Span name -> list of self times (seconds), in recording order."""
    own = own if own is not None else self_times(spans)
    grouped: Dict[str, List[float]] = {}
    for span, seconds in zip(spans, own):
        grouped.setdefault(span["name"], []).append(seconds)
    return grouped


def by_layer(spans: List[dict], own: Optional[List[float]] = None) -> Dict[str, float]:
    """Layer -> summed self time (seconds)."""
    own = own if own is not None else self_times(spans)
    totals: Dict[str, float] = {}
    for span, seconds in zip(spans, own):
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + seconds
    return totals


def per_request(spans: List[dict], name: str, own: Optional[List[float]] = None) -> List[float]:
    """Self time of ``name`` spans summed per request id (requests without any are absent)."""
    own = own if own is not None else self_times(spans)
    totals: Dict[object, float] = {}
    for span, seconds in zip(spans, own):
        if span["name"] == name and span["request"] is not None:
            totals[span["request"]] = totals.get(span["request"], 0.0) + seconds
    return list(totals.values())

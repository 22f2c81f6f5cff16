"""The asyncio HTTP front door for reverse top-k serving.

:class:`ReverseTopKServer` exposes a
:class:`~repro.dynamic.service.DynamicReverseTopKService` over HTTP/JSON
(stdlib :mod:`asyncio` streams — see :mod:`repro.net.http` for the framing),
composing the rest of this package:

* every request passes the **admission layer** first
  (:class:`~repro.net.admission.AdmissionController`): expired deadlines
  shed with 504 before any work, the bounded pending queue sheds with
  429 + ``Retry-After``, per-tenant token buckets rate-limit;
* admitted queries are **coalesced across connections**
  (:class:`~repro.net.coalesce.QueryCoalescer`): while nothing scans, a
  cache hit is answered on the event loop; misses go to the service's
  ``serve`` path, where the cache/dedup/batch pipeline runs in a
  thread-pool executor off the event loop;
* graph updates **roll the index over without downtime**
  (:class:`~repro.net.rollover.RolloverManager`): queries keep hitting the
  old generation while a clone is maintained aside, then an atomic swap
  moves traffic — every response carries its ``(generation, index_version)``
  pair;
* ``GET /metrics`` reports per-tenant latency percentiles and shed /
  coalesce / cache counters, queue depth, and rollover history — as the
  historical JSON document, or as Prometheus text exposition
  (``?format=prometheus`` or ``Accept: text/plain``), both projected from
  the server's own :class:`~repro.obs.registry.MetricsRegistry` so one
  scrape is one consistent cut.

Each server owns a **fresh registry** by default (pass ``registry=`` to
share one): its service — and every rollover clone — is re-bound onto it,
so two servers in one process never mix their counters.

**Request tracing**: a query carrying an ``X-Trace`` header runs inside a
:class:`~repro.obs.tracing.Trace`; the response gains a ``"trace"`` field
with the full span tree — admission, coalesce fan-in, the shared batch
(grafted across the executor boundary), per-stage and per-shard engine
timings.  Completed queries slower than ``slow_query_threshold`` land in a
bounded in-memory slow-query log served at ``GET /debug/slow``.

Endpoints
---------
``POST /query``
    Body ``{"query": int, "k": int}``; optional headers ``X-Tenant``,
    ``X-Deadline-Ms`` (remaining client budget, propagated end to end) and
    ``X-Trace`` (any value but ``0``/``false`` returns the span tree).
    ``GET /query?query=..&k=..`` is accepted too.  Answers
    ``{"query", "k", "nodes", "proximities", "proximity_width",
    "generation", "index_version", "coalesced"[, "trace"]}`` — ``nodes`` is
    the reverse top-k set and ``proximities[i]`` the certified lower end of
    ``p_{nodes[i]}(query)``, which lies in ``[proximities[i], proximities[i]
    + proximity_width]``; both are bit-exact float64 round-trips.  The
    response is the size of the answer: the dense length-``n`` vector PMPN
    computes on the way never crosses the wire.
``POST /update``
    Body ``{"updates": [[op, u, v] | [op, u, v, w], ...]}``; applies one
    batch through the rollover manager and reports the maintenance outcome.
``GET /metrics`` / ``GET /debug/slow`` / ``GET /healthz``
    Observability (JSON or Prometheus text), the slow-query ring buffer,
    and liveness.

The server is single-event-loop; CPU-heavy work (engine scans, clone +
maintenance) runs in two dedicated executors so the loop never stalls.
:func:`start_in_thread` embeds a server in a background thread for tests,
benchmarks and demos; ``python -m repro.net.server`` runs a standalone one
on a generated graph (used by the CI smoke job).
"""

from __future__ import annotations

import argparse
import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import math
import re
import sys
import threading
import time
from typing import Dict, Optional, Tuple

from .._validation import check_positive_int
from ..dynamic.graph import GraphUpdate
from ..dynamic.service import DynamicReverseTopKService
from ..exceptions import GraphError, ServiceClosedError
from ..obs.registry import MetricsRegistry
from ..obs.slowlog import SlowQueryLog
from ..obs.tracing import Trace, current_span, trace_span
from ..utils.timer import LatencyStats
from .admission import (
    DEFAULT_TENANT,
    AdmissionController,
    AdmissionError,
    AdmissionPolicy,
)
from .coalesce import CoalesceStats, QueryCoalescer
from .http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpError,
    HttpRequest,
    json_payload,
    read_request,
    render_response,
)
from .rollover import RolloverManager

#: A GET parameter's integer: ASCII decimal digits, optionally signed.
_DECIMAL_INT = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class ServerConfig:
    """Network-layer knobs (the in-process service has its own config).

    Attributes
    ----------
    host / port:
        Bind address; port ``0`` asks the kernel for a free one (tests).
    admission:
        The :class:`AdmissionPolicy` applied before any work.
    max_batch:
        Largest burst the coalescer hands to one ``serve`` call; whatever
        buffered beyond it leaves as the following burst.
    scan_threads:
        Thread-pool width for engine scans, hence how many bursts may be
        out at once: a key arriving while a thread is free leaves on the
        next loop tick, one arriving while all are busy buffers until a
        burst completes (no batching timer).  NumPy releases the GIL in the
        heavy array ops, but 1–2 threads is the sweet spot on a small host
        — the coalescer already turns load into batch size.
    max_body_bytes:
        Request body bound (413 beyond it).
    shutdown_grace:
        Seconds to wait for in-flight connections during :meth:`stop`
        before they are cancelled.
    slow_query_threshold:
        Completed queries at or above this many seconds enter the
        slow-query log (``None`` disables it, ``0.0`` records every query).
    slow_log_capacity:
        Ring-buffer size of the slow-query log (oldest entries evicted).
    """

    host: str = "127.0.0.1"
    port: int = 0
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    max_batch: int = 128
    scan_threads: int = 1
    max_body_bytes: int = MAX_BODY_BYTES
    shutdown_grace: float = 5.0
    slow_query_threshold: Optional[float] = 0.1
    slow_log_capacity: int = 128

    def __post_init__(self) -> None:
        check_positive_int(self.scan_threads, "scan_threads")
        check_positive_int(self.max_batch, "max_batch")
        check_positive_int(self.max_body_bytes, "max_body_bytes")
        check_positive_int(self.slow_log_capacity, "slow_log_capacity")
        if self.shutdown_grace < 0:
            raise ValueError(
                f"shutdown_grace must be >= 0, got {self.shutdown_grace}"
            )
        if self.slow_query_threshold is not None and self.slow_query_threshold < 0:
            raise ValueError(
                f"slow_query_threshold must be >= 0 or None, "
                f"got {self.slow_query_threshold}"
            )


class ReverseTopKServer:
    """Admission → coalescing → generation-pinned execution over HTTP."""

    def __init__(
        self,
        service: DynamicReverseTopKService,
        config: Optional[ServerConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        #: The server's metric home: fresh per instance by default so two
        #: servers in one process (or one per test) never mix counters.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.admission = AdmissionController(self.config.admission)
        self.coalesce_stats = CoalesceStats()
        self.slow_log = SlowQueryLog(
            capacity=self.config.slow_log_capacity,
            threshold_seconds=self.config.slow_query_threshold,
        )
        self._scan_executor = ThreadPoolExecutor(
            max_workers=self.config.scan_threads,
            thread_name_prefix="repro-net-scan",
        )
        self._maintenance_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-net-maint"
        )
        self.rollover = RolloverManager(
            service,
            make_coalescer=self._make_coalescer,
            maintenance_executor=self._maintenance_executor,
        )
        self._tenant_latency: Dict[str, LatencyStats] = {}
        self._request_seconds = self.registry.histogram(
            "repro_request_seconds",
            "End-to-end request latency by tenant",
            labels=("tenant",),
        )
        self._net_obs = self._register_net_metrics(self.registry)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "set[asyncio.Task]" = set()
        self._n_connections = 0
        self._n_requests = 0
        self._n_errors = 0
        self._stopping = False

    def _make_coalescer(self, service) -> QueryCoalescer:
        # Every generation — the seed service and each rollover clone —
        # passes through here on its way into serving: re-bind it onto the
        # server's registry so its cache/batch/latency metrics land with
        # the rest of this server's exposition (not the process default).
        service.bind_registry(self.registry)
        return QueryCoalescer(
            service,
            self._scan_executor,
            scan_threads=self.config.scan_threads,
            max_batch=self.config.max_batch,
            stats=self.coalesce_stats,
        )

    @staticmethod
    def _register_net_metrics(registry: MetricsRegistry) -> Dict[str, object]:
        """Register the network layer's instruments (synced at scrape time).

        The authoritative counters stay where they always were — plain ints
        on the controller/coalescer/rollover objects, mutated lock-free on
        the event loop and asserted directly by tests.  The registry view is
        refreshed by :meth:`_sync_registry` on every scrape: monotonic
        counters advance by delta, gauges are set, so Prometheus ``rate()``
        semantics hold without touching the hot path.
        """
        return {
            "connections": registry.counter(
                "repro_http_connections_total", "Connections ever accepted"
            ),
            "requests": registry.counter(
                "repro_http_requests_total", "HTTP requests ever parsed"
            ),
            "errors": registry.counter(
                "repro_http_errors_total", "Requests answered with an error status"
            ),
            "open_connections": registry.gauge(
                "repro_http_open_connections", "Currently open connections"
            ),
            "pending": registry.gauge(
                "repro_admission_pending", "Admitted-but-uncompleted requests"
            ),
            "peak_pending": registry.gauge(
                "repro_admission_peak_pending", "Largest pending depth observed"
            ),
            "admission_outcomes": registry.counter(
                "repro_admission_outcomes_total",
                "Admission decisions by tenant and outcome",
                labels=("outcome", "tenant"),
            ),
            "n_submitted": registry.counter(
                "repro_coalesce_submitted_total", "Requests entering the funnel"
            ),
            "n_loop_hits": registry.counter(
                "repro_coalesce_loop_hits_total",
                "Cache hits answered on the event loop, without a burst",
            ),
            "n_coalesced": registry.counter(
                "repro_coalesce_coalesced_total",
                "Requests that joined an in-flight identical computation",
            ),
            "n_batches": registry.counter(
                "repro_coalesce_batches_total", "Bursts handed to service.serve"
            ),
            "n_executed": registry.counter(
                "repro_coalesce_executed_total", "Unique keys evaluated in bursts"
            ),
            "n_failed_batches": registry.counter(
                "repro_coalesce_failed_batches_total", "Bursts that raised"
            ),
            "burst_size_max": registry.gauge(  # high-water mark: only advances
                "repro_coalesce_burst_size_max", "Largest burst dispatched"
            ),
            "rollovers": registry.counter(
                "repro_rollover_swaps_total", "Generation swaps completed"
            ),
            "noop_batches": registry.counter(
                "repro_rollover_noop_batches_total",
                "Update batches that changed nothing (clone discarded)",
            ),
            "generation": registry.gauge(
                "repro_rollover_generation", "Currently serving generation id"
            ),
            "pins": registry.gauge(
                "repro_rollover_pins", "In-flight requests pinning the generation"
            ),
            "slow_queries": registry.gauge(
                "repro_slow_queries_recorded",
                "Queries ever recorded by the slow-query log",
            ),
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            limit=MAX_HEADER_BYTES,
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (port resolved when config said 0)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, release everything.

        In-flight exchanges get ``shutdown_grace`` seconds to complete;
        stragglers are cancelled.  The live generation is retired (its
        coalescer settles every waiter) and both executors shut down.
        """
        if self._stopping:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections:
            done, pending = await asyncio.wait(
                list(self._connections), timeout=self.config.shutdown_grace
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        await self.rollover.aclose()
        # shutdown(wait=True) joins worker threads; run it on the loop's
        # default executor (not on the pools being joined) so a slow scan
        # can't freeze the event loop during teardown.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._shutdown_pools)

    def _shutdown_pools(self) -> None:
        self._scan_executor.shutdown(wait=True)
        self._maintenance_executor.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Track the handling task so stop() can drain keep-alive sessions.
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        self._n_connections += 1
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # shutdown cancelled a straggler: drop the connection
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # peer vanished mid-exchange: nothing to answer
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while not self._stopping:
            try:
                request = await read_request(
                    reader, max_body_bytes=self.config.max_body_bytes
                )
            except HttpError as exc:
                # Protocol garbage: answer once, then drop the connection
                # (framing may be out of sync).
                writer.write(
                    self._error_response(exc.status, str(exc), keep_alive=False)
                )
                await writer.drain()
                return
            if request is None:
                return  # clean keep-alive end
            self._n_requests += 1
            keep_alive = not request.wants_close
            status, payload = await self._dispatch(request)
            extra: Dict[str, str] = {}
            retry_after = payload.pop("_retry_after", None)
            if retry_after is not None:
                extra["Retry-After"] = f"{retry_after:.3f}"
            # A handler may answer with pre-rendered text (the Prometheus
            # exposition) instead of a JSON document.
            text = payload.pop("_text", None)
            if text is not None:
                body = text.encode("utf-8")
                content_type = str(payload.pop("_content_type", "text/plain"))
            else:
                body = json_payload(payload)
                content_type = "application/json"
            writer.write(
                render_response(
                    status,
                    body,
                    content_type=content_type,
                    extra_headers=extra,
                    keep_alive=keep_alive,
                )
            )
            await writer.drain()
            if not keep_alive:
                return

    def _error_response(
        self, status: int, message: str, *, keep_alive: bool
    ) -> bytes:
        self._n_errors += 1
        return render_response(
            status,
            json_payload({"error": message}),
            keep_alive=keep_alive,
        )

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: HttpRequest) -> Tuple[int, Dict[str, object]]:
        try:
            if request.path == "/query":
                if request.method not in ("GET", "POST"):
                    return 405, {"error": "use GET or POST for /query"}
                return await self._handle_query(request)
            if request.path == "/update":
                if request.method != "POST":
                    return 405, {"error": "use POST for /update"}
                return await self._handle_update(request)
            if request.path == "/metrics":
                if request.method != "GET":
                    return 405, {"error": "use GET for /metrics"}
                if self._wants_prometheus(request):
                    self._sync_registry()
                    return 200, {
                        "_text": self.registry.render_prometheus(),
                        "_content_type": "text/plain; version=0.0.4",
                    }
                return 200, self.metrics()
            if request.path == "/debug/slow":
                if request.method != "GET":
                    return 405, {"error": "use GET for /debug/slow"}
                return 200, self.slow_log.snapshot()
            if request.path == "/healthz":
                if request.method != "GET":
                    return 405, {"error": "use GET for /healthz"}
                return 200, {"status": "ok"}
            return 404, {"error": f"no such endpoint: {request.path}"}
        except HttpError as exc:
            self._n_errors += 1
            return exc.status, {"error": str(exc)}
        except AdmissionError as exc:
            payload: Dict[str, object] = {"error": str(exc)}
            if exc.retry_after is not None:
                payload["_retry_after"] = exc.retry_after
                payload["retry_after_s"] = exc.retry_after
            return exc.status, payload
        except ServiceClosedError as exc:
            return 503, {"error": str(exc)}
        except ValueError as exc:
            self._n_errors += 1
            return 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._n_errors += 1
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    @staticmethod
    def _query_args(request: HttpRequest) -> Tuple[int, int]:
        """``(query, k)``: JSON ints in a POST body, decimal digits in GET params.

        Nothing is coerced: a JSON ``true``, ``3.9`` or ``1e400`` is a client
        error, not node 1, node 3 or an overflow.
        """
        if request.method == "POST":
            body = request.json()
            if not isinstance(body, dict):
                raise HttpError(400, "body must be a JSON object")
            raw = (body.get("query"), body.get("k"))
            valid = all(type(value) is int for value in raw)
        else:
            raw = (request.params.get("query"), request.params.get("k"))
            valid = all(
                value is None or _DECIMAL_INT.fullmatch(value) for value in raw
            )
        if None in raw:
            raise HttpError(400, "both 'query' and 'k' are required")
        if not valid:
            raise HttpError(400, "'query' and 'k' must be integers")
        return int(raw[0]), int(raw[1])

    @staticmethod
    def _wants_prometheus(request: HttpRequest) -> bool:
        if request.params.get("format") == "prometheus":
            return True
        accept = request.headers.get("accept", "")
        return "text/plain" in accept or "openmetrics" in accept

    @staticmethod
    def _wants_trace(request: HttpRequest) -> bool:
        raw = request.headers.get("x-trace")
        if raw is None:
            return False
        return raw.strip().lower() not in ("", "0", "false", "no", "off")

    @staticmethod
    def _deadline_ms(request: HttpRequest) -> Optional[float]:
        raw = request.headers.get("x-deadline-ms")
        if raw is None:
            return None
        try:
            deadline_ms = float(raw)
        except ValueError as exc:
            raise HttpError(400, f"bad X-Deadline-Ms: {raw!r}") from exc
        if not (math.isfinite(deadline_ms) and deadline_ms > 0):
            raise HttpError(
                400, f"X-Deadline-Ms must be positive and finite, got {raw!r}"
            )
        return deadline_ms

    async def _handle_query(
        self, request: HttpRequest
    ) -> Tuple[int, Dict[str, object]]:
        """Trace/slow-log wrapper around :meth:`_execute_query`.

        When the request carries ``X-Trace``, the whole execution runs
        inside an activated :class:`Trace` (this coroutine's context — and
        only it — carries the root span), and the finished span tree is
        attached to the response.  Every completed attempt, traced or not,
        is offered to the slow-query log.
        """
        tenant = request.headers.get("x-tenant", DEFAULT_TENANT)
        query, k = self._query_args(request)
        trace: Optional[Trace] = None
        if self._wants_trace(request):
            trace = Trace("request", tenant=tenant, query=query, k=k)
        started = time.monotonic()
        status: Optional[int] = None
        try:
            if trace is not None:
                trace.activate()
            try:
                status, payload = await self._execute_query(
                    request, tenant, query, k
                )
            finally:
                if trace is not None:
                    trace.deactivate()
            if trace is not None:
                payload["trace"] = trace.to_dict()
            return status, payload
        finally:
            # status is None when _execute_query raised (the shed/error is
            # mapped to a response by _dispatch) — still worth logging.
            fields: Dict[str, object] = {
                "tenant": tenant,
                "query": query,
                "k": k,
                "status": status,
                "traced": trace is not None,
            }
            if trace is not None:
                fields["trace"] = trace.to_dict()
            self.slow_log.record(time.monotonic() - started, **fields)

    async def _execute_query(
        self, request: HttpRequest, tenant: str, query: int, k: int
    ) -> Tuple[int, Dict[str, object]]:
        deadline = self.admission.deadline_for(self._deadline_ms(request))
        with trace_span("admission", queue_depth=self.admission.pending):
            ticket = self.admission.admit(tenant, deadline=deadline)
        started = time.monotonic()
        try:
            generation = self.rollover.current
            generation.pin()
            try:
                # Validate against *this* generation's engine before the key
                # enters the coalescer: an out-of-range node or k must fail
                # its own request, never poison a shared batch.
                engine = generation.service.engine
                if not 0 <= query < engine.n_nodes:
                    raise HttpError(
                        400,
                        f"query node {query} out of range "
                        f"[0, {engine.n_nodes})",
                    )
                if not 1 <= k <= engine.index.capacity:
                    raise HttpError(
                        400,
                        f"k={k} outside the indexed range "
                        f"[1, {engine.index.capacity}]",
                    )
                root = current_span()
                if root is not None:
                    root.annotate(
                        generation=generation.generation_id,
                        index_version=generation.index_version,
                    )
                coalescer = generation.coalescer
                # Queueing behind running scans is the coalescer's only
                # wait.  ``submit`` registers this span as the key's trace
                # parent: before the future settles it gains the fan-in, the
                # burst size and the shared batch tree.
                with trace_span(
                    "await.result", queued_behind=coalescer.n_running
                ) as waiting:
                    future, coalesced = coalescer.submit(query, k)
                    if coalesced:
                        self.admission.note_coalesced(tenant)
                    if waiting is not None:
                        waiting.annotate(coalesced=coalesced)
                    # shield: a timeout/disconnect here must cancel only
                    # this wait, never the shared batch siblings depend on.
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        try:
                            result = await asyncio.wait_for(
                                asyncio.shield(future),
                                timeout=max(0.0, remaining),
                            )
                        except asyncio.TimeoutError:
                            self.admission.shed_deadline(tenant)
                            return 504, {
                                "error": "deadline expired while the query ran"
                            }
                    else:
                        result = await asyncio.shield(future)
            finally:
                generation.unpin()
            self._record_latency(tenant, time.monotonic() - started)
            # Answer-sized: the members and *their* proximities, aligned.
            # The dense length-n vector stays on the in-process QueryResult.
            return 200, {
                "query": result.query,
                "k": result.k,
                "nodes": result.nodes.tolist(),
                "proximities": result.proximities_to_query[result.nodes].tolist(),
                "proximity_width": result.proximity_width,
                "generation": generation.generation_id,
                "index_version": generation.index_version,
                "coalesced": coalesced,
            }
        finally:
            ticket.release()

    async def _handle_update(
        self, request: HttpRequest
    ) -> Tuple[int, Dict[str, object]]:
        body = request.json()
        if not isinstance(body, dict) or "updates" not in body:
            raise HttpError(400, "body must be {'updates': [[op, u, v], ...]}")
        raw_updates = body["updates"]
        if not isinstance(raw_updates, list):
            raise HttpError(400, "'updates' must be a list")
        try:
            batch = [GraphUpdate.coerce(tuple(item)) for item in raw_updates]
        except (TypeError, ValueError, GraphError) as exc:
            raise HttpError(400, f"bad update batch: {exc}") from exc
        try:
            report = await self.rollover.apply_updates(batch)
        except GraphError as exc:
            # The batch is rejected whole (a duplicate add, a missing edge):
            # the serving generation is untouched.
            raise HttpError(400, f"rejected update batch: {exc}") from exc
        generation = self.rollover.current
        return 200, {
            "applied": len(batch),
            "changed": report.changed,
            "full_rebuild": report.full_rebuild,
            "n_invalidated": report.n_invalidated,
            "n_rematerialized": report.n_rematerialized,
            "generation": generation.generation_id,
            "index_version": generation.index_version,
        }

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def _record_latency(self, tenant: str, seconds: float) -> None:
        stats = self._tenant_latency.get(tenant)
        if stats is None:
            stats = self._tenant_latency[tenant] = LatencyStats()
            # One sample list, two exports: the JSON endpoint's exact
            # percentiles and the Prometheus histogram buckets both read
            # this accumulator.
            self._request_seconds.labels(tenant=tenant).bind(stats)
        stats.record(seconds)

    @staticmethod
    def _sync_counter(child, value: float) -> None:
        """Advance a registry counter to match an authoritative plain int."""
        delta = value - child.value
        if delta > 0:
            child.inc(delta)

    def _sync_registry(self) -> None:
        """Refresh the registry view of the event-loop-confined counters.

        Called at scrape time (both expositions), so the registry cut is
        exactly as fresh as the JSON document while the request hot path
        never takes the registry lock.
        """
        obs = self._net_obs
        self._sync_counter(obs["connections"], self._n_connections)
        self._sync_counter(obs["requests"], self._n_requests)
        self._sync_counter(obs["errors"], self._n_errors)
        obs["open_connections"].set(len(self._connections))
        obs["pending"].set(self.admission.pending)
        obs["peak_pending"].set(self.admission.peak_pending)
        outcomes = obs["admission_outcomes"]
        for tenant, counters in self.admission.snapshot()["tenants"].items():
            for outcome, value in counters.items():
                self._sync_counter(
                    outcomes.labels(outcome=outcome, tenant=tenant), value
                )
        for name, value in self.coalesce_stats.as_dict().items():
            self._sync_counter(obs[name], value)
        rollover = self.rollover.snapshot()
        self._sync_counter(obs["rollovers"], rollover["n_rollovers"])
        self._sync_counter(obs["noop_batches"], rollover["n_noop_batches"])
        current = rollover.get("current")
        if current is not None:
            obs["generation"].set(current["generation"])
            obs["pins"].set(current["pins"])
        obs["slow_queries"].set(self.slow_log.n_recorded)

    def metrics(self) -> Dict[str, object]:
        """JSON-ready snapshot of every layer (the ``/metrics`` payload)."""
        self._sync_registry()
        admission = self.admission.snapshot()
        tenants = admission.pop("tenants")
        per_tenant = {
            tenant: {
                "counters": counters,
                "latency": (
                    self._tenant_latency[tenant].as_dict()
                    if tenant in self._tenant_latency
                    else LatencyStats().as_dict()
                ),
            }
            for tenant, counters in tenants.items()
        }
        payload: Dict[str, object] = {
            "server": {
                "n_connections": self._n_connections,
                "open_connections": len(self._connections),
                "n_requests": self._n_requests,
                "n_errors": self._n_errors,
            },
            "admission": admission,
            "coalesce": self.coalesce_stats.as_dict(),
            "rollover": self.rollover.snapshot(),
            "tenants": per_tenant,
        }
        if not self._stopping:
            payload["service"] = self.rollover.current.service.metrics().as_dict()
        return payload


# ---------------------------------------------------------------------- #
# embedding helpers
# ---------------------------------------------------------------------- #
class ServerHandle:
    """A server running on a background event-loop thread (tests, benches)."""

    def __init__(
        self,
        server: ReverseTopKServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self.host, self.port = server.address

    def run(self, coro, timeout: Optional[float] = 30.0):
        """Run a coroutine on the server's loop and wait for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def metrics(self) -> Dict[str, object]:
        return self.run(_call_soon(self.server.metrics))

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Gracefully stop the server and join its thread (idempotent)."""
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            ).result(timeout)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


async def _call_soon(fn):
    return fn()


def start_in_thread(
    service: DynamicReverseTopKService,
    config: Optional[ServerConfig] = None,
    *,
    registry: Optional[MetricsRegistry] = None,
) -> ServerHandle:
    """Start a :class:`ReverseTopKServer` on a dedicated event-loop thread.

    Returns once the socket is bound; the handle exposes the resolved
    ``host``/``port`` and a blocking :meth:`ServerHandle.stop`.
    """
    loop = asyncio.new_event_loop()
    server = ReverseTopKServer(service, config, registry=registry)
    started = threading.Event()
    failure: Dict[str, BaseException] = {}

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            failure["error"] = exc
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()

    thread = threading.Thread(
        target=run, name="repro-net-server", daemon=True
    )
    thread.start()
    started.wait()
    if "error" in failure:
        raise failure["error"]
    return ServerHandle(server, loop, thread)


# ---------------------------------------------------------------------- #
# standalone entry point (CI smoke job, manual runs)
# ---------------------------------------------------------------------- #
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.server",
        description="Serve reverse top-k queries over HTTP on a generated graph.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument("--nodes", type=int, default=200)
    parser.add_argument("--out-degree", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-pending", type=int, default=256)
    parser.add_argument(
        "--rate-limit", type=float, default=None, help="per-tenant requests/second"
    )
    parser.add_argument("--burst", type=int, default=64)
    return parser


async def _run_until_signal(server: ReverseTopKServer) -> None:
    import signal

    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop_event.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    await server.start()
    host, port = server.address
    # Machine-readable markers: the subprocess smoke test and the CI job
    # wait for LISTENING before sending traffic and assert SHUTDOWN COMPLETE
    # after SIGTERM.
    print(f"LISTENING {host} {port}", flush=True)
    await stop_event.wait()
    await server.stop()
    print("SHUTDOWN COMPLETE", flush=True)


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    from ..graph.generators import copying_web_graph

    graph = copying_web_graph(args.nodes, out_degree=args.out_degree, seed=args.seed)
    service = DynamicReverseTopKService.from_graph(graph)
    policy = AdmissionPolicy(
        max_pending=args.max_pending,
        rate_limit=args.rate_limit,
        burst=args.burst,
    )
    config = ServerConfig(host=args.host, port=args.port, admission=policy)
    server = ReverseTopKServer(service, config)
    try:
        asyncio.run(_run_until_signal(server))
    finally:
        if not service.closed:
            service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

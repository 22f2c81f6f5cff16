"""Async HTTP client for the reverse top-k server (stdlib only).

:class:`ReverseTopKClient` pools persistent connections to one server and
exposes the three operations a caller needs — ``query``, ``update`` and
``metrics`` — as coroutines.  It deliberately imports nothing from the
serving layer: a benchmark or test drives a server purely over the wire, so
the client sees exactly what an external caller would (admission sheds
included, surfaced as :class:`ServerRejected`).

The pool is a simple free-list: a coroutine borrows a connection for one
request/response exchange and returns it; concurrent requests beyond the
pool size open new connections up to ``max_connections`` and wait on a
semaphore beyond that.  HTTP/1.1 keep-alive keeps the socket count stable
under sustained load (a thousand logical in-flight requests do not need a
thousand sockets).
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Tuple

from ..exceptions import ReproError
from .http import HttpError, json_payload, read_response, render_request


class ServerRejected(ReproError):
    """The server answered with a non-2xx status.

    Attributes
    ----------
    status:
        The HTTP status (429 for sheds, 504 for expired deadlines, ...).
    retry_after:
        Parsed ``Retry-After`` seconds when the server sent one.
    payload:
        The decoded JSON error body (may be empty on protocol errors).
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        retry_after: Optional[float] = None,
        payload: Optional[dict] = None,
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.retry_after = retry_after
        self.payload = payload if payload is not None else {}


class _Connection:
    """One keep-alive socket; not safe for concurrent use (the pool is)."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer

    async def exchange(
        self,
        method: str,
        target: str,
        *,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        self.writer.write(render_request(method, target, body=body, headers=headers))
        await self.writer.drain()
        return await read_response(self.reader)

    def close(self) -> None:
        self.writer.close()


class ReverseTopKClient:
    """Connection-pooled async client; use as ``async with`` or ``aclose()``."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_connections: int = 64,
        tenant: Optional[str] = None,
    ) -> None:
        if max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        self.host = host
        self.port = port
        self.tenant = tenant
        self.max_connections = max_connections
        self._free: List[_Connection] = []
        self._slots = asyncio.Semaphore(max_connections)
        self._closed = False

    # ------------------------------------------------------------------ #
    # pool plumbing
    # ------------------------------------------------------------------ #
    async def _borrow(self) -> _Connection:
        if self._closed:
            raise RuntimeError("client is closed")
        await self._slots.acquire()
        if self._free:
            return self._free.pop()
        try:
            reader, writer = await asyncio.open_connection(self.host, self.port)
        except BaseException:
            self._slots.release()
            raise
        return _Connection(reader, writer)

    async def prewarm(self, n: int) -> int:
        """Open up to ``n`` pooled connections ahead of the first request.

        Keep-alive reuse means a burst normally needs far fewer sockets
        than it has in-flight requests; prewarming pins the pool open so
        ``n`` concurrent requests genuinely hold ``n`` concurrent sockets
        (the shape benchmarks assert on).  Clamped to ``max_connections``;
        returns the free-pool size afterwards.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        target = min(int(n), self.max_connections)
        while len(self._free) < target:
            batch = min(64, target - len(self._free))
            results = await asyncio.gather(
                *[
                    asyncio.open_connection(self.host, self.port)
                    for _ in range(batch)
                ],
                return_exceptions=True,
            )
            failure: Optional[BaseException] = None
            for item in results:
                if isinstance(item, BaseException):
                    failure = failure or item
                else:
                    self._free.append(_Connection(*item))
            if failure is not None:
                raise failure
        return len(self._free)

    def _give_back(self, connection: _Connection, *, reusable: bool) -> None:
        if reusable and not self._closed:
            self._free.append(connection)
        else:
            connection.close()
        self._slots.release()

    async def _request(
        self,
        method: str,
        target: str,
        *,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> dict:
        connection = await self._borrow()
        reusable = False
        try:
            status, response_headers, raw = await connection.exchange(
                method, target, body=body, headers=headers
            )
            reusable = (
                response_headers.get("connection", "keep-alive").lower() != "close"
            )
        except (HttpError, ConnectionError, OSError, asyncio.IncompleteReadError):
            # The socket's framing state is unknown: never reuse it.
            self._give_back(connection, reusable=False)
            raise
        except BaseException:
            self._give_back(connection, reusable=False)
            raise
        self._give_back(connection, reusable=reusable)

        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            payload = {}
        if status >= 300:
            retry_after = None
            raw_retry = response_headers.get("retry-after")
            if raw_retry is not None:
                try:
                    retry_after = float(raw_retry)
                except ValueError:
                    retry_after = None
            message = (
                payload.get("error", f"HTTP {status}")
                if isinstance(payload, dict)
                else f"HTTP {status}"
            )
            raise ServerRejected(
                status, message, retry_after=retry_after, payload=payload
            )
        return payload

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def _headers(
        self, deadline_ms: Optional[float], tenant: Optional[str]
    ) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        resolved = tenant if tenant is not None else self.tenant
        if resolved is not None:
            headers["X-Tenant"] = resolved
        if deadline_ms is not None:
            headers["X-Deadline-Ms"] = f"{deadline_ms:g}"
        return headers

    async def query(
        self,
        query: int,
        k: int,
        *,
        deadline_ms: Optional[float] = None,
        tenant: Optional[str] = None,
        trace: bool = False,
    ) -> dict:
        """Run one reverse top-k query; raises :class:`ServerRejected` on sheds.

        ``trace=True`` asks the server for the request's span tree (the
        response gains a ``"trace"`` field).
        """
        body = json_payload({"query": int(query), "k": int(k)})
        headers = self._headers(deadline_ms, tenant)
        if trace:
            headers["X-Trace"] = "1"
        return await self._request("POST", "/query", body=body, headers=headers)

    async def slow_queries(self) -> dict:
        """Fetch the server's slow-query log (``/debug/slow``)."""
        return await self._request("GET", "/debug/slow")

    async def update(
        self, updates: List[tuple], *, tenant: Optional[str] = None
    ) -> dict:
        """Apply one update batch (``[(op, u, v[, w]), ...]``) via rollover."""
        body = json_payload({"updates": [list(item) for item in updates]})
        return await self._request(
            "POST", "/update", body=body, headers=self._headers(None, tenant)
        )

    async def metrics(self) -> dict:
        """Fetch the server's ``/metrics`` snapshot."""
        return await self._request("GET", "/metrics")

    async def metrics_text(self) -> str:
        """Fetch the Prometheus text exposition of the server's registry."""
        connection = await self._borrow()
        reusable = False
        try:
            status, response_headers, raw = await connection.exchange(
                "GET", "/metrics?format=prometheus"
            )
            reusable = (
                response_headers.get("connection", "keep-alive").lower() != "close"
            )
        finally:
            self._give_back(connection, reusable=reusable)
        if status >= 300:
            raise ServerRejected(status, f"HTTP {status}", payload={})
        return raw.decode("utf-8")

    async def healthz(self) -> dict:
        """Liveness probe."""
        return await self._request("GET", "/healthz")

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def aclose(self) -> None:
        """Close every pooled connection; in-flight borrows close on return."""
        self._closed = True
        for connection in self._free:
            connection.close()  # reprolint: disable=RL004(_Connection.close only calls asyncio StreamWriter.close which is non-blocking)
        self._free.clear()

    async def __aenter__(self) -> "ReverseTopKClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

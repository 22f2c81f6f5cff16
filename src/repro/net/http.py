"""Minimal HTTP/1.1 framing over :mod:`asyncio` streams (stdlib only).

The network front door deliberately avoids a hard dependency on an external
HTTP stack: the container this reproduction targets ships only the Python
standard library, and the server needs exactly four things from HTTP —
request lines, headers, bounded JSON bodies, and keep-alive.  This module
implements that subset symmetrically for the server (:func:`read_request`,
:func:`render_response`) and the async client (:func:`render_request`,
:func:`read_response`).

Framing rules supported:

* request/response line + CRLF-separated headers, terminated by a blank
  line;
* bodies delimited by ``Content-Length`` only (no chunked encoding — both
  ends of this protocol are ours and always know the length up front);
* persistent connections by default; ``Connection: close`` on either side
  tears the connection down after the in-flight exchange.

Anything malformed raises :class:`HttpError` carrying the status code the
server should answer with, so the connection handler can turn protocol
garbage into a clean 400 instead of a stack trace.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
import json
from typing import Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from ..exceptions import ReproError

#: Reason phrases for every status this server emits.
STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Upper bound on the request head (request line + headers), in bytes.
MAX_HEADER_BYTES = 32 * 1024

#: Default upper bound on a request body, in bytes.
MAX_BODY_BYTES = 1 << 20


class HttpError(ReproError):
    """A malformed or oversized HTTP message.

    ``status`` is the response code the peer should receive (400 for
    syntax, 413/431 for size violations).
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request: method, split target, lowercase headers, body."""

    method: str
    target: str
    path: str
    params: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """Decode the body as JSON (raises :class:`HttpError` 400 on garbage)."""
        if not self.body:
            raise HttpError(400, "request body required")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc
        except RecursionError as exc:
            # A few KB of '[' nest deeper than the decoder's stack allows.
            raise HttpError(400, "JSON body nests too deeply") from exc

    @property
    def wants_close(self) -> bool:
        """Whether the client asked to drop the connection after this exchange."""
        return self.headers.get("connection", "").lower() == "close"


async def _read_head(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read up to the blank line; ``None`` on clean EOF before any byte."""
    try:
        return await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # peer closed between requests: normal keep-alive end
        raise HttpError(400, "connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(431, "request head exceeds the size limit") from exc


def _parse_headers(lines: list) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in lines:
        name, separator, value = line.partition(":")
        if not separator or not name.strip():
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> Optional[HttpRequest]:
    """Read one request off a keep-alive connection.

    Returns ``None`` when the peer closed the connection cleanly between
    requests (the normal end of a keep-alive session); raises
    :class:`HttpError` for anything malformed or oversized.
    """
    head = await _read_head(reader)
    if head is None:
        return None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(431, "request head exceeds the size limit")
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise HttpError(400, "undecodable request head") from exc
    request_line, *header_lines = text.split("\r\n")[:-2]
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {request_line!r}")
    method, target, _version = parts
    headers = _parse_headers(header_lines)

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError as exc:
            raise HttpError(400, f"bad Content-Length: {length_header!r}") from exc
        if length < 0:
            raise HttpError(400, f"bad Content-Length: {length_header!r}")
        if length > max_body_bytes:
            raise HttpError(413, f"body of {length} bytes exceeds the limit")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise HttpError(400, "connection closed mid-body") from exc

    try:
        split = urlsplit(target)
    except ValueError as exc:  # e.g. an unclosed '[' in the authority
        raise HttpError(400, f"malformed request target: {target!r}") from exc
    params = {name: value for name, value in parse_qsl(split.query)}
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=split.path,
        params=params,
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    extra_headers: Optional[Mapping[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one response (status line, headers, body) to wire bytes."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if extra_headers:
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def json_payload(payload: object) -> bytes:
    """Encode a JSON payload compactly (UTF-8 bytes).

    ``json.dumps`` emits the shortest round-tripping decimal form for every
    float, so ``float64`` values survive server → JSON → client bit-exactly —
    the network benchmark's bit-identity assertions rely on this.
    """
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def render_request(
    method: str,
    target: str,
    *,
    body: bytes = b"",
    headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """Serialize one client request to wire bytes (always keep-alive)."""
    lines = [f"{method.upper()} {target} HTTP/1.1", "Host: repro"]
    if headers:
        lines.extend(f"{name}: {value}" for name, value in headers.items())
    if body:
        lines.append(f"Content-Length: {len(body)}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


async def read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    """Client side: read one response; returns ``(status, headers, body)``."""
    head = await _read_head(reader)
    if head is None:
        raise HttpError(400, "server closed the connection before responding")
    text = head.decode("latin-1")
    status_line, *header_lines = text.split("\r\n")[:-2]
    parts = status_line.split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HttpError(400, f"malformed status line: {status_line!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise HttpError(400, f"malformed status line: {status_line!r}") from exc
    headers = _parse_headers(header_lines)
    body = b""
    length = int(headers.get("content-length", "0") or "0")
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "server closed the connection mid-body") from exc
    return status, headers, body

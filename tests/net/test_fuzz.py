"""Byte-level fuzz of the front door: framing and JSON bodies never answer 500.

Two Hypothesis properties:

* arbitrary request bytes, fed with EOF through a ``StreamReader``, come out
  of :func:`read_request` as a request, a clean end (``None``) or an
  :class:`HttpError` with a 4xx status — nothing else, and no read hangs;
* JSON bodies for ``POST /query`` and ``POST /update`` (nested arrays and
  objects, huge ints, floats, ``NaN``/``Infinity`` literals, wrong types,
  nesting deeper than the decoder's stack) go through a live server's
  dispatch and are answered 200 or 4xx, never 500.
"""

from __future__ import annotations

import asyncio
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dynamic import DynamicReverseTopKService
from repro.net import ServerConfig, start_in_thread
from repro.net.http import MAX_HEADER_BYTES, HttpError, HttpRequest, read_request

# --------------------------------------------------------------------- #
# request bytes
# --------------------------------------------------------------------- #
_TOKENS = st.sampled_from(
    [b"GET", b"POST", b"PUT", b"/query", b"/update", b"//[", b"/?a=%ff&&b",
     b"HTTP/1.1", b"HTTP/2", b"\r\n", b"\r\n\r\n", b":", b" ", b"\x00",
     b"Content-Length", b"Content-Length: ", b"-1", b"+3", b"1_0", b"99999999",
     b"Connection: close", b"\xff\xfe"]
)

#: Raw bytes, and token soups that get past the request line more often.
_REQUEST_BYTES = st.one_of(
    st.binary(max_size=256),
    st.lists(st.one_of(_TOKENS, st.binary(max_size=8)), max_size=24).map(b"".join),
    st.builds(
        lambda method, target, headers, length, body: (
            method + b" " + target + b" HTTP/1.1\r\n"
            + b"".join(name + b": " + value + b"\r\n" for name, value in headers)
            + (b"Content-Length: " + length + b"\r\n" if length is not None else b"")
            + b"\r\n" + body
        ),
        st.sampled_from([b"GET", b"POST", b"DELETE", b""]),
        st.one_of(_TOKENS, st.binary(max_size=16)),
        st.lists(st.tuples(st.binary(max_size=8), st.binary(max_size=8)), max_size=3),
        st.one_of(st.none(), st.integers(-5, 64).map(lambda n: str(n).encode()),
                  st.binary(max_size=6)),
        st.binary(max_size=64),
    ),
)


async def _read_all(data: bytes) -> list:
    """Every outcome of reading ``data`` as a keep-alive stream, in order."""
    reader = asyncio.StreamReader(limit=MAX_HEADER_BYTES)
    reader.feed_data(data)
    reader.feed_eof()
    outcomes: list = []
    while True:
        try:
            request = await asyncio.wait_for(read_request(reader), timeout=5.0)
        except HttpError as exc:
            outcomes.append(exc)
            return outcomes
        outcomes.append(request)
        if request is None:
            return outcomes


class TestRequestBytes:
    @settings(max_examples=300, deadline=None)
    @given(data=_REQUEST_BYTES)
    def test_any_bytes_parse_or_fail_with_a_4xx(self, data):
        outcomes = asyncio.run(_read_all(data))
        *requests, last = outcomes
        assert all(isinstance(request, HttpRequest) for request in requests)
        if isinstance(last, HttpError):
            assert 400 <= last.status < 500, last
        else:
            assert last is None


# --------------------------------------------------------------------- #
# JSON bodies
# --------------------------------------------------------------------- #
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 70),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([10**400, -(10**400), 2**63, 2**64 + 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)
_OPS = st.one_of(st.sampled_from(["add", "remove", "set_weight"]), _JSON)
_UPDATE_ITEMS = st.one_of(
    st.lists(st.one_of(_OPS, _SCALARS), max_size=5),
    st.tuples(_OPS, st.integers(0, 59), st.integers(0, 59)).map(list),
    st.tuples(_OPS, st.integers(0, 59), st.integers(0, 59), _SCALARS).map(list),
    _JSON,
)


def _nested(depth: int, wrap: str) -> str:
    if wrap == "array":
        return "[" * depth + "]" * depth
    return '{"a":' * depth + "0" + "}" * depth


_DEEP = st.builds(_nested, st.integers(0, 4000), st.sampled_from(["array", "object"]))

_BODIES = st.one_of(
    st.tuples(st.just("/query"), st.one_of(
        st.fixed_dictionaries(
            {"query": st.integers(-1, 61), "k": st.integers(0, 12)}
        ).map(json.dumps),
        st.fixed_dictionaries({"query": _SCALARS, "k": _SCALARS}).map(json.dumps),
        _JSON.map(json.dumps),
        _DEEP,
    )),
    st.tuples(st.just("/update"), st.one_of(
        st.fixed_dictionaries(
            {"updates": st.lists(_UPDATE_ITEMS, max_size=3)}
        ).map(json.dumps),
        _JSON.map(lambda value: json.dumps({"updates": value})),
        _DEEP.map(lambda body: '{"updates": ' + body + "}"),
        _JSON.map(json.dumps),
    )),
)


def test_json_bodies_answer_200_or_4xx(small_web_graph):
    # One server for every example: Hypothesis re-runs only the inner check.
    service = DynamicReverseTopKService.from_graph(small_web_graph)
    handle = start_in_thread(service, ServerConfig())
    dispatch = handle.server._dispatch

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_BODIES)
    def check(case):
        path, body = case
        request = HttpRequest(
            method="POST", target=path, path=path, body=body.encode("utf-8")
        )
        status, payload = handle.run(dispatch(request))
        assert status == 200 or 400 <= status < 500, (status, payload)

    try:
        check()
    finally:
        handle.stop()
        if not service.closed:
            service.close()

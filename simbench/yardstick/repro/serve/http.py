"""Minimal HTTP/1.1 over asyncio streams — no dependencies, no magic.

The service needs exactly four HTTP behaviours: parse a request with an
optional JSON body, send a JSON response with Content-Length, stream an
unbounded NDJSON body with chunked transfer encoding, and keep-alive
between requests on one connection.  That is small enough that a
hand-rolled reader/writer beats dragging in a framework, and it keeps
the whole service importable on a bare CPython.

Limits are explicit: header block ≤ 64 KiB, body ≤ 8 MiB (campaign
submissions are job-spec JSON, not bulk data), and malformed framing
answers 400 and closes rather than guessing.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.serve.models import ValidationError

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "StreamingResponse",
    "ProtocolError",
    "LengthRequired",
    "PayloadTooLarge",
    "json_response",
    "error_response",
    "read_request",
    "write_response",
    "write_streaming",
]

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

STATUS_PHRASES = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """Malformed request framing; the connection answers 400 and closes."""


class LengthRequired(ProtocolError):
    """Body-bearing request without Content-Length (HTTP 411)."""


class PayloadTooLarge(ProtocolError):
    """Declared body larger than the service accepts (HTTP 413)."""


@dataclass
class HttpRequest:
    method: str
    path: str  # decoded, query stripped
    query: Dict[str, str]
    headers: Dict[str, str]  # keys lower-cased
    body: bytes = b""

    def json(self) -> Any:
        if not self.body:
            raise ValidationError("request body is empty (expected JSON)")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}") from exc

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


@dataclass
class HttpResponse:
    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)


@dataclass
class StreamingResponse:
    """A chunked NDJSON body produced by an async line iterator."""

    lines: AsyncIterator[str]
    status: int = 200
    content_type: str = "application/x-ndjson"


def json_response(payload: Any, status: int = 200) -> HttpResponse:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return HttpResponse(status=status, body=body)


def error_response(status: int, message: str) -> HttpResponse:
    return json_response({"error": message, "status": status}, status=status)


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request; None on clean EOF before a request line.

    Raises :class:`ProtocolError` (→ 400) on malformed framing, or its
    subclasses :class:`LengthRequired` (→ 411) and
    :class:`PayloadTooLarge` (→ 413).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise ProtocolError("truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("request head exceeds limit") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError("request head exceeds limit")

    request_line, _, header_block = head.partition(b"\r\n")
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line {request_line!r}")
    method, target, _version = parts

    split = urlsplit(target)
    path = unquote(split.path)
    query = dict(parse_qsl(split.query))

    headers: Dict[str, str] = {}
    for raw in header_block.split(b"\r\n"):
        if not raw:
            continue
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise ProtocolError("non-numeric Content-Length") from exc
        if length < 0:
            raise ProtocolError("negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise PayloadTooLarge(f"body of {length} bytes exceeds limit")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise ProtocolError("truncated request body") from exc
    elif headers.get("transfer-encoding", "").lower() == "chunked":
        raise ProtocolError("chunked request bodies are not supported")
    elif method in ("POST", "PUT", "PATCH"):
        raise LengthRequired("POST requires Content-Length")

    return HttpRequest(method=method, path=path, query=query, headers=headers, body=body)


def _head_bytes(
    status: int, content_type: str, extra: Dict[str, str], framing: Tuple[str, str]
) -> bytes:
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}", f"Content-Type: {content_type}"]
    lines.append(f"{framing[0]}: {framing[1]}")
    for name, value in extra.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(
    writer: asyncio.StreamWriter, response: HttpResponse, keep_alive: bool = True
) -> None:
    extra = dict(response.headers)
    extra["Connection"] = "keep-alive" if keep_alive else "close"
    writer.write(
        _head_bytes(
            response.status,
            response.content_type,
            extra,
            ("Content-Length", str(len(response.body))),
        )
    )
    writer.write(response.body)
    await writer.drain()


async def write_streaming(
    writer: asyncio.StreamWriter, response: StreamingResponse
) -> None:
    """Send a chunked body, one chunk per NDJSON line; closes framing."""
    writer.write(
        _head_bytes(
            response.status,
            response.content_type,
            {"Connection": "close", "Cache-Control": "no-store"},
            ("Transfer-Encoding", "chunked"),
        )
    )
    await writer.drain()
    async for line in response.lines:
        data = (line.rstrip("\n") + "\n").encode()
        writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
        await writer.drain()
    writer.write(b"0\r\n\r\n")
    await writer.drain()

"""Minimal asyncio HTTP/1.1 plumbing for the gateway.

The container bakes in no async HTTP framework, and the gateway needs
very little: parse a request head + optional body off a stream, and
render responses whose bodies are precomputed bytes (the snapshot cache
stores fully rendered responses).  So this module hand-rolls exactly
that subset — HTTP/1.1 with keep-alive, ``Content-Length`` bodies,
no chunked uploads, no TLS.

Framing is strict, because a keep-alive connection pipelines requests
and any disagreement about where one ends lets a client smuggle the
next (RFC 9112 §6.3): the method and every field name must be tokens
(so no whitespace before a colon and no obsolete line folding, §5.1,
§5.2), ``Content-Length`` must be plain digits, repeated only with the
same value, and never beside ``Transfer-Encoding`` (§6.1, §6.3).
Anything else answers 400.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

#: Upper bound on a request head (start line + headers).
MAX_HEAD_BYTES = 32 * 1024

#: Upper bound on a request body (ecovisor bodies are tiny JSON dicts).
MAX_BODY_BYTES = 1024 * 1024

REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    304: "Not Modified",
    307: "Temporary Redirect",
    308: "Permanent Redirect",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}


#: RFC 9110 §5.6.2 ``token``: methods and field names.
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

#: Characters a field value may not carry (RFC 9110 §5.5).
_BAD_VALUE = re.compile(r"[\r\n\x00]")

#: Whitespace and control characters, which no request-target holds.
_BAD_TARGET = re.compile(r"[\x00-\x20\x7f]")

#: RFC 9112 §2.3 ``HTTP-version``, major version 1.
_VERSION = re.compile(r"HTTP/1\.[0-9]")


class BadRequest(Exception):
    """A request the parser refuses; maps onto a 400/413 response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request: header names are folded to lowercase."""

    method: str
    target: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json_body(self) -> Optional[Dict[str, Any]]:
        """The body decoded as a JSON object, or ``None`` when absent."""
        if not self.body:
            return None
        try:
            decoded = json.loads(self.body)
        except ValueError as exc:
            raise BadRequest(400, f"invalid JSON body: {exc}") from None
        if not isinstance(decoded, dict):
            raise BadRequest(400, "request body must be a JSON object")
        return decoded


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request off ``reader``; ``None`` on a clean EOF.

    Raises :class:`BadRequest` for malformed heads, ambiguous or
    missing ``Content-Length`` framing, or oversized heads/bodies.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise BadRequest(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise BadRequest(413, "request head too large") from None
    if len(head) > MAX_HEAD_BYTES:
        raise BadRequest(413, "request head too large")

    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        raise BadRequest(400, "malformed request line") from None
    if not _TOKEN.fullmatch(method) or not target or _BAD_TARGET.search(target):
        raise BadRequest(400, "malformed request line")
    if not _VERSION.fullmatch(version):
        raise BadRequest(400, f"unsupported protocol: {version}")

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not _TOKEN.fullmatch(name) or _BAD_VALUE.search(value):
            raise BadRequest(400, f"malformed header line: {line!r}")
        name = name.lower()
        value = value.strip(" \t")
        if name == "content-length" and headers.get(name, value) != value:
            raise BadRequest(400, "conflicting Content-Length values")
        headers[name] = value

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        if "transfer-encoding" in headers:
            raise BadRequest(400, "both Content-Length and Transfer-Encoding")
        if not (length_header.isascii() and length_header.isdigit()):
            raise BadRequest(400, "malformed Content-Length")
        length = int(length_header)
        if length > MAX_BODY_BYTES:
            raise BadRequest(413, "request body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise BadRequest(400, "truncated request body") from None
    elif headers.get("transfer-encoding"):
        raise BadRequest(411, "chunked request bodies are not supported")
    return HttpRequest(method=method.upper(), target=target, headers=headers, body=body)


def render_response(
    status: int,
    headers: Mapping[str, str],
    body: bytes = b"",
    *,
    keep_alive: bool = True,
) -> bytes:
    """One full HTTP/1.1 response as bytes.

    ``Content-Length`` is always emitted (304s carry ``0``) so
    keep-alive framing never depends on connection close.
    """
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    lines.append(f"Content-Length: {len(body)}")
    if not keep_alive:
        lines.append("Connection: close")
    head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
    return head + body


def json_response(
    status: int,
    payload: Any,
    headers: Optional[Mapping[str, str]] = None,
    *,
    keep_alive: bool = True,
) -> bytes:
    """A rendered JSON response (sorted keys, so bytes are deterministic)."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    merged: Dict[str, str] = {"Content-Type": "application/json"}
    if headers:
        merged.update(headers)
    return render_response(status, merged, body, keep_alive=keep_alive)


def split_target(target: str) -> Tuple[str, str]:
    """``/path?query`` split into ``(path, query_string)``."""
    path, _, query = target.partition("?")
    return path, query

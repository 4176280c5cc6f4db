"""Load-generator side: keep-alive connections, reply checks, latency samples.

Reply bodies are read with ``readinto`` into one buffer per connection and
compared with the expected bytes in place (``bytearray.startswith`` is a
memcmp), so the client makes no per-response copy of a body.
"""

from __future__ import annotations

import http.client
import json
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

PAGE_SIZE = 100  # docvault.metadata.DEFAULT_PAGE_SIZE, the page the service returns
DELIVERY_HEADERS = {"content-type", "content-length", "accept-ranges", "content-disposition"}


@dataclass
class Doc:
    """What the benchmark knows about one stored document."""

    doc_id: str
    owner: str
    filename: str
    upload_timestamp: int
    size: int
    offset: int  # where its bytes start in the run's content pool
    media_type: str

    def public(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "owner": self.owner,
            "original_filename": self.filename,
            "media_type": self.media_type,
            "size_bytes": self.size,
            "upload_timestamp": self.upload_timestamp,
        }


def listing_order(docs) -> list[Doc]:
    return sorted(docs, key=lambda d: (d.upload_timestamp, d.doc_id))


class Tally:
    """Per-thread outcome counts and latency samples, merged after a phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latency_ms: dict[str, list[float]] = defaultdict(list)
        self.bytes_up = 0
        self.bytes_down = 0
        self.upload_s = 0.0
        self.download_s = 0.0
        self.last_end = 0.0
        # every request and uploaded byte, warm-up included, for per-op ratios
        self.requests = 0
        self.sent_bytes = 0
        self.audits = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)
        return ok

    def sample(self, route: str, start: float, seconds: float, warm_until: float) -> None:
        """Count a request; keep its latency if it was sent after the warm-up."""
        self.requests += 1
        if start >= warm_until:
            self.latency_ms[route].append(seconds * 1000)
            self.last_end = max(self.last_end, start + seconds)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[: 5 - len(self.errors)]
        for route, samples in other.latency_ms.items():
            self.latency_ms[route] += samples
        self.bytes_up += other.bytes_up
        self.bytes_down += other.bytes_down
        self.upload_s += other.upload_s
        self.download_s += other.download_s
        self.last_end = max(self.last_end, other.last_end)
        self.requests += other.requests
        self.sent_bytes += other.sent_bytes
        self.audits += other.audits


class Reply:
    __slots__ = ("status", "headers", "length", "seconds")

    def __init__(self, status, headers, length, seconds):
        self.status, self.headers, self.length, self.seconds = status, headers, length, seconds


class Conn:
    """One keep-alive HTTP/1.1 connection with a reusable receive buffer."""

    def __init__(self, port: int, token: str, bufsize: int = 1 << 16):
        self.port = port
        self.auth = "Bearer " + token
        self.buf = bytearray(bufsize)
        self.view = memoryview(self.buf)
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def close(self) -> None:
        self.http.close()

    def call(self, method: str, path: str, body=None, headers=None, auth=None) -> Reply:
        """Send one request and read the whole reply body into ``buf``."""
        hdrs = {"Authorization": auth or self.auth}
        if headers:
            hdrs.update(headers)
        t0 = perf_counter()
        try:
            self.http.request(method, path, body=body, headers=hdrs)
            resp = self.http.getresponse()
            n = resp.length or 0
            if n > len(self.buf):
                self.buf = bytearray(n)
                self.view = memoryview(self.buf)
            got = 0
            while got < n:
                k = resp.readinto(self.view[got:n])
                if not k:
                    break
                got += k
            if not resp.isclosed() and resp.read():
                raise http.client.HTTPException("reply longer than Content-Length")
        except (OSError, http.client.HTTPException) as e:
            # reconnect so one broken reply cannot poison the next request
            self.http.close()
            return Reply(-1, {"error": repr(e)}, 0, perf_counter() - t0)
        return Reply(resp.status, resp.getheaders(), got, perf_counter() - t0)

    def json(self, reply: Reply):
        try:
            return json.loads(self.buf[: reply.length])
        except ValueError:
            return None

    def body_is(self, reply: Reply, expected) -> bool:
        """Reply body equals ``expected`` (bytes-like), compared in place."""
        return reply.length == len(expected) and self.buf.startswith(expected)


def header_map(reply: Reply) -> dict[str, str]:
    return {k.lower(): v for k, v in reply.headers} if reply.status > 0 else {}


def check_download(conn: Conn, reply: Reply, doc: Doc, pool, byte_range=None) -> bool:
    """Status, the exact delivery header set, and the body bytes."""
    start, end = byte_range if byte_range else (0, doc.size - 1)
    want_status = 206 if byte_range else 200
    h = header_map(reply)
    names = DELIVERY_HEADERS | ({"content-range"} if byte_range else set())
    return (
        reply.status == want_status
        and set(h) == names
        and h["content-type"] == doc.media_type
        and h["content-length"] == str(end - start + 1)
        and h["accept-ranges"] == "bytes"
        and h["content-disposition"] == f'attachment; filename="{doc.filename}"'
        and (not byte_range or h["content-range"] == f"bytes {start}-{end}/{doc.size}")
        and conn.body_is(reply, pool[doc.offset + start : doc.offset + end + 1])
    )


def not_found_signature(conn: Conn, reply: Reply):
    """What a 404 looks like on the wire, minus the Date header."""
    h = [(k.lower(), v) for k, v in reply.headers if k.lower() != "date"] if reply.status > 0 else []
    return reply.status, h, bytes(conn.view[: reply.length])


def check_page(conn: Conn, reply: Reply, expected: list[Doc], next_cursor) -> bool:
    """One listing page: exactly these documents, in order, and this cursor."""
    if reply.status != 200:
        return False
    page = conn.json(reply)
    return (
        isinstance(page, dict)
        and page.get("documents") == [d.public() for d in expected]
        and page.get("next_cursor") == next_cursor
    )


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def latency_summary(samples: list[float]) -> dict:
    if not samples:
        return {"n": 0}
    return {
        "n": len(samples),
        "p50_ms": statistics.median(samples),
        "p90_ms": percentile(samples, 90),
        "mean_ms": statistics.fmean(samples),
    }


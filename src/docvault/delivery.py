"""Mediated blob delivery: read from the filesystem, emit explicit headers.

A protected document is never handed to a web server as a static file.
The application opens the blob itself, builds the response headers
(Content-Type, Content-Length, Accept-Ranges, Content-Disposition, and
Content-Range on a 206) and streams the content in bounded-size chunks,
or has the kernel send it from the blob's fd.
Single byte ranges are honored so the advertised ``Accept-Ranges: bytes``
is truthful.
"""

from __future__ import annotations

import mimetypes
import os
import socket
from dataclasses import dataclass
from typing import Iterator
from urllib.parse import quote

from .access import AccessProof
from .errors import BlobMissing, RangeNotSatisfiable
from .metadata import DocumentRecord
from .placement import open_blob

CHUNK_SIZE = 64 * 1024

_EXTENSION_TYPES = {
    ".pdf": "application/pdf",
    ".png": "image/png",
    ".jpg": "image/jpeg",
    ".jpeg": "image/jpeg",
    ".gif": "image/gif",
    ".zip": "application/zip",
    ".txt": "text/plain",
    ".html": "text/html",
    ".htm": "text/html",
    ".json": "application/json",
    ".csv": "text/csv",
}

_MAGIC_TYPES = [
    (b"%PDF", "application/pdf"),
    (b"\x89PNG\r\n\x1a\n", "image/png"),
    (b"\xff\xd8\xff", "image/jpeg"),
    (b"PK\x03\x04", "application/zip"),
]

_UNQUOTABLE = frozenset('"/\\')


def _quotable(text: str) -> bool:
    """Whether ``text`` may stand as itself in a quoted download name."""
    return text.isascii() and text.isprintable() and _UNQUOTABLE.isdisjoint(text)


def build_headers(
    record: DocumentRecord, length: int, content_range: str | None
) -> list[tuple[str, str]]:
    """The one delivery header set, in the order it is sent: ``length``
    octets of this record, which are a part of it exactly when
    ``content_range`` is given."""
    name = record.original_filename
    disposition = f'attachment; filename="{name}"'
    if not _quotable(name):
        # A quoted name carries only printable ASCII, and no quote, slash or
        # backslash: a fallback with "_" for each other character for old
        # clients, then the exact name in RFC 8187 form (RFC 6266 section 4.3).
        fallback = "".join(c if _quotable(c) else "_" for c in name)
        encoded = quote(name, safe="", errors="replace")
        disposition = f"attachment; filename=\"{fallback}\"; filename*=UTF-8''{encoded}"
    headers = [
        ("Content-Type", record.media_type),
        ("Content-Length", str(length)),
        ("Accept-Ranges", "bytes"),
        ("Content-Disposition", disposition),
    ]
    if content_range:
        headers.append(("Content-Range", content_range))
    return headers


def detect_media_type(original_filename: str, sniff: bytes = b"") -> str:
    """Extension lookup first, then magic-byte sniffing, then octet-stream."""
    ext = os.path.splitext(original_filename.lower())[1]
    if ext in _EXTENSION_TYPES:
        return _EXTENSION_TYPES[ext]
    guessed, _ = mimetypes.guess_type(original_filename)
    if guessed:
        return guessed
    head = sniff[:512]
    for magic, mtype in _MAGIC_TYPES:
        if head.startswith(magic):
            return mtype
    if head and b"\x00" not in head:
        try:
            head.decode("utf-8")
            return "text/plain"
        except UnicodeDecodeError:
            pass
    return "application/octet-stream"


@dataclass
class StreamResult:
    """One prepared response: status, headers, and the open blob its body
    comes from, sent either as chunks or by ``sendfile``, neither of which
    closes it: its holder (the service's ``_serve``, or ``vault get``) calls
    ``close()`` however the reply ends."""

    status: int  # 200 whole file, 206 partial
    headers: list[tuple[str, str]]
    record: DocumentRecord
    offset: int
    length: int
    _fd: int

    def chunks(self) -> Iterator[bytes]:
        """Yield exactly `length` octets starting at `offset`.

        Reads in fixed-size chunks, so peak memory is independent of blob
        size.  The length was taken from the open file up front; if the
        blob shrank since, this raises rather than padding.
        """
        offset, end = self.offset, self.offset + self.length
        while offset < end:
            chunk = os.pread(self._fd, min(CHUNK_SIZE, end - offset), offset)
            if not chunk:
                raise BlobMissing(f"blob truncated while streaming: {self.record.doc_id}")
            offset += len(chunk)
            yield chunk

    def sendfile(self, sock: socket.socket) -> None:
        """Send what ``chunks()`` yields to ``sock`` with ``socket.sendfile``,
        which has the kernel copy the blob's pages."""
        with open(self._fd, "rb", buffering=0, closefd=False) as blob:
            sent = sock.sendfile(blob, self.offset, self.length)
        if sent != self.length:
            raise BlobMissing(f"blob truncated while streaming: {self.record.doc_id}")

    def close(self) -> None:
        fd, self._fd = self._fd, -1
        if fd >= 0:
            os.close(fd)


def is_digits(value: str) -> bool:
    """ASCII digits only.  int() alone also takes a sign, surrounding
    spaces, underscores and non-ASCII digits."""
    return value.isascii() and value.isdigit()


def parse_range_header(value: str | None, size: int) -> tuple[int, int] | None:
    """Parse a single bytes range into (start, end) inclusive.

    Returns None for absent, malformed, or multi-range headers (the caller
    then serves the full file).  Raises RangeNotSatisfiable when the range
    is well-formed but lies past the end of the blob.
    """
    if not value:
        return None
    unit, _, spec = value.partition("=")
    if unit.strip() != "bytes" or "," in spec:
        return None
    start_s, sep, end_s = spec.partition("-")
    if not sep or not is_digits(start_s + end_s):
        return None
    try:
        if start_s == "":
            # suffix form: last N bytes
            n = int(end_s)
            if n <= 0 or size == 0:
                raise RangeNotSatisfiable(value)
            return max(0, size - n), size - 1
        start = int(start_s)
        end = int(end_s) if end_s else size - 1
    except ValueError:  # past int()'s digit limit
        return None
    if end_s and end < start:
        return None
    if start >= size:
        raise RangeNotSatisfiable(value)
    return start, min(end, size - 1)


def stream_document(
    record: DocumentRecord,
    vault_fd: int,
    authz_proof: AccessProof,
    range_header: str | None = None,
) -> StreamResult:
    """Prepare the mediated response for one record, whole or the one range
    that ``range_header`` asks for of the blob as opened.

    Requires an AccessProof for this document (only authorize() can issue
    one) and never modifies the blob, which ``open_blob`` opens under the
    held vault directory fd.
    """
    if not isinstance(authz_proof, AccessProof) or authz_proof.doc_id != record.doc_id:
        raise PermissionError("delivery requires an authorization proof for this document")

    fd, size = open_blob(vault_fd, record.opaque_name)
    try:
        byte_range = parse_range_header(range_header, size)
        start, end = byte_range or (0, size - 1)
        return StreamResult(
            status=206 if byte_range else 200,
            headers=build_headers(record, end - start + 1,
                                  byte_range and f"bytes {start}-{end}/{size}"),
            record=record, offset=start, length=end - start + 1, _fd=fd,
        )
    except BaseException:
        os.close(fd)
        raise

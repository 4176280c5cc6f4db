"""The HTTP face of the vault: upload, list, download, delete.

The routing table maps URLs onto store operations only; no route ever maps
a URL path onto vault_dir contents, so a blob is structurally unreachable
as a static file.  Requests with traversal segments are rejected before
anything touches the filesystem.  Downloads go through the mediated
delivery path and carry its exact header recipe; response bodies and
headers never contain an opaque storage name or a vault path.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import threading
import time
import unicodedata
import weakref
from contextlib import suppress
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import BinaryIO
from urllib.parse import parse_qs, unquote, urlsplit

from . import delivery
from .access import Action, Principal, Role, TokenStore, authorize, parse_bearer
from .config import ServiceConfig
from .errors import (
    BlobMissing,
    DuplicateOpaqueName,
    InvalidCursor,
    InvalidFilename,
    NotFound,
    RangeNotSatisfiable,
    TooLarge,
    TruncatedBody,
    VaultError,
)
from .journal import JournalStore
from .metadata import DocumentRecord, MetadataStore, new_doc_id
from .naming import NameInputs, SecretKey, derive_opaque_name
from .placement import materialize_layout, open_vault_dir

MAX_NAME_RETRIES = 32
_FALLBACK_EXTENSION = "bin"


def extension_for(filename: str) -> str:
    """Lowercased extension of the upload, or a fixed fallback when absent."""
    ext = os.path.splitext(filename)[1].lstrip(".").lower()
    if ext and len(ext) <= 10 and ext.isalnum() and ext.isascii():
        return ext
    return _FALLBACK_EXTENSION


# C0 and C1 controls, path separators, and lone surrogates (no UTF-8 name holds one)
_FILENAME_FORBIDDEN = re.compile(r"[\x00-\x1f\x7f-\x9f/\\\ud800-\udfff]")


class VaultCore:
    """Store-level operations shared by the HTTP service and the local CLI.

    It holds the vault directory open, and every blob operation is made
    relative to that fd: no request joins a vault path.
    """

    def __init__(self, config: ServiceConfig, key: SecretKey, journal: JournalStore):
        self.config = config
        self.key = key
        self.journal = journal
        self.records = MetadataStore(journal)
        self.tokens = TokenStore(journal)
        self.vault_dir = Path(config.vault_dir)
        self.vault_fd = open_vault_dir(self.vault_dir)
        # close() closes it, and so does dropping a core that was never closed
        self._close_vault = weakref.finalize(self, os.close, self.vault_fd)

    def close(self) -> None:
        self._close_vault()

    def upload(
        self,
        principal: Principal,
        original_filename: str,
        content: BinaryIO,
        content_length: int,
        now: int | None = None,
    ) -> DocumentRecord:
        """Store one document: the blob under the name it claims, then its record.

        The blob is created under its name with O_EXCL, which fails, across
        processes too, on any entry there; a burst of one (owner, extension)
        takes the slots past the newest in the store, and ``upload_timestamp``
        stays ``now``.  Only the record, put after the blob's fsync, makes the
        blob readable: a failed upload unlinks it, and a crash leaves an orphan
        for fsck.  The filename is stored NFC; one that is empty, longer than
        255 UTF-8 bytes, or holds a control, ``/`` or ``\\`` is refused.
        """
        if content_length > self.config.max_upload_bytes:
            raise TooLarge(
                f"{content_length} bytes exceeds limit {self.config.max_upload_bytes}"
            )
        filename = unicodedata.normalize("NFC", original_filename)
        if not filename or _FILENAME_FORBIDDEN.search(filename) or len(filename.encode()) > 255:
            raise InvalidFilename()
        ext = extension_for(filename)
        now = int(time.time()) if now is None else now

        start = max(now, self.records.last_slot(principal.username, ext) + 1)
        for slot in range(start, start + MAX_NAME_RETRIES):
            name = derive_opaque_name(NameInputs(principal.username, slot, ext), self.key)
            if not self.records.name_taken(name.render()):
                with suppress(FileExistsError):  # a symlink or a FIFO there too
                    fd = os.open(name.render(), os.O_WRONLY | os.O_CREAT | os.O_EXCL
                                 | os.O_CLOEXEC, 0o600, dir_fd=self.vault_fd)
                    break
        else:
            raise DuplicateOpaqueName(
                f"no free storage name for {principal.username!r} near t={now}"
            )
        try:
            sha = hashlib.sha256()
            head = b""
            with os.fdopen(fd, "wb") as blob:
                remaining = content_length
                while remaining > 0:
                    chunk = content.read(min(delivery.CHUNK_SIZE, remaining))
                    if not chunk:
                        raise TruncatedBody("request body shorter than declared length")
                    if len(head) < 512:
                        head += chunk[: 512 - len(head)]
                    sha.update(chunk)
                    blob.write(chunk)
                    remaining -= len(chunk)
                blob.flush()
                os.fsync(blob.fileno())
            record = DocumentRecord(
                doc_id=new_doc_id(),
                owner=principal.username,
                original_filename=filename,
                media_type=delivery.detect_media_type(filename, head),
                size_bytes=content_length,
                upload_timestamp=now,
                slot=slot,
                opaque_name=name,
                checksum=sha.hexdigest(),
            )
            self.records.put_record(record)
        except BaseException:
            self._unlink(name.render())
            raise
        return record

    def _unlink(self, name: str) -> None:
        with suppress(FileNotFoundError):
            os.unlink(name, dir_fd=self.vault_fd)

    def _authorized_record(
        self, principal: Principal, doc_id: str, action: Action
    ) -> tuple[DocumentRecord, object]:
        record = self.records.get_by_id(doc_id)
        if record is None:
            raise NotFound(doc_id)
        proof = authorize(principal, record, action)
        if proof is None:
            # Denied reads as NotFound so non-owners cannot confirm existence.
            raise NotFound(doc_id)
        return record, proof

    def download(
        self,
        principal: Principal,
        doc_id: str,
        range_header: str | None = None,
    ) -> delivery.StreamResult:
        """Lookup, then authorize, then the range: a denied read fails as
        NotFound before the range is looked at, so a range past the end of
        someone else's document reads as a missing one."""
        record, proof = self._authorized_record(principal, doc_id, Action.READ)
        return delivery.stream_document(record, self.vault_fd, proof, range_header)

    def list_documents(self, principal: Principal, cursor: str | None = None):
        if principal.role is Role.ADMIN:
            return self.records.list_all(cursor=cursor)
        return self.records.list_by_owner(principal.username, cursor=cursor)

    def delete_document(self, principal: Principal, doc_id: str) -> None:
        record, _proof = self._authorized_record(principal, doc_id, Action.DELETE)
        # Record first, then blob: a crash in between leaves an orphan blob
        # (found by fsck), never a record pointing at nothing.
        if not self.records.delete_record(doc_id):
            raise NotFound(doc_id)
        self._unlink(record.opaque_name.render())


def _has_traversal(path: str) -> bool:
    decoded = unquote(path)
    return any(seg in ("..", ".") for seg in decoded.split("/") if seg != "")


class BadRequest(VaultError):
    """HTTP/0.9, a header line the parser could not take, a folded one, or not one Host."""


class BadFraming(VaultError):
    """A Transfer-Encoding, or more than one Content-Length."""


class NegativeLength(VaultError):
    """A Content-Length of a minus sign and digits."""


class LengthRequired(VaultError):
    """An upload without a Content-Length of ASCII digits."""


class InvalidPath(VaultError):
    """A request path with a traversal segment."""


class Unauthenticated(VaultError):
    """No bearer token, or one that names no live token."""


class FilenameRequired(VaultError):
    """An upload that names no filename."""


# The reply to each error a request can end in: status, message, and whether
# the connection closes.  A message never carries the exception's text, which
# can name a vault path.  Denied and missing documents both raise NotFound,
# so their replies are the same bytes.
_ERRORS: dict[type, tuple[int, str, bool]] = {
    BadRequest: (400, "bad request", True),
    BadFraming: (400, "invalid framing", True),
    NegativeLength: (400, "negative Content-Length", True),
    LengthRequired: (411, "length required", True),
    InvalidPath: (400, "invalid path", False),
    Unauthenticated: (401, "authentication required", False),
    FilenameRequired: (400, "filename parameter required", False),
    InvalidFilename: (400, "invalid filename", False),
    InvalidCursor: (400, "invalid cursor", False),
    NotFound: (404, "not found", False),
    RangeNotSatisfiable: (416, "range not satisfiable", False),
    TooLarge: (413, "upload too large", False),
    TruncatedBody: (400, "truncated request body", False),
    DuplicateOpaqueName: (409, "could not allocate a storage name", False),
    BlobMissing: (500, "stored document unavailable", False),
    VaultError: (500, "internal error", True),
    OSError: (500, "internal error", True),
}

_ROUTES = {
    ("GET", "/documents"),
    ("POST", "/documents"),
    ("GET", "/documents/{doc_id}"),
    ("DELETE", "/documents/{doc_id}"),
}


class VaultRequestHandler(BaseHTTPRequestHandler):
    server_version = "DocVault"
    protocol_version = "HTTP/1.1"

    # No reply may wait on the client's delayed ACK, which Nagle's algorithm
    # makes a second small write do: TCP_NODELAY on every accepted socket,
    # and a buffered wfile, so that a small reply's status line, headers and
    # body leave in one write when handle_one_request flushes it after the
    # verb.  Only a body of at most one chunk passes through wfile; a larger
    # one is sent by sendfile after the headers.  The buffer is one byte
    # short of a chunk, so a body of one full chunk goes to the socket
    # without being copied into it.
    disable_nagle_algorithm = True
    wbufsize = delivery.CHUNK_SIZE - 1

    def log_message(self, fmt, *args):  # keep test output quiet
        pass

    def version_string(self):
        return self.server_version  # the Server header names no Python version

    def handle_expect_100(self):
        # The client waits for this interim reply before it sends the body,
        # so it cannot sit in the buffer until the final reply.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _serve(self):
        """Answer one request: framing, route, error table, then the one writer."""
        length, close = None, False
        try:
            length = self._framing()
            status, body = self._route(length)
        except (VaultError, OSError) as exc:
            for cls in type(exc).__mro__:  # the most specific entry
                if cls in _ERRORS:
                    break
            status, message, close = _ERRORS[cls]
            body = {"error": message}
        try:
            # A body left unread would be parsed as the next request: GET and
            # DELETE never read one, and an upload reads it only when it succeeds.
            self._write(status, body, close or (
                status != 201 if self.command == "POST" else length))
        finally:
            if isinstance(body, delivery.StreamResult):
                body.close()  # a body sent, cut short, or never started

    def send_error(self, code, message=None, explain=None):
        """http.server's own refusals (400, 414, 431, 501, 505) leave by the
        one writer too, never as its HTML page, which can quote the request."""
        self._write(code, {"error": HTTPStatus(code).phrase.lower()}, close=True)

    def _write(self, status: int, body, close: bool) -> None:
        """Write one reply: status line, headers, then the body: a JSON value,
        bytes, or a StreamResult with headers of its own, which goes by
        sendfile after the headers when it is more than one chunk."""
        if isinstance(body, delivery.StreamResult):
            headers = body.headers
        else:
            if not isinstance(body, bytes):
                body = json.dumps(body).encode("utf-8")
            headers = [("Server", self.version_string()), ("Date", self.date_time_string()),
                       ("Content-Type", "application/json"), ("Content-Length", str(len(body)))]
        try:
            self.request_version = self.protocol_version  # HTTP/0.9 would get no status line
            self.send_response_only(status)
            for name, value in headers:
                self.send_header(name, value)
            if close:
                self.send_header("Connection", "close")  # sets close_connection
            self.end_headers()
            if isinstance(body, bytes):
                self.wfile.write(body)
            elif body.length <= delivery.CHUNK_SIZE:
                self.wfile.write(b"".join(body.chunks()))  # one chunk at most
            else:  # the headers leave first
                self.wfile.flush()
                body.sendfile(self.connection)
        except BlobMissing:
            self.close_connection = True

    do_GET = do_POST = do_DELETE = _serve

    def _framing(self) -> int | None:
        """The body's Content-Length, or None without one (RFC 9112 section 6.3).

        The vault takes no chunked bodies, and a second Content-Length could
        be the one a proxy in front used: either is refused, so that the
        vault and the proxy never see different request boundaries.  So is a
        head that a proxy could read otherwise (RFC 9112 sections 3.2 and 5).
        """
        if (self.request_version == "HTTP/0.9" or self.headers.defects
                or len(self.headers.get_all("Host", ())) != 1
                or any("\n" in value for value in self.headers.values())):
            raise BadRequest()
        lengths = self.headers.get_all("Content-Length", ())
        if "Transfer-Encoding" in self.headers or len(lengths) > 1:
            raise BadFraming()
        if not lengths:
            return None
        value = lengths[0]
        if not delivery.is_digits(value.removeprefix("-")):
            raise LengthRequired()
        if value.startswith("-"):
            raise NegativeLength()
        try:
            return int(value)
        except ValueError:  # past int()'s digit limit, so past any upload limit
            raise TooLarge() from None

    def _route(self, length: int | None):
        """Check the path, match the route, authenticate once, then make the
        one VaultCore call.  Returns the status and the body: a JSON value,
        bytes, or a StreamResult."""
        if _has_traversal(self.path):
            raise InvalidPath()
        url = urlsplit(self.path)
        route, doc_id = url.path, None
        if route.startswith("/documents/"):
            route, doc_id = "/documents/{doc_id}", route[len("/documents/"):]
        if (self.command, route) == ("GET", "/healthz"):
            return 200, {"status": "ok"}
        if (self.command, route) not in _ROUTES:
            raise NotFound()
        core = self.server.core
        principal = core.tokens.authenticate(parse_bearer(self.headers.get("Authorization")))
        if principal is None:
            raise Unauthenticated()
        if self.command == "POST":
            query = parse_qs(url.query)
            filename = (query.get("filename") or [""])[0]
            if not filename:
                try:  # http.server decodes header bytes as Latin-1; a name is UTF-8
                    filename = self.headers.get("X-Filename", "").encode("latin-1").decode()
                except UnicodeError:
                    raise InvalidFilename() from None
            if not filename:
                raise FilenameRequired()
            if length is None:
                raise LengthRequired()
            return 201, core.upload(principal, filename, self.rfile, length).public_row
        if self.command == "DELETE":
            core.delete_document(principal, doc_id)
            return 200, {"deleted": doc_id}
        if doc_id is not None:
            result = core.download(principal, doc_id, self.headers.get("Range"))
            return result.status, result
        cursor = (parse_qs(url.query).get("cursor") or [None])[0]
        return 200, list_body(*core.list_documents(principal, cursor))


def list_body(records: list[DocumentRecord], next_cursor: str | None) -> bytes:
    """The JSON of one listing page, joined from the records' encoded public
    rows: the bytes ``json.dumps`` gives for the same page."""
    return (b'{"documents": [' + b", ".join(r.public_row for r in records)
            + b'], "next_cursor": ' + json.dumps(next_cursor).encode("utf-8") + b"}")


class VaultHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, core: VaultCore):
        super().__init__(address, VaultRequestHandler)
        self.core = core

    def handle_error(self, request, client_address):
        # A client that goes away ends its connection quietly.  The write
        # that meets the reset is not the last to raise: handle_one_request
        # flushes after the verb, and finish() closes the buffered wfile.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class VaultService:
    """Owns the server thread; used by `vault serve` and the test harness."""

    def __init__(self, config: ServiceConfig, key: SecretKey | None = None):
        self.config = config
        key = key if key is not None else config.load_key()
        materialize_layout(config.layout())
        self.journal = JournalStore(config.store_path)
        self.core = VaultCore(config, key, self.journal)
        self._server = VaultHTTPServer((config.bind_host, config.bind_port), self.core)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self):
        # A short poll, so that stop() does not wait out serve_forever's 0.5 s.
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(0.02,), daemon=True
        )
        self._thread.start()

    def serve_forever(self):
        self._server.serve_forever()

    def stop(self):
        self._server.shutdown()
        self._server.server_close()
        if self._thread:
            self._thread.join(timeout=5)
        self.core.close()
        self.journal.close()

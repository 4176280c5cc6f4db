"""The HTTP face of the vault: upload, list, download, delete.

The routing table maps URLs onto store operations only; no route ever maps
a URL path onto vault_dir contents, so a blob is structurally unreachable
as a static file.  Requests with traversal segments are rejected before
anything touches the filesystem.  Downloads go through the mediated
delivery path and carry its exact header recipe; response bodies and
headers never contain an opaque storage name or a vault path.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import queue
import re
import sys
import threading
import time
import unicodedata
import weakref
from contextlib import ExitStack, contextmanager, suppress
from email.utils import formatdate
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
    IoFailure,
    NotFound,
    RangeNotSatisfiable,
    TooLarge,
    TruncatedBody,
    VaultError,
)
from .journal import JournalStore
from .metadata import DocumentRecord, MetadataStore, new_doc_id
from .naming import SecretKey, derive_opaque_name, extension_for
from .placement import materialize_layout, open_vault_dir

MAX_NAME_RETRIES = 32
WRITEBACK_WINDOW = 8 * 1024 * 1024  # an upload starts the writeback of each one it completes


def _writeback_call():
    """``start(fd, offset, nbytes)``: sync_file_range(2) with SYNC_FILE_RANGE_WRITE,
    which queues the range's dirty pages for the disk, keeps them cached and
    waits for none, or nothing where libc lacks it.  Its result is ignored:
    the fsync after it reports a failed write."""
    try:
        call = ctypes.CDLL(None, use_errno=True).sync_file_range
    except AttributeError:
        return lambda fd, offset, nbytes: None
    call.argtypes = (ctypes.c_int, ctypes.c_longlong, ctypes.c_longlong, ctypes.c_uint)
    return lambda fd, offset, nbytes: call(fd, offset, nbytes, 2)  # SYNC_FILE_RANGE_WRITE


_start_writeback = _writeback_call()


@contextmanager
def _hashing(sha, size: int):
    """Yield the call that feeds ``sha`` a body's chunks in order.  Past one
    chunk a thread hashes them beside the caller's I/O (sha256 drops the
    GIL), and it is joined however the caller leaves."""
    if size <= delivery.CHUNK_SIZE:
        yield sha.update
        return
    feed = queue.Queue(8)

    def drain():
        for chunk in iter(feed.get, None):
            sha.update(chunk)

    hasher = threading.Thread(target=drain, daemon=True)  # as the handler that feeds it
    hasher.start()
    try:
        yield feed.put
    finally:
        feed.put(None)
        hasher.join()


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
        stays ``now``.  A body of more than one chunk is hashed in a second
        thread, fed the chunks in order while this one reads, writes and
        fsyncs; the thread is joined however the upload ends.  Each full
        ``WRITEBACK_WINDOW`` of the body but its last starts its writeback
        once written, so the blob's fsync, still what makes it durable, waits
        only for the tail.  Only the record, put after the fsyncs of the blob
        and of the vault directory, makes the blob readable: a failed upload
        unlinks it, and a crash leaves an orphan for fsck.  The filename is
        stored NFC; one that is empty, longer than 255 UTF-8 bytes, or holds
        a control, ``/`` or ``\\`` is refused.
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
            name = derive_opaque_name(principal.username, slot, ext, self.key.octets)
            if not self.records.name_taken(name):
                with suppress(FileExistsError):  # a symlink or a FIFO there too
                    fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                                 | os.O_CLOEXEC, 0o600, dir_fd=self.vault_fd)
                    break
        else:
            raise DuplicateOpaqueName(
                f"no free storage name for {principal.username!r} near t={now}"
            )
        try:
            sha = hashlib.sha256()
            head = b""
            with os.fdopen(fd, "wb") as blob, _hashing(sha, content_length) as update:
                remaining, window = content_length, 0  # the next writeback's start
                while remaining > 0:
                    chunk = content.read(min(delivery.CHUNK_SIZE, remaining))
                    if not chunk:
                        raise TruncatedBody("request body shorter than declared length")
                    if len(head) < 512:
                        head += chunk[: 512 - len(head)]
                    update(chunk)
                    blob.write(chunk)
                    remaining -= len(chunk)
                    if remaining and content_length - remaining >= window + WRITEBACK_WINDOW:
                        _start_writeback(blob.fileno(), window, WRITEBACK_WINDOW)
                        window += WRITEBACK_WINDOW
                blob.flush()
                os.fsync(blob.fileno())
            os.fsync(self.vault_fd)  # the blob's new directory entry
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
            self._unlink(name)
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
        self._unlink(record.opaque_name)


def _has_traversal(path: str) -> bool:
    decoded = unquote(path)
    return any(seg in ("..", ".") for seg in decoded.split("/") if seg != "")


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
    TimeoutError: (408, "request timeout", True),
    VaultError: (500, "internal error", True),
    OSError: (500, "internal error", True),
}

# RFC 9112 sections 3 and 5: a request line is a method token, a target of
# visible ASCII and HTTP/d.d, single-spaced; a field line is a token, then
# its colon, then a value without CR, LF or NUL.  Each line ends in CRLF.
_TOKEN = r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+"
_REQUEST_LINE = re.compile(rf"({_TOKEN}) ([!-~]+) HTTP/(\d)\.(\d)\r\n")
_FIELD_LINE = re.compile(rf"({_TOKEN}):([^\r\n\x00]*)\r\n")
MAX_FIELDS = 100
MAX_LINE = 65536

_STATUS_LINES = {status: f"HTTP/1.1 {status.value} {status.phrase}" for status in HTTPStatus}
_date = (0, "")  # (second, its Date value): replaced whole, never half-updated


def _http_date() -> str:
    """The Date value of this second, formatted once per second."""
    global _date
    now = int(time.time())
    second, value = _date
    if second != now:
        value = formatdate(now, usegmt=True)
        _date = (now, value)
    return value


_ROUTES = {
    ("GET", "/documents"),
    ("POST", "/documents"),
    ("GET", "/documents/{doc_id}"),
    ("DELETE", "/documents/{doc_id}"),
}


class VaultRequestHandler(BaseHTTPRequestHandler):
    server_version = "DocVault"

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
    # A read that waits this many seconds for the client ends the connection,
    # after a 408 when it read an upload's body (nginx's default for
    # client_header_timeout and client_body_timeout).
    timeout = 60

    def log_message(self, fmt, *args):  # keep test output quiet
        pass

    def parse_request(self) -> bool:
        """Read the head after the request line that handle_one_request read,
        and answer a bad one with one JSON reply and a close."""
        status = self._read_head()
        if status:
            self.send_error(status)
        return not status

    def _read_head(self) -> int | None:
        """The status that refuses the head, or None for one read whole.

        Strict where RFC 9112 sections 2.2, 3 and 5 ask, so that no proxy in
        front reads the head otherwise: CRLF line ends only, no obs-fold, no
        space before a colon, no CR or NUL in a value, and exactly one Host.
        ``self.headers`` maps each lowercased field name to its values.
        """
        line = _REQUEST_LINE.fullmatch(self.raw_requestline.decode("latin-1"))
        if line is None or line[3] == "0":  # HTTP/0.9 has no head to check
            return 400
        self.command, self.path, major, minor = line.groups()
        if major != "1":
            return 505
        self.close_connection = minor == "0"
        self.headers = fields = {}
        for _ in range(MAX_FIELDS + 1):
            raw = self.rfile.readline(MAX_LINE + 1)
            if len(raw) > MAX_LINE:
                return 431
            if raw == b"\r\n":
                break
            field = _FIELD_LINE.fullmatch(raw.decode("latin-1"))
            if field is None:
                return 400
            fields.setdefault(field[1].lower(), []).append(field[2].strip(" \t"))
        else:
            return 431
        if len(fields.get("host", ())) != 1:
            return 400
        connection = fields.get("connection", [""])[0].lower()
        if connection in ("close", "keep-alive"):
            self.close_connection = connection == "close"
        if fields.get("expect", [""])[0].lower() == "100-continue" and minor != "0":
            # The client waits for this before it sends the body, so it
            # cannot sit in the buffer until the final reply.
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            self.wfile.flush()
        return None

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
        """Refusals of the head (400, 414, 431, 501, 505) leave by the one
        writer too, never as http.server's HTML page, which can quote the
        request."""
        self._write(code, {"error": HTTPStatus(code).phrase.lower()}, close=True)

    def _write(self, status: int, body, close: bool) -> None:
        """Write one reply: the head, joined in one string, then the body: a
        JSON value, bytes, or a StreamResult with headers of its own, which
        goes by sendfile after the head when it is more than one chunk."""
        if isinstance(body, delivery.StreamResult):
            headers = body.headers
        else:
            if not isinstance(body, bytes):
                body = json.dumps(body).encode("utf-8")
            headers = [("Server", self.server_version), ("Date", _http_date()),
                       ("Content-Type", "application/json"), ("Content-Length", str(len(body)))]
        lines = [_STATUS_LINES[status], *(f"{name}: {value}" for name, value in headers)]
        if close:
            lines.append("Connection: close")
            self.close_connection = True
        try:
            self.wfile.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
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
        vault and the proxy never see different request boundaries.
        """
        lengths = self.headers.get("content-length", ())
        if "transfer-encoding" in self.headers or len(lengths) > 1:
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
        principal = core.tokens.authenticate(
            parse_bearer(self.headers.get("authorization", [None])[0]))
        if principal is None:
            raise Unauthenticated()
        if self.command == "POST":
            try:  # a name is UTF-8; the head was decoded as Latin-1
                filename = ((parse_qs(url.query, errors="strict").get("filename") or [""])[0]
                            or self.headers.get("x-filename", [""])[0].encode("latin-1").decode())
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
            result = core.download(principal, doc_id, self.headers.get("range", [None])[0])
            return result.status, result
        cursor = (parse_qs(url.query).get("cursor") or [None])[0]
        return 200, list_body(*core.list_documents(principal, cursor))


def list_body(records: list[DocumentRecord], next_cursor: str | None) -> bytes:
    """The JSON of one listing page, joined from the records' encoded public
    rows: the bytes ``json.dumps`` gives for the same page."""
    return (b'{"documents": [' + b", ".join(r.public_row for r in records)
            + b'], "next_cursor": ' + json.dumps(next_cursor).encode("utf-8") + b"}")


class VaultHTTPServer(ThreadingHTTPServer):
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
        address = (config.bind_host, config.bind_port)
        with ExitStack() as opened:  # closes what was opened if a later step fails
            self.journal = opened.enter_context(JournalStore(config.store_path))
            self.core = VaultCore(config, key, self.journal)
            opened.callback(self.core.close)
            try:
                self._server = VaultHTTPServer(address, self.core)
            except OSError as exc:
                raise IoFailure("%s:%d" % address, exc) from None
            opened.pop_all()
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

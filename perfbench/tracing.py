"""In-memory span recorder installed around docvault's public functions.

Nothing under ``src/`` knows about it: ``install_server_spans`` replaces
the functions the program looks up (class attributes, module attributes
and the names a module imported) with wrappers that record a span per
call.  Spans are kept in a list and written out once, when the process
stops serving.

A span is ``(span_id, parent_id, request_id, name, t0, t1, tag)``.  The
parent follows a per-thread stack, so a span's children are the spans its
thread opened while it was open.  A root span (the request handler's
``do_GET``/``do_POST``/``do_DELETE``) starts a new request id; every span
and count below it carries that id.  Spans outside any request (set-up,
fsck) carry request id 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        # (request_id, name) -> count; a request runs on one thread, so no
        # two threads update the same key
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_request(self) -> int:
        stack = self._stack()
        return stack[-1][1] if stack else 0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.current_request(), name)] += n

    def record(self, name: str, t0: float, t1: float) -> None:
        """A leaf span that was timed by the caller (e.g. one generator step)."""
        stack = self._stack()
        parent, req = stack[-1] if stack else (0, 0)
        self.spans.append((next(self._ids), parent, req, name, t0, t1, None))

    def wrap(self, fn, name: str, *, root: bool = False, tag=None, on_result=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``tag(args)`` labels the span (the route of a root span);
        ``on_result(result)`` runs inside the span to count what it returned.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent, req = stack[-1] if stack else (0, 0)
            if root:
                parent, req = 0, sid
            stack.append((sid, req))
            label = tag(args) if tag else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, req, name, t0, t1, label))

        return wrapper

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kw))

    def as_dict(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[req, name, n] for (req, name), n in self.counts.items()],
        }

    def dump(self, path: str | os.PathLike) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh)


def _handler_route(args) -> str:
    handler = args[0]
    path = handler.path.split("?", 1)[0]
    if handler.command == "GET":
        return "list" if path == "/documents" else "download"
    return {"POST": "upload", "DELETE": "delete"}.get(handler.command, handler.command)


def install_server_spans(tracer: Tracer) -> None:
    """Wrap every layer the service process runs, before VaultService exists."""
    from docvault import delivery, metadata, service
    from docvault.access import TokenStore
    from docvault.journal import JournalStore
    from docvault.metadata import DocumentRecord, MetadataStore
    from docvault.service import VaultCore, VaultRequestHandler

    for verb in ("do_GET", "do_POST", "do_DELETE"):
        tracer.patch(VaultRequestHandler, verb, "service.handler", root=True, tag=_handler_route)
    tracer.patch(VaultCore, "upload", "service.upload")

    tracer.patch(TokenStore, "authenticate", "access.authenticate")

    def count_denied(proof):
        if proof is None:
            tracer.count("access.authorize.denied")

    # service imported these names, so the wrappers go where it looks them up
    tracer.patch(service, "authorize", "access.authorize", on_result=count_denied)
    tracer.patch(service, "derive_opaque_name", "naming.derive")
    tracer.patch(service, "materialize_layout", "placement.materialize")

    def count_rows(result):
        tracer.count("metadata.rows_returned", len(result[0]))

    tracer.patch(MetadataStore, "get_by_id", "metadata.get_by_id")
    tracer.patch(MetadataStore, "list_by_owner", "metadata.list", on_result=count_rows)
    tracer.patch(MetadataStore, "list_all", "metadata.list_all", on_result=count_rows)
    tracer.patch(metadata, "check_consistency", "metadata.check_consistency")

    from_dict = DocumentRecord.from_dict.__func__

    def counted_from_dict(cls, d):
        tracer.count("metadata.from_dict")
        return from_dict(cls, d)

    DocumentRecord.from_dict = classmethod(counted_from_dict)

    def count_entries(result):
        tracer.count("journal.items.entries", len(result))

    tracer.patch(JournalStore, "__init__", "journal.replay")
    tracer.patch(JournalStore, "get", "journal.get")
    tracer.patch(JournalStore, "put", "journal.put")
    tracer.patch(JournalStore, "delete", "journal.delete")
    tracer.patch(JournalStore, "items", "journal.items", on_result=count_entries)

    tracer.patch(os, "fsync", "storage.fsync")

    tracer.patch(delivery, "stream_document", "delivery.prepare")
    chunks = delivery.StreamResult.chunks

    def timed_chunks(result):
        it = chunks(result)
        while True:
            t0 = perf_counter()
            try:
                chunk = next(it)
            except StopIteration:
                return
            tracer.record("delivery.read", t0, perf_counter())
            yield chunk

    delivery.StreamResult.chunks = timed_chunks


def install_auditor_spans(tracer: Tracer) -> None:
    """Wrap each auditor probe (one ``requests.Session.get``) in the client."""
    import requests

    def tag_bytes(resp):
        tracer.count("auditor.hit" if resp.status_code == 200 else "auditor.miss")
        tracer.count(
            "auditor.bytes.hit" if resp.status_code == 200 else "auditor.bytes.miss",
            len(resp.content),
        )

    tracer.patch(requests.Session, "get", "auditor.probe", on_result=tag_bytes)

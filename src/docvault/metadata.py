"""Document records: metadata in the store, blobs in the filesystem.

Records carry everything needed to search, authorize, and verify a stored
document without touching the blob.  The public identifier (doc_id) is
deliberately distinct from the on-disk opaque name so no API surface ever
has to reveal a storage path.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import sys
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, asdict
from functools import cached_property
from pathlib import Path

from .errors import BlobMissing, DuplicateOpaqueName, InvalidCursor, StorageFailure
from .journal import JournalStore
from .naming import check_storage_name
from .placement import DENY_CONFIG_NAME, INDEX_PLACEHOLDER_NAME, open_blob, open_vault_dir

_DOC_PREFIX = "doc:"

DEFAULT_PAGE_SIZE = 100


@dataclass(frozen=True)
class DocumentRecord:
    doc_id: str
    owner: str
    original_filename: str
    media_type: str
    size_bytes: int
    upload_timestamp: int
    slot: int  # the timestamp the name derives from; upload_timestamp in older journals
    opaque_name: str  # the blob's name in the vault directory
    checksum: str  # lowercase hex sha256 of blob content

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DocumentRecord":
        """The record of a journal value, whose storage name must have the
        derived form; keys it does not name, such as the ``policy`` that
        older journals carry, are ignored."""
        return cls(
            doc_id=d["doc_id"],
            owner=d["owner"],
            original_filename=d["original_filename"],
            media_type=d["media_type"],
            size_bytes=d["size_bytes"],
            upload_timestamp=d["upload_timestamp"],
            slot=d.get("slot", d["upload_timestamp"]),
            opaque_name=check_storage_name(d["opaque_name"]),
            checksum=d["checksum"],
        )

    def public_dict(self) -> dict:
        """The fields safe to return to clients; no storage names, no paths."""
        return {
            "doc_id": self.doc_id,
            "owner": self.owner,
            "original_filename": self.original_filename,
            "media_type": self.media_type,
            "size_bytes": self.size_bytes,
            "upload_timestamp": self.upload_timestamp,
        }

    @cached_property
    def public_row(self) -> bytes:
        """``public_dict`` as the JSON bytes of a listing row or an upload reply."""
        return json.dumps(self.public_dict()).encode("utf-8")


def new_doc_id() -> str:
    return "d" + secrets.token_hex(12)


class MetadataStore:
    """Record store over the journal; one writer, many readers.

    The journal drives the indexes, under its ``view_lock``: ``rebuild`` derives
    them when the store attaches, and ``apply`` patches them after each durable
    put or delete.  They hold the live opaque names, the sorted (upload_timestamp,
    doc_id) keys of all records and of each owner's, which page listings with a
    bisect and a slice, and the newest slot per (owner, extension).  put_record
    checks that doc_id and opaque name are unique under the journal's ``lock``,
    which each writer holds across its fsync; no read takes it.  A record is
    decoded once, on its first read, into a map that only ``apply`` evicts
    from; start-up decodes nothing.
    """

    def __init__(self, journal: JournalStore):
        self._journal = journal
        self._records: dict[str, DocumentRecord] = {}
        journal.attach(self)

    def rebuild(self, items) -> None:
        """Index every ``doc:`` entry: one pass, then one sort per key list."""
        names, keys, owners, slots = set(), [], {}, {}
        for key, v in items:
            if key.startswith(_DOC_PREFIX):
                ts, owner, rendered = v["upload_timestamp"], v["owner"], v["opaque_name"]
                names.add(rendered)
                keys.append((ts, v["doc_id"]))
                owners.setdefault(owner, []).append(keys[-1])
                owner_ext, slot = (owner, rendered.partition(".")[2]), v.get("slot", ts)
                if slots.get(owner_ext, -1) < slot:
                    slots[owner_ext] = slot
        keys.sort()
        for owned in owners.values():
            owned.sort()
        self._by_name, self._keys, self._keys_by_owner, self._slots = names, keys, owners, slots

    def apply(self, key: str, old: dict | None, new: dict | None) -> None:
        """Patch the indexes for one journal change; ``old`` is None for a new
        key and ``new`` is None for a delete.  A delete never lowers a slot."""
        if not key.startswith(_DOC_PREFIX):
            return
        if old is not None:
            self._records.pop(old["doc_id"], None)
            self._by_name.discard(old["opaque_name"])
            index = (old["upload_timestamp"], old["doc_id"])
            owned = self._keys_by_owner[old["owner"]]
            for keys in (self._keys, owned):
                del keys[bisect_left(keys, index)]
            if not owned:
                del self._keys_by_owner[old["owner"]]
        if new is not None:
            ts, owner, rendered = new["upload_timestamp"], new["owner"], new["opaque_name"]
            self._by_name.add(rendered)
            insort(self._keys, (ts, new["doc_id"]))
            insort(self._keys_by_owner.setdefault(owner, []), (ts, new["doc_id"]))
            owner_ext, slot = (owner, rendered.partition(".")[2]), new.get("slot", ts)
            if self._slots.get(owner_ext, -1) < slot:
                self._slots[owner_ext] = slot

    def put_record(self, record: DocumentRecord) -> str:
        with self._journal.lock:
            if record.opaque_name in self._by_name:
                raise DuplicateOpaqueName(record.opaque_name)
            if self._journal.get(_DOC_PREFIX + record.doc_id) is not None:
                raise StorageFailure(f"doc_id collision: {record.doc_id}")
            self._journal.put(_DOC_PREFIX + record.doc_id, record.to_dict())
            self._records[record.doc_id] = record
        return record.doc_id

    def get_by_id(self, doc_id: str) -> DocumentRecord | None:
        record = self._records.get(doc_id)  # a hit never waits on a writer's fsync
        if record is None:
            with self._journal.view_lock:
                record = self._record(doc_id)
        return record

    def _record(self, doc_id: str) -> DocumentRecord | None:
        """The live record, decoded into the map on a miss; the caller holds
        ``view_lock``, so a record deleted meanwhile is never cached."""
        record = self._records.get(doc_id)
        if record is None:
            value = self._journal.get(_DOC_PREFIX + doc_id)
            if value is not None:
                record = self._records[doc_id] = DocumentRecord.from_dict(value)
        return record

    def name_taken(self, name: str) -> bool:
        """Whether a live record holds this storage name."""
        return name in self._by_name

    def last_slot(self, owner: str, extension: str) -> int:
        """The newest slot of (owner, extension) live at start or put since, or -1."""
        return self._slots.get((owner, extension), -1)

    def list_by_owner(
        self, owner: str, cursor: str | None = None, page_size: int = DEFAULT_PAGE_SIZE
    ) -> tuple[list[DocumentRecord], str | None]:
        """One page of the owner's records in (upload_timestamp, doc_id) order.

        ``cursor`` is the doc_id of the last row of the previous page; it
        must name a live record of this owner, or InvalidCursor is raised.
        """
        return self._page(owner, cursor, page_size)

    def list_all(
        self, cursor: str | None = None, page_size: int = DEFAULT_PAGE_SIZE
    ) -> tuple[list[DocumentRecord], str | None]:
        """As list_by_owner, over every record; any live doc_id is a cursor."""
        return self._page(None, cursor, page_size)

    def _page(
        self, owner: str | None, cursor: str | None, page_size: int
    ) -> tuple[list[DocumentRecord], str | None]:
        with self._journal.view_lock:
            keys = self._keys if owner is None else self._keys_by_owner.get(owner, [])
            start = 0
            if cursor:
                last = self._record(cursor)
                # Missing, deleted and foreign cursors fail alike: no existence oracle.
                if last is None or (owner is not None and last.owner != owner):
                    raise InvalidCursor(cursor)
                start = bisect_right(keys, (last.upload_timestamp, cursor))
            page = keys[start : start + page_size]
            rows = [self._record(doc_id) for _, doc_id in page]
            next_cursor = page[-1][1] if start + page_size < len(keys) else None
        return rows, next_cursor

    def delete_record(self, doc_id: str) -> bool:
        return self._journal.delete(_DOC_PREFIX + doc_id)


@dataclass(frozen=True)
class ConsistencyIssue:
    kind: str  # dangling-record, orphan-blob, size-mismatch, checksum-mismatch
    doc_id: str | None
    path: str
    detail: str


_PROTECTION_FILES = {DENY_CONFIG_NAME, INDEX_PLACEHOLDER_NAME}


def check_consistency(store: MetadataStore, vault_dir: str | Path) -> list[ConsistencyIssue]:
    """Referential sweep between the record store and the blob directory.

    Every record must resolve to a blob of matching size and checksum,
    reached as a download reaches it: by ``open_blob`` under one fd of the
    vault directory, so a symlink under a record's name is a dangling
    record.  Every other entry that is not a directory or a protection
    file, symlinks included, is an orphan blob: an upload cut short leaves
    one.
    """
    vault = Path(vault_dir)
    issues: list[ConsistencyIssue] = []
    records = {r.opaque_name: r for r in store.list_all(page_size=sys.maxsize)[0]}
    vault_fd = open_vault_dir(vault)
    try:
        for name, record in records.items():
            blob = str(vault / name)
            try:
                fd, size = open_blob(vault_fd, name)
            except BlobMissing as exc:
                issues.append(ConsistencyIssue("dangling-record", record.doc_id, blob, str(exc)))
                continue
            with open(fd, "rb") as fh:
                if size != record.size_bytes:
                    issues.append(
                        ConsistencyIssue(
                            "size-mismatch",
                            record.doc_id,
                            blob,
                            f"record says {record.size_bytes} bytes, blob has {size}",
                        )
                    )
                    continue
                h = hashlib.sha256()
                while chunk := fh.read(1 << 16):
                    h.update(chunk)
            if h.hexdigest() != record.checksum:
                issues.append(
                    ConsistencyIssue(
                        "checksum-mismatch", record.doc_id, blob, "sha256 differs from record"
                    )
                )
        with os.scandir(vault_fd) as entries:
            strays = sorted(
                entry.name for entry in entries
                if not entry.is_dir(follow_symlinks=False)
                and entry.name not in _PROTECTION_FILES
                and entry.name not in records
            )
    finally:
        os.close(vault_fd)
    issues.extend(
        ConsistencyIssue("orphan-blob", None, str(vault / name), "no record for blob")
        for name in strays
    )
    return issues

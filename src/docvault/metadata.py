"""Document records: metadata in the store, blobs in the filesystem.

Records carry everything needed to search, authorize, and verify a stored
document without touching the blob.  The public identifier (doc_id) is
deliberately distinct from the on-disk opaque name so no API surface ever
has to reveal a storage path.
"""

from __future__ import annotations

import hashlib
import secrets
import threading
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, asdict
from pathlib import Path

from .errors import DuplicateOpaqueName, InvalidCursor, StorageFailure
from .journal import JournalStore
from .naming import OpaqueName
from .placement import DENY_CONFIG_NAME, INDEX_PLACEHOLDER_NAME, PlacementPolicy

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
    opaque_name: OpaqueName
    checksum: str  # lowercase hex sha256 of blob content
    policy: PlacementPolicy

    def to_dict(self) -> dict:
        d = asdict(self)
        d["opaque_name"] = self.opaque_name.render()
        d["policy"] = self.policy.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DocumentRecord":
        return cls(
            doc_id=d["doc_id"],
            owner=d["owner"],
            original_filename=d["original_filename"],
            media_type=d["media_type"],
            size_bytes=d["size_bytes"],
            upload_timestamp=d["upload_timestamp"],
            opaque_name=OpaqueName.parse(d["opaque_name"]),
            checksum=d["checksum"],
            policy=PlacementPolicy(d["policy"]),
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


def new_doc_id() -> str:
    return "d" + secrets.token_hex(12)


class MetadataStore:
    """Record store over the journal; one writer, many readers.

    Uniqueness of doc_id and opaque_name is enforced under the journal's
    lock, so concurrent puts cannot both claim the same name.

    Listings page through a keyset index: the sorted (upload_timestamp,
    doc_id) keys of all records and of each owner's, kept current under the
    same lock.  A page is a bisect and a slice, and only the rows returned
    are decoded.
    """

    def __init__(self, journal: JournalStore):
        self._journal = journal
        self._by_name: dict[str, str] = {}  # rendered opaque name -> doc_id
        self._keys: list[tuple[int, str]] = []
        self._keys_by_owner: dict[str, list[tuple[int, str]]] = {}
        for _, value in journal.items(_DOC_PREFIX):
            self._by_name[value["opaque_name"]] = value["doc_id"]
            key = (value["upload_timestamp"], value["doc_id"])
            self._keys.append(key)
            self._keys_by_owner.setdefault(value["owner"], []).append(key)
        self._keys.sort()
        for keys in self._keys_by_owner.values():
            keys.sort()

    @property
    def lock(self) -> threading.RLock:
        return self._journal.lock

    def put_record(self, record: DocumentRecord) -> str:
        rendered = record.opaque_name.render()
        key = (record.upload_timestamp, record.doc_id)
        with self._journal.lock:
            if rendered in self._by_name:
                raise DuplicateOpaqueName(rendered)
            if self._journal.get(_DOC_PREFIX + record.doc_id) is not None:
                raise StorageFailure(f"doc_id collision: {record.doc_id}")
            self._journal.put(_DOC_PREFIX + record.doc_id, record.to_dict())
            self._by_name[rendered] = record.doc_id
            insort(self._keys, key)
            insort(self._keys_by_owner.setdefault(record.owner, []), key)
        return record.doc_id

    def get_by_id(self, doc_id: str) -> DocumentRecord | None:
        value = self._journal.get(_DOC_PREFIX + doc_id)
        return DocumentRecord.from_dict(value) if value else None

    def name_taken(self, rendered: str) -> bool:
        """Whether a live record holds this rendered opaque name."""
        return rendered in self._by_name

    def last_timestamp(self, owner: str, extension: str) -> int:
        """The newest upload_timestamp among the owner's records whose
        opaque name has this extension, or -1 without one: the walk starts
        at the end of the owner's keyset list and stops at the first match."""
        suffix = "." + extension
        with self._journal.lock:
            for ts, doc_id in reversed(self._keys_by_owner.get(owner, ())):
                if self._journal.get(_DOC_PREFIX + doc_id)["opaque_name"].endswith(suffix):
                    return ts
        return -1

    def get_by_opaque_name(self, name: OpaqueName) -> DocumentRecord | None:
        doc_id = self._by_name.get(name.render())
        return self.get_by_id(doc_id) if doc_id else None

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
        with self._journal.lock:
            keys = self._keys if owner is None else self._keys_by_owner.get(owner, [])
            start = 0
            if cursor:
                value = self._journal.get(_DOC_PREFIX + cursor)
                # Missing, deleted and foreign cursors fail alike: no existence oracle.
                if value is None or (owner is not None and value["owner"] != owner):
                    raise InvalidCursor(cursor)
                start = bisect_right(keys, (value["upload_timestamp"], cursor))
            page = keys[start : start + page_size]
            values = self._journal.get_many([_DOC_PREFIX + doc_id for _, doc_id in page])
            next_cursor = page[-1][1] if start + page_size < len(keys) else None
        return [DocumentRecord.from_dict(v) for v in values], next_cursor

    def delete_record(self, doc_id: str) -> bool:
        with self._journal.lock:
            value = self._journal.get(_DOC_PREFIX + doc_id)
            if value is None:
                return False
            self._journal.delete(_DOC_PREFIX + doc_id)
            self._by_name.pop(value["opaque_name"], None)
            key = (value["upload_timestamp"], doc_id)
            owned = self._keys_by_owner[value["owner"]]
            for keys in (self._keys, owned):
                del keys[bisect_left(keys, key)]
            if not owned:
                del self._keys_by_owner[value["owner"]]
            return True


@dataclass(frozen=True)
class ConsistencyIssue:
    kind: str  # "dangling-record", "orphan-blob", "size-mismatch", "checksum-mismatch"
    doc_id: str | None
    path: str
    detail: str


_PROTECTION_FILES = {DENY_CONFIG_NAME, INDEX_PLACEHOLDER_NAME}


def sha256_file(path: Path, chunk_size: int = 1 << 16) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(chunk_size):
            h.update(chunk)
    return h.hexdigest()


def check_consistency(store: MetadataStore, vault_dir: str | Path) -> list[ConsistencyIssue]:
    """Referential sweep between the record store and the blob directory.

    Every record must resolve to a blob of matching size and checksum;
    every non-artifact file in the vault must have exactly one record.
    """
    vault = Path(vault_dir)
    issues: list[ConsistencyIssue] = []
    recorded_names: set[str] = set()

    records, cursor = store.list_all(page_size=10_000)
    while True:
        for record in records:
            rendered = record.opaque_name.render()
            recorded_names.add(rendered)
            blob = vault / rendered
            if not blob.is_file():
                issues.append(
                    ConsistencyIssue("dangling-record", record.doc_id, str(blob), "blob missing")
                )
                continue
            actual_size = blob.stat().st_size
            if actual_size != record.size_bytes:
                issues.append(
                    ConsistencyIssue(
                        "size-mismatch",
                        record.doc_id,
                        str(blob),
                        f"record says {record.size_bytes} bytes, blob has {actual_size}",
                    )
                )
            elif sha256_file(blob) != record.checksum:
                issues.append(
                    ConsistencyIssue(
                        "checksum-mismatch", record.doc_id, str(blob), "sha256 differs from record"
                    )
                )
        if not cursor:
            break
        records, cursor = store.list_all(cursor=cursor, page_size=10_000)

    if vault.is_dir():
        for entry in sorted(vault.iterdir()):
            if entry.name in _PROTECTION_FILES or not entry.is_file():
                continue
            if entry.name not in recorded_names:
                issues.append(
                    ConsistencyIssue("orphan-blob", None, str(entry), "no record for blob")
                )

    return issues

"""Append-only journal backing the metadata and token stores.

Single-file, crash-safe key/value log.  Each line is one mutation:

    <crc32 hex 8>:<json payload>\n

where the payload is {"op": "put"|"del", "key": ..., "value": ...}.  On
open the whole file is replayed into an in-memory dict; a torn or corrupt
tail line (the only corruption a crashed append can leave) ends the replay,
so every acknowledged write before it survives.  That line and anything
after it are cut off the file before the next append, which would
otherwise be glued onto the fragment and lost at the next replay.  Writes
fsync before returning.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path

from .errors import StorageFailure


# _frame writes no whitespace around the JSON, so replay can skip what
# json.loads adds per call (encoding detection, whitespace matching): a
# third of replay time on these short lines.
_decode = json.JSONDecoder().raw_decode


def _frame(payload: dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return f"{crc:08x}:".encode("ascii") + body + b"\n"


class JournalStore:
    """Durable dict with atomic put/delete and kill-and-reopen recovery."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.lock = threading.RLock()  # shared with callers that need several steps atomic
        self._data: dict[str, dict] = {}
        self._stores: list = []
        self._fh = None
        self._open()

    def _open(self):
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            existed = self.path.exists()
            if existed:
                good = self._replay()
                if good < self.path.stat().st_size:
                    with open(self.path, "r+b") as fh:
                        fh.truncate(good)
                        os.fsync(fh.fileno())
            # the journal holds every storage name and token hash: owner only
            self._fh = os.fdopen(os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_CLOEXEC, 0o600
            ), "ab")
            if os.fstat(self._fh.fileno()).st_mode & 0o177:  # a journal made before 0600
                os.fchmod(self._fh.fileno(), 0o600)
            if not existed:  # the new journal's directory entry
                parent = os.open(self.path.parent, os.O_RDONLY | os.O_DIRECTORY | os.O_CLOEXEC)
                try:
                    os.fsync(parent)
                finally:
                    os.close(parent)
        except OSError as e:
            raise StorageFailure(f"cannot open store {self.path}: {e}")

    def _replay(self) -> int:
        """Apply each line before the first bad one; return the offset where they end."""
        good = 0
        with open(self.path, "rb") as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break  # torn tail write
                crc_hex, sep, body = line[:-1].partition(b":")
                if not sep or len(crc_hex) != 8:
                    break
                try:
                    if int(crc_hex, 16) != (zlib.crc32(body) & 0xFFFFFFFF):
                        break
                    text = body.decode("utf-8")
                    payload, end = _decode(text)
                except ValueError:  # JSONDecodeError and UnicodeDecodeError too
                    break
                if end != len(text):
                    break
                if payload["op"] == "put":
                    self._data[payload["key"]] = payload["value"]
                elif payload["op"] == "del":
                    self._data.pop(payload["key"], None)
                good += len(line)
        return good

    def _append(self, payload: dict):
        if self._fh is None:
            raise StorageFailure(f"store {self.path} is closed")
        frame = _frame(payload)
        try:
            self._fh.write(frame)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as e:
            raise StorageFailure(f"append to {self.path} failed: {e}")

    def attach(self, store) -> None:
        """Run ``store.rebuild(items)`` now and ``store.apply(key, old, new)`` after
        each durable put or delete, under the lock; None stands for no value."""
        with self.lock:
            store.rebuild(self._data.items())
            self._stores.append(store)

    def put(self, key: str, value: dict):
        with self.lock:
            self._append({"op": "put", "key": key, "value": value})
            old = self._data.get(key)
            self._data[key] = value
            for store in self._stores:
                store.apply(key, old, value)

    def delete(self, key: str) -> bool:
        with self.lock:
            if key not in self._data:
                return False
            self._append({"op": "del", "key": key, "value": None})
            old = self._data.pop(key)
            for store in self._stores:
                store.apply(key, old, None)
            return True

    def get(self, key: str) -> dict | None:
        with self.lock:
            return self._data.get(key)

    def items(self) -> list[tuple[str, dict]]:
        with self.lock:
            return list(self._data.items())

    def close(self):
        with self.lock:
            self._stores.clear()  # each attached store refers back to this one
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class ReadOnlyJournal(JournalStore):
    """The journal as it stands, for a check that must write nothing: a
    missing file reads as an empty store, a torn tail stays, a write raises."""

    def _open(self):
        try:
            self._replay()
        except FileNotFoundError:
            pass
        except OSError as e:
            raise StorageFailure(f"cannot read store {self.path}: {e}")

    def _append(self, payload: dict):
        raise StorageFailure(f"store {self.path} is open read-only")

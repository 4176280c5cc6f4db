"""Append-only journal backing the metadata and token stores.

Single-file, crash-safe key/value log.  Each line is one mutation:

    <crc32 hex 8>:<json payload>\n

where the payload is {"op": "put"|"del", "key": ..., "value": ...}.  On
open the whole file is replayed into an in-memory dict; a torn or corrupt
tail line (the only corruption a crashed append can leave) ends the replay,
so every acknowledged write before it survives.  That line and anything
after it are cut off the file before the next append, which would
otherwise be glued onto the fragment and lost at the next replay.  Writes
fsync before returning.  A write or fsync that fails is cut off the file
too, so a refused change never comes back at the next replay; after a
failed fsync or cut the journal refuses every write until it is reopened.
Another process may append to the same file (the CLI beside a running
service), so each append holds ``flock(LOCK_EX)`` across its write, fsync
and cut, and a cut removes only the bytes of its own line.
"""

from __future__ import annotations

import fcntl
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
        self.lock = threading.RLock()  # each writer's, across its append and fsync
        self.view_lock = threading.Lock()  # for _data and the stores; never held across I/O
        self._data: dict[str, dict] = {}
        self._stores: list = []
        self._fd: int | None = None
        self._failed = False  # a failed fsync or cut: every write raises until a reopen
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
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_CLOEXEC, 0o600
            )
            if os.fstat(self._fd).st_mode & 0o177:  # a journal made before 0600
                os.fchmod(self._fd, 0o600)
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
        if self._fd is None:
            raise StorageFailure(f"store {self.path} is closed")
        if self._failed:
            raise StorageFailure(f"store {self.path} refuses writes after a failed sync")
        frame = _frame(payload)
        written = 0
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX)  # no other line lands in or after this one
            while written < len(frame):  # O_APPEND: the rest of a short write follows it
                written += os.write(self._fd, frame[written:])
            os.fsync(self._fd)
        except OSError as e:
            # After a failed fsync the kernel may have dropped the dirty pages
            # and cleared the error, so a later fsync proves nothing.
            self._failed = written == len(frame)
            if written:
                try:  # O_APPEND left the offset just past what this line wrote
                    os.ftruncate(self._fd, os.lseek(self._fd, 0, os.SEEK_CUR) - written)
                    os.fsync(self._fd)
                except OSError:
                    self._failed = True
            raise StorageFailure(f"append to {self.path} failed: {e}") from None
        finally:
            fcntl.flock(self._fd, fcntl.LOCK_UN)

    def attach(self, store) -> None:
        """Run ``store.rebuild(items)`` now and ``store.apply(key, old, new)`` after
        each durable put or delete, under ``view_lock``; None stands for no value."""
        with self.view_lock:
            store.rebuild(self._data.items())
            self._stores.append(store)

    def put(self, key: str, value: dict):
        with self.lock:
            self._append({"op": "put", "key": key, "value": value})
            with self.view_lock:
                old = self._data.get(key)
                self._data[key] = value
                for store in self._stores:
                    store.apply(key, old, value)

    def delete(self, key: str) -> bool:
        with self.lock:
            if key not in self._data:
                return False
            self._append({"op": "del", "key": key, "value": None})
            with self.view_lock:
                old = self._data.pop(key)
                for store in self._stores:
                    store.apply(key, old, None)
            return True

    def get(self, key: str) -> dict | None:
        return self._data.get(key)  # one dict read, so it never waits on a writer

    def items(self) -> list[tuple[str, dict]]:
        with self.view_lock:
            return list(self._data.items())

    def close(self):
        with self.lock:
            self._stores.clear()  # each attached store refers back to this one
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

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

import gc
import hashlib
import json
import os
import random
import sys
import tempfile
import threading
import weakref
import zlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docvault.errors import DuplicateOpaqueName, InvalidCursor, StorageFailure
from docvault.journal import JournalStore, ReadOnlyJournal
from docvault.metadata import (
    ConsistencyIssue,
    DocumentRecord,
    MetadataStore,
    check_consistency,
    new_doc_id,
)
from docvault.service import list_body

from conftest import inode


def make_record(i: int = 0, owner: str = "alice", **kw) -> DocumentRecord:
    digest = hashlib.md5(f"{owner}-{i}".encode()).hexdigest()
    defaults = dict(
        doc_id=new_doc_id(),
        owner=owner,
        original_filename=f"file{i}.pdf",
        media_type="application/pdf",
        size_bytes=10,
        upload_timestamp=1_000_000 + i,
        opaque_name=f"{digest}.pdf",
        checksum=hashlib.sha256(b"x" * 10).hexdigest(),
    )
    defaults.update(kw)
    defaults.setdefault("slot", defaults["upload_timestamp"])
    return DocumentRecord(**defaults)


@pytest.fixture
def store(tmp_path):
    journal = JournalStore(tmp_path / "store.journal")
    yield MetadataStore(journal)
    journal.close()


class TestPutGet:
    def test_roundtrip(self, store):
        record = make_record()
        doc_id = store.put_record(record)
        assert store.get_by_id(doc_id) == record

    def test_duplicate_opaque_name(self, store):
        record = make_record()
        store.put_record(record)
        clone = make_record(doc_id=new_doc_id(), opaque_name=record.opaque_name)
        with pytest.raises(DuplicateOpaqueName):
            store.put_record(clone)

    def test_name_taken(self, store):
        record = make_record()
        store.put_record(record)
        assert store.name_taken(record.opaque_name)

    def test_absent_opaque_name(self, store):
        assert not store.name_taken("0" * 32 + ".pdf")

    def test_extension_is_part_of_the_name(self, store):
        record = make_record()
        store.put_record(record)
        assert not store.name_taken(record.opaque_name.removesuffix(".pdf") + ".txt")


class TestDurability:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "store.journal"
        record = make_record()
        with JournalStore(path) as journal:
            MetadataStore(journal).put_record(record)
        # simulated restart: a fresh process would do exactly this
        with JournalStore(path) as journal:
            assert MetadataStore(journal).get_by_id(record.doc_id) == record

    def test_journal_line_with_policy_replays(self, tmp_path):
        # journals written before records dropped their placement policy
        path = tmp_path / "store.journal"
        record = make_record()
        with JournalStore(path) as journal:
            journal.put("doc:" + record.doc_id, {**record.to_dict(), "policy": "denied-subdir"})
        with JournalStore(path) as journal:
            assert MetadataStore(journal).get_by_id(record.doc_id) == record

    def test_torn_tail_write_ignored(self, tmp_path):
        path = tmp_path / "store.journal"
        records = [make_record(i) for i in range(3)]
        with JournalStore(path) as journal:
            s = MetadataStore(journal)
            for r in records:
                s.put_record(r)
        # a crash mid-append leaves a partial last line
        with open(path, "ab") as fh:
            fh.write(b'deadbeef:{"op":"put","key":"doc:trunc')
        with JournalStore(path) as journal:
            s = MetadataStore(journal)
            for r in records:
                assert s.get_by_id(r.doc_id) == r

    @pytest.mark.parametrize("body", [
        b'{"key":"b","op":"put","value":{}} {}', b"not json", b"\xff{}",
    ])
    def test_replay_ends_at_a_line_that_is_not_one_json_value(self, tmp_path, body):
        path = tmp_path / "store.journal"
        with JournalStore(path) as journal:
            journal.put("a", {"n": 1})
        later = b'{"key":"c","op":"put","value":{}}'
        with open(path, "ab") as fh:
            for line in (body, later):  # both carry a valid CRC
                fh.write(b"%08x:%s\n" % (zlib.crc32(line), line))
        with JournalStore(path) as journal:
            assert journal.get("a") == {"n": 1}
            assert journal.get("b") is None and journal.get("c") is None

    def test_write_after_torn_tail_survives_kill_and_reopen(self, tmp_path):
        path = tmp_path / "store.journal"
        with JournalStore(path) as journal:
            journal.put("a", {"n": 1})
        good_size = path.stat().st_size
        # killed mid-append: the frame's first bytes reached the file
        with open(path, "ab") as fh:
            fh.write(b'deadbeef:{"op":"put","key":"torn')
        with JournalStore(path) as journal:
            assert path.stat().st_size == good_size  # fragment cut off before appending
            journal.put("b", {"n": 2})
        with JournalStore(path) as journal:
            assert journal.get("a") == {"n": 1}
            assert journal.get("b") == {"n": 2}

    def test_fresh_journal_is_owner_only(self, tmp_path):
        # it holds every storage name and token hash
        old = os.umask(0o022)
        try:
            JournalStore(tmp_path / "store.journal").close()
        finally:
            os.umask(old)
        assert (tmp_path / "store.journal").stat().st_mode & 0o777 == 0o600

    def test_new_journal_fsyncs_its_directory(self, tmp_path, fsynced):
        path = tmp_path / "state" / "store.journal"
        JournalStore(path).close()
        assert fsynced == [inode(path.parent)]
        JournalStore(path).close()  # an existing journal's entry is already durable
        assert fsynced == [inode(path.parent)]

    def test_existing_loose_journal_is_made_owner_only(self, tmp_path):
        # a journal made before new ones were created 0600
        path = tmp_path / "store.journal"
        with JournalStore(path) as journal:
            journal.put("a", {"n": 1})
        path.chmod(0o644)
        with ReadOnlyJournal(path):
            pass
        assert path.stat().st_mode & 0o777 == 0o644  # a check writes nothing
        with JournalStore(path) as journal:
            assert path.stat().st_mode & 0o777 == 0o600
            assert journal.get("a") == {"n": 1}

    def test_read_only_journal_writes_nothing(self, tmp_path):
        missing = tmp_path / "state" / "store.journal"
        with ReadOnlyJournal(missing) as journal:
            assert journal.items() == []
            with pytest.raises(StorageFailure):
                journal.put("a", {"n": 1})
        assert not missing.parent.exists()

        path = tmp_path / "store.journal"
        with JournalStore(path) as journal:
            journal.put("a", {"n": 1})
        with open(path, "ab") as fh:
            fh.write(b'deadbeef:{"op":"put","key":"torn')
        before = path.read_bytes()
        with ReadOnlyJournal(path) as journal:
            assert journal.items() == [("a", {"n": 1})]
            with pytest.raises(StorageFailure):
                journal.delete("a")
        assert path.read_bytes() == before  # the torn tail is left in place

    def test_delete_survives_reopen(self, tmp_path):
        path = tmp_path / "store.journal"
        record = make_record()
        with JournalStore(path) as journal:
            s = MetadataStore(journal)
            s.put_record(record)
            assert s.delete_record(record.doc_id)
        with JournalStore(path) as journal:
            assert MetadataStore(journal).get_by_id(record.doc_id) is None


class TestListing:
    def test_owner_filter_and_order(self, store):
        mine = [make_record(i, owner="alice") for i in (3, 1, 2)]
        for r in mine:
            store.put_record(r)
        store.put_record(make_record(9, owner="bob"))
        records, cursor = store.list_by_owner("alice")
        assert cursor is None
        assert [r.upload_timestamp for r in records] == sorted(
            r.upload_timestamp for r in mine
        )

    def test_unknown_owner_empty(self, store):
        assert store.list_by_owner("nobody") == ([], None)

    def test_pagination_matches_sort_oracle(self, store):
        rng = random.Random(7)
        all_records = []
        for i in rng.sample(range(1000), 250):
            r = make_record(i, owner="carol")
            store.put_record(r)
            all_records.append(r)

        pages, cursor, n_pages = [], None, 0
        while True:
            page, cursor = store.list_by_owner("carol", cursor=cursor, page_size=100)
            pages.extend(page)
            n_pages += 1
            if cursor is None:
                break
        oracle = sorted(all_records, key=lambda r: (r.upload_timestamp, r.doc_id))
        assert n_pages == 3
        assert pages == oracle

    @pytest.mark.parametrize("kind", ["never-existed", "other-owner", "deleted"])
    def test_cursor_outside_the_listing_is_invalid(self, store, kind):
        mine = [make_record(i, owner="alice") for i in range(5)]
        for r in mine:
            store.put_record(r)
        theirs = make_record(9, owner="bob")
        store.put_record(theirs)
        cursor = {"never-existed": new_doc_id(), "other-owner": theirs.doc_id,
                  "deleted": mine[1].doc_id}[kind]
        page, _ = store.list_by_owner("alice", page_size=2)
        if kind == "deleted":
            assert page[-1].doc_id == cursor
            store.delete_record(cursor)
        with pytest.raises(InvalidCursor):
            store.list_by_owner("alice", cursor=cursor, page_size=2)

    def test_list_all_takes_any_live_record_as_cursor(self, store):
        records = [make_record(i, owner=o) for i, o in enumerate(["a", "b", "a", "b"])]
        for r in records:
            store.put_record(r)
        assert store.list_all(cursor=records[1].doc_id) == (records[2:], None)
        store.delete_record(records[1].doc_id)
        for cursor in (records[1].doc_id, new_doc_id()):
            with pytest.raises(InvalidCursor):
                store.list_all(cursor=cursor)


OWNERS = ("alice", "bob", "carol")
# ("put", owner, timestamp) or ("del", index into the records put so far)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(OWNERS), st.integers(0, 15)),
        st.tuples(st.just("del"), st.integers(0, 1 << 16)),
    ),
    max_size=40,
)


def _walk(list_page, page_size: int) -> list[DocumentRecord]:
    rows, cursor = [], None
    while True:
        page, cursor = list_page(cursor, page_size)
        assert len(page) <= page_size
        rows += page
        if cursor is None:
            return rows
        assert cursor == page[-1].doc_id


def _check_listings(store, live: dict, put: list, page_size: int):
    """Every walk and every cursor agree with the (upload_timestamp, doc_id) sort."""
    oracle = sorted(live.values(), key=lambda r: (r.upload_timestamp, r.doc_id))
    listings = [(None, lambda c, n: store.list_all(c, n), oracle)]
    for owner in OWNERS:
        listings.append((owner, lambda c, n, o=owner: store.list_by_owner(o, c, n),
                         [r for r in oracle if r.owner == owner]))
    for owner, list_page, expected in listings:
        assert _walk(list_page, page_size) == expected
        for r in put:
            if r.doc_id in live and owner in (None, r.owner):
                after = expected[expected.index(r) + 1:]
                cursor = after[page_size - 1].doc_id if len(after) > page_size else None
                assert list_page(r.doc_id, page_size) == (after[:page_size], cursor)
            else:
                with pytest.raises(InvalidCursor):
                    list_page(r.doc_id, page_size)


class TestKeysetIndex:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS, page_size=st.integers(1, 6))
    def test_walks_match_sort_oracle_before_and_after_reopen(self, ops, page_size):
        live: dict[str, DocumentRecord] = {}
        put: list[DocumentRecord] = []
        # durability is not under test here; each fsync would cost milliseconds
        with tempfile.TemporaryDirectory() as tmp, mock.patch("os.fsync"):
            path = Path(tmp) / "store.journal"
            with JournalStore(path) as journal:
                store = MetadataStore(journal)
                for op in ops:
                    if op[0] == "put":
                        i = len(put)
                        r = make_record(i, owner=op[1], upload_timestamp=op[2],
                                        doc_id="d" + hashlib.md5(b"%d" % i).hexdigest()[:8])
                        store.put_record(r)
                        live[r.doc_id] = r
                        put.append(r)
                    elif put:
                        r = put[op[1] % len(put)]
                        assert store.delete_record(r.doc_id) == (r.doc_id in live)
                        live.pop(r.doc_id, None)
                _check_listings(store, live, put, page_size)
            with JournalStore(path) as journal:
                _check_listings(MetadataStore(journal), live, put, page_size)


class TestConcurrentIndex:
    def test_walks_and_index_hold_under_concurrent_writes(self, store, monkeypatch):
        monkeypatch.setattr("os.fsync", lambda fd: None)  # churn, not durability
        stable = [make_record(i, owner="stable") for i in range(0, 3000, 100)]
        for r in stable:
            store.put_record(r)
        kept, errors, done = [], [], threading.Event()

        def churn(owner):
            # puts at random timestamps among the stable rows, and deletes a
            # random live one, so walks meet cursors deleted between pages
            rng, live, n = random.Random(owner), [], 0
            try:
                while not done.is_set():
                    r = make_record(n, owner=owner, upload_timestamp=1_000_000 + rng.randrange(3000))
                    store.put_record(r)
                    live.append(r)
                    n += 1
                    if len(live) > 20:
                        assert store.delete_record(live.pop(rng.randrange(len(live))).doc_id)
            except Exception as e:  # reported by the main thread
                errors.append(e)
            kept.extend(live)

        def walk():
            try:
                for _ in range(30):
                    rows, cursor = [], None
                    try:
                        while True:
                            page, cursor = store.list_all(cursor, 4)
                            rows += page
                            if cursor is None:
                                break
                    except InvalidCursor:
                        continue  # its cursor row was deleted: start over
                    keys = [(r.upload_timestamp, r.doc_id) for r in rows]
                    assert keys == sorted(keys)
                    # an early end at a deleted cursor would miss some of these
                    assert set(stable) <= set(rows)
            except Exception as e:
                errors.append(e)

        churners = [threading.Thread(target=churn, args=(f"c{k}",)) for k in range(4)]
        walkers = [threading.Thread(target=walk) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in churners + walkers:
                t.start()
            for t in walkers:
                t.join(timeout=60)
            done.set()
            for t in churners:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in churners + walkers)
        assert errors == []
        oracle = sorted(stable + kept, key=lambda r: (r.upload_timestamp, r.doc_id))
        assert _walk(lambda c, n: store.list_all(c, n), 7) == oracle
        for owner in ["stable", "c0", "c3"]:
            assert _walk(lambda c, n: store.list_by_owner(owner, c, n), 7) == [
                r for r in oracle if r.owner == owner]


class TestDelete:
    def test_delete_then_get(self, store):
        record = make_record()
        store.put_record(record)
        assert store.delete_record(record.doc_id)
        assert store.get_by_id(record.doc_id) is None
        assert not store.name_taken(record.opaque_name)

    def test_delete_absent(self, store):
        assert not store.delete_record("dmissing")

    def test_name_reusable_after_delete(self, store):
        record = make_record()
        store.put_record(record)
        store.delete_record(record.doc_id)
        store.put_record(make_record(doc_id=new_doc_id(), opaque_name=record.opaque_name))


class TestJournalHook:
    def test_journal_writes_reach_an_attached_store(self, tmp_path):
        with JournalStore(tmp_path / "store.journal") as journal:
            store = MetadataStore(journal)
            record = make_record()
            journal.put("doc:" + record.doc_id, record.to_dict())
            assert store.list_all() == ([record], None)
            assert store.get_by_id(record.doc_id) == record
            assert store.name_taken(record.opaque_name)

            moved = make_record(7, doc_id=record.doc_id, original_filename="moved.pdf")
            journal.put("doc:" + record.doc_id, moved.to_dict())
            assert store.list_all() == ([moved], None)
            assert store.get_by_id(record.doc_id) == moved
            assert not store.name_taken(record.opaque_name)
            assert store.name_taken(moved.opaque_name)

            assert journal.delete("doc:" + record.doc_id)
            assert store.list_all() == ([], None)
            assert store.list_by_owner("alice") == ([], None)
            assert store.get_by_id(record.doc_id) is None
            assert not store.name_taken(moved.opaque_name)

    def test_two_stores_on_one_journal_list_the_same_rows(self, tmp_path):
        records = [make_record(i, owner=f"o{i % 2}") for i in range(4)]
        with JournalStore(tmp_path / "store.journal") as journal:
            first = MetadataStore(journal)
            first.put_record(records[0])
            second = MetadataStore(journal)
            first.put_record(records[1])
            second.put_record(records[2])
            second.put_record(records[3])
            assert first.delete_record(records[1].doc_id)
            for store in (first, second):
                assert store.list_all() == ([records[0], records[2], records[3]], None)
                assert store.list_by_owner("o1") == ([records[3]], None)
                assert not store.name_taken(records[1].opaque_name)


    def test_put_after_close_raises_storage_failure(self, tmp_path):
        journal = JournalStore(tmp_path / "store.journal")
        journal.close()
        with pytest.raises(StorageFailure, match="closed"):
            journal.put("k", {"v": 1})
        assert journal.get("k") is None

    def test_closed_journal_is_freed_by_refcount(self, tmp_path):
        gc.disable()
        try:
            journal = JournalStore(tmp_path / "store.journal")
            MetadataStore(journal)
            journal.close()
            ref = weakref.ref(journal)
            del journal
            assert ref() is None  # no cycle left for the collector
        finally:
            gc.enable()


class TestRecordMap:
    def test_each_record_is_decoded_once(self, tmp_path, monkeypatch):
        path = tmp_path / "store.journal"
        stored = [make_record(i) for i in range(5)]
        with JournalStore(path) as journal:
            for r in stored:
                journal.put("doc:" + r.doc_id, r.to_dict())
        decoded = []
        from_dict = DocumentRecord.from_dict.__func__

        def counting(cls, d):
            decoded.append(d["doc_id"])
            return from_dict(cls, d)

        monkeypatch.setattr(DocumentRecord, "from_dict", classmethod(counting))
        with JournalStore(path) as journal:
            store = MetadataStore(journal)
            assert decoded == []  # start-up decodes nothing
            assert store.list_all(None, 3) == (stored[:3], stored[2].doc_id)
            assert store.get_by_id(stored[0].doc_id) == stored[0]
            assert store.list_all(stored[2].doc_id, 3) == (stored[3:], None)
            assert store.list_by_owner("alice") == (stored, None)
            put = make_record(9)
            store.put_record(put)
            assert store.get_by_id(put.doc_id) is put
        assert sorted(decoded) == sorted(r.doc_id for r in stored)

    def test_a_read_racing_a_delete_caches_nothing(self, tmp_path, monkeypatch):
        """The delete starts while the read decodes the record it read from
        the journal; the read may return it, but must not cache it."""
        record = make_record()
        journal = JournalStore(tmp_path / "store.journal")
        journal.put("doc:" + record.doc_id, record.to_dict())
        store = MetadataStore(journal)
        deleter = threading.Thread(target=store.delete_record, args=(record.doc_id,))
        from_dict = DocumentRecord.from_dict.__func__

        def deleting(cls, d):
            deleter.start()
            deleter.join(timeout=0.2)  # it ends here unless the read holds the lock
            return from_dict(cls, d)

        monkeypatch.setattr(DocumentRecord, "from_dict", classmethod(deleting))
        try:
            assert store.get_by_id(record.doc_id) in (None, record)
            deleter.join(timeout=5)
            assert not deleter.is_alive()
            assert store.get_by_id(record.doc_id) is None
        finally:
            journal.close()

    def test_walks_and_reads_beside_puts_and_deletes(self, tmp_path, monkeypatch):
        """Walks over a store whose records are still undecoded see complete
        pages in key order beside a writer, and no deleted record is left
        in the map."""
        monkeypatch.setattr("os.fsync", lambda fd: None)  # churn, not durability
        path = tmp_path / "store.journal"
        cold = [make_record(i, owner=f"o{i % 2}") for i in range(0, 400, 2)]
        with JournalStore(path) as journal:
            for r in cold:
                journal.put("doc:" + r.doc_id, r.to_dict())
        journal = JournalStore(path)
        store = MetadataStore(journal)  # every cold record is still undecoded
        every = {r.doc_id: r for r in cold}
        deleted, errors, done = set(), [], threading.Event()
        target = [cold[0]]  # the cold record the writer deletes next

        def write():
            rng = random.Random(1)
            try:
                for n, r in enumerate(cold[::2]):
                    fresh = make_record(1 + 2 * n, owner=f"o{n % 2}")
                    every[fresh.doc_id] = fresh
                    store.put_record(fresh)
                    target[0] = r
                    for gone in (r, fresh) if rng.random() < 0.5 else (r,):
                        assert store.delete_record(gone.doc_id)
                        deleted.add(gone.doc_id)
            except Exception as e:  # reported by the main thread
                errors.append(e)
            finally:
                done.set()

        def read():
            try:
                while not done.is_set():
                    r = target[0]
                    assert store.get_by_id(r.doc_id) in (None, r)
            except Exception as e:
                errors.append(e)

        def walk(list_page):
            try:
                while not done.is_set():
                    keys, cursor = [], None
                    try:
                        while True:
                            page, cursor = list_page(cursor, 5)
                            assert cursor is None or len(page) == 5
                            assert all(row == every[row.doc_id] for row in page)
                            keys += [(row.upload_timestamp, row.doc_id) for row in page]
                            if cursor is None:
                                break
                    except InvalidCursor:
                        continue  # its cursor row was deleted: start over
                    assert keys == sorted(set(keys))
            except Exception as e:
                errors.append(e)

        threads = [threading.Thread(target=write), threading.Thread(target=read),
                   threading.Thread(target=walk, args=(store.list_all,)),
                   threading.Thread(target=walk, args=(lambda c, n: store.list_by_owner("o1", c, n),))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            journal.close()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        live = sorted((r for r in every.values() if r.doc_id not in deleted),
                      key=lambda r: (r.upload_timestamp, r.doc_id))
        assert _walk(lambda c, n: store.list_all(c, n), 7) == live
        for doc_id in deleted:
            assert store.get_by_id(doc_id) is None

    @settings(max_examples=30, deadline=None)
    @given(names=st.lists(st.text(st.one_of(st.characters(blacklist_categories=("Cs",)),
                                            st.sampled_from('"\\/\'')), max_size=12),
                          min_size=1, max_size=7),
           page_size=st.integers(1, 3))
    def test_list_bodies_match_json_dumps(self, names, page_size):
        """Bodies joined from the encoded rows are the bytes json.dumps gives
        for the same page, from rows put and from rows decoded after a reopen."""
        with tempfile.TemporaryDirectory() as tmp, mock.patch("os.fsync"):
            path = Path(tmp) / "store.journal"
            with JournalStore(path) as journal:
                store = MetadataStore(journal)
                for i, name in enumerate(names):
                    store.put_record(make_record(i, owner=f"o{i % 2}", original_filename=name))
                _check_bodies(store, page_size)
            with JournalStore(path) as journal:
                _check_bodies(MetadataStore(journal), page_size)


def _check_bodies(store, page_size: int):
    for list_page in (lambda c: store.list_all(c, page_size),
                      lambda c: store.list_by_owner("o0", c, page_size)):
        cursor = None
        while True:
            rows, next_cursor = list_page(cursor)
            assert list_body(rows, next_cursor) == json.dumps(
                {"documents": [r.public_dict() for r in rows], "next_cursor": next_cursor}
            ).encode("utf-8")
            if (cursor := next_cursor) is None:
                break


class TestConcurrentPuts:
    def test_no_double_claim(self, store):
        name = "ab" * 16 + ".pdf"
        outcomes = []

        def worker():
            try:
                store.put_record(make_record(doc_id=new_doc_id(), opaque_name=name))
                outcomes.append("ok")
            except DuplicateOpaqueName:
                outcomes.append("dup")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("ok") == 1


class TestConsistencySweep:
    def _stored(self, store, vault, content: bytes, i: int = 0):
        record = make_record(
            i,
            size_bytes=len(content),
            checksum=hashlib.sha256(content).hexdigest(),
        )
        (vault / record.opaque_name).write_bytes(content)
        store.put_record(record)
        return record

    def test_clean_vault(self, store, tmp_path):
        vault = tmp_path / "vault"
        vault.mkdir()
        self._stored(store, vault, b"hello world")
        assert check_consistency(store, vault) == []

    def test_protection_artifacts_not_orphans(self, store, tmp_path):
        vault = tmp_path / "vault"
        vault.mkdir()
        (vault / ".htaccess").write_bytes(b"Order Deny,Allow\nDeny from all\n")
        (vault / "index.html").write_bytes(b"<html></html>")
        assert check_consistency(store, vault) == []

    def test_dangling_record(self, store, tmp_path):
        vault = tmp_path / "vault"
        vault.mkdir()
        record = self._stored(store, vault, b"data")
        (vault / record.opaque_name).unlink()
        issues = check_consistency(store, vault)
        assert [i.kind for i in issues] == ["dangling-record"]
        assert issues[0].doc_id == record.doc_id

    def test_orphan_blob(self, store, tmp_path):
        vault = tmp_path / "vault"
        vault.mkdir()
        (vault / ("c" * 32 + ".pdf")).write_bytes(b"stray")
        issues = check_consistency(store, vault)
        assert [i.kind for i in issues] == ["orphan-blob"]

    def test_checksum_mismatch_on_flipped_byte(self, store, tmp_path):
        vault = tmp_path / "vault"
        vault.mkdir()
        record = self._stored(store, vault, b"important bytes")
        blob = vault / record.opaque_name
        data = bytearray(blob.read_bytes())
        data[0] ^= 0xFF
        blob.write_bytes(bytes(data))
        issues = check_consistency(store, vault)
        assert [i.kind for i in issues] == ["checksum-mismatch"]

    def test_symlink_under_record_name_is_dangling(self, store, tmp_path):
        # the target holds the record's exact bytes, but a download refuses
        # the symlink, so fsck must too
        vault = tmp_path / "vault"
        vault.mkdir()
        record = self._stored(store, vault, b"same bytes")
        blob = vault / record.opaque_name
        target = tmp_path / "outside.pdf"
        blob.rename(target)
        blob.symlink_to(target)
        issues = check_consistency(store, vault)
        assert [(i.kind, i.doc_id, i.path) for i in issues] == [
            ("dangling-record", record.doc_id, str(blob))]

    def test_fifo_under_record_name_is_dangling(self, store, tmp_path):
        vault = tmp_path / "vault"
        vault.mkdir()
        record = self._stored(store, vault, b"data")
        blob = vault / record.opaque_name
        blob.unlink()
        os.mkfifo(blob)  # opening it for reading must not wait for a writer
        issues = check_consistency(store, vault)
        assert [i.kind for i in issues] == ["dangling-record"]

    def test_dangling_symlink_is_orphan(self, store, tmp_path):
        vault = tmp_path / "vault"
        vault.mkdir()
        self._stored(store, vault, b"hello world")
        (vault / ("e" * 32 + ".pdf")).symlink_to(tmp_path / "nowhere")
        (vault / "subdir").mkdir()
        issues = check_consistency(store, vault)
        assert [(i.kind, i.path) for i in issues] == [
            ("orphan-blob", str(vault / ("e" * 32 + ".pdf")))]

    def test_size_mismatch(self, store, tmp_path):
        vault = tmp_path / "vault"
        vault.mkdir()
        record = self._stored(store, vault, b"12345")
        (vault / record.opaque_name).write_bytes(b"123")
        issues = check_consistency(store, vault)
        assert [i.kind for i in issues] == ["size-mismatch"]
